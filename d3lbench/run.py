#!/usr/bin/env python3
"""The D3L benchmark: builds d3lbench from this checkout and runs a workload.

    python3 d3lbench/run.py --workload union-900 --seed 1 --seconds 10 --trace 0
    python3 d3lbench/run.py --selftest

Run from the root of a checkout. The build and every file a run writes stay
under .bench_build/ there; traced runs keep their spans in
.bench_build/traces/. Metric names and units are declared once, in
BENCHMARK.json: the run fails if the benchmark binary reports a metric set
other than the one declared for its mode. The last line of standard output
is the result JSON.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "d3lbench")
WORKLOADS = ("union-900", "remote-30", "zipf-900-c4", "build-open-900")

# Per-layer metrics a workload's traced run does not reach. A traced run
# lists every per-layer metric, so these read 0; the run fails if the binary
# measures one of them or leaves out any other.
RPC = ("rpc.profile_call_ms", "rpc.search_call_ms", "rpc.profile_overhead_ms",
       "rpc.search_overhead_ms", "rpc.bytes_per_query", "rpc.server_handle_ms")
CACHE = ("serving.cache_hit_ratio", "serving.cache_evictions")
UNREACHED = {
    "union-900": RPC + CACHE,  # in-process, cache bypassed
    "remote-30": CACHE,  # cache bypassed
    "zipf-900-c4": RPC,  # in-process
    "build-open-900": RPC + CACHE,  # in-process, cache bypassed
}


def build(env):
    """Configures once and builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True, env=env)


def checkout_env():
    """The environment with temporary files kept inside the checkout."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["unit"])
            for m in bench["per_layer" if trace else "end_to_end"]]


def check_metrics(measured, declared, unreached):
    """Problems with the measured names against the declared ones."""
    names = {name for name, _ in declared}
    problems = ["%s is not declared in BENCHMARK.json" % name
                for name in sorted(set(measured) - names)]
    problems += ["%s is listed as unreached but is not declared" % name
                 for name in sorted(set(unreached) - names)]
    problems += ["%s is listed as unreached but was measured" % name
                 for name in sorted(set(measured) & set(unreached))]
    problems += ["%s was not measured" % name for name, _ in declared
                 if name not in measured and name not in unreached]
    return problems


def report(raw, workload, trace):
    """Prints each metric with its unit and sample count, then the result
    JSON as the last line; returns whether the run is correct."""
    declared = declared_metrics(trace)
    unreached = UNREACHED[workload] if trace else ()
    measured = raw["metrics"]
    correct = raw["correct"]
    if correct:
        problems = check_metrics(measured, declared, unreached)
        for problem in problems:
            print("d3lbench: FAILED: %s" % problem, file=sys.stderr)
        correct = not problems
    metrics = {}
    for name, unit in declared:
        if name in measured:
            value, samples = measured[name]["value"], measured[name]["samples"]
        elif name in unreached:
            value, samples = 0, 0
        else:
            continue
        metrics[name] = {"value": value, "unit": unit}
        print("%-34s %14.6g %-8s%s" % (name, value, unit,
                                       " (n=%d)" % samples if samples else ""))
    attempted, failed = raw["attempted"], raw["failed"]
    print("%-34s %14.6g (failed %d of %d attempted)" %
          ("error_rate", failed / attempted if attempted else 0.0,
           failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("d3lbench: the d3l sources are not next to the benchmark "
              "(expected %s)" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    env = checkout_env()
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        print("d3lbench: build failed: %s" % e, file=sys.stderr)
        return 2

    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "d3lbench_selftest")],
                              env=env).returncode

    workdir = os.path.join(OUT, "work", "%s-%d" % (args.workload, os.getpid()))
    trace_out = os.path.join(OUT, "traces",
                             "%s-seed%d.jsonl" % (args.workload, args.seed))
    try:
        run = subprocess.run([
            os.path.join(BUILD, "d3lbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
            "--workdir", workdir,
            "--trace-out", trace_out,
        ], env=env, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = run.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("d3lbench: the benchmark binary printed no result (status %d)"
              % run.returncode, file=sys.stderr)
        return run.returncode or 1
    correct = report(raw, args.workload, args.trace)
    return run.returncode if run.returncode != 0 else (0 if correct else 1)


if __name__ == "__main__":
    sys.exit(main())
