// d3lbench: the D3L benchmark.
//
//   d3lbench --workload NAME --seed N --seconds S --trace 0|1
//            --workdir DIR [--trace-out FILE]
//
// Workloads: union-900, remote-30, zipf-900-c4, build-open-900 (see
// README.md next to this directory). Every input is generated from the
// seed. An untraced run measures the end-to-end metrics, a traced run the
// per-layer ones; both check every answer against a reference and print one
// JSON line, which run.py checks against BENCHMARK.json. Any failed
// operation or divergence exits with status 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "d3lbench: %s\nusage: d3lbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  d3lbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  if (args.workdir.empty()) return Usage("--workdir is required");
  if (args.trace_out.empty()) args.trace_out = args.workdir + "/trace.jsonl";

  d3lbench::Report report;
  d3lbench::Gate gate;
  std::filesystem::create_directories(args.workdir);
  if (args.workload == "union-900") {
    d3lbench::RunServedLake(args, /*zipf=*/false, report, gate);
  } else if (args.workload == "zipf-900-c4") {
    d3lbench::RunServedLake(args, /*zipf=*/true, report, gate);
  } else if (args.workload == "remote-30") {
    d3lbench::RunRemote(args, report, gate);
  } else if (args.workload == "build-open-900") {
    d3lbench::RunBuildOpen(args, report, gate);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  const bool correct = gate.ok() && report.failed() == 0;
  report.Print(correct);
  return correct ? 0 : 1;
}
