#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "common/hash.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "rpc/server.h"
#include "serving/backend_ref.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"
#include "stages.h"
#include "stats.h"

namespace d3lbench {

namespace {

using d3l::Table;

// The lakes are bench::MakeSynthetic's default-seed repository; the
// benchmark seed draws the queries. Lakes from other generator seeds differ
// in size by several percent, which would swamp the run-to-run spread.
constexpr uint64_t kLakeSeed = 42;
constexpr double kLakeScale = 1.0;        // 900 tables, 4,393 attributes
constexpr double kSmokeScale = 1.0 / 30;  // one base table: 30 tables
constexpr size_t kZipfSequence = 1 << 17;
constexpr double kZipfExponent = 1.0;
constexpr size_t kZipfCacheEntries = 64;  // fewer than the distinct targets
constexpr size_t kClients = 4;            // at most 4 requests outstanding
constexpr size_t kSetups = 5;             // set-ups per untraced query run
// The p99 needs kMinSamplesBeyond samples beyond it.
constexpr size_t kMinQueries = 1000;
// build-open-900: queries after each cold open, and cycles per untraced run
// (4 x 256 queries give the p99 its samples).
constexpr size_t kBurstQueries = 256;
constexpr size_t kMinCycles = 4;
constexpr size_t kSetupsPerCycle = 3;
// Queries per pass of the deterministic counters.
constexpr size_t kCountedQueries = 32;
constexpr double kMiB = 1024.0 * 1024.0;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return d3l::Mix64(seed * 0x9e3779b97f4a7c15ull + stream);
}

std::string Dir(const Args& args, const std::string& name) {
  return args.workdir + "/" + name;
}

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> v(n);
  std::iota(v.begin(), v.end(), 0u);
  return v;
}

/// Every table of the lake as a target, in a seeded order.
std::vector<uint32_t> Permutation(size_t n, uint64_t seed) {
  std::vector<uint32_t> v = Iota(n);
  d3l::Rng rng(seed);
  rng.Shuffle(&v);
  return v;
}

double MeanMs(double seconds_sum, size_t n) {
  return n == 0 ? 0.0 : seconds_sum * 1e3 / static_cast<double>(n);
}

/// What one set-up (query workloads) or build/open cycle (build-open-900)
/// measured besides the set-up time.
struct SetupSample {
  double build_s = 0;
  double first_answer_s = 0;
  uint64_t csv_bytes = 0;
  uint64_t snapshot_bytes = 0;
};

std::vector<double> Column(const std::vector<SetupSample>& samples,
                           double SetupSample::*field) {
  std::vector<double> v;
  for (const SetupSample& s : samples) v.push_back(s.*field);
  return v;
}

void ReportSetup(Report& r, const std::vector<double>& setup_s,
                 const std::vector<SetupSample>& samples) {
  const size_t n = samples.size();
  r.Add("setup_s", Median(setup_s), setup_s.size());
  r.Add("build_s", Median(Column(samples, &SetupSample::build_s)), n);
  r.Add("first_answer_ms", Median(Column(samples, &SetupSample::first_answer_s)) * 1e3, n);
  r.Add("snapshot_bytes_per_input_byte", static_cast<double>(samples.back().snapshot_bytes) /
                                             static_cast<double>(samples.back().csv_bytes));
}

void ReportQueries(Report& r, const LoopResult& loop, const Verified& v, Gate& gate) {
  const size_t n = loop.latency_ms.size();
  if (TailPercentile(n) < 99.0) {
    gate.Fail("only " + std::to_string(n) + " query samples; the p99 needs " +
              std::to_string(kMinQueries));
  }
  r.Add("query_p50_ms", Median(loop.latency_ms), n);
  r.Add("query_p99_ms", Percentile(loop.latency_ms, 99.0), n);
  r.Add("qps", static_cast<double>(loop.served.size()) / loop.window_s, n);
  r.Add("precision_at_20", v.Precision(), v.quality.size());
  r.Add("recall_at_20", v.Recall(), v.quality.size());
  r.Add("peak_rss_mb", PeakRssMb());
}

/// Program-reported parts of the build and open paths (IndexBuildStats,
/// SnapshotLoadStats, MemoryUsage), accumulated over a traced run.
struct ProgramStats {
  double index_profile_s = 0;
  double index_insert_s = 0;
  size_t builds = 0;
  double index_parse_s = 0;
  double forest_parse_s = 0;
  size_t opens = 0;
  double heap_mb = 0;
  double snapshot_mb = 0;

  void AddBuild(const Built& b) {
    index_profile_s += b.engine->build_stats().profile_seconds;
    index_insert_s += b.engine->build_stats().insert_seconds;
    snapshot_mb = static_cast<double>(b.snapshot_bytes) / kMiB;
    ++builds;
  }
  void AddOpen(const Opened& o) {
    if (!o.backend) return;
    const core::SnapshotLoadStats& ls = o.backend->engine().load_stats();
    index_parse_s += ls.index_parse_seconds;
    forest_parse_s += ls.forest_parse_seconds;
    heap_mb = static_cast<double>(o.backend->engine().indexes().MemoryUsage()) / kMiB;
    ++opens;
  }
};

/// Build and open layers: spans of the benchmark's calls, split further by
/// the program's own build and load statistics. A cold open is attributed as
/// model build + index parse (self) + forest parse + the rest of the open.
void ReportBuildOpenLayers(Report& r, const TraceStore& store, const ProgramStats& p) {
  auto mean_span = [&](const char* name) {
    const size_t n = store.Count(name);
    return n == 0 ? 0.0 : store.TotalMs(name) / static_cast<double>(n);
  };
  r.Add("table.csv_load_ms", mean_span("table.csv_load"), store.Count("table.csv_load"));
  r.Add("core.index_profile_ms", MeanMs(p.index_profile_s, p.builds), p.builds);
  r.Add("core.index_insert_ms", MeanMs(p.index_insert_s, p.builds), p.builds);
  r.Add("io.save_ms", mean_span("io.save"), store.Count("io.save"));
  const double model = mean_span("embedding.model_build");
  const double parse = MeanMs(p.index_parse_s, p.opens);
  const double forest = MeanMs(p.forest_parse_s, p.opens);
  r.Add("embedding.model_build_ms", model, store.Count("embedding.model_build"));
  r.Add("io.index_parse_ms", parse - forest, p.opens);
  r.Add("lsh.forest_parse_ms", forest, p.opens);
  r.Add("core.open_other_ms", mean_span("core.open") - parse, p.opens);
  r.Add("core.first_query_ms", mean_span("core.first_query"),
        store.Count("core.first_query"));
  r.Add("core.index_heap_mb", p.heap_mb);
  r.Add("io.snapshot_mb", p.snapshot_mb);
}

bool SameRows(const std::vector<core::PairDistances>& a,
              const std::vector<core::PairDistances>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].target_column != b[i].target_column ||
        a[i].attribute_id != b[i].attribute_id || a[i].d != b[i].d) {
      return false;
    }
  }
  return true;
}

/// The traced stage pipeline over `sequence` for `seconds`, the score split
/// against a whole ScoreCandidates call, and two counting passes whose
/// deterministic counters must repeat exactly.
void TraceStages(const core::D3LEngine& engine, const std::vector<const Table*>& targets,
                 const std::vector<uint32_t>& sequence, double seconds,
                 TraceStore& store, Report& r, Gate& gate) {
  static const char* const kStages[] = {
      "core.build_profile", "lsh.sign",   "core.subject_detect", "lsh.depth_counts",
      "lsh.collect_candidates", "core.union", "core.score", "core.rank"};
  std::unordered_map<uint32_t, uint64_t> direct;  // target -> D3LEngine::Search
  size_t n = 0;
  const auto start = std::chrono::steady_clock::now();
  while (n == 0 || SecondsSince(start) < seconds) {
    const uint32_t t = sequence[n % sequence.size()];
    StagedQuery q =
        Traced(store, "query", [&] { return StagedSearch(engine, *targets[t], kTopK); });
    const core::QueryTarget qt{q.result.target_profiles, q.result.target_sigs,
                               q.subject_col};
    // The whole call and the split alternate in going first, so neither
    // always runs on the caches the other warmed.
    Traced(store, "score_compare", [&] {
      std::vector<core::PairDistances> whole;
      std::vector<core::PairDistances> split;
      auto run_whole = [&] {
        obs::ScopedSpan span("core.score.whole");
        whole = engine.ScoreCandidates(qt, q.unions, engine.options().enabled);
      };
      if (n % 2 == 0) run_whole();
      split = SplitScore(engine, qt, q.unions);
      if (n % 2 == 1) run_whole();
      if (!SameRows(whole, split)) gate.Fail("the split score rows differ from ScoreCandidates");
    });
    if (direct.count(t) == 0) {
      auto res = engine.Search(*targets[t], kTopK);
      direct[t] = res.ok() ? ResultHash(std::move(*res)) : 0;
    }
    if (ResultHash(std::move(q.result)) != direct[t]) {
      gate.Fail("the staged pipeline diverged from D3LEngine::Search");
    }
    ++n;
  }
  const double nq = static_cast<double>(n);
  double attributed = 0;
  for (const char* stage : kStages) {
    const double ms = store.SelfMs(stage) / nq;
    attributed += ms;
    r.Add(std::string(stage) + "_ms", ms, n);
  }
  const double traced = store.TotalMs("query") / nq;
  r.Add("core.traced_query_ms", traced, n);
  r.Add("core.unattributed_ms", traced - attributed, n);
  double split = 0;
  for (const char* part :
       {"core.score.guards", "core.score.estimate", "core.score.distribution"}) {
    const double ms = store.SelfMs(part) / nq;
    split += ms;
    r.Add(std::string(part) + "_ms", ms, n);
  }
  r.Add("core.score.split_gap_ms", std::abs(split - store.TotalMs("core.score.whole") / nq),
        n);

  // Counting passes, untraced: the first queries of the sequence, twice.
  struct Counted {
    StageCounts stages;
    AllocCounts allocs;
    bool operator==(const Counted& o) const {
      return stages == o.stages && allocs.allocs == o.allocs.allocs &&
             allocs.bytes == o.allocs.bytes;
    }
  };
  auto pass = [&] {
    std::vector<Counted> out;
    for (size_t i = 0; i < std::min(kCountedQueries, sequence.size()); ++i) {
      const Table& target = *targets[sequence[i]];
      Counted c;
      const AllocCounts before = ThreadAllocs();
      {
        auto res = engine.Search(target, kTopK);
        const AllocCounts after = ThreadAllocs();
        c.allocs = {after.allocs - before.allocs, after.bytes - before.bytes};
      }
      c.stages = StagedSearch(engine, target, kTopK).counts;
      out.push_back(c);
    }
    return out;
  };
  const std::vector<Counted> first = pass();
  if (pass() != first) gate.Fail("deterministic per-query counters differ between passes");
  Counted sum;
  for (const Counted& c : first) {
    sum.stages.candidates += c.stages.candidates;
    sum.stages.rows += c.stages.rows;
    sum.stages.truncated += c.stages.truncated;
    sum.stages.candidate_tables += c.stages.candidate_tables;
    sum.stages.ranked_tables += c.stages.ranked_tables;
    sum.allocs.allocs += c.allocs.allocs;
    sum.allocs.bytes += c.allocs.bytes;
  }
  const double nc = static_cast<double>(first.size());
  r.Add("core.candidates_per_query", static_cast<double>(sum.stages.candidates) / nc,
        first.size());
  r.Add("core.rows_scored_per_query", static_cast<double>(sum.stages.rows) / nc,
        first.size());
  r.Add("core.truncated_lookups_per_query",
        static_cast<double>(sum.stages.truncated) / nc, first.size());
  r.Add("core.useful_ratio",
        static_cast<double>(sum.stages.ranked_tables) /
            static_cast<double>(std::max<uint64_t>(1, sum.stages.candidate_tables)),
        first.size());
  r.Add("alloc.allocs_per_query", static_cast<double>(sum.allocs.allocs) / nc,
        first.size());
  r.Add("alloc.bytes_per_query", static_cast<double>(sum.allocs.bytes) / nc,
        first.size());
}

// ---------------------------------------------------------------------------
// The query workloads: union-900, zipf-900-c4 and remote-30

/// What one query set-up leaves running: the lake, its targets, a cold-opened
/// engine over the whole lake and the backend the service serves from.
struct Deployment {
  virtual ~Deployment() = default;
  virtual const serving::SearchBackend& backend() const = 0;
  /// Checks served rankings against this deployment's reference answers.
  virtual Verified Verify(const LoopResult& loop, Gate& gate) = 0;
  /// Traced measurements of the deployment's own layers, after the service
  /// and stage breakdowns.
  virtual void TraceLayers(double /*seconds*/, TraceStore& /*store*/, Report& /*r*/,
                           Gate& /*gate*/) {}

  LakeOnDisk lake;
  std::unique_ptr<d3l::DataLake> loaded;  ///< the indexed tables; targets point here
  std::vector<const Table*> targets;
  std::vector<uint32_t> sequence;
  Opened opened;
  serving::DiscoveryServiceOptions service_options;
};

/// The part every query set-up shares: the seeded lake on disk, its build and
/// snapshot, the target sequence and a cold open of the snapshot.
bool SetUpLake(Deployment& d, double scale, const std::string& dir,
               const std::function<std::vector<uint32_t>(size_t)>& draw_sequence,
               bool trace, ModelProbe& probe, ProgramStats& prog, SetupSample& sample,
               Gate& gate) {
  d.lake = MakeLakeOnDisk(scale, kLakeSeed, dir + "/csv", gate);
  sample.csv_bytes = d.lake.csv_bytes;
  Built b = BuildSnapshot(dir + "/csv", dir + "/lake.d3l", gate);
  if (!gate.ok()) return false;
  sample.build_s = b.total_s;
  sample.snapshot_bytes = b.snapshot_bytes;
  prog.AddBuild(b);
  d.loaded = std::move(b.lake);
  for (const Table& t : d.loaded->tables()) d.targets.push_back(&t);
  d.sequence = draw_sequence(d.targets.size());
  const d3l::SubwordModelOptions wem = b.engine->options().wem;
  probe.Observe(*b.engine);
  b.engine.reset();
  d.opened = ColdOpen(dir + "/lake.d3l", *d.targets[d.sequence[0]], probe, gate,
                      trace ? &wem : nullptr);
  if (!gate.ok()) return false;
  sample.first_answer_s = d.opened.open_s + d.opened.first_query_s;
  prog.AddOpen(d.opened);
  d.service_options.trace_queries = false;  // on by default
  return true;
}

/// Traced and untraced services over one backend, served in alternating
/// blocks so both see the same conditions. The traced service supplies the
/// serving layer metrics; the latency ratio is the tracing overhead.
LoopResult TraceService(const Deployment& d, size_t clients, double seconds,
                        TraceStore& store, Report& r) {
  serving::DiscoveryServiceOptions options = d.service_options;
  options.trace_queries = false;
  serving::DiscoveryService untraced(&d.backend(), options);
  options.trace_queries = true;
  serving::DiscoveryService traced(&d.backend(), options);
  LoopResult on;
  LoopResult off;
  LoopSpec spec;
  spec.clients = clients;
  spec.seconds = 0.5;
  const auto start = std::chrono::steady_clock::now();
  while (on.attempted == 0 || SecondsSince(start) < seconds) {
    spec.offset = off.next_offset;
    Append(off, RunClosedLoop(untraced, d.targets, d.sequence, spec));
    spec.offset = on.next_offset;
    Append(on, RunClosedLoop(traced, d.targets, d.sequence, spec));
  }
  for (const auto& t : on.traces) store.Add(*t);
  const size_t n = on.attempted;
  r.Add("serving.queue_ms", MeanMs(on.queue_s, n), n);
  r.Add("serving.profile_ms", MeanMs(on.profile_s, n), n);
  r.Add("serving.search_ms", MeanMs(on.search_s, n), n);
  if (options.cache_capacity > 0) {
    r.Add("serving.cache_hit_ratio",
          static_cast<double>(on.cache_hits) / static_cast<double>(n), n);
    r.Add("serving.cache_evictions",
          static_cast<double>(traced.Stats().cache.evictions) / static_cast<double>(n), n);
  }
  r.Add("obs.trace_overhead_pct", 100.0 * Median(on.latency_ms) / Median(off.latency_ms),
        n);
  Append(on, std::move(off));
  return on;
}

using SetUpFn =
    std::function<std::unique_ptr<Deployment>(const std::string& dir, SetupSample& sample)>;

/// A deployment and the service in front of it.
struct Live {
  std::unique_ptr<Deployment> d;
  std::unique_ptr<serving::DiscoveryService> service;

  void Reset() {
    service.reset();  // before the backend it serves from
    d.reset();
  }
};

/// The measurement every query workload shares. An untraced run sets up
/// kSetups times, each time from an empty working directory with no engine
/// alive to a running service, and follows each set-up with its share of the
/// measured window, so set-up, build, open and query samples spread over the
/// whole run; it then reports the end-to-end metrics. A traced run sets up
/// once, under a span, and reports the per-layer metrics: the service
/// breakdown, the stage pipeline on the cold-opened engine, the deployment's
/// own layers, and the build and open paths of its set-up.
void RunQueryWorkload(const Args& args, size_t clients, const SetUpFn& set_up,
                      ModelProbe& probe, const ProgramStats& prog, Report& r, Gate& gate) {
  TraceStore store;
  Live live;
  std::vector<double> setup_s;
  std::vector<SetupSample> setups;
  LoopResult loop;
  Verified verified;
  LoopSpec spec;
  spec.clients = clients;
  const size_t n_setups = args.trace ? 1 : kSetups;
  std::string dir;
  for (size_t s = 0; s < n_setups && gate.ok(); ++s) {
    if (live.d) probe.Observe(live.d->opened.backend->engine());
    live.Reset();
    SettleDisk(dir);
    dir = Dir(args, "setup" + std::to_string(s));
    SetupSample sample;
    const auto t0 = std::chrono::steady_clock::now();
    auto go = [&] {
      live.d = set_up(dir, sample);
      if (!gate.ok()) return;
      live.service = std::make_unique<serving::DiscoveryService>(&live.d->backend(),
                                                                 live.d->service_options);
    };
    if (args.trace) {
      Traced(store, "setup", go);
    } else {
      go();
    }
    setup_s.push_back(SecondsSince(t0));
    setups.push_back(sample);
    std::fprintf(stderr, "d3lbench: set-up %zu: %.3f s, build %.3f s, first answer %.1f ms\n",
                 s, setup_s.back(), sample.build_s, sample.first_answer_s * 1e3);
    r.CountAttempts(2, gate.ok() ? 0 : 1);  // the build and the cold open
    if (!gate.ok() || args.trace) break;

    spec.seconds = args.seconds / static_cast<double>(n_setups);
    spec.min_queries = (kMinQueries + n_setups - 1) / n_setups;
    spec.offset = loop.next_offset;
    LoopResult part = RunClosedLoop(*live.service, live.d->targets, live.d->sequence, spec);
    verified.Merge(live.d->Verify(part, gate));
    Append(loop, std::move(part));
  }
  if (!gate.ok()) return;
  if (!args.trace) {
    r.CountAttempts(loop.attempted, loop.failed);
    ReportQueries(r, loop, verified, gate);
    ReportSetup(r, setup_s, setups);
    return;
  }

  Deployment& d = *live.d;
  live.service.reset();  // the traced breakdown brings its own services
  loop = TraceService(d, clients, args.seconds * 0.4, store, r);
  r.CountAttempts(loop.attempted, loop.failed);
  d.Verify(loop, gate);
  TraceStages(d.opened.backend->engine(), d.targets, d.sequence, args.seconds * 0.3, store,
              r, gate);
  d.TraceLayers(args.seconds * 0.3, store, r, gate);
  ReportBuildOpenLayers(r, store, prog);
  store.Write(args.trace_out);
}

/// union-900 and zipf-900-c4: the service serves the cold-opened engine.
struct LocalDeployment : Deployment {
  const serving::SearchBackend& backend() const override { return *opened.backend; }
  Verified Verify(const LoopResult& loop, Gate& gate) override {
    const core::D3LEngine& engine = opened.backend->engine();
    return VerifyServed(
        loop.served, targets, [&](uint32_t t) { return engine.Search(*targets[t], kTopK); },
        [&](uint32_t i) { return opened.backend->table_name(i); }, lake.generated.truth,
        gate);
  }
};

}  // namespace

void RunServedLake(const Args& args, bool zipf, Report& r, Gate& gate) {
  ModelProbe probe;
  ProgramStats prog;
  auto draw_sequence = [&](size_t n) {
    if (!zipf) return Permutation(n, SubSeed(args.seed, 1));
    // Zipf ranks mapped onto a seeded permutation of the lake's tables.
    const std::vector<uint32_t> perm = Permutation(n, SubSeed(args.seed, 2));
    ZipfSampler ranks(n, kZipfExponent, SubSeed(args.seed, 3));
    std::vector<uint32_t> sequence;
    for (size_t i = 0; i < kZipfSequence; ++i) sequence.push_back(perm[ranks.Next()]);
    return sequence;
  };
  auto set_up = [&](const std::string& dir, SetupSample& sample) {
    auto d = std::make_unique<LocalDeployment>();
    if (!SetUpLake(*d, kLakeScale, dir, draw_sequence, args.trace, probe, prog, sample,
                   gate)) {
      return std::unique_ptr<Deployment>(std::move(d));
    }
    d->service_options.num_threads = zipf ? kClients : 1;
    d->service_options.cache_capacity = zipf ? kZipfCacheEntries : 0;
    return std::unique_ptr<Deployment>(std::move(d));
  };
  RunQueryWorkload(args, zipf ? kClients : 1, set_up, probe, prog, r, gate);
}

// ---------------------------------------------------------------------------
// remote-30

namespace {

double SumCounters(const obs::MetricRegistry& registry, const std::string& name) {
  double sum = 0;
  for (const auto& c : registry.Snapshot().counters) {
    if (c.info.name == name) sum += static_cast<double>(c.value);
  }
  return sum;
}

double SumHistograms(const obs::MetricRegistry& registry, const std::string& name) {
  double sum = 0;
  for (const auto& h : registry.Snapshot().histograms) {
    if (h.info.name == name) sum += h.sum;
  }
  return sum;
}

double ClientBytes(const obs::MetricRegistry& registry) {
  return SumCounters(registry, "d3l_rpc_client_bytes_sent_total") +
         SumCounters(registry, "d3l_rpc_client_bytes_received_total");
}

/// Two shard servers on loopback behind a tcp: RemoteBackend; the reference
/// is the in-process ShardedEngine over the same manifest.
struct RemoteDeployment : Deployment {
  // Servers, clients and the service report into this registry; it
  // outlives them all.
  obs::MetricRegistry registry;
  std::string manifest;
  std::vector<std::unique_ptr<d3l::rpc::RpcServer>> servers;
  std::unique_ptr<serving::SearchBackend> remote;
  std::unique_ptr<serving::ShardedEngine> local;

  const serving::SearchBackend& backend() const override { return *remote; }

  Verified Verify(const LoopResult& loop, Gate& gate) override {
    if (!OpenLocal(gate)) return {};
    return VerifyServed(
        loop.served, targets, [&](uint32_t t) { return local->Search(*targets[t], kTopK); },
        [&](uint32_t i) { return local->table_name(i); }, lake.generated.truth, gate);
  }

  void TraceLayers(double seconds, TraceStore& store, Report& r, Gate& gate) override {
    if (OpenLocal(gate)) TraceRpc(seconds, store, r, gate);
  }

  /// Opened after set-up: a remote deployment does not need it to serve.
  bool OpenLocal(Gate& gate) {
    if (local) return true;
    serving::ShardedEngineOptions options;
    options.num_threads = 2;
    auto opened_local = serving::ShardedEngine::Open(manifest, options);
    if (!opened_local.ok()) {
      gate.Fail("ShardedEngine::Open: " + opened_local.status().ToString());
      return false;
    }
    local = std::move(*opened_local);
    return true;
  }

  /// RemoteBackend Profile and Search calls next to the same calls on the
  /// in-process ShardedEngine, then two passes of untraced calls whose wire
  /// bytes must repeat exactly.
  void TraceRpc(double seconds, TraceStore& store, Report& r, Gate& gate);
};

void RemoteDeployment::TraceRpc(double seconds, TraceStore& store, Report& r, Gate& gate) {
  const auto& mask = local->options().enabled;
  auto call_pair = [&](const Table& target) {
    auto rq = [&] {
      obs::ScopedSpan span("rpc.profile_call");
      return remote->Profile(target);
    }();
    auto lq = [&] {
      obs::ScopedSpan span("local.profile");
      return local->Profile(target);
    }();
    if (!rq.ok() || !lq.ok()) {
      gate.Fail("Profile failed: " + (rq.ok() ? lq.status() : rq.status()).ToString());
      return;
    }
    if (core::CanonicalTargetBytes(*rq) != core::CanonicalTargetBytes(*lq)) {
      gate.Fail("remote and in-process profiles differ for " + target.name());
    }
    auto rr = [&] {
      obs::ScopedSpan span("rpc.search_call");
      return remote->Search(std::move(*rq), kTopK, mask);
    }();
    auto lr = [&] {
      obs::ScopedSpan span("local.search");
      return local->Search(std::move(*lq), kTopK, mask);
    }();
    if (!rr.ok() || !lr.ok()) {
      gate.Fail("Search failed: " + (rr.ok() ? lr.status() : rr.status()).ToString());
      return;
    }
    if (ResultHash(std::move(*rr)) != ResultHash(std::move(*lr))) {
      gate.Fail("remote and in-process rankings differ for " + target.name());
    }
  };

  const double handle0 = SumHistograms(registry, "d3l_rpc_server_handle_seconds");
  size_t n = 0;
  const auto start = std::chrono::steady_clock::now();
  while (n == 0 || SecondsSince(start) < seconds) {
    const Table& target = *targets[sequence[n % sequence.size()]];
    Traced(store, "rpc_compare", [&] { call_pair(target); });
    ++n;
  }
  const double handle_s = SumHistograms(registry, "d3l_rpc_server_handle_seconds") - handle0;
  const double nq = static_cast<double>(n);
  const double profile_call = store.TotalMs("rpc.profile_call") / nq;
  const double search_call = store.TotalMs("rpc.search_call") / nq;
  r.Add("rpc.profile_call_ms", profile_call, n);
  r.Add("rpc.search_call_ms", search_call, n);
  r.Add("rpc.profile_overhead_ms", profile_call - store.TotalMs("local.profile") / nq, n);
  r.Add("rpc.search_overhead_ms", search_call - store.TotalMs("local.search") / nq, n);
  r.Add("rpc.server_handle_ms", handle_s * 1e3 / nq, n);

  // Untraced wire bytes per query (Profile + Search), twice.
  auto pass = [&] {
    std::vector<double> bytes;
    for (uint32_t t : sequence) {
      const double b0 = ClientBytes(registry);
      auto res = remote->Search(*targets[t], kTopK);
      if (!res.ok()) gate.Fail("remote search failed: " + res.status().ToString());
      bytes.push_back(ClientBytes(registry) - b0);
    }
    return bytes;
  };
  const std::vector<double> first = pass();
  if (pass() != first) gate.Fail("rpc bytes per query differ between passes");
  r.Add("rpc.bytes_per_query",
        std::accumulate(first.begin(), first.end(), 0.0) / static_cast<double>(first.size()),
        first.size());
}

/// Shards the set-up's lake and starts a server per shard and the remote
/// backend in front of them.
bool StartRemote(RemoteDeployment& d, const std::string& dir, Gate& gate) {
  serving::ShardingOptions sharding;
  sharding.num_shards = 2;
  auto shards = serving::BuildShards(*d.loaded, sharding, dir + "/shards");
  if (!shards.ok()) {
    gate.Fail("BuildShards: " + shards.status().ToString());
    return false;
  }
  d.manifest = shards->manifest_path;
  std::string spec = "tcp:";
  for (size_t s = 0; s < sharding.num_shards; ++s) {
    serving::ShardedEngineOptions subset;
    subset.num_threads = 1;
    subset.serve_shards = {s};
    auto engine = serving::ShardedEngine::Open(d.manifest, subset);
    if (!engine.ok()) {
      gate.Fail("ShardedEngine::Open: " + engine.status().ToString());
      return false;
    }
    d3l::rpc::RpcServerOptions server_options;
    server_options.num_workers = 1;
    server_options.registry = &d.registry;
    auto server = d3l::rpc::RpcServer::Start(
        std::shared_ptr<const serving::ShardedEngine>(std::move(*engine)), server_options);
    if (!server.ok()) {
      gate.Fail("RpcServer::Start: " + server.status().ToString());
      return false;
    }
    spec += (s ? "," : "") + (*server)->host() + ":" + std::to_string((*server)->port());
    d.servers.push_back(std::move(*server));
  }
  serving::OpenBackendOptions open_options;
  open_options.remote.num_threads = 2;
  open_options.remote.client.registry = &d.registry;
  auto remote = serving::OpenBackend(spec, open_options);
  if (!remote.ok()) {
    gate.Fail("OpenBackend(" + spec + "): " + remote.status().ToString());
    return false;
  }
  d.remote = std::move(*remote);
  return true;
}

}  // namespace

void RunRemote(const Args& args, Report& r, Gate& gate) {
  ModelProbe probe;
  ProgramStats prog;
  auto set_up = [&](const std::string& dir, SetupSample& sample) {
    auto d = std::make_unique<RemoteDeployment>();
    auto draw_sequence = [&](size_t n) { return Permutation(n, SubSeed(args.seed, 4)); };
    if (SetUpLake(*d, kSmokeScale, dir, draw_sequence, args.trace, probe, prog, sample,
                  gate) &&
        StartRemote(*d, dir, gate)) {
      d->service_options.num_threads = 1;
      d->service_options.cache_capacity = 0;
      d->service_options.registry = &d->registry;
    }
    return std::unique_ptr<Deployment>(std::move(d));
  };
  RunQueryWorkload(args, 1, set_up, probe, prog, r, gate);
}

// ---------------------------------------------------------------------------
// build-open-900

void RunBuildOpen(const Args& args, Report& r, Gate& gate) {
  ModelProbe probe;
  ProgramStats prog;
  TraceStore store;

  const std::string snapshot = Dir(args, "open.d3l");
  std::unique_ptr<LakeOnDisk> lake;
  std::unique_ptr<d3l::DataLake> target_lake;  // the first build's tables
  std::vector<const Table*> targets;
  std::vector<uint32_t> sequence;
  Verified verified;
  LoopResult queries;
  std::vector<double> setup_s;
  std::vector<SetupSample> cycles;
  const size_t min_cycles = args.trace ? kMinCycles - 1 : kMinCycles;
  const auto start = std::chrono::steady_clock::now();
  for (size_t cycle = 0;
       gate.ok() && (cycle < min_cycles || SecondsSince(start) < args.seconds); ++cycle) {
    // Set-up: only the seeded CSVs, each time from an empty directory;
    // building and opening are what is measured. Each cycle sets up again,
    // so the set-up samples spread over the run like the build and open
    // samples, and several times, because one set-up is short and its time
    // varies by a fifth from one to the next. The last set-up's CSVs are
    // built.
    for (size_t s = 0; s < kSetupsPerCycle && gate.ok(); ++s) {
      SettleDisk(lake ? lake->csv_dir : std::string());
      lake.reset();
      const auto t0 = std::chrono::steady_clock::now();
      lake = std::make_unique<LakeOnDisk>(MakeLakeOnDisk(
          kLakeScale, kLakeSeed, Dir(args, "csv" + std::to_string(setup_s.size())), gate));
      setup_s.push_back(SecondsSince(t0));
    }
    if (!gate.ok()) return;
    SetupSample sample;
    sample.csv_bytes = lake->csv_bytes;

    SettleDisk();
    Built b;
    auto do_build = [&] { b = BuildSnapshot(lake->csv_dir, snapshot, gate); };
    if (args.trace) {
      Traced(store, "build", do_build);
    } else {
      do_build();
    }
    r.CountAttempts(1, gate.ok() ? 0 : 1);
    if (!gate.ok()) return;
    sample.build_s = b.total_s;
    sample.snapshot_bytes = b.snapshot_bytes;
    if (args.trace) prog.AddBuild(b);
    if (!target_lake) {
      target_lake = std::move(b.lake);
      for (const Table& t : target_lake->tables()) targets.push_back(&t);
      sequence = Permutation(targets.size(), SubSeed(args.seed, 5));
    }
    // Each cycle's queries continue the seeded walk over the lake's tables;
    // its first target is the one the cold open answers first.
    const size_t offset = cycle * kBurstQueries;
    const Table& first = *targets[sequence[offset % sequence.size()]];
    auto built_answer = b.engine->Search(first, kTopK);
    const uint64_t built_hash = built_answer.ok() ? ResultHash(std::move(*built_answer)) : 0;
    const d3l::SubwordModelOptions wem = b.engine->options().wem;
    probe.Observe(*b.engine);
    b.engine.reset();
    b.lake.reset();

    if (args.trace) {
      // An extra, traced cold open: split into layers, and compared with the
      // untraced open below for the tracing cost.
      Opened traced;
      Traced(store, "open", [&] { traced = ColdOpen(snapshot, first, probe, gate, &wem); });
      if (!traced.backend) return;
      prog.AddOpen(traced);
      probe.Observe(traced.backend->engine());
    }
    Opened opened = ColdOpen(snapshot, first, probe, gate);
    r.CountAttempts(1, opened.backend ? 0 : 1);
    if (!opened.backend) return;
    if (opened.first_hash != built_hash) {
      gate.Fail("the cold-opened engine's first answer differs from the built engine's");
    }
    sample.first_answer_s = opened.open_s + opened.first_query_s;
    cycles.push_back(sample);
    std::fprintf(stderr, "d3lbench: cycle %zu: set-up %.3f s, build %.3f s, first answer %.1f ms\n",
                 cycle, setup_s.back(), sample.build_s, sample.first_answer_s * 1e3);

    // The first queries after the open, from four clients.
    serving::DiscoveryServiceOptions options;
    options.num_threads = kClients;
    options.cache_capacity = 0;
    options.trace_queries = args.trace;
    LoopSpec spec;
    spec.clients = kClients;
    spec.min_queries = kBurstQueries;
    spec.max_queries = kBurstQueries;
    spec.offset = offset;
    {
      serving::DiscoveryService service(opened.backend.get(), options);
      LoopResult burst = RunClosedLoop(service, targets, sequence, spec);
      r.CountAttempts(burst.attempted, burst.failed);
      const core::D3LEngine& engine = opened.backend->engine();
      verified.Merge(VerifyServed(
          burst.served, targets,
          [&](uint32_t t) { return engine.Search(*targets[t], kTopK); },
          [&](uint32_t i) { return opened.backend->table_name(i); },
          lake->generated.truth, gate));
      if (args.trace && cycle == 0) {
        TraceStages(engine, targets, sequence, 1.0, store, r, gate);
      }
      Append(queries, std::move(burst));
    }
    probe.Observe(opened.backend->engine());
  }
  if (!gate.ok()) return;

  if (!args.trace) {
    ReportQueries(r, queries, verified, gate);
    ReportSetup(r, setup_s, cycles);
    return;
  }
  const size_t n = queries.attempted;
  r.Add("serving.queue_ms", MeanMs(queries.queue_s, n), n);
  r.Add("serving.profile_ms", MeanMs(queries.profile_s, n), n);
  r.Add("serving.search_ms", MeanMs(queries.search_s, n), n);
  // Traced cold opens (model build, open, first query) against the
  // untraced cold opens of the same cycles.
  double untraced_s = 0;
  for (const SetupSample& c : cycles) untraced_s += c.first_answer_s;
  const double traced_ms = store.TotalMs("open") / static_cast<double>(store.Count("open"));
  r.Add("obs.trace_overhead_pct", 100.0 * traced_ms / MeanMs(untraced_s, cycles.size()),
        cycles.size());
  ReportBuildOpenLayers(r, store, prog);
  store.Write(args.trace_out);
}

}  // namespace d3lbench
