// The pieces every workload is assembled from: the run report, the seeded
// lake on disk, the build and cold-open paths, the closed-loop client, the
// correctness gate and the in-memory trace store.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "benchdata/synthetic_gen.h"
#include "core/query.h"
#include "obs/trace.h"
#include "serving/discovery_service.h"
#include "serving/search_backend.h"

namespace d3lbench {

namespace benchdata = d3l::benchdata;
namespace core = d3l::core;
namespace obs = d3l::obs;
namespace serving = d3l::serving;

inline constexpr size_t kTopK = 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;    ///< scratch space for CSVs and snapshots
  std::string trace_out;  ///< where a traced run writes its spans
};

/// A failed operation or a divergence from the reference: the run is
/// reported as incorrect and exits non-zero.
class Gate {
 public:
  void Fail(const std::string& what);
  bool ok() const { return failures_ == 0; }

 private:
  size_t failures_ = 0;
};

/// The metrics of one run and its final JSON line. Names and units are
/// declared once, in BENCHMARK.json: run.py checks the names this run
/// reported against it and attaches the units.
class Report {
 public:
  /// Records a metric once; recording a name twice, or a value that is not
  /// finite, is a programming error and aborts.
  void Add(const std::string& name, double value, size_t samples = 0);
  void CountAttempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t failed() const { return failed_; }
  /// One JSON line on stdout: correct, attempted, failed and each metric's
  /// value and sample count (0 where the metric is not a sampled statistic).
  void Print(bool correct) const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    size_t samples = 0;
  };
  std::vector<Entry> entries_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Wall-clock seconds since `t0`.
double SecondsSince(std::chrono::steady_clock::time_point t0);

/// VmHWM of this process in MiB.
double PeakRssMb();

/// Removes `remove_dir` (if given) and writes every dirty page back, so that
/// a timed phase starting next does not also pay for earlier phases' file
/// writes: on ext4 an fsync (SaveSnapshot makes one) can force them out.
void SettleDisk(const std::string& remove_dir = {});

/// A generated Synthetic lake written out as one CSV file per table.
struct LakeOnDisk {
  benchdata::GeneratedLake generated;
  std::string csv_dir;
  uint64_t csv_bytes = 0;
};

/// bench::MakeSynthetic(scale, seed), written to `csv_dir` (created).
LakeOnDisk MakeLakeOnDisk(double scale, uint64_t seed, const std::string& csv_dir,
                          Gate& gate);

/// What `d3l_snapshot build` does: CSV directory -> DataLake::LoadDirectory
/// -> IndexLake -> SaveSnapshot, each step under its own span.
struct Built {
  std::unique_ptr<d3l::DataLake> lake;
  std::unique_ptr<core::D3LEngine> engine;  ///< indexes `lake`
  double total_s = 0;
  uint64_t snapshot_bytes = 0;
};
Built BuildSnapshot(const std::string& csv_dir, const std::string& snapshot_path,
                    Gate& gate);

/// Watches the process-wide shared word-embedding model so a cold open can
/// assert that no engine (every engine holds the model) is still alive.
class ModelProbe {
 public:
  void Observe(const core::D3LEngine& engine);
  bool NoHolderAlive() const { return model_.expired(); }

 private:
  std::weak_ptr<const d3l::SubwordHashModel> model_;
};

/// Mapped snapshot open followed by the first ranking, with no engine
/// alive beforehand.
struct Opened {
  std::unique_ptr<serving::EngineBackend> backend;
  uint64_t first_hash = 0;
  double open_s = 0;         ///< EngineBackend::FromSnapshot
  double first_query_s = 0;  ///< the first Profile + Search
};
/// With `split_model` (traced runs), the shared word-embedding model is
/// first built alone under the span embedding.model_build and held through
/// the open, which then finds it built: the open span is the rest.
Opened ColdOpen(const std::string& snapshot_path, const d3l::Table& target,
                const ModelProbe& probe, Gate& gate,
                const d3l::SubwordModelOptions* split_model = nullptr);

/// Hash of the canonical serialization (core::SaveSearchResult) of a result
/// with its target profiles dropped: equal hashes mean byte-identical
/// rankings, distances, evidence vectors and candidate alignments.
uint64_t ResultHash(core::SearchResult result);

/// One client-observed query.
struct Served {
  uint32_t target = 0;  ///< index into the target table list
  uint64_t hash = 0;
};

struct LoopResult {
  std::vector<double> latency_ms;  ///< Submit to response, per query
  std::vector<Served> served;      ///< successful responses
  double window_s = 0;             ///< first Submit to last response
  size_t next_offset = 0;          ///< where a following loop should resume
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // QueryStats phase sums and cache outcomes over successful queries.
  double queue_s = 0;
  double profile_s = 0;
  double search_s = 0;
  uint64_t cache_hits = 0;
  std::vector<std::shared_ptr<const obs::Trace>> traces;
};

/// Adds `part` to `all`: samples, counts and measured windows accumulate;
/// the next offset is `part`'s.
void Append(LoopResult& all, LoopResult part);

struct LoopSpec {
  size_t clients = 1;      ///< closed-loop clients, one request outstanding each
  double seconds = 0;      ///< keep going at least this long ...
  size_t min_queries = 0;  ///< ... and at least this many queries ...
  size_t max_queries = SIZE_MAX;  ///< ... but never more than this many
  size_t offset = 0;  ///< position in the target sequence to start from
};

/// Closed loop: `spec.clients` threads each Submit the next target of
/// `sequence` (cyclically) and wait for its response before sending again.
LoopResult RunClosedLoop(serving::DiscoveryService& service,
                         const std::vector<const d3l::Table*>& targets,
                         const std::vector<uint32_t>& sequence, const LoopSpec& spec);

/// Reference answers for the distinct served targets, computed in parallel
/// by `reference` (hashing its result); every served hash must match. Also
/// returns mean precision/recall at kTopK over those targets against the
/// generator's ground truth.
struct Verified {
  std::unordered_map<uint32_t, uint64_t> reference;  ///< target -> result hash
  /// target -> (precision, recall) at kTopK
  std::unordered_map<uint32_t, std::pair<double, double>> quality;

  double Precision() const;
  double Recall() const;
  void Merge(const Verified& other);
};
using ReferenceFn =
    std::function<d3l::Result<core::SearchResult>(uint32_t target)>;
Verified VerifyServed(const std::vector<Served>& served,
                      const std::vector<const d3l::Table*>& targets,
                      const ReferenceFn& reference,
                      const std::function<std::string(uint32_t)>& table_name,
                      const benchdata::GroundTruth& truth, Gate& gate);

/// Spans recorded by the benchmark, kept in memory, summarized by span name
/// and written out as JSON lines when the run ends.
class TraceStore {
 public:
  void Add(const obs::Trace& trace);
  /// Summed self time (ms) of every span named `name`.
  double SelfMs(const std::string& name) const;
  /// Summed duration (ms) of every span named `name`.
  double TotalMs(const std::string& name) const;
  size_t Count(const std::string& name) const;
  void Write(const std::string& path) const;

 private:
  struct Agg {
    uint64_t self_ns = 0;
    uint64_t total_ns = 0;
    size_t count = 0;
  };
  void Walk(const obs::Span& span);
  std::map<std::string, Agg> agg_;
  std::vector<obs::Trace> traces_;
};

/// Runs `fn` as the root span `name` of a fresh trace, then files the trace.
template <typename Fn>
auto Traced(TraceStore& store, const char* name, Fn&& fn) {
  auto ctx = std::make_shared<obs::TraceContext>();
  struct Filer {
    TraceStore& store;
    std::shared_ptr<obs::TraceContext>& ctx;
    ~Filer() { store.Add(ctx->Snapshot()); }
  } filer{store, ctx};
  obs::ScopedSpan root(ctx, name);
  return fn();
}

}  // namespace d3lbench
