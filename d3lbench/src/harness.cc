#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <unistd.h>

#include "bench/bench_common.h"
#include "common/hash.h"
#include "eval/metrics.h"
#include "io/binary_io.h"
#include "stats.h"
#include "table/csv.h"

namespace d3lbench {

namespace fs = std::filesystem;

void Gate::Fail(const std::string& what) {
  ++failures_;
  std::fprintf(stderr, "d3lbench: FAILED: %s\n", what.c_str());
}

void Report::Add(const std::string& name, double value, size_t samples) {
  const bool twice = std::any_of(entries_.begin(), entries_.end(),
                                 [&](const Entry& e) { return e.name == name; });
  if (twice || !std::isfinite(value)) {
    std::fprintf(stderr, "d3lbench: metric %s recorded twice or not finite\n",
                 name.c_str());
    std::abort();
  }
  entries_.push_back({name, value, samples});
}

void Report::Print(bool correct) const {
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
    json << (i ? ", " : "") << "\"" << entries_[i].name << "\": {\"value\": " << value
         << ", \"samples\": " << entries_[i].samples << "}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

void SettleDisk(const std::string& remove_dir) {
  if (!remove_dir.empty()) fs::remove_all(remove_dir);
  ::sync();
}

LakeOnDisk MakeLakeOnDisk(double scale, uint64_t seed, const std::string& csv_dir,
                          Gate& gate) {
  LakeOnDisk out{d3l::bench::MakeSynthetic(scale, seed), csv_dir, 0};
  fs::create_directories(csv_dir);
  for (const d3l::Table& t : out.generated.lake.tables()) {
    const std::string path = csv_dir + "/" + t.name() + ".csv";
    const d3l::Status st = d3l::WriteCsvFile(t, path);
    if (!st.ok()) {
      gate.Fail("writing " + path + ": " + st.ToString());
      continue;
    }
    out.csv_bytes += fs::file_size(path);
  }
  return out;
}

Built BuildSnapshot(const std::string& csv_dir, const std::string& snapshot_path,
                    Gate& gate) {
  Built b;
  const auto t0 = std::chrono::steady_clock::now();
  d3l::Status st;
  {
    obs::ScopedSpan span("table.csv_load");
    b.lake = std::make_unique<d3l::DataLake>();
    st = b.lake->LoadDirectory(csv_dir);
  }
  if (!st.ok()) gate.Fail("LoadDirectory: " + st.ToString());
  {
    obs::ScopedSpan span("core.index_lake");
    b.engine = std::make_unique<core::D3LEngine>();
    st = b.engine->IndexLake(*b.lake);
  }
  if (!st.ok()) gate.Fail("IndexLake: " + st.ToString());
  {
    obs::ScopedSpan span("io.save");
    st = b.engine->SaveSnapshot(snapshot_path);
  }
  if (!st.ok()) gate.Fail("SaveSnapshot: " + st.ToString());
  b.total_s = SecondsSince(t0);
  std::error_code ec;
  b.snapshot_bytes = fs::file_size(snapshot_path, ec);
  return b;
}

void ModelProbe::Observe(const core::D3LEngine& engine) {
  // Returns the instance the engine already holds (the registry is keyed
  // by options); only the weak reference is kept.
  model_ = d3l::SharedSubwordModel(engine.options().wem);
}

Opened ColdOpen(const std::string& snapshot_path, const d3l::Table& target,
                const ModelProbe& probe, Gate& gate,
                const d3l::SubwordModelOptions* split_model) {
  if (!probe.NoHolderAlive()) {
    gate.Fail("an engine or word-embedding model outlived its owner before a cold open");
  }
  std::shared_ptr<const d3l::SubwordHashModel> model;
  if (split_model != nullptr) {
    obs::ScopedSpan span("embedding.model_build");
    model = d3l::SharedSubwordModel(*split_model);
  }
  Opened o;
  const auto t0 = std::chrono::steady_clock::now();
  auto backend = [&] {
    obs::ScopedSpan span("core.open");
    return serving::EngineBackend::FromSnapshot(snapshot_path);
  }();
  o.open_s = SecondsSince(t0);
  if (!backend.ok()) {
    gate.Fail("FromSnapshot: " + backend.status().ToString());
    return o;
  }
  o.backend = std::move(*backend);
  const auto t1 = std::chrono::steady_clock::now();
  auto first = [&] {
    obs::ScopedSpan span("core.first_query");
    return o.backend->Search(target, kTopK);
  }();
  o.first_query_s = SecondsSince(t1);
  if (!first.ok()) {
    gate.Fail("first query: " + first.status().ToString());
    return o;
  }
  o.first_hash = ResultHash(std::move(*first));
  return o;
}

uint64_t ResultHash(core::SearchResult result) {
  result.target_profiles.clear();
  result.target_sigs.clear();
  std::string bytes;
  d3l::io::Writer w;
  w.OpenBuffer(&bytes);
  w.BeginSection(d3l::io::SectionId("RSLT"));
  core::SaveSearchResult(w, result);
  w.EndSection().CheckOK();
  w.Finish().CheckOK();
  return d3l::HashBytes(bytes.data(), bytes.size(), 0x6433ull);
}

void Append(LoopResult& all, LoopResult part) {
  all.latency_ms.insert(all.latency_ms.end(), part.latency_ms.begin(),
                        part.latency_ms.end());
  all.served.insert(all.served.end(), part.served.begin(), part.served.end());
  all.traces.insert(all.traces.end(), part.traces.begin(), part.traces.end());
  all.window_s += part.window_s;
  all.next_offset = part.next_offset;
  all.attempted += part.attempted;
  all.failed += part.failed;
  all.queue_s += part.queue_s;
  all.profile_s += part.profile_s;
  all.search_s += part.search_s;
  all.cache_hits += part.cache_hits;
}

LoopResult RunClosedLoop(serving::DiscoveryService& service,
                         const std::vector<const d3l::Table*>& targets,
                         const std::vector<uint32_t>& sequence, const LoopSpec& spec) {
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::vector<LoopResult> per_client(spec.clients);
  std::vector<double> last_end(spec.clients, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      LoopResult& out = per_client[c];
      for (;;) {
        if (SecondsSince(start) >= spec.seconds && done.load() >= spec.min_queries) {
          break;
        }
        const size_t i = next.fetch_add(1);
        if (i >= spec.max_queries) break;
        const uint32_t t = sequence[(spec.offset + i) % sequence.size()];
        serving::QueryRequest request;
        request.target = targets[t];
        request.k = kTopK;
        const auto q0 = std::chrono::steady_clock::now();
        serving::QueryResponse response = service.Submit(request).get();
        out.latency_ms.push_back(SecondsSince(q0) * 1e3);
        last_end[c] = SecondsSince(start);
        ++out.attempted;
        if (!response.result.ok()) {
          ++out.failed;
        } else {
          out.queue_s += response.stats.queue_seconds;
          out.profile_s += response.stats.profile_seconds;
          out.search_s += response.stats.search_seconds;
          if (response.stats.cache_hit) ++out.cache_hits;
          if (response.stats.trace) out.traces.push_back(response.stats.trace);
          out.served.push_back({t, ResultHash(std::move(*response.result))});
        }
        done.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  LoopResult all;
  for (LoopResult& r : per_client) Append(all, std::move(r));
  all.window_s = *std::max_element(last_end.begin(), last_end.end());
  all.next_offset = spec.offset + all.attempted;
  return all;
}

double Verified::Precision() const {
  double sum = 0;
  for (const auto& [t, q] : quality) sum += q.first;
  return quality.empty() ? 0.0 : sum / static_cast<double>(quality.size());
}

double Verified::Recall() const {
  double sum = 0;
  for (const auto& [t, q] : quality) sum += q.second;
  return quality.empty() ? 0.0 : sum / static_cast<double>(quality.size());
}

void Verified::Merge(const Verified& other) {
  reference.insert(other.reference.begin(), other.reference.end());
  quality.insert(other.quality.begin(), other.quality.end());
}

namespace {

// Every served hash must equal the reference hash of its target.
void CheckServed(const std::vector<Served>& served,
                 const std::unordered_map<uint32_t, uint64_t>& reference, Gate& gate) {
  size_t diverged = 0;
  for (const Served& s : served) {
    auto it = reference.find(s.target);
    if (it == reference.end() || it->second != s.hash) ++diverged;
  }
  if (diverged > 0) {
    gate.Fail(std::to_string(diverged) + " of " + std::to_string(served.size()) +
              " served rankings differ from the reference");
  }
}

}  // namespace

Verified VerifyServed(const std::vector<Served>& served,
                      const std::vector<const d3l::Table*>& targets,
                      const ReferenceFn& reference,
                      const std::function<std::string(uint32_t)>& table_name,
                      const benchdata::GroundTruth& truth, Gate& gate) {
  std::vector<uint32_t> distinct;
  for (const Served& s : served) distinct.push_back(s.target);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());

  struct Ref {
    bool ok = false;
    uint64_t hash = 0;
    double precision = 0;
    double recall = 0;
  };
  std::vector<Ref> refs(distinct.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  const size_t n_workers =
      std::min<size_t>(distinct.size(), std::max(1u, std::thread::hardware_concurrency()));
  for (size_t w = 0; w < n_workers; ++w) {
    workers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < distinct.size(); i = next.fetch_add(1)) {
        auto r = reference(distinct[i]);
        if (!r.ok()) continue;
        std::vector<std::string> names;
        for (const core::TableMatch& m : r->ranked) names.push_back(table_name(m.table_index));
        const auto e =
            d3l::eval::EvaluateTopK(names, targets[distinct[i]]->name(), truth);
        refs[i] = {true, ResultHash(std::move(*r)), e.precision, e.recall};
      }
    });
  }
  for (std::thread& t : workers) t.join();

  Verified v;
  for (size_t i = 0; i < distinct.size(); ++i) {
    if (!refs[i].ok) {
      gate.Fail("reference search failed for target " + targets[distinct[i]]->name());
      continue;
    }
    v.reference[distinct[i]] = refs[i].hash;
    v.quality[distinct[i]] = {refs[i].precision, refs[i].recall};
  }
  CheckServed(served, v.reference, gate);
  return v;
}

void TraceStore::Add(const obs::Trace& trace) {
  for (const obs::Span& root : trace.roots) Walk(root);
  // Enough to inspect any stage by hand; bounds the memory of long runs.
  if (traces_.size() < 4096) traces_.push_back(trace);
}

void TraceStore::Walk(const obs::Span& span) {
  Agg& a = agg_[span.name];
  a.self_ns += SelfTimeNs(span);
  a.total_ns += span.duration_ns;
  ++a.count;
  for (const obs::Span& c : span.children) Walk(c);
}

double TraceStore::SelfMs(const std::string& name) const {
  auto it = agg_.find(name);
  return it == agg_.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e6;
}

double TraceStore::TotalMs(const std::string& name) const {
  auto it = agg_.find(name);
  return it == agg_.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e6;
}

size_t TraceStore::Count(const std::string& name) const {
  auto it = agg_.find(name);
  return it == agg_.end() ? 0 : it->second.count;
}

namespace {

void WriteSpan(std::ostream& out, const obs::Span& span) {
  out << "{\"name\":\"";
  for (char ch : span.name) {
    if (ch == '"' || ch == '\\') out << '\\';
    out << ch;
  }
  out << "\",\"start_ns\":" << span.start_ns << ",\"duration_ns\":" << span.duration_ns
      << ",\"children\":[";
  for (size_t i = 0; i < span.children.size(); ++i) {
    if (i) out << ',';
    WriteSpan(out, span.children[i]);
  }
  out << "]}";
}

}  // namespace

void TraceStore::Write(const std::string& path) const {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path);
  for (const obs::Trace& t : traces_) {
    out << "{\"trace_id\":" << t.trace_id << ",\"roots\":[";
    for (size_t i = 0; i < t.roots.size(); ++i) {
      if (i) out << ',';
      WriteSpan(out, t.roots[i]);
    }
    out << "]}\n";
  }
  if (!out) std::fprintf(stderr, "d3lbench: could not write traces to %s\n", path.c_str());
}

}  // namespace d3lbench
