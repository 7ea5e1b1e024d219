// Golden rankings: the serialized SearchResult (SaveSearchResult) of every
// table of a 30-table Synthetic lake, used as a target, hashed and compared
// against tests/data/golden_rankings.txt. Engine refactors must keep these
// bytes identical however the engine is reached: built in process, sharded,
// or opened from a mapped or copied snapshot.
//
// To regenerate after a deliberate ranking change, run the suite with
// D3L_WRITE_GOLDEN_RANKINGS=<path>; it writes the built engine's hashes to
// <path> and skips the comparison.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "benchdata/synthetic_gen.h"
#include "common/hash.h"
#include "core/query.h"
#include "io/binary_io.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"

namespace d3l {
namespace {

namespace fs = std::filesystem;

constexpr size_t kTopK = 10;

DataLake MakeGoldenLake() {
  benchdata::SyntheticOptions opts;
  opts.num_base_tables = 3;
  opts.derived_per_base = 9;
  opts.base_rows_min = 40;
  opts.base_rows_max = 80;
  opts.numeric_col_ratio = 0.4;  // enough numeric pairs to exercise the KS guards
  opts.seed = 2020;
  auto gen = benchdata::GenerateSynthetic(opts);
  gen.status().CheckOK();
  return std::move(gen->lake);
}

std::string ResultHash(const core::SearchResult& result) {
  std::string bytes;
  io::Writer w;
  w.OpenBuffer(&bytes);
  w.BeginSection(io::SectionId("SRCH"));
  core::SaveSearchResult(w, result);
  w.EndSection().CheckOK();
  w.Finish().CheckOK();
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(HashString(bytes)));
  return hex;
}

// Target table name -> result hash.
using Hashes = std::map<std::string, std::string>;

template <typename Engine>
Hashes HashAll(const Engine& engine, const DataLake& lake) {
  Hashes out;
  for (size_t t = 0; t < lake.size(); ++t) {
    auto result = engine.Search(lake.table(t), kTopK);
    result.status().CheckOK();
    out[lake.table(t).name()] = ResultHash(*result);
  }
  return out;
}

Hashes ReadGolden(const std::string& path) {
  Hashes out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hash;
    fields >> name >> hash;
    out[name] = hash;
  }
  return out;
}

class GoldenRankingsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lake_ = new DataLake(MakeGoldenLake());
    engine_ = new core::D3LEngine();
    engine_->IndexLake(*lake_).CheckOK();
    dir_ = fs::temp_directory_path() /
           ("d3l_golden_rankings_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::create_directories(dir_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete lake_;
    fs::remove_all(dir_);
  }

  void ExpectGolden(const Hashes& actual) {
    if (const char* out = std::getenv("D3L_WRITE_GOLDEN_RANKINGS")) {
      std::ofstream file(out);
      file << "# SaveSearchResult hash per target, k=" << kTopK
           << "; see tests/golden_rankings_test.cc\n";
      for (const auto& [name, hash] : actual) file << name << ' ' << hash << '\n';
      GTEST_SKIP() << "wrote " << out;
    }
    const Hashes golden =
        ReadGolden(std::string(D3L_TEST_DATA_DIR) + "/golden_rankings.txt");
    ASSERT_EQ(golden.size(), lake_->size());
    EXPECT_EQ(actual, golden);
  }

  static DataLake* lake_;
  static core::D3LEngine* engine_;
  static fs::path dir_;
};

DataLake* GoldenRankingsTest::lake_ = nullptr;
core::D3LEngine* GoldenRankingsTest::engine_ = nullptr;
fs::path GoldenRankingsTest::dir_;

TEST_F(GoldenRankingsTest, BuiltEngine) { ExpectGolden(HashAll(*engine_, *lake_)); }

TEST_F(GoldenRankingsTest, MappedAndCopiedSnapshots) {
  const std::string path = (dir_ / "engine.d3l").string();
  ASSERT_TRUE(engine_->SaveSnapshot(path).ok());
  for (core::SnapshotLoadMode mode :
       {core::SnapshotLoadMode::kMapped, core::SnapshotLoadMode::kCopied}) {
    DataLake metadata;
    auto loaded = core::D3LEngine::LoadSnapshot(path, &metadata, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectGolden(HashAll(**loaded, *lake_));
  }
}

TEST_F(GoldenRankingsTest, ShardedEngine) {
  serving::ShardingOptions options;
  options.num_shards = 3;
  auto report = serving::BuildShards(*lake_, options, (dir_ / "shards").string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto sharded = serving::ShardedEngine::Open(report->manifest_path);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectGolden(HashAll(**sharded, *lake_));
}

}  // namespace
}  // namespace d3l
