#include "core/indexes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "benchdata/synthetic_gen.h"
#include "core/query.h"
#include "lsh/lsh_banding.h"
#include "tests/test_util.h"

namespace d3l::core {
namespace {

class IndexesTest : public ::testing::Test {
 protected:
  IndexesTest() : indexes_(IndexOptions{}), cache_(&wem_) {}

  uint32_t InsertColumn(const Table& t, size_t col, uint32_t table_id) {
    AttributeProfile p = BuildProfile(t, col, wem_, &cache_);
    p.ref = AttributeRef{table_id, static_cast<uint32_t>(col)};
    return indexes_.Insert(std::move(p));
  }

  void InsertTable(const Table& t, uint32_t table_id) {
    for (size_t c = 0; c < t.num_columns(); ++c) InsertColumn(t, c, table_id);
  }

  AttributeSignatures SignColumn(const Table& t, size_t col) {
    return indexes_.Sign(BuildProfile(t, col, wem_, &cache_));
  }

  SubwordHashModel wem_;
  D3LIndexes indexes_;
  CachingEmbedder cache_;
};

TEST_F(IndexesTest, InsertAssignsSequentialIds) {
  Table s1 = testutil::FigureS1();
  EXPECT_EQ(InsertColumn(s1, 0, 0), 0u);
  EXPECT_EQ(InsertColumn(s1, 1, 0), 1u);
  EXPECT_EQ(indexes_.num_attributes(), 2u);
  EXPECT_EQ(indexes_.profile(1).column_name, "Address");
}

TEST_F(IndexesTest, NumericAttributesSkipValueAndEmbeddingIndexes) {
  Table s1 = testutil::FigureS1();
  uint32_t id = InsertColumn(s1, 4, 0);  // Patients
  const AttributeSignatures& s = indexes_.signatures(id);
  EXPECT_FALSE(s.has_value);
  EXPECT_FALSE(s.has_embedding);
  EXPECT_FALSE(s.name_sig.empty());
  EXPECT_FALSE(s.format_sig.empty());
}

TEST_F(IndexesTest, LookupFindsIdenticalAttribute) {
  Table s1 = testutil::FigureS1();
  Table s2 = testutil::FigureS2();
  InsertTable(s1, 0);
  InsertTable(s2, 1);
  indexes_.Finalize();

  // The target's "Postcode" should retrieve both postcode columns by name.
  Table target = testutil::FigureTarget();
  AttributeSignatures q = SignColumn(target, 3);
  auto hits = indexes_.Lookup(Evidence::kName, q, 10);
  bool found_s1_pc = false;
  bool found_s2_pc = false;
  for (uint32_t id : hits) {
    const auto& p = indexes_.profile(id);
    if (p.column_name == "Postcode" && p.ref.table == 0) found_s1_pc = true;
    if (p.column_name == "Postcode" && p.ref.table == 1) found_s2_pc = true;
  }
  EXPECT_TRUE(found_s1_pc);
  EXPECT_TRUE(found_s2_pc);
}

TEST_F(IndexesTest, ValueLookupFindsSharedExtents) {
  Table s2 = testutil::FigureS2();
  InsertTable(s2, 0);
  indexes_.Finalize();
  Table target = testutil::FigureTarget();
  AttributeSignatures q = SignColumn(target, 0);  // Practice names overlap
  auto hits = indexes_.Lookup(Evidence::kValue, q, 10);
  bool found_practice = false;
  for (uint32_t id : hits) {
    if (indexes_.profile(id).column_name == "Practice") found_practice = true;
  }
  EXPECT_TRUE(found_practice);
}

TEST_F(IndexesTest, DistanceEstimatesOrderRelatedness) {
  Table s1 = testutil::FigureS1();
  Table s2 = testutil::FigureS2();
  InsertTable(s1, 0);   // ids 0..4
  InsertTable(s2, 1);   // ids 5..8
  indexes_.Finalize();

  Table target = testutil::FigureTarget();
  AttributeSignatures q = SignColumn(target, 2);  // City

  // Find ids of S2.City (7) and S2.Payment (8) via profiles.
  uint32_t city_id = UINT32_MAX;
  uint32_t payment_id = UINT32_MAX;
  for (uint32_t i = 0; i < indexes_.num_attributes(); ++i) {
    if (indexes_.profile(i).column_name == "City" && indexes_.profile(i).ref.table == 1) {
      city_id = i;
    }
    if (indexes_.profile(i).column_name == "Payment") payment_id = i;
  }
  ASSERT_NE(city_id, UINT32_MAX);
  ASSERT_NE(payment_id, UINT32_MAX);

  double d_city = indexes_.EstimateDistance(Evidence::kValue, q, city_id);
  double d_payment = indexes_.EstimateDistance(Evidence::kValue, q, payment_id);
  EXPECT_LT(d_city, 0.7);           // shared city values
  EXPECT_DOUBLE_EQ(d_payment, 1.0);  // numeric: no V evidence
  EXPECT_LT(indexes_.EstimateDistance(Evidence::kName, q, city_id), 0.05);
}

TEST_F(IndexesTest, ThresholdLookupIsSelective) {
  Table s1 = testutil::FigureS1();
  Table filler = testutil::FillerColors(1);
  InsertTable(s1, 0);
  InsertTable(filler, 1);
  indexes_.Finalize();

  Table target = testutil::FigureTarget();
  AttributeSignatures q = SignColumn(target, 3);  // Postcode
  for (uint32_t id = 0; id < indexes_.num_attributes(); ++id) {
    // S1's identically named "Postcode" collides; no filler column should
    // name-collide with it at tau=0.7.
    const bool hit = indexes_.ThresholdHit(Evidence::kName, q, id);
    EXPECT_EQ(hit, indexes_.profile(id).column_name == "Postcode") << id;
  }
}

// The byte sequence the embedding threshold banding runs over, spelled out
// bit by bit: byte i packs signature bits 8i .. 8i+7, least significant first.
Signature EmbeddingBytes(const BitSignature& sig) {
  Signature seq;
  for (size_t b = 0; b < sig.bits; b += 8) {
    uint64_t byte = 0;
    for (size_t i = 0; i < 8 && b + i < sig.bits; ++i) {
      byte |= ((sig.words[(b + i) / 64] >> ((b + i) % 64)) & 1ULL) << i;
    }
    seq.push_back(byte);
  }
  return seq;
}

// The values evidence `e`'s banded index hashes for an attribute; nullopt
// when the attribute lacks the evidence (and so is never inserted).
std::optional<Signature> BandedValues(Evidence e, const AttributeSignatures& s) {
  switch (e) {
    case Evidence::kName:
      return s.name_sig;
    case Evidence::kValue:
      if (!s.has_value) return std::nullopt;
      return s.value_sig;
    case Evidence::kFormat:
      return s.format_sig;
    case Evidence::kEmbedding:
      if (!s.has_embedding) return std::nullopt;
      return EmbeddingBytes(s.emb_sig);
    case Evidence::kDistribution:
      break;
  }
  return std::nullopt;
}

// The pairwise predicate must be exactly the membership a banded index at
// tau reports, for every evidence and every (query, attribute) pair.
TEST(ThresholdHitTest, MatchesBandedIndexOnSyntheticLake) {
  benchdata::SyntheticOptions opts;
  opts.num_base_tables = 4;
  opts.derived_per_base = 4;
  opts.base_rows_min = 40;
  opts.base_rows_max = 80;
  opts.seed = 5;
  auto gen = benchdata::GenerateSynthetic(opts);
  ASSERT_TRUE(gen.ok());
  D3LEngine engine;
  ASSERT_TRUE(engine.IndexLake(gen->lake).ok());
  const D3LIndexes& indexes = engine.indexes();
  const IndexOptions& o = indexes.options();
  const uint32_t n = static_cast<uint32_t>(indexes.num_attributes());

  for (Evidence e : {Evidence::kName, Evidence::kValue, Evidence::kFormat,
                     Evidence::kEmbedding}) {
    BandedLshOptions banded_options;
    banded_options.threshold = o.lsh_threshold;
    banded_options.signature_size =
        e == Evidence::kEmbedding ? o.rp_bits / 8 : o.minhash_size;
    BandedLsh banded(banded_options);
    for (uint32_t id = 0; id < n; ++id) {
      if (auto values = BandedValues(e, indexes.signatures(id))) banded.Insert(id, *values);
    }

    size_t hits = 0;
    size_t misses = 0;
    for (uint32_t q = 0; q < n; ++q) {
      const AttributeSignatures& query = indexes.signatures(q);
      std::unordered_set<uint32_t> expected;
      if (auto values = BandedValues(e, query)) {
        const std::vector<uint32_t> found = banded.Query(*values);
        expected.insert(found.begin(), found.end());
      }
      const std::vector<uint64_t> bands = indexes.ThresholdBandHashes(e, query);
      for (uint32_t id = 0; id < n; ++id) {
        const bool hit = indexes.ThresholdHit(e, bands, id);
        ASSERT_EQ(hit, expected.count(id) > 0)
            << EvidenceName(e) << " query " << q << " id " << id;
        ASSERT_EQ(indexes.ThresholdHit(e, query, id), hit);
        ++(hit && id != q ? hits : misses);
      }
    }
    // Both outcomes occur beyond self-matches, so the parity is not vacuous.
    EXPECT_GT(hits, 0u) << EvidenceName(e);
    EXPECT_GT(misses, 0u) << EvidenceName(e);
  }
}

TEST_F(IndexesTest, DistributionDistanceNotServedFromIndexes) {
  Table s1 = testutil::FigureS1();
  uint32_t id = InsertColumn(s1, 4, 0);
  indexes_.Finalize();
  AttributeSignatures q = SignColumn(testutil::FigureTarget(), 0);
  EXPECT_DOUBLE_EQ(indexes_.EstimateDistance(Evidence::kDistribution, q, id), 1.0);
  EXPECT_TRUE(indexes_.Lookup(Evidence::kDistribution, q, 10).empty());
}

TEST_F(IndexesTest, MemoryUsageGrowsWithInsertions) {
  size_t before = indexes_.MemoryUsage();
  InsertTable(testutil::FigureS1(), 0);
  EXPECT_GT(indexes_.MemoryUsage(), before);
}

}  // namespace
}  // namespace d3l::core
