#include "core/distance.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "stats/ks.h"
#include "tests/test_util.h"

namespace d3l::core {
namespace {

// Builds numeric tables with controlled distributions plus textual anchors.
Table NumericTable(const std::string& name, const std::string& num_col_name,
                   double mean, double stddev, uint64_t seed, size_t rows = 120) {
  Rng rng(seed);
  std::vector<std::vector<std::string>> data;
  for (size_t i = 0; i < rows; ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%.2f", rng.Gaussian(mean, stddev));
    data.push_back({"entity_" + std::to_string(seed) + "_" + std::to_string(i), buf});
  }
  return testutil::MakeTable(name, {"Entity", num_col_name}, data);
}

class DistanceTest : public ::testing::Test {
 protected:
  DistanceTest() : indexes_(IndexOptions{}), cache_(&wem_) {}

  // Algorithm 2 as ScoreCandidates runs it: guards hashed once for the
  // target attribute, then evaluated against one candidate.
  double Distribution(const AttributeProfile& target, uint32_t candidate_id,
                      const AttributeSignatures* target_subject = nullptr,
                      uint32_t source_subject_id = UINT32_MAX) {
    PrecomputedGuards guards = BuildGuards(indexes_, indexes_.Sign(target), target_subject);
    return ComputeDistributionDistanceFast(indexes_, target, candidate_id, guards,
                                           source_subject_id);
  }

  uint32_t Insert(const Table& t, size_t col, uint32_t table_id) {
    AttributeProfile p = BuildProfile(t, col, wem_, &cache_);
    p.ref = AttributeRef{table_id, static_cast<uint32_t>(col)};
    return indexes_.Insert(std::move(p));
  }

  SubwordHashModel wem_;
  D3LIndexes indexes_;
  CachingEmbedder cache_;
};

TEST_F(DistanceTest, GuardPassesViaNameIndex) {
  // Same attribute name ("Age") on both sides: IN guard passes, KS runs.
  Table a = NumericTable("a", "Age", 50, 10, 1);
  Table b = NumericTable("b", "Age", 50, 10, 2);
  Insert(b, 1, 1);
  indexes_.Finalize();

  AttributeProfile qa = BuildProfile(a, 1, wem_, &cache_);
  EXPECT_TRUE(indexes_.ThresholdHit(Evidence::kName, indexes_.Sign(qa), 0));
  double dd = Distribution(qa, 0);  // no subject info
  EXPECT_LT(dd, 0.25);  // same distribution -> small KS
}

TEST_F(DistanceTest, GuardBlocksUnrelatedNumericPairs) {
  // Different names, different formats (ints vs decimals) and no subject
  // relation: Algorithm 2 returns 1 without computing KS.
  Rng rng(3);
  std::vector<std::vector<std::string>> rows_a;
  std::vector<std::vector<std::string>> rows_b;
  for (int i = 0; i < 100; ++i) {
    rows_a.push_back({"e" + std::to_string(i), std::to_string(rng.UniformInt(0, 99))});
    char buf[32];
    snprintf(buf, sizeof(buf), "%.4f", rng.UniformDouble(0, 1));
    rows_b.push_back({"x" + std::to_string(i), buf});
  }
  Table a = testutil::MakeTable("a", {"Entity", "Age"}, rows_a);
  Table b = testutil::MakeTable("b", {"Thing", "Fraction"}, rows_b);
  Insert(b, 1, 1);
  indexes_.Finalize();

  AttributeProfile qa = BuildProfile(a, 1, wem_, &cache_);
  EXPECT_DOUBLE_EQ(Distribution(qa, 0), 1.0);
}

TEST_F(DistanceTest, GuardPassesViaSubjectRelation) {
  // Names/formats differ ("Age" int vs "Years" decimal), but the two
  // tables share subject-attribute values: line 4 of Algorithm 2 passes.
  std::vector<std::vector<std::string>> rows_a;
  std::vector<std::vector<std::string>> rows_b;
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    std::string entity = "shared_entity_" + std::to_string(i);
    rows_a.push_back({entity, std::to_string(rng.UniformInt(0, 99))});
    char buf[32];
    snprintf(buf, sizeof(buf), "%.1f", rng.UniformDouble(0, 99));
    rows_b.push_back({entity, buf});
  }
  Table a = testutil::MakeTable("a", {"Entity", "Age"}, rows_a);
  Table b = testutil::MakeTable("b", {"Member", "Years"}, rows_b);

  uint32_t b_subject = Insert(b, 0, 1);
  Insert(b, 1, 1);
  indexes_.Finalize();

  AttributeProfile qa = BuildProfile(a, 1, wem_, &cache_);
  AttributeProfile subj_prof = BuildProfile(a, 0, wem_, &cache_);
  AttributeSignatures subj_sigs = indexes_.Sign(subj_prof);

  EXPECT_DOUBLE_EQ(Distribution(qa, 1), 1.0);  // no subject relation: blocked
  double dd = Distribution(qa, 1, &subj_sigs, b_subject);
  EXPECT_LT(dd, 1.0);  // guard passed, KS computed
}

TEST_F(DistanceTest, NonNumericPairsAlwaysOne) {
  Table s1 = testutil::FigureS1();
  Insert(s1, 0, 0);
  indexes_.Finalize();
  AttributeProfile q = BuildProfile(testutil::FigureTarget(), 0, wem_, &cache_);
  EXPECT_DOUBLE_EQ(Distribution(q, 0), 1.0);
  // ScoreCandidates hashes no guards for a textual target column.
  EXPECT_DOUBLE_EQ(ComputeDistributionDistanceFast(indexes_, q, 0, PrecomputedGuards{}, 0),
                   1.0);
}

TEST_F(DistanceTest, KsSeparatesDistributionsWhenGuardPasses) {
  Table a = NumericTable("a", "Age", 50, 10, 7);
  Table same = NumericTable("s", "Age", 50, 10, 8);
  Table shifted = NumericTable("d", "Age", 200, 10, 9);
  uint32_t same_id = Insert(same, 1, 1);
  uint32_t shifted_id = Insert(shifted, 1, 2);
  indexes_.Finalize();

  AttributeProfile qa = BuildProfile(a, 1, wem_, &cache_);
  double d_same = Distribution(qa, same_id);
  double d_shifted = Distribution(qa, shifted_id);
  EXPECT_LT(d_same, 0.25);
  // Same name => guard passes, but disjoint distributions => KS ~ 1.
  EXPECT_GT(d_shifted, 0.9);
}

TEST_F(DistanceTest, TextualPairHasEstimatesButNoDistribution) {
  Table s2 = testutil::FigureS2();
  for (size_t c = 0; c < s2.num_columns(); ++c) Insert(s2, c, 0);
  indexes_.Finalize();

  Table target = testutil::FigureTarget();
  AttributeProfile q = BuildProfile(target, 3, wem_, &cache_);  // Postcode
  AttributeSignatures qs = indexes_.Sign(q);
  // S2.Postcode: identical name, strong value overlap, same format.
  EXPECT_LT(indexes_.EstimateDistance(Evidence::kName, qs, 2), 0.05);
  EXPECT_LT(indexes_.EstimateDistance(Evidence::kValue, qs, 2), 0.8);
  EXPECT_LT(indexes_.EstimateDistance(Evidence::kFormat, qs, 2), 0.5);
  EXPECT_LE(indexes_.EstimateDistance(Evidence::kEmbedding, qs, 2), 1.0);
  EXPECT_DOUBLE_EQ(Distribution(q, 2), 1.0);  // textual pair: no D evidence
}

TEST_F(DistanceTest, PassedGuardYieldsKsOfStoredSamples) {
  Table a = NumericTable("a", "Age", 50, 10, 21);
  Table b = NumericTable("b", "Age", 50, 10, 22);
  uint32_t id = Insert(b, 1, 1);
  indexes_.Finalize();

  AttributeProfile qa = BuildProfile(a, 1, wem_, &cache_);
  EXPECT_EQ(Distribution(qa, id),
            KsStatistic(qa.numeric_sample, indexes_.profile(id).numeric_sample));
}

}  // namespace
}  // namespace d3l::core
