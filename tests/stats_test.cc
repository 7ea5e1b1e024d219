#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "stats/descriptive.h"
#include "stats/empirical.h"
#include "stats/ks.h"

namespace d3l {
namespace {

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// The statistic as the copy-and-sort implementation computed it from
// unsorted samples: sort copies, then take the largest ECDF gap over every
// observed value.
double CopySortKs(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) return 1.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double d = 0;
  for (const std::vector<double>* values : {&a, &b}) {
    for (double x : *values) {
      const auto i = std::upper_bound(a.begin(), a.end(), x) - a.begin();
      const auto j = std::upper_bound(b.begin(), b.end(), x) - b.begin();
      d = std::max(d, std::fabs(static_cast<double>(i) / na -
                                static_cast<double>(j) / nb));
    }
  }
  return d;
}

TEST(KsTest, IdenticalSamplesGiveZero) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(KsStatistic(a, a), 0.0);
}

TEST(KsTest, DisjointSamplesGiveOne) {
  EXPECT_DOUBLE_EQ(KsStatistic(std::vector<double>{1, 2, 3}, std::vector<double>{10, 11, 12}),
                   1.0);
}

TEST(KsTest, EmptySampleGivesOne) {
  const std::vector<double> empty;
  const std::vector<double> two = {1, 2};
  EXPECT_DOUBLE_EQ(KsStatistic(empty, two), 1.0);
  EXPECT_DOUBLE_EQ(KsStatistic(two, empty), 1.0);
}

TEST(KsTest, Symmetric) {
  std::vector<double> a = Sorted({5, 1, 3, 2, 4});
  std::vector<double> b = Sorted({2.5, 6, 0.5, 3.5});
  EXPECT_DOUBLE_EQ(KsStatistic(a, b), KsStatistic(b, a));
}

TEST(KsTest, SortedSpansMatchCopyAndSortOnTies) {
  // Integer draws from narrow ranges put many ties inside each sample and
  // across the two — the case where both cursors must step past equal runs.
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> a(static_cast<size_t>(rng.UniformInt(1, 60)));
    std::vector<double> b(static_cast<size_t>(rng.UniformInt(1, 60)));
    const int hi = static_cast<int>(rng.UniformInt(1, 12));
    for (double& x : a) x = static_cast<double>(rng.UniformInt(0, hi));
    for (double& x : b) x = static_cast<double>(rng.UniformInt(0, hi)) + (trial % 2) * 0.5;
    const double expected = CopySortKs(a, b);
    EXPECT_EQ(KsStatistic(Sorted(a), Sorted(b)), expected) << "trial " << trial;
    EXPECT_EQ(KsStatistic(Sorted(b), Sorted(a)), expected) << "trial " << trial;
  }
}

TEST(KsTest, SameDistributionSmallStatistic) {
  Rng rng(1);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 2000; ++i) a.push_back(rng.Gaussian(10, 2));
  for (int i = 0; i < 2000; ++i) b.push_back(rng.Gaussian(10, 2));
  double d = KsStatistic(Sorted(a), Sorted(b));
  EXPECT_LT(d, 0.06);
  // The same-distribution p-value should not be tiny.
  EXPECT_GT(KsPValue(d, a.size(), b.size()), 0.01);
}

TEST(KsTest, DifferentDistributionsLargeStatistic) {
  Rng rng(2);
  std::vector<double> age;
  std::vector<double> money;
  for (int i = 0; i < 1000; ++i) age.push_back(rng.UniformDouble(0, 100));
  for (int i = 0; i < 1000; ++i) money.push_back(std::exp(rng.Gaussian(8, 1.2)));
  double d = KsStatistic(Sorted(age), Sorted(money));
  EXPECT_GT(d, 0.5);
  EXPECT_LT(KsPValue(d, age.size(), money.size()), 1e-6);
}

TEST(KsTest, ShiftDetected) {
  Rng rng(3);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 1000; ++i) a.push_back(rng.Gaussian(0, 1));
  for (int i = 0; i < 1000; ++i) b.push_back(rng.Gaussian(1.0, 1));
  EXPECT_GT(KsStatistic(Sorted(a), Sorted(b)), 0.3);
}

TEST(EmpiricalTest, CdfAndCcdf) {
  EmpiricalDistribution d({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(1), 0.25);
  EXPECT_DOUBLE_EQ(d.Cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(d.Cdf(4), 1.0);
  EXPECT_DOUBLE_EQ(d.Ccdf(1), 0.75);
  EXPECT_DOUBLE_EQ(d.Ccdf(4), 0.0);
}

TEST(EmpiricalTest, EmptyDistribution) {
  EmpiricalDistribution d({});
  EXPECT_TRUE(d.empty());
  EXPECT_DOUBLE_EQ(d.Ccdf(0.5), 1.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
}

TEST(EmpiricalTest, Quantiles) {
  EmpiricalDistribution d({5, 1, 3, 2, 4});
  EXPECT_DOUBLE_EQ(d.Quantile(0), 1);
  EXPECT_DOUBLE_EQ(d.Quantile(1), 5);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 3);
  EXPECT_DOUBLE_EQ(d.min(), 1);
  EXPECT_DOUBLE_EQ(d.max(), 5);
}

TEST(EmpiricalTest, SmallestValueGetsLargestCcdfWeight) {
  // The Eq. 2 intuition: the smallest distance has the highest weight.
  EmpiricalDistribution d({0.1, 0.5, 0.9});
  EXPECT_GT(d.Ccdf(0.1), d.Ccdf(0.5));
  EXPECT_GT(d.Ccdf(0.5), d.Ccdf(0.9));
}

TEST(DescriptiveTest, Summarize) {
  Summary s = Summarize({2, 4, 6});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 4);
  EXPECT_DOUBLE_EQ(s.min, 2);
  EXPECT_DOUBLE_EQ(s.max, 6);
  EXPECT_NEAR(s.variance, 8.0 / 3.0, 1e-12);
  Summary empty = Summarize({});
  EXPECT_EQ(empty.count, 0u);
}

TEST(DescriptiveTest, JaccardAndOverlap) {
  EXPECT_DOUBLE_EQ(JaccardFromCounts(2, 4, 4), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(JaccardFromCounts(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficientFromCounts(2, 2, 10), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficientFromCounts(0, 0, 5), 0.0);
}

}  // namespace
}  // namespace d3l
