// Self-tests of the benchmark's own arithmetic: the percentile rule, the
// seeded Zipf sampler and span self time. Exits non-zero on the first
// failed check.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

void PercentileRule() {
  using d3lbench::SamplesBeyond;
  using d3lbench::TailPercentile;
  // The p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
  CHECK(SamplesBeyond(1000, 99.0) == 10);
  CHECK(SamplesBeyond(999, 99.0) == 9);
  CHECK(TailPercentile(1000) == 99.0);
  CHECK(TailPercentile(999) == 95.0);
  CHECK(TailPercentile(10000) == 99.9);
  CHECK(TailPercentile(9999) == 99.0);
  CHECK(TailPercentile(100) == 90.0);
  CHECK(TailPercentile(20) == 50.0);
  CHECK(TailPercentile(19) == 0.0);
  CHECK(TailPercentile(0) == 0.0);
  // Whatever the count, a reported percentile keeps 10 samples beyond it.
  for (size_t n = 1; n <= 5000; ++n) {
    const double p = TailPercentile(n);
    if (p > 0) CHECK(SamplesBeyond(n, p) >= d3lbench::kMinSamplesBeyond);
  }

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  CHECK(d3lbench::Percentile(v, 99.0) == 990.0);
  CHECK(d3lbench::Median(v) == 500.0);
  CHECK(d3lbench::Median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(d3lbench::Median({}) == 0.0);
}

void ZipfReproducible() {
  d3lbench::ZipfSampler a(900, 1.0, 77);
  d3lbench::ZipfSampler b(900, 1.0, 77);
  d3lbench::ZipfSampler c(900, 1.0, 78);
  std::vector<size_t> counts(900, 0);
  bool differs = false;
  for (int i = 0; i < 100000; ++i) {
    const size_t x = a.Next();
    CHECK(x == b.Next());
    if (x != c.Next()) differs = true;
    CHECK(x < 900);
    ++counts[x];
  }
  CHECK(differs);
  // s = 1: rank 0 is drawn about twice as often as rank 1 and ten times as
  // often as rank 9 (1 / H_900 is about 13.5% of draws).
  CHECK(counts[0] > 12500 && counts[0] < 14500);
  CHECK(counts[0] > 1.7 * counts[1] && counts[0] < 2.3 * counts[1]);
  CHECK(counts[0] > 8 * counts[9] && counts[0] < 12 * counts[9]);
}

d3l::obs::Span MakeSpan(uint64_t start, uint64_t duration,
                        std::vector<d3l::obs::Span> children = {}) {
  return d3l::obs::Span{"s", start, duration, std::move(children)};
}

void SelfTime() {
  using d3lbench::SelfTimeNs;
  CHECK(SelfTimeNs(MakeSpan(0, 100)) == 100);
  // Disjoint children: 100 - 20 - 30.
  CHECK(SelfTimeNs(MakeSpan(0, 100, {MakeSpan(10, 20), MakeSpan(50, 30)})) == 50);
  // Overlapping children count once: [10, 60) covered, not 30 + 40.
  CHECK(SelfTimeNs(MakeSpan(0, 100, {MakeSpan(10, 30), MakeSpan(20, 40)})) == 50);
  // Nested children: the inner one adds nothing.
  CHECK(SelfTimeNs(MakeSpan(0, 100, {MakeSpan(10, 50), MakeSpan(20, 10)})) == 50);
  // Touching children merge: [0, 40).
  CHECK(SelfTimeNs(MakeSpan(0, 100, {MakeSpan(0, 20), MakeSpan(20, 20)})) == 60);
  // Children are clipped to the parent.
  CHECK(SelfTimeNs(MakeSpan(100, 100, {MakeSpan(50, 100), MakeSpan(180, 100)})) == 30);
  // Fully covered.
  CHECK(SelfTimeNs(MakeSpan(0, 100, {MakeSpan(0, 100)})) == 0);
  // Grandchildren do not count against the parent.
  CHECK(SelfTimeNs(MakeSpan(0, 100, {MakeSpan(0, 10, {MakeSpan(0, 5)})})) == 90);
}

}  // namespace

int main() {
  PercentileRule();
  ZipfReproducible();
  SelfTime();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
