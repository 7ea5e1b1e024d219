// Small, separately tested helpers behind the benchmark's reported numbers:
// the percentile rule, the seeded Zipf target sampler and span self time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "obs/trace.h"

namespace d3lbench {

/// Samples needed beyond a reported percentile before it may be reported.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Samples strictly above the nearest-rank `pct`-th percentile of `n`
/// samples (the value at sorted position ceil(pct/100 * n) - 1).
size_t SamplesBeyond(size_t n, double pct);

/// The highest of {99.9, 99, 95, 90, 50} with at least kMinSamplesBeyond
/// samples beyond it, or 0 when not even the median qualifies.
double TailPercentile(size_t n);

/// Nearest-rank percentile (pct in (0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double pct);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Seeded sampler of ranks in [0, n) with P(r) proportional to 1/(r+1)^s.
/// The same (n, s, seed) always yields the same sequence.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed);
  size_t Next();

 private:
  std::vector<double> cdf_;
  d3l::Rng rng_;
};

/// A span's duration minus the part of its interval covered by the union
/// of its direct children's intervals (children clipped to the span).
uint64_t SelfTimeNs(const d3l::obs::Span& span);

}  // namespace d3lbench
