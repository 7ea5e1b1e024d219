#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace d3lbench {

namespace {

// Sorted position (1-based) of the nearest-rank percentile.
size_t Rank(size_t n, double pct) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  // The epsilon keeps exact products such as 0.99 * 1000 from rounding up.
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

size_t SamplesBeyond(size_t n, double pct) {
  if (n == 0) return 0;
  return n - Rank(n, pct);
}

double TailPercentile(size_t n) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, pct) >= kMinSamplesBeyond) return pct;
  }
  return 0;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  const size_t idx = Rank(values.size(), pct) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

ZipfSampler::ZipfSampler(size_t n, double s, uint64_t seed) : rng_(seed) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Next() {
  const double u = rng_.UniformDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

uint64_t SelfTimeNs(const d3l::obs::Span& span) {
  const uint64_t lo = span.start_ns;
  const uint64_t hi = span.start_ns + span.duration_ns;
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  for (const d3l::obs::Span& c : span.children) {
    const uint64_t a = std::max(lo, c.start_ns);
    const uint64_t b = std::min(hi, c.start_ns + c.duration_ns);
    if (a < b) intervals.emplace_back(a, b);
  }
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cur_a = 0;
  uint64_t cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += cur_b - cur_a;
  return span.duration_ns - covered;
}

}  // namespace d3lbench
