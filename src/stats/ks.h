// Two-sample Kolmogorov-Smirnov statistic (evidence type D, Section III-C).
#pragma once

#include <cstddef>
#include <span>

namespace d3l {

/// \brief Computes the two-sample KS statistic sup_x |F1(x) - F2(x)|.
///
/// Inputs are extents of numeric attributes understood as samples of their
/// originating domains. Returns 1.0 (maximal distance) if either sample is
/// empty. Both samples must be sorted ascending and free of NaN (as
/// core::BuildProfile stores them); debug builds assert the order.
double KsStatistic(std::span<const double> a, std::span<const double> b);

/// \brief Asymptotic two-sample KS p-value for statistic d with sample
/// sizes n and m (Kolmogorov distribution tail). Used in tests to sanity-
/// check same-distribution behaviour.
double KsPValue(double d, size_t n, size_t m);

}  // namespace d3l
