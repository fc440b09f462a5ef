#include "common/histogram.h"

#include <algorithm>
#include <cmath>

namespace thunderbolt {

double Histogram::Min() const {
  if (samples_.empty()) return 0.0;
  return *std::minmax_element(samples_.begin(), samples_.end()).first;
}

double Histogram::Max() const {
  if (samples_.empty()) return 0.0;
  return *std::minmax_element(samples_.begin(), samples_.end()).second;
}

double Histogram::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (p <= 0) return Min();
  if (p >= 100) return Max();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  // The rank-`lo` element of the sorted order, then (when the rank falls
  // between two) the smallest element above it: rank `hi`.
  std::vector<double> copy = samples_;
  const auto lo_it = copy.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(copy.begin(), lo_it, copy.end());
  const double lo_v = *lo_it;
  const double hi_v =
      hi == lo ? lo_v : *std::min_element(lo_it + 1, copy.end());
  return lo_v * (1.0 - frac) + hi_v * frac;
}

}  // namespace thunderbolt
