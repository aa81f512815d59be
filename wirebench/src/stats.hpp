// Order statistics shared by the wire summary, the layer metrics and the
// run record.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace wirebench {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  return v[mid];
}

// Nearest-rank percentile, p in (0, 100].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

}  // namespace wirebench
