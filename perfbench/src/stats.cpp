#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 2) return {values[0], values[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1, cut point i sits
  // at position i*m/4 (1-based), interpolated between its neighbours.
  // The clamp comes first, so delta may be negative at the ends.
  const auto cut = [&](long i) {
    const long m = static_cast<long>(n) + 1;
    const long j = std::clamp<long>(i * m / 4, 1, static_cast<long>(n) - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    const auto k = static_cast<std::size_t>(j);
    return (values[k - 1] * (4.0 - delta) + values[k] * delta) / 4.0;
  };
  return {cut(1), cut(3)};
}

Tail tail(std::vector<double> values, std::size_t beyond,
          double cap_percentile) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= beyond) return {values.back(), 100.0, n};
  // 1-based nearest rank: `beyond` samples lie above rank n - beyond.
  const auto capped = static_cast<std::size_t>(
      std::ceil(cap_percentile / 100.0 * static_cast<double>(n)));
  const std::size_t rank = std::min(n - beyond, std::max<std::size_t>(capped, 1));
  return {values[rank - 1],
          100.0 * static_cast<double>(rank) / static_cast<double>(n), n};
}

}  // namespace perfbench
