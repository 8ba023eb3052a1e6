#pragma once
// Order statistics the benchmark reports: medians, quartiles and the tail
// percentile rule ("the highest percentile with at least N samples beyond
// it"), so a tail is never read off a handful of samples.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values`; the mean of the middle two for an even count, 0 for
/// an empty set.
[[nodiscard]] double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the run-to-run spread of
/// the benchmark is judged by. With fewer than two values both quartiles
/// are that value (or 0).
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

struct Tail {
  double value = 0.0;       ///< the sample at the tail percentile
  double percentile = 0.0;  ///< its nearest-rank percentile, in (0, 100]
  std::size_t samples = 0;  ///< how many samples the tail was read from
};

/// The highest nearest-rank percentile, at most `cap_percentile`, with at
/// least `beyond` samples above it. The cap keeps the tail of a long run
/// (a server's tens of thousands of requests) at p80: on a shared 4-vCPU
/// host, p90 of a 30 ms parallel unit already varied by a quarter between
/// runs, so higher percentiles measure the host's stalls, not the program.
/// With `beyond` or fewer samples no such percentile exists; the maximum
/// is returned at percentile 100.
[[nodiscard]] Tail tail(std::vector<double> values, std::size_t beyond = 10,
                        double cap_percentile = 80.0);

}  // namespace perfbench
