#pragma once
// The measurement loop shared by the workloads. A run is: set-up, repeated
// kSetupRuns times (inputs, reference outputs, caches, servers); then
// kWindows windows of equal time, laid end to end from the start of the
// first, so a unit that runs past one window's end shortens the next
// rather than lengthening the run. In each window a batch workload runs a
// unit on one thread after every second unit at T threads, so a slow spell
// on the host lands on both; serve, whose thread count is a server's, runs
// each window half at T and half on one thread. Every unit's output is
// checked. The traced run adds traced units at T threads, recording spans
// and the library's obs counters, beside untraced ones to compare against.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "leodivide/demand/dataset.hpp"
#include "trace.hpp"

namespace perfbench {

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRuns = 3;
/// Time windows per run.
inline constexpr int kWindows = 6;
/// Fewest units per run at T threads and on one thread, so no median is
/// read off one or two samples when the host is slow. Low enough that a
/// batch run never needs more than --seconds to reach them.
inline constexpr std::size_t kMinUnits = 12;
inline constexpr std::size_t kMinUnits1t = 6;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path workdir;     ///< output files and caches
  std::filesystem::path trace_file;  ///< Chrome trace (traced run only)
  std::size_t threads = 1;           ///< T = min(4, nproc)

  static constexpr std::uint64_t kDefaultSeed = 42;
};

/// Seconds each of serve's slots runs for, and the fewest units per window
/// (a batch workload's) or slot (serve's).
struct WindowPlan {
  explicit WindowPlan(const Options& o);
  double untraced_s = 0.0;  ///< T threads, tracing off
  double traced_s = 0.0;    ///< T threads, tracing on (traced run only)
  double one_thread_s = 0.0;
  std::size_t min_units = (kMinUnits + kWindows - 1) / kWindows;
  std::size_t min_units_1t = (kMinUnits1t + kWindows - 1) / kWindows;
};

/// What one run measured.
struct Measurement {
  std::vector<double> setup_s;
  std::vector<double> unit_ms;     ///< T threads, untraced (serve: blocks)
  std::vector<double> unit_1t_ms;  ///< one thread, untraced
  std::vector<double> traced_ms;   ///< T threads, traced run only
  /// Untraced T-thread units (serve: requests) per second, the median
  /// over the windows.
  double units_per_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;        ///< the first few failures
  std::map<std::string, double> layers;  ///< per-layer metrics (traced run)

  /// Counts one failed unit or request.
  void fail(const std::string& what);
};

/// A batch workload: one unit is one run a user makes.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  /// Builds inputs and reference outputs. Timed as set-up and repeated;
  /// each call starts from scratch. Absolute output checks report through
  /// `m.fail`.
  virtual void setup(Measurement& m) = 0;
  /// One unit of work; every library call goes through `tracer.call`.
  virtual void unit(Tracer& tracer) = 0;
  /// Checks the last unit's output (untimed); when `traced`, also collects
  /// the unit's per-layer counts. Returns what is wrong, or "".
  virtual std::string check(bool traced) = 0;
  /// Called after every untraced unit whose output checked out, with the
  /// thread count it ran on.
  virtual void unit_passed(std::size_t threads) { (void)threads; }
  /// Adds per-layer metrics beyond span times. `m.layers` already holds the
  /// per-unit span means; `units` traced units ran.
  virtual void add_layer_metrics(Measurement& m, double units) {
    (void)m;
    (void)units;
  }
};

struct Part {
  std::string name;
  std::unique_ptr<BatchWorkload> workload;
};

/// One workload made of several run back to back: a unit is one unit of
/// each part, in order, and a part's check sees that part's output only.
/// Each part's own wall time is kept too; the traced run reports its
/// medians as "<name>.wall_ms_p50" and "<name>.wall_ms_1t_p50".
[[nodiscard]] std::unique_ptr<BatchWorkload> make_sequence(
    std::vector<Part> parts);

[[nodiscard]] Measurement run_batch(BatchWorkload& workload,
                                    const Options& options);

/// The seeded national profile every workload starts from.
[[nodiscard]] leodivide::demand::DemandProfile seeded_profile(
    std::uint64_t seed);

/// SplitMix64: the driver's own seeded choices (region subset, request
/// scripts), independent of any library RNG.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Per-unit mean of an obs counter over the traced units.
[[nodiscard]] double counter_per_unit(const char* name, double units);

}  // namespace perfbench
