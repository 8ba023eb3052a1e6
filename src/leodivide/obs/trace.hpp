#pragma once
// Scoped tracing: RAII spans that record complete ("ph":"X") events into
// per-thread buffers, exported as Chrome trace-event JSON that loads in
// chrome://tracing and Perfetto. Span names must be string literals (or
// otherwise outlive the recorder) — spans store the pointer, not a copy, so
// the disabled path never allocates.
//
// A Span also feeds the metrics registry: on scope exit the duration is
// added to the stage timer of the same name (when metrics are on), which is
// where bench "stages" breakdowns come from. With both facilities off, the
// constructor is a single relaxed load + branch and the destructor a
// null-pointer test.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "leodivide/obs/gate.hpp"

namespace leodivide::obs {

/// Nanoseconds since the process-wide trace epoch (steady clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// One recorded complete ("ph":"X") event. `name` must have static storage
/// duration.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< small stable per-thread id, first-use order
};

/// Process-wide trace sink. Threads append to their own buffers (guarded by
/// a per-buffer mutex so export can run concurrently with stragglers);
/// write_chrome_trace merges and time-sorts everything.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Small stable id of the calling thread (0, 1, 2, … in first-use order).
  [[nodiscard]] std::uint32_t thread_id();

  void record(const TraceEvent& event);

  /// All events so far, merged across threads and sorted by start time.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t event_count() const;

  /// Writes {"traceEvents": [...]} with thread-name metadata. Compact JSON,
  /// timestamps in microseconds as chrome://tracing expects.
  void write_chrome_trace(std::ostream& out) const;

  /// Drops every recorded event (thread registrations survive, so cached
  /// thread ids stay valid).
  void clear();

 private:
  struct ThreadBuffer {
    mutable std::mutex m;
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;
  };
  TraceRecorder() = default;
  ThreadBuffer& local_buffer();

  mutable std::mutex m_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII stage span. Usage: `obs::Span span("demand.aggregate");`
class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (observability_enabled()) [[unlikely]] begin(name);
  }
  ~Span() {
    if (name_ != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name) noexcept;
  void end() noexcept;

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace leodivide::obs
