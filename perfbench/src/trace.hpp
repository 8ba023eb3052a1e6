#pragma once
// The benchmark's own spans. Every call the driver makes into a library
// module's public functions goes through Tracer::call, named
// "<module>.<function>"; each unit of work is a span named "unit". With
// recording off a call costs one branch, so the untraced run times whole
// units only. Spans are kept in memory and written once, as Chrome
// trace-event JSON, when the run ends. No span is added inside the library.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`.
[[nodiscard]] double ms_since(Clock::time_point start);

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;            ///< index of the enclosing span, -1 at top
    std::uint64_t request = 0;  ///< serve request id, 0 elsewhere
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;   ///< -1 while open
    std::uint32_t thread = 0;
  };

  /// An open span; closes on destruction. Its parent is the innermost span
  /// this thread has open, so nesting follows the call structure.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  ///< null when recording was off at entry
    int id_ = -1;
    int outer_ = -1;
  };

  void set_recording(bool on) noexcept { recording_ = on; }
  [[nodiscard]] bool recording() const noexcept { return recording_; }

  /// Runs `fn` inside a span named `name` and returns its result.
  template <typename Fn>
  decltype(auto) call(const char* name, Fn&& fn) {
    const Scope scope(*this, name);
    return fn();
  }

  [[nodiscard]] std::vector<Span> spans() const;

  /// Per-unit means over every closed "unit" span: "<name>_ms" for each
  /// span name (all depths), "unit_ms", and "untraced_ms" — unit time not
  /// covered by the unit's direct children. The direct children plus
  /// untraced_ms add up to unit_ms exactly.
  [[nodiscard]] std::map<std::string, double> per_unit_ms() const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  void write_chrome_json(std::ostream& out) const;

 private:
  int open(const char* name, std::uint64_t request);
  void close(int id);

  bool recording_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

}  // namespace perfbench
