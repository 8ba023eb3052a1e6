#include "trace.hpp"

#include <functional>
#include <ios>
#include <ostream>
#include <thread>

namespace perfbench {

namespace {
thread_local int t_current = -1;  // innermost open span on this thread
}  // namespace

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer.recording() ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  outer_ = t_current;
  id_ = tracer_->open(name, request);
  t_current = id_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->close(id_);
  t_current = outer_;
}

int Tracer::open(const char* name, std::uint64_t request) {
  Span span;
  span.name = name;
  span.parent = t_current;
  span.request = request;
  span.thread = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
  const std::lock_guard<std::mutex> lock(mutex_);
  span.start_ns = (Clock::now() - epoch_).count();
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = (Clock::now() - epoch_).count();
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::per_unit_ms() const {
  const std::vector<Span> all = spans();
  std::vector<bool> is_unit(all.size(), false);
  double units = 0.0;
  double unit_ns = 0.0;
  double child_ns = 0.0;
  std::map<std::string, double> total_ns;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ns < 0) continue;
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    if (std::string_view(s.name) == "unit") {
      is_unit[i] = true;
      units += 1.0;
      unit_ns += dur;
      continue;
    }
    total_ns[std::string(s.name) + "_ms"] += dur;
    if (s.parent >= 0 && is_unit[static_cast<std::size_t>(s.parent)]) {
      child_ns += dur;
    }
  }
  std::map<std::string, double> out;
  if (units == 0.0) return out;
  for (const auto& [name, ns] : total_ns) out[name] = ns / units / 1e6;
  out["unit_ms"] = unit_ns / units / 1e6;
  out["untraced_ms"] = (unit_ns - child_ns) / units / 1e6;
  return out;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  const std::vector<Span> all = spans();
  const auto flags = out.flags();
  const auto precision = out.precision(3);
  out << std::fixed << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ns < 0) continue;
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
    first = false;
  }
  out << "\n]}\n";
  out.flags(flags);
  out.precision(precision);
}

}  // namespace perfbench
