#include "leodivide/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <string>

#include "leodivide/io/json.hpp"
#include "leodivide/obs/metrics.hpp"

namespace leodivide::obs {

std::uint64_t now_ns() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder r;
  return r;
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lk(m_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size() - 1);
    buffer = buffers_.back().get();
  }
  return *buffer;
}

std::uint32_t TraceRecorder::thread_id() { return local_buffer().tid; }

void TraceRecorder::record(const TraceEvent& event) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lk(buf.m);
  buf.events.push_back(event);
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lk(m_);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> blk(buf->m);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.tid < b.tid;
            });
  return out;
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> blk(buf->m);
    n += buf->events.size();
  }
  return n;
}

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  const std::vector<TraceEvent> all = events();
  std::uint32_t max_tid = 0;
  for (const auto& e : all) max_tid = std::max(max_tid, e.tid);

  io::JsonWriter json(out, /*pretty=*/false);
  json.begin_object();
  json.begin_array("traceEvents");
  // Metadata: process + thread names so Perfetto's track labels read well.
  json.begin_object();
  json.value("name", "process_name");
  json.value("ph", "M");
  json.value("pid", 1LL);
  json.begin_object("args");
  json.value("name", "leodivide");
  json.end_object();
  json.end_object();
  if (!all.empty()) {
    for (std::uint32_t tid = 0; tid <= max_tid; ++tid) {
      json.begin_object();
      json.value("name", "thread_name");
      json.value("ph", "M");
      json.value("pid", 1LL);
      json.value("tid", static_cast<long long>(tid));
      json.begin_object("args");
      json.value("name", "thread-" + std::to_string(tid));
      json.end_object();
      json.end_object();
    }
  }
  for (const auto& e : all) {
    json.begin_object();
    json.value("name", e.name);
    json.value("cat", "leodivide");
    json.value("ph", "X");
    json.value("pid", 1LL);
    json.value("tid", static_cast<long long>(e.tid));
    json.value("ts", static_cast<double>(e.start_ns) / 1e3);
    json.value("dur", static_cast<double>(e.dur_ns) / 1e3);
    json.end_object();
  }
  json.end_array();
  json.value("displayTimeUnit", "ms");
  json.end_object();
  out << '\n';
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lk(m_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> blk(buf->m);
    buf->events.clear();
  }
}

// -------------------------------------------------------------------- Span --

void Span::begin(const char* name) noexcept {
  name_ = name;
  start_ns_ = now_ns();
}

void Span::end() noexcept {
  // Runs during unwinding too (Span is RAII), so swallow any allocation
  // failure from the recorder/registry rather than terminating.
  try {
    const std::uint64_t dur = now_ns() - start_ns_;
    if (tracing_enabled()) {
      TraceRecorder& rec = TraceRecorder::instance();
      rec.record(TraceEvent{name_, start_ns_, dur, rec.thread_id()});
    }
    if (metrics_enabled()) {
      registry().timer(name_).record_ns(dur);
    }
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

}  // namespace leodivide::obs
