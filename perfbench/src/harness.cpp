#include "harness.hpp"

#include <fstream>

#include "leodivide/demand/generator.hpp"
#include "leodivide/obs/gate.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/runtime/executor.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace leodivide;

void Measurement::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 5) errors.push_back(what);
}

demand::DemandProfile seeded_profile(std::uint64_t seed) {
  demand::GeneratorConfig config;
  config.seed = seed;
  return demand::SyntheticGenerator{config}.generate_profile(
      runtime::global_executor());
}

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

WindowPlan::WindowPlan(const Options& o) {
  const double t_seconds = o.seconds / 2.0 / kWindows;
  untraced_s = o.trace ? t_seconds / 2.0 : t_seconds;
  traced_s = o.trace ? t_seconds / 2.0 : 0.0;
  one_thread_s = o.seconds / 2.0 / kWindows;
}

double counter_per_unit(const char* name, double units) {
  if (units == 0.0) return 0.0;
  return static_cast<double>(obs::registry().counter(name).total()) / units;
}

namespace {

class Sequence final : public BatchWorkload {
 public:
  explicit Sequence(std::vector<Part> parts)
      : parts_(std::move(parts)),
        last_ms_(parts_.size()),
        ms_(parts_.size()),
        ms_1t_(parts_.size()) {}

  void setup(Measurement& m) override {
    for (Part& p : parts_) p.workload->setup(m);
  }

  void unit(Tracer& tracer) override {
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      const auto t0 = Clock::now();
      parts_[i].workload->unit(tracer);
      last_ms_[i] = ms_since(t0);
    }
  }

  // Every part checks (and collects its traced counts); the first error
  // is the unit's.
  std::string check(bool traced) override {
    std::string first;
    for (Part& p : parts_) {
      std::string e = p.workload->check(traced);
      if (first.empty()) first = std::move(e);
    }
    return first;
  }

  void unit_passed(std::size_t threads) override {
    auto& samples = threads == 1 ? ms_1t_ : ms_;
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      samples[i].push_back(last_ms_[i]);
    }
  }

  void add_layer_metrics(Measurement& m, double units) override {
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      parts_[i].workload->add_layer_metrics(m, units);
      m.layers[parts_[i].name + ".wall_ms_p50"] = median(ms_[i]);
      m.layers[parts_[i].name + ".wall_ms_1t_p50"] = median(ms_1t_[i]);
    }
  }

 private:
  std::vector<Part> parts_;
  std::vector<double> last_ms_;
  std::vector<std::vector<double>> ms_;
  std::vector<std::vector<double>> ms_1t_;
};

// Runs one unit on `threads` threads. A failed unit counts in `m` and adds
// no sample. Returns the unit's wall time in milliseconds.
double run_unit(BatchWorkload& w, Tracer& tracer, Measurement& m,
                std::vector<double>& samples, std::size_t threads,
                bool traced) {
  runtime::set_global_threads(threads);
  (void)runtime::global_executor();  // the pool starts outside the timing
  tracer.set_recording(traced);
  obs::set_metrics_enabled(traced);
  ++m.attempted;
  std::string error;
  const auto t0 = Clock::now();
  try {
    const Tracer::Scope unit(tracer, "unit");
    w.unit(tracer);
  } catch (const std::exception& e) {
    error = std::string("unit threw: ") + e.what();
  }
  const double ms = ms_since(t0);
  tracer.set_recording(false);
  obs::set_metrics_enabled(false);
  if (error.empty()) error = w.check(traced);
  if (error.empty()) {
    samples.push_back(ms);
    if (!traced) w.unit_passed(threads);
  } else {
    m.fail(error);
  }
  return ms;
}

}  // namespace

std::unique_ptr<BatchWorkload> make_sequence(std::vector<Part> parts) {
  return std::make_unique<Sequence>(std::move(parts));
}

Measurement run_batch(BatchWorkload& w, const Options& o) {
  Measurement m;
  runtime::set_global_threads(o.threads);
  for (int i = 0; i < kSetupRuns; ++i) {
    const auto t0 = Clock::now();
    w.setup(m);
    m.setup_s.push_back(ms_since(t0) / 1e3);
  }

  // Every second unit at T threads is followed by one on one thread, which
  // takes about twice as long, so both sample the host over the whole run
  // in about equal time; the traced run adds a traced unit after each
  // untraced one at T threads. The run is cut into kWindows windows of
  // equal time, and units_per_s is the median of the windows' rates.
  Tracer tracer;
  const WindowPlan plan(o);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(o.seconds / kWindows));
  if (o.trace) obs::registry().reset_values();
  std::vector<double> units_per_s;
  const auto start = Clock::now();
  for (int r = 0; r < kWindows; ++r) {
    const auto until = start + (r + 1) * window;
    const std::size_t before = m.unit_ms.size();
    double busy_ms = 0.0;
    for (std::size_t i = 0; i < plan.min_units || Clock::now() < until; ++i) {
      busy_ms += run_unit(w, tracer, m, m.unit_ms, o.threads, false);
      if (o.trace) run_unit(w, tracer, m, m.traced_ms, o.threads, true);
      if (i % 2 == 1) run_unit(w, tracer, m, m.unit_1t_ms, 1, false);
    }
    units_per_s.push_back(static_cast<double>(m.unit_ms.size() - before) /
                          (busy_ms / 1e3));
  }
  runtime::set_global_threads(o.threads);
  m.units_per_s = median(units_per_s);
  if (o.trace) {
    m.layers = tracer.per_unit_ms();
    w.add_layer_metrics(m, static_cast<double>(m.traced_ms.size()));
    std::ofstream out(o.trace_file);
    tracer.write_chrome_json(out);
  }
  return m;
}

}  // namespace perfbench
