// The batch workload's coverage and handover parts: the epoch engine over
// the national profile, and the event engine's exact handover accounting
// over a seeded regional subset.

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>

#include "checks.hpp"
#include "leodivide/event/engine.hpp"
#include "leodivide/geo/greatcircle.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/snapshot/artifacts.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace leodivide;

// Starlink shell 1 at the 15 s rescheduling interval measured for Starlink
// (arXiv 2310.09242), beamspread 5 (the SchedulerConfig default), 30 min
// (121 epochs).
constexpr double kCoverageStepS = 15.0;
constexpr double kCoverageDurationS = 1800.0;

// The handover configuration: 1 s step on 40 cells in seeded clusters.
// Two minutes keep the part near 0.2 s on a 4-core host, so a run holds
// enough units for a tail percentile.
constexpr double kHandoverStepS = 1.0;
constexpr double kHandoverDurationS = 120.0;
constexpr std::size_t kHandoverCells = 40;
constexpr std::size_t kHandoverClusters = 8;
constexpr double kHandoverLatMinDeg = 39.0;
constexpr double kHandoverLatMaxDeg = 41.0;

class Coverage final : public BatchWorkload {
 public:
  explicit Coverage(const Options& o) : seed_(o.seed) {}

  void setup(Measurement&) override {
    profile_ = seeded_profile(seed_);
    sim::SimulationConfig config;
    config.step_s = kCoverageStepS;
    config.duration_s = kCoverageDurationS;
    sim_.emplace(config, profile_);
    reference_.clear();
    Tracer off;
    unit(off);
    reference_ = snapshot::serialize(epochs_);
  }

  void unit(Tracer& tracer) override {
    epochs_ = tracer.call("sim.run",
                          [&] { return sim_->run(runtime::global_executor()); });
  }

  std::string check(bool) override {
    return check_same("coverage trace", reference_,
                      snapshot::serialize(epochs_));
  }

  void add_layer_metrics(Measurement& m, double units) override {
    const double run_ms = m.layers["sim.run_ms"];
    const auto epochs = static_cast<double>(epochs_.size());
    if (epochs > 0.0) m.layers["sim.epoch_us"] = run_ms * 1e3 / epochs;
    if (run_ms > 0.0) {
      m.layers["sim.cell_epochs_per_s"] =
          static_cast<double>(profile_.cell_count()) * epochs / (run_ms / 1e3);
    }
    const double candidates = counter_per_unit("sim.sched.candidates", units);
    const double pruned = counter_per_unit("sim.sched.pruned", units);
    m.layers["sim.sched.candidates"] = candidates;
    m.layers["sim.sched.pruned"] = pruned;
    if (candidates + pruned > 0.0) {
      m.layers["sim.sched.keep_ratio"] = candidates / (candidates + pruned);
    }
  }

 private:
  std::uint64_t seed_;
  demand::DemandProfile profile_;
  std::optional<sim::Simulation> sim_;
  std::vector<sim::EpochCoverage> epochs_;
  std::string reference_;
};

// kHandoverClusters clusters of the cells nearest a seeded centre cell
// (ties by index), with the full county table. The event engine's work
// grows with the satellites a cell sees, which depends on latitude and on
// how the cells around the centre lie, so the centres are drawn from one
// latitude band and a unit averages over several of them: a unit's work is
// then alike across seeds.
demand::DemandProfile region_subset(const demand::DemandProfile& national,
                                    std::uint64_t seed) {
  const auto& cells = national.cells();
  std::vector<std::size_t> band;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double lat = cells[i].center.lat_deg;
    if (lat >= kHandoverLatMinDeg && lat < kHandoverLatMaxDeg) band.push_back(i);
  }
  SeededRng rng(seed ^ 0x68616E646F766572ULL);  // "handover"
  std::vector<bool> chosen(cells.size(), false);
  std::vector<std::size_t> order(cells.size());
  std::vector<double> dist(cells.size());
  for (std::size_t k = 0; k < kHandoverClusters; ++k) {
    const geo::GeoPoint centre = cells[band[rng.below(band.size())]].center;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      dist[i] = geo::distance_km(centre, cells[i].center);
    }
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return dist[a] != dist[b] ? dist[a] < dist[b] : a < b;
    });
    std::size_t taken = 0;
    for (std::size_t i : order) {
      if (taken == kHandoverCells / kHandoverClusters) break;
      if (chosen[i]) continue;
      chosen[i] = true;
      ++taken;
    }
  }
  std::vector<demand::CellDemand> subset;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (chosen[i]) subset.push_back(cells[i]);
  }
  return demand::DemandProfile(std::move(subset), national.counties());
}

class Handover final : public BatchWorkload {
 public:
  explicit Handover(const Options& o) : seed_(o.seed) {}

  void setup(Measurement&) override {
    profile_ = region_subset(seeded_profile(seed_), seed_);
    sim::SimulationConfig config;
    config.step_s = kHandoverStepS;
    config.duration_s = kHandoverDurationS;
    // The epoch engine on the same configuration: the output check's
    // reference and the cost of the alternative engine.
    const sim::Simulation epoch_engine(config, profile_);
    satellites_ = epoch_engine.orbits().size();
    const auto t0 = Clock::now();
    epoch_reference_ = epoch_engine.run(runtime::global_executor());
    epoch_engine_ms_.push_back(ms_since(t0));
    config.engine = sim::Engine::kEvent;
    engine_.emplace(config, profile_);
    reference_.clear();
    events_ = boundaries_ = segments_ = 0.0;
    contact_pairs_ = 0.0;
  }

  void unit(Tracer& tracer) override {
    tracer.call("event.run_trace", [&] {
      engine_->run_trace(runtime::global_executor(), trace_);
    });
  }

  std::string check(bool traced) override {
    if (traced) {
      events_ += static_cast<double>(trace_.events.size());
      boundaries_ += static_cast<double>(trace_.boundaries);
      segments_ += static_cast<double>(trace_.segments.size());
      std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
      for (const event::Event& e : trace_.events) pairs.emplace(e.cell, e.sat);
      contact_pairs_ += static_cast<double>(pairs.size());
    }
    std::string bytes = snapshot::serialize(trace_);
    if (reference_.empty()) {
      reference_ = std::move(bytes);
    } else if (std::string e = check_same("event trace", reference_, bytes);
               !e.empty()) {
      return e;
    }
    return check_handover(trace_, epoch_reference_);
  }

  void add_layer_metrics(Measurement& m, double units) override {
    if (units == 0.0) return;
    const double pairs = static_cast<double>(profile_.cell_count()) *
                         static_cast<double>(satellites_);
    m.layers["event.events"] = events_ / units;
    m.layers["event.boundaries"] = boundaries_ / units;
    m.layers["event.segments"] = segments_ / units;
    m.layers["event.pairs"] = pairs;
    m.layers["event.contact_pair_share"] = contact_pairs_ / units / pairs;
    m.layers["event.epochs.recomputed"] =
        counter_per_unit("event.epochs.recomputed", units);
    m.layers["event.epochs.reused"] =
        counter_per_unit("event.epochs.reused", units);
    m.layers["event.epoch_engine_ms"] = median(epoch_engine_ms_);
  }

 private:
  std::uint64_t seed_;
  demand::DemandProfile profile_;
  std::size_t satellites_ = 0;
  std::vector<sim::EpochCoverage> epoch_reference_;
  std::vector<double> epoch_engine_ms_;
  std::optional<event::EventSimulation> engine_;
  event::EventTrace trace_;
  std::string reference_;
  double events_ = 0.0;
  double boundaries_ = 0.0;
  double segments_ = 0.0;
  double contact_pairs_ = 0.0;
};

}  // namespace

std::unique_ptr<BatchWorkload> make_coverage(const Options& o) {
  return std::make_unique<Coverage>(o);
}

std::unique_ptr<BatchWorkload> make_handover(const Options& o) {
  return std::make_unique<Handover>(o);
}

}  // namespace perfbench
