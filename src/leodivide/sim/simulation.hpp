#pragma once
// The simulation driver: propagate a Walker shell over time, schedule beams
// to demand cells each epoch, and report achieved coverage. Empirically
// validates the analytic sizing model (the paper's lower bound can only be
// optimistic; the simulator shows by how much).

#include <vector>

#include "leodivide/orbit/walker.hpp"
#include "leodivide/sim/clock.hpp"
#include "leodivide/sim/metrics.hpp"
#include "leodivide/sim/scheduler.hpp"

namespace leodivide::runtime {
class Executor;
}

namespace leodivide::sim {

/// Which simulator core executes the run. Both produce byte-identical
/// `EpochCoverage` traces; the event engine (event/engine.hpp) reschedules
/// only at certified visibility changes, so it wins whenever the step is
/// fine relative to contact dynamics. The choice is deliberately *not*
/// part of any snapshot fingerprint: by the golden-equivalence guarantee
/// it cannot change the output bytes.
enum class Engine {
  kEpoch,  ///< fixed-step: full reschedule at every epoch
  kEvent,  ///< event-driven: reschedule only at rise/set crossing windows
};

/// Simulation parameters. Each cell's beams_needed is computed at the
/// FCC's 20:1 cap (core::kFccOversubscriptionCap).
struct SimulationConfig {
  orbit::WalkerShell shell = orbit::starlink_shell1();
  SchedulerConfig scheduler;
  double duration_s = 600.0;
  double step_s = 60.0;
  Engine engine = Engine::kEpoch;
};

/// Runs a full simulation against a demand profile.
class Simulation {
 public:
  Simulation(SimulationConfig config, const demand::DemandProfile& profile,
             const core::SatelliteCapacityModel& model = {});

  /// Runs every epoch; returns the per-epoch trace. Epochs are mutually
  /// independent (propagate → schedule → summarize), so they run in
  /// parallel over `executor` with each epoch writing its own trace slot —
  /// the trace is identical for every thread count. Each worker chunk reuses
  /// one ScheduleWorkspace, so the steady-state epoch loop performs no heap
  /// allocations.
  [[nodiscard]] std::vector<EpochCoverage> run(
      runtime::Executor& executor) const;

  /// As above, on the process-global executor (LEODIVIDE_THREADS).
  [[nodiscard]] std::vector<EpochCoverage> run() const;

  /// Runs and reduces to a report.
  [[nodiscard]] SimulationReport run_report() const;

  [[nodiscard]] const SimulationConfig& config() const noexcept {
    return config_;
  }
  /// The scheduler this run drives (cell list, strategy, geometry inputs).
  /// The event engine builds its crossing solvers against the same state.
  [[nodiscard]] const BeamScheduler& scheduler() const noexcept {
    return scheduler_;
  }
  /// The constellation's orbital elements, in satellite-index order.
  [[nodiscard]] const std::vector<orbit::CircularOrbit>& orbits()
      const noexcept {
    return orbits_;
  }

 private:
  SimulationConfig config_;
  BeamScheduler scheduler_;
  std::vector<orbit::CircularOrbit> orbits_;
};

}  // namespace leodivide::sim
