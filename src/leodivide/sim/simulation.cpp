#include "leodivide/sim/simulation.hpp"

#include "leodivide/core/oversubscription.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/runtime/parallel_for.hpp"
#include "leodivide/sim/coverage.hpp"
#include "leodivide/sim/workspace.hpp"

namespace leodivide::sim {

Simulation::Simulation(SimulationConfig config,
                       const demand::DemandProfile& profile,
                       const core::SatelliteCapacityModel& model)
    : config_(config),
      scheduler_(BeamScheduler::cells_from_profile(
                     profile, model, core::kFccOversubscriptionCap),
                 config.scheduler),
      orbits_(orbit::make_constellation(config.shell)) {}

std::vector<EpochCoverage> Simulation::run(
    runtime::Executor& executor) const {
  const obs::Span obs_span("sim.run");
  const SimClock clock(config_.duration_s, config_.step_s);
  if (obs::metrics_enabled()) {
    static obs::Counter& epochs = obs::registry().counter("sim.epochs");
    epochs.add(clock.epochs());
  }
  std::vector<EpochCoverage> trace(clock.epochs());
  // One workspace + schedule buffer per chunk: after the first epoch of a
  // chunk warms the buffers, the remaining epochs run without any heap
  // allocation (pinned by the equivalence suite). Each epoch is still
  // computed independently and writes only its own trace slot, so the body
  // is range-oblivious and the trace is identical for every thread count.
  runtime::parallel_for(
      executor, 0, clock.epochs(),
      // leolint:allow(parallel-capture): each epoch writes only its own trace slot
      [this, &trace, &clock](std::size_t lo, std::size_t hi) {
        ScheduleWorkspace workspace;
        ScheduleResult schedule;
        for (std::size_t e = lo; e < hi; ++e) {
          const obs::Span epoch_span("sim.epoch");
          const double t = clock.time_at(e);
          orbit::propagate_all(orbits_, t, workspace.states);
          scheduler_.schedule(workspace.states, workspace, schedule);
          trace[e] = summarize_epoch(schedule, scheduler_.cells().size(), t,
                                     workspace.sat_dedup);
        }
      });
  return trace;
}

std::vector<EpochCoverage> Simulation::run() const {
  return run(runtime::global_executor());
}

SimulationReport Simulation::run_report() const { return summarize(run()); }

}  // namespace leodivide::sim
