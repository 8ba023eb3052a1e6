// Coverage simulation: propagate a Walker shell over time and watch the
// greedy beam scheduler serve the national demand cells epoch by epoch.
//
//   $ ./coverage_sim [--engine=epoch|event] [--snapshot-dir DIR]
//                    [--trace FILE] [--metrics[=FILE]] [planes]
//                    [sats_per_plane] [minutes] [beamspread]
//
// Defaults: Starlink shell 1 (72 x 22 at 53 deg / 550 km), 10 minutes,
// beamspread 5, the fixed-epoch engine. `--engine=event` runs the
// deterministic rise/set event queue instead — byte-identical output,
// computed only at contact changes. With `--snapshot-dir DIR` (or
// LEODIVIDE_SNAPSHOT_DIR) the generated demand profile and the epoch
// trace are cached as LDSNAP blobs keyed by their exact inputs, so a
// rerun with the same shell and horizon skips both generation and
// propagation. `--trace`/`--metrics` work as in national_analysis
// (README.md, "Observability").

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "leodivide/core/oversubscription.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/event/engine.hpp"
#include "leodivide/io/table.hpp"
#include "leodivide/obs/obs.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/orbit/footprint.hpp"
#include "leodivide/sim/handover.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/snapshot/snapshot.hpp"

int main(int argc, char** argv) {
  using namespace leodivide;

  std::vector<std::string> positional;
  sim::Engine engine = sim::Engine::kEpoch;
  obs::Options obs_options = obs::options_from_env();
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (snapshot::parse_cli_arg(argc, argv, i)) {
        // Snapshot cache flag; consumed.
      } else if (obs::parse_cli_arg(obs_options, argc, argv, i)) {
        // Observability flag; consumed.
      } else if (arg == "--engine=epoch") {
        engine = sim::Engine::kEpoch;
      } else if (arg == "--engine=event") {
        engine = sim::Engine::kEvent;
      } else if (arg.rfind("--", 0) == 0) {
        std::cerr << "unknown or malformed flag: " << arg
                  << "\nusage: coverage_sim [--engine=epoch|event] "
                     "[--snapshot-dir DIR] [--trace FILE] "
                     "[--metrics[=FILE]] [planes] "
                     "[sats_per_plane] [minutes] [beamspread]\n";
        return 2;
      } else {
        positional.push_back(arg);
      }
    }
  } catch (const std::runtime_error& e) {
    // e.g. --snapshot-dir with no value.
    std::cerr << "unknown or malformed flag: " << e.what() << '\n';
    return 2;
  }

  sim::SimulationConfig config;
  config.engine = engine;
  config.shell.planes =
      positional.size() > 0
          ? static_cast<std::uint32_t>(std::atoi(positional[0].c_str()))
          : 72U;
  config.shell.sats_per_plane =
      positional.size() > 1
          ? static_cast<std::uint32_t>(std::atoi(positional[1].c_str()))
          : 22U;
  const double minutes =
      positional.size() > 2 ? std::atof(positional[2].c_str()) : 10.0;
  config.scheduler.beamspread =
      positional.size() > 3
          ? static_cast<std::uint32_t>(std::atoi(positional[3].c_str()))
          : 5U;
  config.duration_s = minutes * 60.0;
  config.step_s = 60.0;
  if (config.shell.planes == 0 || config.shell.sats_per_plane == 0 ||
      minutes <= 0.0 || config.scheduler.beamspread == 0) {
    std::cerr << "usage: coverage_sim [--engine=epoch|event] "
                 "[--snapshot-dir DIR] [planes] "
                 "[sats_per_plane] [minutes] [beamspread]\n";
    return 1;
  }
  obs::apply(obs_options);

  std::cout << "shell: " << config.shell.to_string() << " ("
            << io::fmt_count(config.shell.total_sats()) << " satellites)\n"
            << "footprint radius at 25 deg mask: "
            << io::fmt(orbit::footprint_radius_km(config.shell.altitude_km,
                                                  25.0),
                       0)
            << " km\nbeamspread: " << config.scheduler.beamspread
            << ", scheduling horizon: " << minutes << " min\n\n"
            << "generating national demand profile...\n";

  snapshot::StageCache* cache = snapshot::global_cache();
  const demand::GeneratorConfig gen_config{};
  auto generate = [&gen_config] {
    return demand::SyntheticGenerator{gen_config}.generate_profile();
  };
  demand::DemandProfile profile;
  if (cache != nullptr) {
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("demand.profile");
    snapshot::mix(fp, gen_config);
    profile = cache->get_or_compute(
        "demand.profile", fp, generate,
        [](const demand::DemandProfile& p) { return snapshot::serialize(p); },
        [](std::string_view blob) {
          return snapshot::deserialize_profile(blob);
        });
  } else {
    profile = generate();
  }
  std::cout << "  " << profile.cell_count() << " demand cells, "
            << io::fmt_count(static_cast<long long>(
                   profile.total_locations()))
            << " un(der)served locations\n\n";

  std::cout << "engine: "
            << (config.engine == sim::Engine::kEvent ? "event (rise/set queue)"
                                                     : "epoch (fixed step)")
            << "\n\n";

  // Both engines produce byte-identical traces, so the cache fingerprint
  // deliberately excludes the engine choice: a blob computed by one engine
  // is a valid hit for the other.
  auto run_sim = [&config, &profile] {
    return event::run_simulation(config, profile,
                                 core::SatelliteCapacityModel(),
                                 runtime::global_executor());
  };
  std::vector<sim::EpochCoverage> trace;
  if (cache != nullptr) {
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("sim.epochs");
    snapshot::mix(fp, config);
    fp.mix(snapshot::serialize(profile));
    trace = cache->get_or_compute(
        "sim.epochs", fp, run_sim,
        [](const std::vector<sim::EpochCoverage>& t) {
          return snapshot::serialize(t);
        },
        [](std::string_view blob) { return snapshot::deserialize_epochs(blob); });
  } else {
    trace = run_sim();
  }

  // Handover churn between the first two epochs (satellites move ~450 km
  // per minute, forcing cells to switch serving satellites).
  {
    const core::SatelliteCapacityModel capacity;
    const auto cells = sim::BeamScheduler::cells_from_profile(
        profile, capacity, core::kFccOversubscriptionCap);
    const sim::BeamScheduler scheduler(cells, config.scheduler);
    const auto orbits = orbit::make_constellation(config.shell);
    const auto r0 = scheduler.schedule(orbit::propagate_all(orbits, 0.0));
    const auto r1 =
        scheduler.schedule(orbit::propagate_all(orbits, config.step_s));
    const sim::HandoverStats churn =
        sim::compare_schedules(r0, r1, cells.size());
    std::cout << "handover churn over one step (" << config.step_s
              << " s): " << io::fmt_pct(churn.handover_rate(), 1) << " of "
              << churn.cells_tracked << " tracked cells switched satellites ("
              << churn.cells_dropped << " dropped, " << churn.cells_acquired
              << " acquired)\n\n";
  }

  io::TextTable table;
  table.set_header({"t (min)", "cells served", "cell coverage",
                    "location coverage", "sats serving US",
                    "mean beam util"});
  for (const auto& epoch : trace) {
    table.add_row({io::fmt(epoch.time_s / 60.0, 1),
                   io::fmt_count(static_cast<long long>(epoch.cells_served)),
                   io::fmt_pct(epoch.cell_coverage(), 1),
                   io::fmt_pct(epoch.location_coverage(), 1),
                   io::fmt_count(static_cast<long long>(
                       epoch.satellites_in_view)),
                   io::fmt_pct(epoch.mean_beam_utilization, 1)});
  }
  std::cout << table.render() << '\n';

  const sim::SimulationReport report = sim::summarize(trace);
  std::cout << "summary over " << report.epochs
            << " epochs: mean cell coverage "
            << io::fmt_pct(report.mean_cell_coverage, 1) << " (min "
            << io::fmt_pct(report.min_cell_coverage, 1) << ", max "
            << io::fmt_pct(report.max_cell_coverage, 1)
            << "), mean location coverage "
            << io::fmt_pct(report.mean_location_coverage, 1) << '\n';
  if (report.mean_cell_coverage < 0.999) {
    std::cout << "\nThe shell cannot keep a beam on every demand cell — the "
                 "paper's capacity argument (P1/P2) in action. Try more "
                 "planes/satellites or higher beamspread.\n";
  }
  obs::finalize(obs_options);
  return 0;
}
