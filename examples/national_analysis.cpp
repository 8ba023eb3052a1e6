// National analysis: the full paper pipeline with dataset persistence.
//
//   $ ./national_analysis [--threads N] [--trace FILE] [--metrics[=FILE]]
//                         [--snapshot-dir DIR] [output_dir]
//
// Generates the calibrated national profile, saves it as CSV (cells +
// counties) so it can be inspected or replaced with a real FCC Broadband
// Data Collection extract, reloads it, runs the complete analysis, and
// writes a machine-readable JSON summary next to the CSVs. `--threads N`
// sizes the process-global executor (results are identical for every N).
// `--trace FILE` writes a Chrome trace-event JSON of the pipeline stages
// and `--metrics[=FILE]` dumps the metrics registry at exit (see
// README.md, "Observability"); LEODIVIDE_TRACE / LEODIVIDE_METRICS work
// too. `--snapshot-dir DIR` (or LEODIVIDE_SNAPSHOT_DIR) turns on the
// content-addressed stage cache: the generated profile and the analysis
// results are stored as LDSNAP blobs keyed by their exact inputs, so a
// rerun with unchanged inputs skips generation and sizing entirely while
// producing byte-identical outputs (see README.md, "Snapshots &
// incremental re-runs"). The run always ends with one machine-readable
// bench line carrying wall time, stage breakdown and snapshot hit/miss
// counts.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "leodivide/core/report.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/demand/geojson.hpp"
#include "leodivide/io/json.hpp"
#include "leodivide/obs/obs.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/snapshot/snapshot.hpp"

int main(int argc, char** argv) {
  using namespace leodivide;
  namespace fs = std::filesystem;

  // Wall time feeds the reporting-only bench line; it never enters results.
  // leolint:allow(no-wallclock): reporting-only bench-line wall time
  const auto wall_start = std::chrono::steady_clock::now();

  obs::Options obs_options = obs::options_from_env();
  fs::path out_dir = "national_analysis_out";
  try {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      if (const auto n = runtime::parse_thread_count(argv[++i])) {
        runtime::set_global_threads(*n);
      } else {
        std::cerr << "invalid --threads value: " << argv[i] << '\n';
        return 2;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (const auto n = runtime::parse_thread_count(arg.substr(10))) {
        runtime::set_global_threads(*n);
      } else {
        std::cerr << "invalid --threads value: " << arg.substr(10) << '\n';
        return 2;
      }
    } else if (obs::parse_cli_arg(obs_options, argc, argv, i)) {
      // Observability flag; consumed.
    } else if (snapshot::parse_cli_arg(argc, argv, i)) {
      // Snapshot cache flag; consumed.
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown or malformed flag: " << arg
                << "\nusage: national_analysis [--threads N] [--trace FILE]"
                   " [--metrics[=FILE]] [--snapshot-dir DIR] [output_dir]\n";
      return 2;
    } else {
      out_dir = arg;
    }
  }
  } catch (const std::runtime_error& e) {
    // e.g. --snapshot-dir with no value.
    std::cerr << "unknown or malformed flag: " << e.what() << '\n';
    return 2;
  }
  obs::apply(obs_options);
  std::cout << "using " << runtime::global_executor().concurrency()
            << " thread(s)\n";
  fs::create_directories(out_dir);
  snapshot::StageCache* cache = snapshot::global_cache();
  if (cache != nullptr) {
    std::cout << "snapshot cache: " << cache->dir() << '\n';
  }

  const demand::GeneratorConfig gen_config{};
  auto generate = [&gen_config] {
    return demand::SyntheticGenerator{gen_config}.generate_profile();
  };
  // 1. Generate (or restore) and persist the dataset.
  std::cout << "[1/4] generating calibrated national demand profile...\n";
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
  {
    std::ofstream cells(out_dir / "cells.csv");
    std::ofstream counties(out_dir / "counties.csv");
    profile.save_csv(cells, counties);
  }
  std::cout << "      wrote " << (out_dir / "cells.csv") << " ("
            << profile.cell_count() << " cells) and "
            << (out_dir / "counties.csv") << " ("
            << profile.counties().size() << " counties)\n";

  // 2. Reload (the same path a user with real BDC data would take).
  std::cout << "[2/4] reloading profile from CSV...\n";
  std::ifstream cells_in(out_dir / "cells.csv");
  std::ifstream counties_in(out_dir / "counties.csv");
  const demand::DemandProfile loaded =
      demand::DemandProfile::load_csv(cells_in, counties_in);

  // 3. Run (or restore) the complete analysis.
  std::cout << "[3/4] running the full analysis...\n\n";
  auto analyze = [&loaded] { return core::run_full_analysis(loaded); };
  core::AnalysisResults results;
  if (cache != nullptr) {
    // The analysis output is a pure function of the (reloaded) profile
    // bytes plus the default model and sweep config, so all three form the
    // cache key.
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("core.analysis");
    snapshot::mix(fp, core::SizingModel{});
    snapshot::mix(fp, core::AnalysisConfig{});
    fp.mix(snapshot::serialize(loaded));
    results = cache->get_or_compute(
        "core.analysis", fp, analyze,
        [](const core::AnalysisResults& r) { return snapshot::serialize(r); },
        [](std::string_view blob) {
          return snapshot::deserialize_analysis(blob);
        });
  } else {
    results = analyze();
  }
  std::cout << core::render_report(results) << "\n";

  // 4. Export machine-readable results.
  std::cout << "[4/4] writing JSON summary...\n";
  {
    const obs::Span span("io.results_json");
    std::ofstream json_out(out_dir / "results.json");
    io::JsonWriter json(json_out);
    json.begin_object();
    json.value("total_locations",
               static_cast<long long>(loaded.total_locations()));
    json.value("peak_cell_locations",
               static_cast<long long>(loaded.peak_cell_count()));
    json.value("peak_oversubscription", results.f1.peak_oversubscription);
    json.value("locations_above_20to1",
               static_cast<long long>(results.f1.locations_above_cap));
    json.value("unservable_at_20to1",
               static_cast<long long>(results.f1.locations_unservable_at_cap));
    json.begin_array("table2");
    for (const auto& row : results.table2) {
      json.begin_object();
      json.value("beamspread", row.beamspread);
      json.value("satellites_full_service", row.satellites_full_service);
      json.value("satellites_capped_20to1", row.satellites_capped);
      json.end_object();
    }
    json.end_array();
    json.begin_array("affordability");
    for (const auto& p : results.fig4) {
      json.begin_object();
      json.value("plan", p.plan.name);
      json.value("monthly_usd", p.plan.monthly_usd);
      json.value("locations_unable", p.locations_unable);
      json.value("fraction_unable", p.fraction_unable);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    json_out << '\n';
    std::cout << "      wrote " << (out_dir / "results.json") << '\n';
  }

  // Bonus: the densest cells as GeoJSON for any GIS viewer.
  {
    std::ofstream geo_out(out_dir / "dense_cells.geojson");
    demand::write_geojson(geo_out, loaded, hex::HexGrid(),
                          /*min_locations=*/1000);
    std::cout << "      wrote " << (out_dir / "dense_cells.geojson")
              << " (cells with >= 1000 un(der)served locations)\n";
  }

  // leolint:allow(no-wallclock): reporting-only bench-line wall time
  const auto wall_end = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  std::string line = obs::bench_line_json(
      "national_analysis", runtime::global_executor().concurrency(), wall_ms);
  line.pop_back();  // strip '}' to splice in the snapshot counters
  line += ",\"snapshot_hits\":";
  line += std::to_string(cache != nullptr ? cache->hits() : 0);
  line += ",\"snapshot_misses\":";
  line += std::to_string(cache != nullptr ? cache->misses() : 0);
  line += '}';
  std::cout << line << '\n';

  obs::finalize(obs_options);
  return 0;
}
