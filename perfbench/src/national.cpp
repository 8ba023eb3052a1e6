// The batch workload's national_cold and national_warm parts: the
// national_analysis pipeline (generate -> CSV save/load -> analysis ->
// report -> JSON -> GeoJSON), cold or with profile and analysis restored
// from a StageCache filled during set-up.

#include <array>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "checks.hpp"
#include "leodivide/core/report.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/demand/geojson.hpp"
#include "leodivide/hex/hexgrid.hpp"
#include "leodivide/io/json.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/snapshot/snapshot.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace leodivide;
namespace fs = std::filesystem;

// The four files national_analysis writes.
constexpr std::array<const char*, 4> kOutputFiles = {
    "cells.csv", "counties.csv", "results.json", "dense_cells.geojson"};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// Cache keys exactly as national_analysis --snapshot-dir builds them.
snapshot::Fingerprint profile_key(const demand::GeneratorConfig& gen) {
  snapshot::Fingerprint fp = snapshot::stage_fingerprint("demand.profile");
  snapshot::mix(fp, gen);
  return fp;
}

snapshot::Fingerprint analysis_key(const demand::DemandProfile& loaded) {
  snapshot::Fingerprint fp = snapshot::stage_fingerprint("core.analysis");
  snapshot::mix(fp, core::SizingModel{});
  snapshot::mix(fp, core::AnalysisConfig{});
  fp.mix(snapshot::serialize(loaded));
  return fp;
}

void write_results_json(std::ostream& out, const demand::DemandProfile& loaded,
                        const core::AnalysisResults& results) {
  io::JsonWriter json(out);
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
  out << '\n';
}

class National final : public BatchWorkload {
 public:
  National(const Options& o, bool warm)
      : warm_(warm), dir_(o.workdir / (warm ? "warm" : "cold")) {
    gen_.seed = o.seed;
  }

  void setup(Measurement& m) override {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    cache_.reset();
    Tracer off;
    pipeline(off);  // the cold run: reference outputs
    reference_ = outputs();
    for (const char* name : kOutputFiles) fs::remove(dir_ / name);
    if (gen_.seed == kPaperSeed) {
      const std::string e = check_f1({loaded_.total_locations(),
                                      loaded_.peak_cell_count(),
                                      results_.f1.locations_above_cap,
                                      results_.f1.locations_unservable_at_cap});
      ++m.attempted;
      if (!e.empty()) m.fail(e);
    }
    if (!warm_) return;
    // Fill the cache the warm units restore from.
    cache_.emplace((dir_ / "cache").string());
    const auto t0 = Clock::now();
    const snapshot::Fingerprint pkey = profile_key(gen_);
    const snapshot::Fingerprint akey = analysis_key(loaded_);
    cache_->store("demand.profile", pkey, snapshot::serialize(profile_));
    cache_->store("core.analysis", akey, snapshot::serialize(results_));
    store_ms_.push_back(ms_since(t0));
    restore_bytes_ = static_cast<double>(
        fs::file_size(cache_->blob_path("demand.profile", pkey)) +
        fs::file_size(cache_->blob_path("core.analysis", akey)));
    hits_ = cache_->hits();
    misses_ = cache_->misses();
  }

  void unit(Tracer& tracer) override { pipeline(tracer); }

  std::string check(bool traced) override {
    if (traced) {
      csv_bytes_ += static_cast<double>(fs::file_size(dir_ / "cells.csv") +
                                        fs::file_size(dir_ / "counties.csv"));
    }
    const std::string got = outputs();
    // Each unit writes fresh files, as a run into a new output directory
    // does; rewriting a file in place would make ext4 flush it on close.
    for (const char* name : kOutputFiles) fs::remove(dir_ / name);
    return check_same(warm_ ? "warm output vs cold" : "output vs reference",
                      reference_, got);
  }

  void add_layer_metrics(Measurement& m, double units) override {
    if (units == 0.0) return;
    // Summed over the cold and warm parts, as load_csv_ms is.
    m.layers["demand.csv_bytes"] += csv_bytes_ / units;
    if (!warm_) return;
    m.layers["snapshot.store_ms"] = median(store_ms_);
    m.layers["snapshot.restore_bytes"] = restore_bytes_;
    const double hits = static_cast<double>(cache_->hits() - hits_);
    const double lookups = hits + static_cast<double>(cache_->misses() - misses_);
    if (lookups > 0.0) m.layers["snapshot.hit_ratio"] = hits / lookups;
  }

 private:
  // One national_analysis run; with the cache, profile and analysis go
  // through StageCache::get_or_compute as `--snapshot-dir` does.
  void pipeline(Tracer& tr) {
    auto generate = [&] {
      return tr.call("demand.generate_profile", [&] {
        return demand::SyntheticGenerator{gen_}.generate_profile(
            runtime::global_executor());
      });
    };
    if (cache_) {
      profile_ = tr.call("snapshot.restore", [&] {
        return cache_->get_or_compute(
            "demand.profile", profile_key(gen_), generate,
            [](const demand::DemandProfile& p) { return snapshot::serialize(p); },
            [](std::string_view b) { return snapshot::deserialize_profile(b); });
      });
    } else {
      profile_ = generate();
    }
    tr.call("demand.save_csv", [&] {
      std::ofstream cells(dir_ / "cells.csv");
      std::ofstream counties(dir_ / "counties.csv");
      profile_.save_csv(cells, counties);
    });
    loaded_ = tr.call("demand.load_csv", [&] {
      std::ifstream cells(dir_ / "cells.csv");
      std::ifstream counties(dir_ / "counties.csv");
      return demand::DemandProfile::load_csv(cells, counties);
    });
    auto analyze = [&] {
      return tr.call("core.run_full_analysis",
                     [&] { return core::run_full_analysis(loaded_); });
    };
    if (cache_) {
      const snapshot::Fingerprint key =
          tr.call("snapshot.fingerprint", [&] { return analysis_key(loaded_); });
      results_ = tr.call("snapshot.restore", [&] {
        return cache_->get_or_compute(
            "core.analysis", key, analyze,
            [](const core::AnalysisResults& r) { return snapshot::serialize(r); },
            [](std::string_view b) { return snapshot::deserialize_analysis(b); });
      });
    } else {
      results_ = analyze();
    }
    report_ = tr.call("core.render_report",
                      [&] { return core::render_report(results_); });
    tr.call("io.json_export", [&] {
      std::ofstream out(dir_ / "results.json");
      write_results_json(out, loaded_, results_);
    });
    tr.call("demand.write_geojson", [&] {
      std::ofstream out(dir_ / "dense_cells.geojson");
      demand::write_geojson(out, loaded_, hex::HexGrid(),
                            /*min_locations=*/1000);
    });
  }

  std::string outputs() const {
    std::string all = report_;
    for (const char* name : kOutputFiles) {
      all += '\0';
      all += name;
      all += '\0';
      all += read_file(dir_ / name);
    }
    return all;
  }

  bool warm_;
  fs::path dir_;
  demand::GeneratorConfig gen_;
  std::optional<snapshot::StageCache> cache_;
  demand::DemandProfile profile_;
  demand::DemandProfile loaded_;
  core::AnalysisResults results_;
  std::string report_;
  std::string reference_;
  std::vector<double> store_ms_;
  double restore_bytes_ = 0.0;
  double csv_bytes_ = 0.0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace

std::unique_ptr<BatchWorkload> make_national(const Options& o, bool warm) {
  return std::make_unique<National>(o, warm);
}

}  // namespace perfbench
