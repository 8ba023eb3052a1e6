// perfbench: the end-to-end benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--trace-file FILE]
//
// Runs one workload in this process and prints, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured with tracing off; with
// --trace 1 they are the per-layer ones, from spans the driver records
// around its own calls into the library (written to --trace-file as Chrome
// trace JSON) and the library's obs counters. perfbench/run.py builds this
// binary and runs it.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" and "per_layer" in BENCHMARK.json; run.py
// refuses a result whose metric names differ.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_ms_p50", "ms"},
    {"wall_ms_tail", "ms"},    {"wall_ms_1t_p50", "ms"},
    {"peak_rss_mb", "MB"},     {"req_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"demand.generate_profile_ms", "ms"},
    {"demand.save_csv_ms", "ms"},
    {"demand.load_csv_ms", "ms"},
    {"demand.csv_bytes", "bytes"},
    {"demand.csv_mb_per_s", "MB/s"},
    {"demand.write_geojson_ms", "ms"},
    {"core.run_full_analysis_ms", "ms"},
    {"core.render_report_ms", "ms"},
    {"io.json_export_ms", "ms"},
    {"snapshot.restore_ms", "ms"},
    {"snapshot.fingerprint_ms", "ms"},
    {"snapshot.restore_bytes", "bytes"},
    {"snapshot.hit_ratio", "ratio"},
    {"snapshot.store_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.epoch_us", "us"},
    {"sim.cell_epochs_per_s", "1/s"},
    {"sim.sched.candidates", "count"},
    {"sim.sched.pruned", "count"},
    {"sim.sched.keep_ratio", "ratio"},
    {"event.run_trace_ms", "ms"},
    {"event.events", "count"},
    {"event.boundaries", "count"},
    {"event.segments", "count"},
    {"event.epochs.recomputed", "count"},
    {"event.epochs.reused", "count"},
    {"event.pairs", "count"},
    {"event.contact_pair_share", "ratio"},
    {"event.epoch_engine_ms", "ms"},
    {"market.run_exclusive_ms", "ms"},
    {"market.run_proportional_ms", "ms"},
    {"market.run_fairshare_ms", "ms"},
    {"market.serialize_ms", "ms"},
    {"serve.delta_p50_us", "us"},
    {"serve.resize_p50_us", "us"},
    {"serve.served_p50_us", "us"},
    {"serve.afford_p50_us", "us"},
    {"serve.partial_hit_ratio", "ratio"},
    {"serve.region_recomputes", "count/req"},
    {"serve.dirty_regions", "count/req"},
    {"serve.state_build_ms", "ms"},
    {"runtime.scaling_eff", "ratio"},
    {"national_cold.wall_ms_p50", "ms"},
    {"national_cold.wall_ms_1t_p50", "ms"},
    {"national_warm.wall_ms_p50", "ms"},
    {"national_warm.wall_ms_1t_p50", "ms"},
    {"market.wall_ms_p50", "ms"},
    {"market.wall_ms_1t_p50", "ms"},
    {"coverage.wall_ms_p50", "ms"},
    {"coverage.wall_ms_1t_p50", "ms"},
    {"handover.wall_ms_p50", "ms"},
    {"handover.wall_ms_1t_p50", "ms"},
    {"unit_ms", "ms"},
    {"untraced_ms", "ms"},
    {"trace_overhead_frac", "ratio"},
    {"failed_frac", "ratio"},
};

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--trace-file FILE]\n";
  return 2;
}

// nproc: the CPUs this process may run on.
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Measurement run(const Options& o) {
  if (o.workload == "serve") return run_serve(o);
  std::vector<Part> parts;
  parts.push_back({"national_cold", make_national(o, false)});
  parts.push_back({"national_warm", make_national(o, true)});
  parts.push_back({"market", make_market(o)});
  parts.push_back({"coverage", make_coverage(o)});
  parts.push_back({"handover", make_handover(o)});
  return run_batch(*make_sequence(std::move(parts)), o);
}

// Per-layer values, including those derived from whole-unit timings.
std::map<std::string, double> per_layer(const Measurement& m,
                                        const Options& o) {
  std::map<std::string, double> v = m.layers;
  const double t = median(m.unit_ms);
  if (t > 0.0) {
    v["runtime.scaling_eff"] =
        median(m.unit_1t_ms) / (static_cast<double>(o.threads) * t);
    v["trace_overhead_frac"] = median(m.traced_ms) / t - 1.0;
  }
  const double csv_bytes = v["demand.csv_bytes"];
  const double load_ms = v["demand.load_csv_ms"];
  if (csv_bytes > 0.0 && load_ms > 0.0) {
    v["demand.csv_mb_per_s"] = csv_bytes / 1e6 / (load_ms / 1e3);
  }
  v["failed_frac"] = static_cast<double>(m.failed) /
                     static_cast<double>(std::max<std::uint64_t>(m.attempted, 1));
  return v;
}

// Per-layer times that are not spans inside a traced unit: taken during
// set-up, or a batch part's untraced wall time.
bool outside_unit(std::string_view name) {
  return name == "snapshot.store_ms" || name == "event.epoch_engine_ms" ||
         name == "serve.state_build_ms" ||
         name.find(".wall_ms") != std::string_view::npos;
}

// Prints every per-layer metric; span times also as a share of the mean
// traced unit, which the direct children and untraced_ms add up to.
void print_layer_table(const std::map<std::string, double>& v) {
  const auto get = [&](const std::string& k) {
    const auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  };
  const double unit = get("unit_ms");
  std::printf("%-32s %14s %10s %8s\n", "per-layer metric", "value", "unit",
              "of unit");
  for (const MetricDef& d : kPerLayer) {
    const double x = get(d.name);
    if (std::string_view(d.unit) == "ms" && unit > 0.0 &&
        !outside_unit(d.name) && std::string_view(d.name) != "unit_ms") {
      std::printf("%-32s %14.4f %10s %7.1f%%\n", d.name, x, d.unit,
                  100.0 * x / unit);
    } else {
      std::printf("%-32s %14.4f %10s\n", d.name, x, d.unit);
    }
  }
}

std::string json_number(double x) {
  if (!std::isfinite(x)) x = 0.0;
  std::ostringstream s;
  s.precision(std::numeric_limits<double>::max_digits10);
  s << x;
  return s.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.threads = std::min<std::size_t>(4, available_cpus());
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--workdir") {
        o.workdir = value;
      } else if (arg == "--trace-file") {
        o.trace_file = value;
      } else {
        return usage("unknown flag " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload ||
      std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) ==
          kWorkloads.end()) {
    return usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");
  if (o.workdir.empty()) return usage("--workdir is required");
  if (o.trace_file.empty()) o.trace_file = o.workdir / "trace.json";
  std::filesystem::create_directories(o.workdir);

  Measurement m;
  try {
    m = run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " set-up failed: " << e.what()
              << '\n';
    return 1;
  }
  for (const std::string& e : m.errors) {
    std::cerr << "perfbench: FAILED: " << e << '\n';
  }

  std::map<std::string, double> values;
  const MetricDef* defs = kEndToEnd;
  std::size_t count = std::size(kEndToEnd);
  if (o.trace) {
    values = per_layer(m, o);
    print_layer_table(values);
    defs = kPerLayer;
    count = std::size(kPerLayer);
  } else {
    const Tail t = tail(m.unit_ms);
    values = {{"setup_s", median(m.setup_s)},
              {"wall_ms_p50", median(m.unit_ms)},
              {"wall_ms_tail", t.value},
              {"wall_ms_1t_p50", median(m.unit_1t_ms)},
              {"peak_rss_mb", peak_rss_mb()},
              {"req_per_s", m.units_per_s}};
    const Quartiles q = quartiles(m.unit_ms);
    std::printf("%s: %zu units at %zu threads (quartiles %.4g-%.4g ms), %zu "
                "on one thread; wall_ms_tail is p%.2f of %zu samples\n",
                o.workload.c_str(), m.unit_ms.size(), o.threads, q.q1, q.q3,
                m.unit_1t_ms.size(), t.percentile, t.samples);
  }

  std::string line = "{\"correct\": ";
  line += m.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(m.attempted);
  line += ", \"failed\": " + std::to_string(m.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    line += i == 0 ? "" : ", ";
    line += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
            json_number(it == values.end() ? 0.0 : it->second) +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  line += "}}";
  std::cout << std::flush;
  std::printf("%s\n", line.c_str());
  return 0;
}
