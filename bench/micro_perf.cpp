// google-benchmark microbenchmarks for the library's hot paths: hex
// indexing, orbital propagation, visibility, demand aggregation and the
// sizing sweep. With `--threads N` it instead runs the parallel-scaling
// harness: aggregate >= 5M synthetic locations serially and on an
// N-thread pool, check the outputs are byte-identical, and report the
// speedup as JSON lines. With `--sim-schedule` it runs the scheduling
// kernel comparison: indexed (VisIndex) vs naive full scan over a
// cells x sats sweep, verifying byte-identical results and emitting
// {"bench":"sim.schedule",...} JSON lines that tools/bench_check.py
// gates against BENCH_sim.json. With `--sim-event` it compares the
// event-driven engine against fixed-epoch stepping on multi-day
// horizons, verifies byte-identical epoch traces, and emits
// {"bench":"sim.event",...} lines gated against BENCH_event.json. With
// `--market` it runs the three-operator default market serially and on a
// three-thread pool, verifies the reports byte-identical, and emits
// {"bench":"market.operators",...} lines gated against BENCH_market.json.
// With `--simd` it runs the SIMD visibility/rotation kernels against
// their retained scalar twins, bit-identity-checked before timing,
// emitting {"bench":"simd",...} lines gated against BENCH_simd.json.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "leodivide/geo/angle.hpp"
#include "leodivide/runtime/thread_pool.hpp"

#include "leodivide/core/longtail.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/aggregate.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/event/engine.hpp"
#include "leodivide/hex/polyfill.hpp"
#include "leodivide/hex/traversal.hpp"
#include "leodivide/orbit/kernels.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/visibility.hpp"
#include "leodivide/orbit/walker.hpp"
#include "leodivide/hex/compact.hpp"
#include "leodivide/orbit/isl.hpp"
#include "leodivide/orbit/tle.hpp"
#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/market/simulation.hpp"
#include "leodivide/serve/incremental.hpp"
#include "leodivide/serve/session.hpp"
#include "leodivide/sim/maxflow.hpp"
#include "leodivide/sim/scheduler.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/sim/workspace.hpp"
#include "leodivide/stats/distributions.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <thread>

namespace {

using namespace leodivide;

const demand::DemandProfile& profile_2pct() {
  static const demand::DemandProfile p =
      demand::SyntheticGenerator({.seed = 1, .scale = 0.02})
          .generate_profile();
  return p;
}

void BM_HexCellOf(benchmark::State& state) {
  const hex::HexGrid grid;
  stats::Pcg32 rng(7);
  for (auto _ : state) {
    const geo::GeoPoint p{25.0 + 24.0 * rng.next_double(),
                          -124.0 + 57.0 * rng.next_double()};
    benchmark::DoNotOptimize(grid.cell_of(p, 5));
  }
}
BENCHMARK(BM_HexCellOf);

void BM_HexDisk(benchmark::State& state) {
  const hex::CellId center(5, {100, -50});
  for (auto _ : state) {
    benchmark::DoNotOptimize(hex::disk(center, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_HexDisk)->Arg(1)->Arg(5)->Arg(20);

void BM_PolyfillBox(benchmark::State& state) {
  const hex::HexGrid grid;
  const geo::BoundingBox box{38.0, 41.0, -100.0, -95.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hex::polyfill(grid, box, 5));
  }
}
BENCHMARK(BM_PolyfillBox);

void BM_PropagateShell1(benchmark::State& state) {
  const auto orbits = orbit::make_constellation(orbit::starlink_shell1());
  double t = 0.0;
  for (auto _ : state) {
    t += 60.0;
    benchmark::DoNotOptimize(orbit::propagate_all(orbits, t));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(orbits.size()));
}
BENCHMARK(BM_PropagateShell1);

void BM_CountVisible(benchmark::State& state) {
  const auto orbits = orbit::make_constellation(orbit::starlink_shell1());
  const auto states = orbit::propagate_all(orbits, 123.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        orbit::count_visible({39.5, -98.35}, states, 25.0));
  }
}
BENCHMARK(BM_CountVisible);

void BM_GenerateProfileSmall(benchmark::State& state) {
  for (auto _ : state) {
    const demand::SyntheticGenerator gen({.seed = 3, .scale = 0.005});
    benchmark::DoNotOptimize(gen.generate_profile());
  }
}
BENCHMARK(BM_GenerateProfileSmall);

void BM_AggregateLocations(benchmark::State& state) {
  const demand::SyntheticGenerator gen({.seed = 3, .scale = 0.005});
  const auto dataset = gen.expand_locations(gen.generate_profile());
  const hex::HexGrid grid;
  for (auto _ : state) {
    benchmark::DoNotOptimize(demand::aggregate(dataset, grid, 5));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dataset.size()));
}
BENCHMARK(BM_AggregateLocations);

void BM_SizeWithCap(benchmark::State& state) {
  const core::SizingModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::size_with_cap(profile_2pct(), model, 5.0, 20.0));
  }
}
BENCHMARK(BM_SizeWithCap);

void BM_LongtailCurve(benchmark::State& state) {
  const core::SizingModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::longtail_curve(profile_2pct(), model, 10.0, 20.0));
  }
}
BENCHMARK(BM_LongtailCurve);

void BM_WeightedAliasDraw(benchmark::State& state) {
  std::vector<double> weights(3143);
  stats::Pcg32 seed_rng(5);
  for (auto& w : weights) w = seed_rng.next_double() + 0.01;
  const stats::WeightedAlias alias(weights);
  stats::Pcg32 rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alias(rng));
  }
}
BENCHMARK(BM_WeightedAliasDraw);

void BM_CompactConusRegion(benchmark::State& state) {
  const hex::HexGrid grid;
  const auto cells =
      hex::polyfill(grid, geo::BoundingBox{36.0, 42.0, -104.0, -94.0}, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hex::compact(grid, cells, 3));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_CompactConusRegion);

void BM_IslHopsToNearest(benchmark::State& state) {
  const orbit::IslGrid grid(orbit::starlink_shell1());
  std::vector<std::uint32_t> sources;
  for (std::uint32_t i = 0; i < 64; ++i) sources.push_back(i * 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.hops_to_nearest(sources));
  }
}
BENCHMARK(BM_IslHopsToNearest);

void BM_TleRoundTrip(benchmark::State& state) {
  const orbit::CircularOrbit orbit{550.0, 0.925, 1.2, 0.4};
  for (auto _ : state) {
    const std::string text = orbit::to_tle(orbit, 44444);
    std::istringstream in(text);
    benchmark::DoNotOptimize(orbit::read_tle_catalog(in));
  }
}
BENCHMARK(BM_TleRoundTrip);

void BM_OptimalSlotBound(benchmark::State& state) {
  const auto orbits = orbit::make_constellation(orbit::starlink_shell1());
  const auto states = orbit::propagate_all(orbits, 100.0);
  const core::SatelliteCapacityModel capacity;
  const auto cells = sim::BeamScheduler::cells_from_profile(
      profile_2pct(), capacity, 20.0);
  sim::SchedulerConfig config;
  config.beamspread = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::optimal_slot_bound(cells, states, config));
  }
}
BENCHMARK(BM_OptimalSlotBound);

void BM_ScheduleShell1Indexed(benchmark::State& state) {
  const auto states = orbit::propagate_all(
      orbit::make_constellation(orbit::starlink_shell1()), 100.0);
  const auto cells = sim::BeamScheduler::cells_from_profile(
      profile_2pct(), core::SatelliteCapacityModel(), 20.0);
  const sim::BeamScheduler scheduler(cells, sim::SchedulerConfig{});
  sim::ScheduleWorkspace ws;
  sim::ScheduleResult result;
  for (auto _ : state) {
    scheduler.schedule(states, ws, result);
    benchmark::DoNotOptimize(result.locations_served);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_ScheduleShell1Indexed);

void BM_ScheduleShell1Naive(benchmark::State& state) {
  const auto states = orbit::propagate_all(
      orbit::make_constellation(orbit::starlink_shell1()), 100.0);
  const auto cells = sim::BeamScheduler::cells_from_profile(
      profile_2pct(), core::SatelliteCapacityModel(), 20.0);
  const sim::BeamScheduler scheduler(cells, sim::SchedulerConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule_reference(states));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_ScheduleShell1Naive);

std::string profile_bytes(const demand::DemandProfile& profile) {
  std::ostringstream cells, counties;
  profile.save_csv(cells, counties);
  return cells.str() + '\x1f' + counties.str();
}

// Aggregates `dataset` once on `executor` and returns {wall_ms, csv bytes}.
std::pair<double, std::string> timed_aggregate(
    const demand::DemandDataset& dataset, const hex::HexGrid& grid,
    runtime::Executor& executor) {
  const bench::WallTimer timer;
  const auto profile = demand::aggregate(dataset, grid, 5, executor);
  const double ms = timer.elapsed_ms();
  return {ms, profile_bytes(profile)};
}

// The `--threads N` scaling harness. Returns the process exit code.
int run_scaling_harness(std::size_t threads) {
  bench::banner("micro_perf: aggregation scaling, 1 vs " +
                std::to_string(threads) + " threads");

  // Build a >= 5M location dataset: the full-scale national expansion
  // (~4.7M underserved locations) plus a 10% re-expansion appended on top.
  const demand::SyntheticGenerator gen({.seed = 3, .scale = 1.0});
  const auto profile = gen.generate_profile();
  const auto full = gen.expand_locations(profile, 1.0);
  const auto extra = gen.expand_locations(profile, 0.1);
  std::vector<demand::Location> locations = full.locations();
  locations.insert(locations.end(), extra.locations().begin(),
                   extra.locations().end());
  const demand::DemandDataset dataset(std::move(locations), full.counties());
  std::cout << "  dataset:  " << dataset.size() << " locations\n";

  const hex::HexGrid grid;
  runtime::ThreadPool pool(threads);

  // Stage timers feed the "stages" member of each emitted JSON line; the
  // registry is reset between runs so every line is a per-run breakdown.
  obs::set_metrics_enabled(true);
  obs::registry().reset_values();
  const auto [serial_ms, serial_bytes] =
      timed_aggregate(dataset, grid, runtime::serial_executor());
  bench::emit_json_line("micro_perf.aggregate", serial_ms, 1);

  obs::registry().reset_values();
  const auto [pool_ms, pool_bytes] = timed_aggregate(dataset, grid, pool);
  bench::emit_json_line("micro_perf.aggregate", pool_ms, threads);

  std::cout << "  serial:   " << serial_ms << " ms\n"
            << "  threads=" << threads << ": " << pool_ms << " ms\n"
            << "  speedup:  " << serial_ms / pool_ms << "x\n";

  if (serial_bytes != pool_bytes) {
    std::cerr << "FAIL: N=1 and N=" << threads
              << " DemandProfile outputs differ\n";
    return 1;
  }
  std::cout << "  outputs:  byte-identical across thread counts\n";
  return 0;
}

// One `--sim-schedule` comparison scale: a synthetic cell field against a
// Walker shell of planes x sats_per_plane satellites.
struct SimScheduleCase {
  std::size_t n_cells;
  std::uint32_t planes;
  std::uint32_t sats_per_plane;
};

std::vector<sim::SchedCell> synthetic_sched_cells(std::size_t n) {
  // Cells across the shell's covered latitudes (+-56 deg for the 53 deg
  // shell), all longitudes, mixed demand and beam needs.
  stats::Pcg32 rng(4242);
  std::vector<sim::SchedCell> cells;
  cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::SchedCell c;
    c.center = {-56.0 + rng.next_double() * 112.0,
                -180.0 + rng.next_double() * 360.0};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 1 + rng.next_below(2000);
    c.beams_needed = 1 + rng.next_below(3);
    cells.push_back(c);
  }
  return cells;
}

// Best-of-`reps` wall time of `fn` in milliseconds (warm caller assumed).
template <typename Fn>
double best_of_ms(int reps, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const bench::WallTimer timer;
    fn();
    const double ms = timer.elapsed_ms();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// Best-of plus median-of-`reps` wall time in milliseconds. The best-of is
// the gated low-noise estimator; the median shows how far a typical run
// sits from it (bench_check.py reports `median_speedup` informationally).
// Use an odd `reps` so the median is an actual observation.
struct RepTimes {
  double best_ms;
  double median_ms;
};
template <typename Fn>
RepTimes timed_reps_ms(int reps, const Fn& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const bench::WallTimer timer;
    fn();
    ms.push_back(timer.elapsed_ms());
  }
  std::sort(ms.begin(), ms.end());
  return {ms.front(), ms[ms.size() / 2]};
}

// The `--sim-schedule` kernel-comparison harness. Returns the process exit
// code: nonzero when the kernels disagree on any case.
int run_sim_schedule_harness() {
  bench::banner("micro_perf: sim.schedule indexed vs naive kernel");
  int rc = 0;
  const SimScheduleCase cases[] = {{1000, 40, 25}, {4000, 80, 50}};
  for (const SimScheduleCase& c : cases) {
    const auto cells = synthetic_sched_cells(c.n_cells);
    const sim::BeamScheduler scheduler(cells, sim::SchedulerConfig{});
    const orbit::WalkerShell shell{53.0, 550.0, c.planes, c.sats_per_plane,
                                   1};
    const auto states =
        orbit::propagate_all(orbit::make_constellation(shell), 100.0);
    std::cout << "  case: " << c.n_cells << " cells x " << states.size()
              << " sats\n";

    sim::ScheduleWorkspace ws;
    sim::ScheduleResult indexed;
    scheduler.schedule(states, ws, indexed);  // also warms the workspace
    const sim::ScheduleResult naive = scheduler.schedule_reference(states);
    if (!(indexed == naive)) {
      std::cerr << "FAIL: indexed and naive schedules differ at "
                << c.n_cells << "x" << states.size() << "\n";
      rc = 1;
      continue;
    }
    std::cout << "  outputs:  byte-identical (served "
              << indexed.locations_served << "/" << indexed.locations_total
              << " locations)\n";

    const double naive_ms = best_of_ms(
        3, [&] { benchmark::DoNotOptimize(scheduler.schedule_reference(states)); });
    const double indexed_ms =
        best_of_ms(5, [&] { scheduler.schedule(states, ws, indexed); });
    std::cout << "  naive:    " << naive_ms << " ms\n"
              << "  indexed:  " << indexed_ms << " ms\n"
              << "  speedup:  " << naive_ms / indexed_ms << "x\n";
    std::cout << "{\"bench\":\"sim.schedule\",\"cells\":" << c.n_cells
              << ",\"sats\":" << states.size() << ",\"naive_ms\":" << naive_ms
              << ",\"indexed_ms\":" << indexed_ms
              << ",\"speedup\":" << naive_ms / indexed_ms << "}" << std::endl;
  }
  return rc;
}

// One `--sim-event` comparison scale: synthetic demand cells against a
// small Walker shell over a multi-day horizon at a sub-minute step — the
// regime where fixed-epoch stepping recomputes thousands of identical
// schedules between contact changes.
struct SimEventCase {
  std::size_t n_cells;
  double duration_s;
  double step_s;
};

demand::DemandProfile event_bench_profile(std::size_t n) {
  demand::CountyTable counties;
  counties.add({"00001", {40.0, -100.0}, 50000.0, 0});
  stats::Pcg32 rng(9090);
  std::vector<demand::CellDemand> cells;
  cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    demand::CellDemand c;
    c.center = {-56.0 + rng.next_double() * 112.0,
                -180.0 + rng.next_double() * 360.0};
    c.underserved = 1 + static_cast<std::uint32_t>(rng.next_below(2000));
    cells.push_back(c);
  }
  return demand::DemandProfile(std::move(cells), std::move(counties));
}

// The `--sim-event` engine-comparison harness. Returns the process exit
// code: nonzero when the engines' epoch traces differ on any case.
int run_sim_event_harness() {
  bench::banner("micro_perf: sim.event event-driven vs fixed-epoch engine");
  int rc = 0;
  // 1 s steps: handover events last seconds, so that is the step the epoch
  // kernel needs for exact churn accounting — the event engine gets it for
  // free because its cost is independent of the step.
  const SimEventCase cases[] = {{40, 86400.0, 1.0}, {48, 2.0 * 86400.0, 1.0}};
  for (const SimEventCase& c : cases) {
    sim::SimulationConfig config;
    config.shell = {53.0, 550.0, 6, 6, 1};
    config.duration_s = c.duration_s;
    config.step_s = c.step_s;
    const auto profile = event_bench_profile(c.n_cells);
    const sim::SimClock clock(config.duration_s, config.step_s);
    const std::size_t n_sats = static_cast<std::size_t>(config.shell.planes) *
                               config.shell.sats_per_plane;
    std::cout << "  case: " << c.n_cells << " cells x " << n_sats
              << " sats, " << c.duration_s / 86400.0 << " d @ " << c.step_s
              << " s (" << clock.epochs() << " epochs)\n";

    const sim::Simulation epoch_sim(config, profile);
    event::EventSimulation event_sim(config, profile);
    runtime::Executor& executor = runtime::serial_executor();

    const auto expected = epoch_sim.run(executor);
    auto actual = event_sim.run(executor);  // also warms the workspace
    if (expected != actual) {
      std::cerr << "FAIL: event and epoch traces differ at " << c.n_cells
                << " cells x " << n_sats << " sats\n";
      rc = 1;
      continue;
    }
    std::cout << "  outputs:  byte-identical (" << expected.size()
              << " epochs)\n";

    const double epoch_ms =
        best_of_ms(2, [&] { benchmark::DoNotOptimize(epoch_sim.run(executor)); });
    const double event_ms =
        best_of_ms(3, [&] { benchmark::DoNotOptimize(event_sim.run(executor)); });
    std::cout << "  epoch:    " << epoch_ms << " ms\n"
              << "  event:    " << event_ms << " ms\n"
              << "  speedup:  " << epoch_ms / event_ms << "x\n";
    std::cout << "{\"bench\":\"sim.event\",\"cells\":" << c.n_cells
              << ",\"sats\":" << n_sats << ",\"epochs\":" << clock.epochs()
              << ",\"epoch_ms\":" << epoch_ms << ",\"event_ms\":" << event_ms
              << ",\"speedup\":" << epoch_ms / event_ms << "}" << std::endl;
  }
  return rc;
}

// Bit-level equality for the serve-delta harness's cross-checks (the
// determinism contract is byte-identical, not approximately-equal).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_sizing(const core::SizingResult& a, const core::SizingResult& b) {
  return same_bits(a.satellites, b.satellites) &&
         same_bits(a.binding_lat_deg, b.binding_lat_deg) &&
         a.beams_on_binding == b.beams_on_binding &&
         a.binding_cell_index == b.binding_cell_index;
}

// The `--serve-delta` harness: incremental per-region recompute (serve/)
// vs full library recompute after each single-cell delta. Both paths apply
// the same op sequence to their own copy of the baseline and answer the
// same resize + served-fraction queries each round; answers are checked
// bit-identical before anything is timed. Affordability is cross-checked
// once at the end but kept out of the timed loop: an add-delta revises a
// county count, so both paths rebuild the affordability analyzer in full —
// there is no incremental win to measure there. Returns the process exit
// code: nonzero on any answer mismatch.
int run_serve_delta_harness(std::size_t smoke_workers) {
  bench::banner("micro_perf: serve.delta incremental vs full recompute");
  int rc = 0;
  constexpr int kRounds = 200;
  constexpr double kBeamspread = 10.0;
  constexpr double kOversubCap = 20.0;

  const demand::DemandProfile baseline =
      demand::SyntheticGenerator({.seed = 42, .scale = 0.5})
          .generate_profile();
  const std::size_t n_cells = baseline.cell_count();
  std::cout << "  baseline: " << n_cells << " cells, "
            << baseline.counties().size() << " counties, " << kRounds
            << " rounds of 1 add-delta + resize + served\n";

  // One add-op per round, spread over the baseline's cells.
  std::vector<demand::DeltaOp> ops;
  ops.reserve(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    demand::DeltaOp op;
    op.kind = demand::DeltaKind::kAddLocations;
    op.position =
        baseline.cells()[(static_cast<std::size_t>(r) * 9973) % n_cells]
            .center;
    op.count = 25;
    ops.push_back(op);
  }

  const core::SizingModel model{};
  runtime::Executor& executor = runtime::serial_executor();

  // Incremental path: engine owns its copy; cold partial build happens on
  // the first query and is reported separately (it is the startup cost a
  // long-lived server pays once).
  serve::IncrementalEngine engine(baseline, serve::EngineConfig{});
  const bench::WallTimer cold_timer;
  (void)engine.query_resize(kBeamspread, kOversubCap);
  (void)engine.query_served_fraction(kBeamspread, kOversubCap);
  const double cold_ms = cold_timer.elapsed_ms();

  std::vector<serve::ResizeAnswer> inc_resize(ops.size());
  std::vector<serve::ServedFractionAnswer> inc_served(ops.size());
  const bench::WallTimer inc_timer;
  for (std::size_t r = 0; r < ops.size(); ++r) {
    (void)engine.apply(ops[r]);
    inc_resize[r] = engine.query_resize(kBeamspread, kOversubCap);
    inc_served[r] = engine.query_served_fraction(kBeamspread, kOversubCap);
  }
  const double incremental_ms = inc_timer.elapsed_ms();

  // Full path: same ops against a second copy, answered by the plain
  // library calls on every round.
  demand::DemandProfile full_profile = baseline;
  const hex::HexGrid grid;
  demand::DeltaApplier applier(full_profile, grid,
                               hex::kServiceCellResolution);
  std::vector<core::SizingResult> full_full(ops.size());
  std::vector<core::SizingResult> full_capped(ops.size());
  std::vector<double> full_cell_frac(ops.size());
  std::vector<double> full_loc_frac(ops.size());
  const bench::WallTimer full_timer;
  for (std::size_t r = 0; r < ops.size(); ++r) {
    (void)applier.apply(ops[r]);
    full_full[r] = core::size_full_service(full_profile, model, kBeamspread);
    full_capped[r] = core::size_with_cap(full_profile, model, kBeamspread,
                                         kOversubCap, executor);
    full_cell_frac[r] = core::served_cell_fraction(
        full_profile, model.capacity, kBeamspread, kOversubCap);
    full_loc_frac[r] = core::served_location_fraction(
        full_profile, model.capacity, kBeamspread, kOversubCap);
  }
  const double full_ms = full_timer.elapsed_ms();

  for (std::size_t r = 0; r < ops.size(); ++r) {
    if (!same_sizing(inc_resize[r].full, full_full[r]) ||
        !same_sizing(inc_resize[r].capped, full_capped[r]) ||
        !same_bits(inc_served[r].cell_fraction, full_cell_frac[r]) ||
        !same_bits(inc_served[r].location_fraction, full_loc_frac[r])) {
      std::cerr << "FAIL: incremental and full answers differ at round " << r
                << "\n";
      rc = 1;
    }
  }

  // Affordability correctness on the fully mutated profile (untimed).
  const afford::ServicePlan plan = afford::starlink_residential();
  const afford::PlanAffordability inc_afford =
      engine.query_affordability(plan, afford::kAffordabilityThreshold);
  const afford::PlanAffordability full_afford =
      afford::AffordabilityAnalyzer(full_profile)
          .evaluate(plan, afford::kAffordabilityThreshold);
  if (!(inc_afford == full_afford)) {
    std::cerr << "FAIL: incremental and full affordability answers differ\n";
    rc = 1;
  }
  if (rc == 0) {
    std::cout << "  outputs:  byte-identical over " << kRounds
              << " rounds (+ affordability)\n";
  }

  std::cout << "  cold partial build: " << cold_ms << " ms\n"
            << "  full:        " << full_ms << " ms\n"
            << "  incremental: " << incremental_ms << " ms\n"
            << "  speedup:     " << full_ms / incremental_ms << "x\n";
  std::cout << "{\"bench\":\"serve.delta\",\"cells\":" << n_cells
            << ",\"rounds\":" << kRounds << ",\"deltas_per_round\":1"
            << ",\"full_ms\":" << full_ms
            << ",\"incremental_ms\":" << incremental_ms
            << ",\"speedup\":" << full_ms / incremental_ms << "}"
            << std::endl;

  // Concurrency smoke: `--workers W` threads hammer one ServiceState (the
  // same lock the socket server's worker pool contends on) and every reply
  // must come back well-formed and identical across threads.
  if (smoke_workers > 1) {
    serve::ServiceState state(
        demand::SyntheticGenerator({.seed = 42, .scale = 0.05})
            .generate_profile(),
        serve::ServiceConfig{});
    const std::string expected =
        state
            .handle({serve::protocol::MsgType::kQueryServedFraction,
                     encode(serve::protocol::QueryServedFractionRequest{
                         kBeamspread, kOversubCap})})
            .payload;
    std::vector<std::thread> threads;
    std::vector<int> errors(smoke_workers, 0);
    for (std::size_t w = 0; w < smoke_workers; ++w) {
      threads.emplace_back([&, w] {
        for (int q = 0; q < 50; ++q) {
          const serve::protocol::Frame reply =
              state.handle({serve::protocol::MsgType::kQueryServedFraction,
                            encode(serve::protocol::QueryServedFractionRequest{
                                kBeamspread, kOversubCap})});
          if (reply.type !=
                  serve::protocol::MsgType::kServedFractionResult ||
              reply.payload != expected) {
            errors[w] = 1;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t w = 0; w < smoke_workers; ++w) {
      if (errors[w] != 0) {
        std::cerr << "FAIL: concurrent session smoke saw a bad reply\n";
        rc = 1;
        break;
      }
    }
    if (rc == 0) {
      std::cout << "  smoke:    " << smoke_workers << " worker(s) x 50"
                << " queries, all replies identical\n";
    }
  }
  return rc;
}

// The `--market` harness: the three-operator default market under the
// FairShare split, evaluated serially and on a three-thread pool (one
// worker per operator — the parallelism MarketSimulation actually
// exploits). The two reports are checked byte-identical (operator==, which
// is bit-level on every float) before anything is timed. Returns the
// process exit code: nonzero when the reports differ.
int run_market_harness() {
  bench::banner("micro_perf: market.operators serial vs pooled evaluation");
  const demand::DemandProfile profile =
      demand::SyntheticGenerator({.seed = 11, .scale = 1.0})
          .generate_profile();

  market::MarketConfig config;
  config.operators = market::default_market();
  config.split.policy = market::SplitPolicy::kFairShare;
  const market::MarketSimulation simulation(config);
  const std::size_t n_operators = config.operators.size();
  std::cout << "  case: " << n_operators << " operators x "
            << profile.cell_count() << " cells, policy "
            << market::to_string(config.split.policy) << "\n";

  runtime::Executor& serial = runtime::serial_executor();
  runtime::ThreadPool pool(n_operators);

  const market::MarketReport serial_report = simulation.run(profile, serial);
  const market::MarketReport pool_report = simulation.run(profile, pool);
  if (!(serial_report == pool_report)) {
    std::cerr << "FAIL: serial and pooled market reports differ\n";
    return 1;
  }
  std::cout << "  outputs:  byte-identical across executors\n";

  const double serial_ms = best_of_ms(
      3, [&] { benchmark::DoNotOptimize(simulation.run(profile, serial)); });
  const double pool_ms = best_of_ms(
      3, [&] { benchmark::DoNotOptimize(simulation.run(profile, pool)); });
  std::cout << "  serial:   " << serial_ms << " ms\n"
            << "  pooled:   " << pool_ms << " ms\n"
            << "  speedup:  " << serial_ms / pool_ms << "x\n";
  std::cout << "{\"bench\":\"market.operators\",\"operators\":" << n_operators
            << ",\"cells\":" << profile.cell_count()
            << ",\"serial_ms\":" << serial_ms << ",\"pool_ms\":" << pool_ms
            << ",\"speedup\":" << serial_ms / pool_ms << "}" << std::endl;
  return 0;
}

// Emits one gated JSON line for a kernel-vs-scalar comparison.
void print_simd_case(const char* name, std::size_t n, RepTimes scalar,
                     RepTimes simd) {
  std::cout << "  scalar:   " << scalar.best_ms << " ms\n"
            << "  simd:     " << simd.best_ms << " ms\n"
            << "  speedup:  " << scalar.best_ms / simd.best_ms << "x (median "
            << scalar.median_ms / simd.median_ms << "x)\n";
  std::cout << "{\"bench\":\"simd\",\"case\":\"" << name << "\",\"n\":" << n
            << ",\"scalar_ms\":" << scalar.best_ms
            << ",\"simd_ms\":" << simd.best_ms
            << ",\"speedup\":" << scalar.best_ms / simd.best_ms
            << ",\"median_speedup\":" << scalar.median_ms / simd.median_ms
            << "}" << std::endl;
}

// The `--simd` harness: the visibility mask and the epoch rotation kernels
// against their retained scalar twins over a 2048-satellite SoA,
// bit-compared before anything is timed. Single-threaded, so the ratios
// are honest on any host; the >= 2x gate on the mask kernel assumes the
// vector backend is live (kernel_lanes() > 1), which the CI runners'
// x86-64 toolchain provides.
int run_simd_harness() {
  bench::banner("micro_perf: SIMD kernels vs scalar twins");
  // 2048 satellites keep the SoA L1-resident (3 x 16 KiB inputs), so the
  // ratios measure the kernels, not the cache hierarchy — 2048 is also the
  // right ballpark for a per-epoch shell slice.
  constexpr std::size_t kSats = 2048;
  constexpr int kIters = 1600;  // timed fn = kIters kernel calls
  // 25 deg minimum elevation at the 550 km shell — the pipeline's real
  // visibility threshold (same coverage-cone derivation BeamScheduler
  // uses: psi = acos(ratio * cos(e)) - e with ratio = R / (R + alt)).
  const double kElevRad = geo::deg2rad(25.0);
  const double kRatio =
      geo::kEarthRadiusKm /
      (geo::kEarthRadiusKm + orbit::starlink_shell1().altitude_km);
  const double cos_psi =
      std::cos(std::acos(kRatio * std::cos(kElevRad)) - kElevRad);
  std::cout << "  backend:  " << orbit::kernel_backend() << " ("
            << orbit::kernel_lanes() << " lane(s))\n";

  // SoA of unit satellite radials spread over the sphere, plus one cell.
  stats::Pcg32 rng(0x5EEDu);
  std::vector<double> ux(kSats), uy(kSats), uz(kSats);
  for (std::size_t i = 0; i < kSats; ++i) {
    const double z = 2.0 * rng.next_double() - 1.0;
    const double phi = 2.0 * geo::kPi * rng.next_double();
    const double rxy = std::sqrt(std::max(0.0, 1.0 - z * z));
    ux[i] = rxy * std::cos(phi);
    uy[i] = rxy * std::sin(phi);
    uz[i] = z;
  }
  const geo::Vec3 cell =
      geo::spherical_to_cartesian({39.5, -98.35}, 1.0);  // unit radial

  int rc = 0;
  {  // visible_mask vs visible_mask_scalar
    std::cout << "  case: visible_mask over " << kSats << " sats\n";
    std::vector<std::uint8_t> mask(kSats), mask_ref(kSats);
    orbit::visible_mask(cell.x, cell.y, cell.z, ux.data(), uy.data(),
                        uz.data(), kSats, cos_psi, mask.data());
    orbit::visible_mask_scalar(cell.x, cell.y, cell.z, ux.data(), uy.data(),
                               uz.data(), kSats, cos_psi, mask_ref.data());
    if (std::memcmp(mask.data(), mask_ref.data(), kSats) != 0) {
      std::cerr << "FAIL: visible_mask disagrees with scalar twin\n";
      rc = 1;
    } else {
      std::cout << "  outputs:  bit-identical to scalar\n";
      const RepTimes scalar = timed_reps_ms(5, [&] {
        for (int it = 0; it < kIters; ++it) {
          orbit::visible_mask_scalar(cell.x, cell.y, cell.z, ux.data(),
                                     uy.data(), uz.data(), kSats, cos_psi,
                                     mask_ref.data());
          benchmark::DoNotOptimize(mask_ref.data());
        }
      });
      const RepTimes simd = timed_reps_ms(5, [&] {
        for (int it = 0; it < kIters; ++it) {
          orbit::visible_mask(cell.x, cell.y, cell.z, ux.data(), uy.data(),
                              uz.data(), kSats, cos_psi, mask.data());
          benchmark::DoNotOptimize(mask.data());
        }
      });
      print_simd_case("simd.visible_mask", kSats, scalar, simd);
    }
  }
  {  // rotate_about_z vs rotate_about_z_scalar (out-of-place)
    std::cout << "  case: rotate_about_z over " << kSats << " sats\n";
    const double c = std::cos(0.123456789);
    const double s = std::sin(0.123456789);
    std::vector<double> rx(kSats), ry(kSats), rx_ref(kSats), ry_ref(kSats);
    orbit::rotate_about_z(ux.data(), uy.data(), c, s, kSats, rx.data(),
                          ry.data());
    orbit::rotate_about_z_scalar(ux.data(), uy.data(), c, s, kSats,
                                 rx_ref.data(), ry_ref.data());
    if (std::memcmp(rx.data(), rx_ref.data(), kSats * sizeof(double)) != 0 ||
        std::memcmp(ry.data(), ry_ref.data(), kSats * sizeof(double)) != 0) {
      std::cerr << "FAIL: rotate_about_z disagrees with scalar twin\n";
      rc = 1;
    } else {
      std::cout << "  outputs:  bit-identical to scalar\n";
      const RepTimes scalar = timed_reps_ms(5, [&] {
        for (int it = 0; it < kIters; ++it) {
          orbit::rotate_about_z_scalar(ux.data(), uy.data(), c, s, kSats,
                                       rx_ref.data(), ry_ref.data());
          benchmark::DoNotOptimize(rx_ref.data());
        }
      });
      const RepTimes simd = timed_reps_ms(5, [&] {
        for (int it = 0; it < kIters; ++it) {
          orbit::rotate_about_z(ux.data(), uy.data(), c, s, kSats, rx.data(),
                                ry.data());
          benchmark::DoNotOptimize(rx.data());
        }
      });
      print_simd_case("simd.rotate", kSats, scalar, simd);
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --threads N / --threads=N and the observability flags before
  // google-benchmark sees the command line (it rejects flags it does not
  // own).
  namespace obs = leodivide::obs;
  obs::Options obs_options = obs::options_from_env();
  std::size_t threads = 0;
  bool sim_schedule = false;
  bool sim_event = false;
  bool serve_delta = false;
  bool market = false;
  bool simd = false;
  std::size_t workers = leodivide::runtime::worker_count_from_env(4);
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<std::size_t>(
          std::strtoul(arg.c_str() + 10, nullptr, 10));
    } else if (arg == "--sim-schedule") {
      sim_schedule = true;
    } else if (arg == "--sim-event") {
      sim_event = true;
    } else if (arg == "--serve-delta") {
      serve_delta = true;
    } else if (arg == "--market") {
      market = true;
    } else if (arg == "--simd") {
      simd = true;
    } else if (leodivide::runtime::parse_workers_arg(argc, argv, i, workers)) {
      // Worker-pool flag (serve-delta concurrency smoke); consumed.
    } else if (obs::parse_cli_arg(obs_options, argc, argv, i)) {
      // Observability flag; consumed.
    } else {
      args.push_back(argv[i]);
    }
  }
  obs::apply(obs_options);

  int rc = 0;
  if (simd) {
    rc = run_simd_harness();
  } else if (market) {
    rc = run_market_harness();
  } else if (serve_delta) {
    rc = run_serve_delta_harness(workers);
  } else if (sim_schedule) {
    rc = run_sim_schedule_harness();
  } else if (sim_event) {
    rc = run_sim_event_harness();
  } else if (threads > 0) {
    rc = run_scaling_harness(threads);
  } else {
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
      rc = 1;
    } else {
      benchmark::RunSpecifiedBenchmarks();
      benchmark::Shutdown();
    }
  }
  obs::finalize(obs_options);
  return rc;
}
