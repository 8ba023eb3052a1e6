// Golden equivalence suite for the spatially-indexed scheduling kernel:
// BeamScheduler::schedule (VisIndex-pruned) must produce byte-identical
// ScheduleResults to schedule_reference (the retained naive full scan) on
// every strategy, constellation and cell geometry — including polar caps,
// the date line and the full national cell list — also when one workspace
// moves between schedulers, elevation masks and constellations, and the
// simulation trace must be identical at every thread count. Also pins the
// zero-allocation contract of the steady-state epoch loop via a counting
// global operator new.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "golden_hash.hpp"
#include "leodivide/core/oversubscription.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/geo/angle.hpp"
#include "leodivide/geo/ecef.hpp"
#include "leodivide/obs/gate.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/orbit/footprint.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/visindex.hpp"
#include "leodivide/orbit/walker.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/sim/clock.hpp"
#include "leodivide/sim/coverage.hpp"
#include "leodivide/sim/scheduler.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/sim/workspace.hpp"
#include "leodivide/snapshot/artifacts.hpp"
#include "leodivide/stats/rng.hpp"

// ------------------------------------------------------------------------
// Counting allocator hooks. Every operator new in the process bumps the
// counter; the steady-state test asserts the epoch loop leaves it
// untouched. delete stays the default-compatible free.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace leodivide::sim {
namespace {

constexpr Strategy kAllStrategies[] = {Strategy::kMostSlack,
                                       Strategy::kFirstFit,
                                       Strategy::kBestFit};

std::vector<SchedCell> random_cells(stats::Pcg32& rng, std::size_t n,
                                    double lat_min, double lat_max) {
  std::vector<SchedCell> cells;
  cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SchedCell c;
    c.center = {lat_min + rng.next_double() * (lat_max - lat_min),
                -180.0 + rng.next_double() * 360.0};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 1 + static_cast<std::uint32_t>(rng.next_below(2000));
    c.beams_needed = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    cells.push_back(c);
  }
  return cells;
}

orbit::SatState sat_at(double lat, double lon, double alt_km = 550.0) {
  orbit::SatState s;
  s.subpoint = {lat, lon};
  s.ecef_km =
      geo::spherical_to_cartesian(s.subpoint, geo::kEarthRadiusKm + alt_km);
  return s;
}

void expect_equivalent(const BeamScheduler& scheduler,
                       const std::vector<orbit::SatState>& states) {
  const ScheduleResult indexed = scheduler.schedule(states);
  const ScheduleResult naive = scheduler.schedule_reference(states);
  ASSERT_EQ(indexed.assignments.size(), naive.assignments.size());
  EXPECT_TRUE(indexed == naive);
}

// ---------------------------------------------------- randomized shells ----

TEST(IndexedEquivalence, RandomWalkerShellsMatchReferenceExactly) {
  stats::Pcg32 rng(20250806);
  for (int trial = 0; trial < 12; ++trial) {
    orbit::WalkerShell shell;
    shell.inclination_deg = 40.0 + rng.next_double() * 58.0;  // up to polar
    shell.altitude_km = 350.0 + rng.next_double() * 900.0;
    shell.planes = 6 + static_cast<std::uint32_t>(rng.next_below(10));
    shell.sats_per_plane = 4 + static_cast<std::uint32_t>(rng.next_below(12));
    shell.phasing = static_cast<std::uint32_t>(rng.next_below(shell.planes));
    const auto orbits = orbit::make_constellation(shell);
    const auto states =
        orbit::propagate_all(orbits, rng.next_double() * 6000.0);
    auto cells = random_cells(rng, 60, -85.0, 85.0);
    for (const Strategy strategy : kAllStrategies) {
      SchedulerConfig config;
      config.beamspread = 1 + static_cast<std::uint32_t>(rng.next_below(6));
      config.strategy = strategy;
      expect_equivalent(BeamScheduler(cells, config), states);
    }
  }
}

TEST(IndexedEquivalence, WorkspaceReuseAcrossEpochsMatchesReference) {
  // One workspace carried across many epochs (the simulation's pattern)
  // must give the same schedules as fresh naive runs at each epoch.
  const auto profile = demand::SyntheticGenerator({.seed = 17, .scale = 0.01})
                           .generate_profile();
  const auto cells = BeamScheduler::cells_from_profile(
      profile, core::SatelliteCapacityModel(), 20.0);
  const BeamScheduler scheduler(cells, SchedulerConfig{});
  const auto orbits = orbit::make_constellation(orbit::starlink_shell1());
  ScheduleWorkspace ws;
  ScheduleResult indexed;
  for (int e = 0; e < 6; ++e) {
    const double t = 47.0 * e;
    orbit::propagate_all(orbits, t, ws.states);
    scheduler.schedule(ws.states, ws, indexed);
    EXPECT_TRUE(indexed == scheduler.schedule_reference(ws.states))
        << "epoch " << e;
  }
}

// ------------------------------------------------------- edge geometries ----

TEST(IndexedEquivalence, PolarCellsMatchReference) {
  // Cells at and around the poles; a polar-orbiting constellation passes
  // directly over them, exercising the all-longitudes cap branch.
  stats::Pcg32 rng(7);
  std::vector<SchedCell> cells;
  for (double lat : {90.0, 89.9, 88.0, -88.0, -89.9, -90.0}) {
    for (double lon : {-170.0, -45.0, 0.0, 60.0, 179.0}) {
      SchedCell c;
      c.center = {lat, lon};
      c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
      c.locations = 1 + static_cast<std::uint32_t>(rng.next_below(500));
      c.beams_needed = 1 + static_cast<std::uint32_t>(rng.next_below(3));
      cells.push_back(c);
    }
  }
  const orbit::WalkerShell polar{97.0, 600.0, 12, 12, 1};
  const auto states =
      orbit::propagate_all(orbit::make_constellation(polar), 321.0);
  for (const Strategy strategy : kAllStrategies) {
    SchedulerConfig config;
    config.strategy = strategy;
    expect_equivalent(BeamScheduler(cells, config), states);
  }
}

TEST(IndexedEquivalence, DateLineCellsMatchReference) {
  // Cells and satellites straddling the antimeridian: the index's sector
  // window wraps modulo 360 and must not lose the far side.
  stats::Pcg32 rng(11);
  std::vector<SchedCell> cells;
  for (double lon : {179.99, 179.5, 178.0, -178.0, -179.5, -179.99, 180.0}) {
    for (double lat : {-40.0, 0.0, 35.0, 62.0}) {
      SchedCell c;
      c.center = {lat, lon};
      c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
      c.locations = 1 + static_cast<std::uint32_t>(rng.next_below(500));
      c.beams_needed = 1;
      cells.push_back(c);
    }
  }
  std::vector<orbit::SatState> states;
  for (double lon : {179.9, 179.0, -179.9, -179.0, 178.5, -178.5}) {
    for (double lat : {-38.0, 1.0, 36.0, 60.0}) {
      states.push_back(sat_at(lat, lon));
    }
  }
  for (const Strategy strategy : kAllStrategies) {
    SchedulerConfig config;
    config.strategy = strategy;
    expect_equivalent(BeamScheduler(cells, config), states);
  }
}

TEST(IndexedEquivalence, NationalScaleWithPolarAndDateLineCellsMatchesReference) {
  // The full national cell list (every window shape the contiguous scan
  // meets in a real run) plus pole and antimeridian cells, over shell 1
  // joined by a polar shell at the same altitude so the polar cells see
  // satellites too.
  const auto profile =
      demand::SyntheticGenerator(demand::GeneratorConfig{}).generate_profile();
  auto cells = BeamScheduler::cells_from_profile(
      profile, core::SatelliteCapacityModel(), 20.0);
  stats::Pcg32 rng(1809);
  auto add_cell = [&cells, &rng](double lat, double lon) {
    SchedCell c;
    c.center = {lat, lon};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 1 + static_cast<std::uint32_t>(rng.next_below(800));
    c.beams_needed = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    cells.push_back(c);
  };
  for (double lat : {90.0, 89.9, 87.0, 80.0, -80.0, -87.0, -89.9, -90.0}) {
    for (double lon : {-180.0, -90.0, 0.0, 45.0, 180.0}) add_cell(lat, lon);
  }
  for (double lon : {180.0, 179.99, 179.5, -179.5, -179.99, -180.0}) {
    for (double lat : {-52.0, -20.0, 0.0, 33.0, 53.0}) add_cell(lat, lon);
  }
  auto states = orbit::propagate_all(
      orbit::make_constellation(orbit::starlink_shell1()), 905.0);
  const auto polar = orbit::propagate_all(
      orbit::make_constellation({97.6, 550.0, 12, 20, 1}), 905.0);
  states.insert(states.end(), polar.begin(), polar.end());
  for (const Strategy strategy : kAllStrategies) {
    SchedulerConfig config;
    config.strategy = strategy;
    expect_equivalent(BeamScheduler(cells, config), states);
  }
}

TEST(IndexedEquivalence, WorkspaceReusedAcrossSchedulersMasksAndSizes) {
  // One workspace carried from scheduler to scheduler. A window depends on
  // the cell list and the coverage angle psi (set by the shell altitude at
  // the terminal mask), never on the satellites, so a new scheduler or
  // altitude must build new windows while a same-altitude change of
  // constellation size reuses them — and every schedule must equal the
  // naive reference.
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& builds = obs::registry().counter("sim.sched.window_builds");
  stats::Pcg32 rng(4242);
  const auto cells_a = random_cells(rng, 300, -60.0, 60.0);
  const auto cells_b = random_cells(rng, 200, 20.0, 85.0);
  const BeamScheduler a(cells_a, SchedulerConfig{});
  const BeamScheduler b(cells_b, SchedulerConfig{});

  const auto shell1 = orbit::propagate_all(
      orbit::make_constellation(orbit::starlink_shell1()), 600.0);
  const std::vector<orbit::SatState> half(
      shell1.begin(), shell1.begin() + static_cast<std::ptrdiff_t>(
                                           shell1.size() / 2));
  const auto higher = orbit::propagate_all(
      orbit::make_constellation({70.0, 800.0, 10, 9, 3}), 900.0);
  const auto lower = orbit::propagate_all(
      orbit::make_constellation({53.0, 340.0, 12, 10, 5}), 300.0);

  ScheduleWorkspace ws;
  ScheduleResult out;
  auto builds_for = [&](const BeamScheduler& scheduler,
                        const std::vector<orbit::SatState>& states) {
    const std::uint64_t before = builds.total();
    scheduler.schedule(states, ws, out);
    EXPECT_TRUE(out == scheduler.schedule_reference(states));
    return builds.total() - before;
  };
  EXPECT_EQ(builds_for(a, shell1), 1U) << "first scheduler";
  EXPECT_EQ(builds_for(b, shell1), 1U) << "second scheduler";
  EXPECT_EQ(builds_for(a, shell1), 0U) << "first scheduler again";
  EXPECT_EQ(builds_for(a, lower), 1U) << "lower shell";
  EXPECT_EQ(builds_for(a, half), 0U) << "half the constellation";
  EXPECT_EQ(builds_for(a, higher), 1U) << "smaller, higher shell";
  EXPECT_EQ(builds_for(a, shell1), 0U) << "back to shell 1";
  EXPECT_EQ(builds_for(b, lower), 1U) << "lower shell, second scheduler";
  obs::set_metrics_enabled(was_enabled);
}

TEST(IndexedEquivalence, NoSatellitesAndNoCells) {
  stats::Pcg32 rng(3);
  auto cells = random_cells(rng, 5, -60.0, 60.0);
  const BeamScheduler with_cells(cells, SchedulerConfig{});
  expect_equivalent(with_cells, {});
  const BeamScheduler no_cells(std::vector<SchedCell>{}, SchedulerConfig{});
  expect_equivalent(no_cells, {sat_at(10.0, 10.0)});
}

// Two thousand satellites over a patch of cells: a cell's contiguous span
// holds more satellites than one stack mask block, visible and hidden ones
// mixed, so the scan runs in several blocks with a partial last one.
TEST(IndexedEquivalence, SpansLongerThanOneMaskBlockMatchReference) {
  stats::Pcg32 rng(2718);
  std::vector<SchedCell> cells;
  for (int i = 0; i < 150; ++i) {
    SchedCell c;
    c.center = {36.0 + rng.next_double() * 8.0,
                -104.0 + rng.next_double() * 8.0};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 1 + static_cast<std::uint32_t>(rng.next_below(2000));
    c.beams_needed = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    cells.push_back(c);
  }
  std::vector<orbit::SatState> states;
  for (int i = 0; i < 2000; ++i) {
    states.push_back(sat_at(28.0 + rng.next_double() * 24.0,
                            -112.0 + rng.next_double() * 24.0));
  }

  // Precondition: some cell's span is longer than the 256-satellite block.
  orbit::VisIndex index;
  index.build(states, orbit::coverage_central_angle_rad(550.0, 25.0));
  std::vector<geo::GeoPoint> centres;
  for (const SchedCell& c : cells) centres.push_back(c.center);
  orbit::CellWindows windows;
  index.build_windows(centres, windows);
  std::uint32_t longest = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (const orbit::BucketRun& run : windows.runs(c)) {
      const orbit::SatSpan span = index.span_of(run);
      longest = std::max(longest, span.end - span.begin);
    }
  }
  ASSERT_GT(longest, 256U);

  for (const Strategy strategy : kAllStrategies) {
    SchedulerConfig config;
    config.strategy = strategy;
    expect_equivalent(BeamScheduler(cells, config), states);
  }
}

// The scheduler's contiguous path — the visibility mask over each window's
// bucket-ordered satellite spans — must keep schedules byte-identical to
// schedule_reference on geometries built to graze the elevation mask
// (satellites right at the visibility cone's edge).
TEST(IndexedEquivalence, SchedulerBitIdenticalOnGrazingGeometry) {
  std::vector<sim::SchedCell> cells;
  for (const geo::GeoPoint p :
       {geo::GeoPoint{89.5, 10.0}, geo::GeoPoint{-89.5, -170.0},
        geo::GeoPoint{0.0, 180.0}, geo::GeoPoint{0.0, -180.0},
        geo::GeoPoint{45.0, 0.0}}) {
    sim::SchedCell c;
    c.center = p;
    c.ecef_km = geo::spherical_to_cartesian(p, geo::kEarthRadiusKm);
    c.locations = 500;
    c.beams_needed = 2;
    cells.push_back(c);
  }
  sim::SchedulerConfig config;

  std::vector<orbit::SatState> sats;
  // A ring of satellites at small angular offsets from each cell, spanning
  // both sides of the visibility cone boundary for the terminal mask.
  for (const sim::SchedCell& c : cells) {
    for (const double off_deg : {0.0, 5.0, 10.0, 14.9, 15.0, 15.1, 20.0}) {
      orbit::SatState s;
      s.subpoint = {c.center.lat_deg > 74.0 ? c.center.lat_deg - off_deg
                                            : c.center.lat_deg + off_deg,
                    c.center.lon_deg};
      s.ecef_km = geo::spherical_to_cartesian(s.subpoint,
                                              geo::kEarthRadiusKm + 550.0);
      sats.push_back(s);
    }
  }

  for (const sim::Strategy strategy :
       {sim::Strategy::kMostSlack, sim::Strategy::kFirstFit,
        sim::Strategy::kBestFit}) {
    config.strategy = strategy;
    const sim::BeamScheduler scheduler(cells, config);
    const sim::ScheduleResult indexed = scheduler.schedule(sats);
    const sim::ScheduleResult naive = scheduler.schedule_reference(sats);
    EXPECT_TRUE(indexed == naive);
  }
}

// ----------------------------------------------------- VisIndex contract ----

TEST(VisIndexContract, CandidatesAreSortedSupersetOfVisible) {
  stats::Pcg32 rng(99);
  const orbit::WalkerShell shell{53.0, 550.0, 24, 18, 7};
  const auto states =
      orbit::propagate_all(orbit::make_constellation(shell), 1234.5);
  const double psi_rad = 0.2;  // ~11.5 deg coverage cone
  const double cos_psi = std::cos(psi_rad);
  orbit::VisIndex index;
  index.build(states, psi_rad);
  std::vector<std::uint32_t> candidates;
  for (int i = 0; i < 200; ++i) {
    const geo::GeoPoint cell{-90.0 + rng.next_double() * 180.0,
                             -180.0 + rng.next_double() * 360.0};
    const geo::Vec3 cu =
        geo::spherical_to_cartesian(cell, geo::kEarthRadiusKm).unit();
    index.query(cell, candidates);
    ASSERT_TRUE(
        std::is_sorted(candidates.begin(), candidates.end()));
    ASSERT_EQ(std::adjacent_find(candidates.begin(), candidates.end()),
              candidates.end());
    // Every exactly-visible satellite must be in the candidate list.
    std::vector<std::uint32_t> visible;
    for (std::uint32_t si = 0; si < states.size(); ++si) {
      if (cu.dot(states[si].ecef_km.unit()) >= cos_psi) visible.push_back(si);
    }
    EXPECT_TRUE(std::includes(candidates.begin(), candidates.end(),
                              visible.begin(), visible.end()))
        << "cell " << cell.lat_deg << "," << cell.lon_deg;
  }
}

TEST(VisIndexContract, RejectsNonPositivePsi) {
  orbit::VisIndex index;
  EXPECT_THROW(index.build({}, 0.0), std::invalid_argument);
  EXPECT_THROW(index.build({}, -1.0), std::invalid_argument);
}

// ----------------------------------------------- thread-count invariance ----

TEST(TraceInvariance, IdenticalAcrossThreadCountsAndEqualToReference) {
  SimulationConfig config;
  config.duration_s = 300.0;
  config.step_s = 50.0;
  const auto profile = demand::SyntheticGenerator({.seed = 17, .scale = 0.01})
                           .generate_profile();
  const Simulation sim(config, profile);

  const auto serial = sim.run(runtime::serial_executor());
  runtime::ThreadPool pool4(4);
  const auto threads4 = sim.run(pool4);
  runtime::ThreadPool pool8(8);
  const auto threads8 = sim.run(pool8);
  EXPECT_TRUE(serial == threads4);
  EXPECT_TRUE(serial == threads8);

  // Hand-built reference trace through the naive kernel: replicate the
  // simulation's construction (same cells, config, orbits), schedule each
  // epoch with schedule_reference and summarize.
  const BeamScheduler scheduler(
      BeamScheduler::cells_from_profile(profile, core::SatelliteCapacityModel(),
                                        core::kFccOversubscriptionCap),
      config.scheduler);
  const auto orbits = orbit::make_constellation(config.shell);
  const SimClock clock(config.duration_s, config.step_s);
  ASSERT_EQ(serial.size(), clock.epochs());
  for (std::size_t e = 0; e < clock.epochs(); ++e) {
    const double t = clock.time_at(e);
    const auto ref =
        scheduler.schedule_reference(orbit::propagate_all(orbits, t));
    EXPECT_TRUE(serial[e] ==
                summarize_epoch(ref, scheduler.cells().size(), t))
        << "epoch " << e;
  }
}

// The coverage trace of the seed-42 national profile under Starlink shell 1
// at the 15 s rescheduling interval for 30 min, pinned byte-for-byte by
// digest. Any change to propagation, the visibility test or the scheduler
// that moves one bit of one epoch fails here.
TEST(SimEquivalence, CoverageTraceMatchesGolden) {
  using leodivide::testing::Golden;
  SimulationConfig config;
  config.step_s = 15.0;
  config.duration_s = 1800.0;
  const auto profile = demand::SyntheticGenerator({.seed = 42})
                           .generate_profile(runtime::serial_executor());
  const Simulation sim(config, profile);
  const Golden want{0x3468cae5afe56e24ULL, 6826};
  const Golden serial =
      leodivide::testing::golden_of(snapshot::serialize(
          sim.run(runtime::serial_executor())));
  EXPECT_EQ(serial, want) << leodivide::testing::to_literal(serial);
  runtime::ThreadPool pool4(4);
  const Golden threads4 =
      leodivide::testing::golden_of(snapshot::serialize(sim.run(pool4)));
  EXPECT_EQ(threads4, want) << leodivide::testing::to_literal(threads4);
}

// ------------------------------------------------------ window builds ----

TEST(Workspace, WindowsAreBuiltPerCoverageAngleNotPerEpoch) {
  // A shell's radius varies in its last bits between epochs, so a run
  // meets a few coverage angles; windows are built once for each and shared
  // by every chunk, and a second run of the same simulation builds none.
  SimulationConfig config;
  config.duration_s = 1800.0;
  config.step_s = 15.0;
  const auto profile = demand::SyntheticGenerator({.seed = 17, .scale = 0.01})
                           .generate_profile();
  const Simulation sim(config, profile);
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& builds = obs::registry().counter("sim.sched.window_builds");
  runtime::ThreadPool pool(4);
  const std::uint64_t before = builds.total();
  const auto first = sim.run(pool);
  const std::uint64_t first_builds = builds.total() - before;
  const auto second = sim.run(pool);
  const std::uint64_t second_builds = builds.total() - before - first_builds;
  obs::set_metrics_enabled(was_enabled);
  EXPECT_TRUE(first == second);
  ASSERT_EQ(first.size(), 121U);
  EXPECT_GE(first_builds, 1U);
  EXPECT_LE(first_builds, 4U);
  EXPECT_EQ(second_builds, 0U);
}

// ------------------------------------------------------- zero allocation ----

TEST(Workspace, SteadyStateEpochLoopIsAllocationFree) {
  const auto profile = demand::SyntheticGenerator({.seed = 17, .scale = 0.01})
                           .generate_profile();
  const BeamScheduler scheduler(
      BeamScheduler::cells_from_profile(profile, core::SatelliteCapacityModel(),
                                        20.0),
      SchedulerConfig{});
  const auto orbits = orbit::make_constellation(orbit::starlink_shell1());
  const SimClock clock(300.0, 100.0);

  ScheduleWorkspace ws;
  ScheduleResult schedule;
  auto run_epochs = [&] {
    for (std::size_t e = 0; e < clock.epochs(); ++e) {
      const double t = clock.time_at(e);
      orbit::propagate_all(orbits, t, ws.states);
      scheduler.schedule(ws.states, ws, schedule);
      (void)summarize_epoch(schedule, scheduler.cells().size(), t,
                            ws.sat_dedup);
    }
  };
  run_epochs();  // warm every buffer (and any lazy obs statics)

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  run_epochs();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "steady-state epoch loop performed " << (after - before)
      << " heap allocations";
}

}  // namespace
}  // namespace leodivide::sim
