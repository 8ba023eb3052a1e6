// Event-driven simulator core tests: certified crossing solver vs brute
// force, deterministic queue ordering, and the golden-equivalence contract
// — the event engine's sampled trace must be byte-identical to the epoch
// kernel's for random Walker shells x all strategies at every thread
// count, including polar and date-line cells. Also pins the steady-state
// event loop's zero-allocation contract via a counting global operator
// new, and checks the trace's exact handover/QoS accounting against the
// naive reference kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "golden_hash.hpp"
#include "leodivide/core/oversubscription.hpp"
#include "leodivide/demand/dataset.hpp"
#include "leodivide/event/engine.hpp"
#include "leodivide/event/event.hpp"
#include "leodivide/event/queue.hpp"
#include "leodivide/event/trace.hpp"
#include "leodivide/geo/angle.hpp"
#include "leodivide/geo/ecef.hpp"
#include "leodivide/orbit/crossing.hpp"
#include "leodivide/orbit/kepler.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/walker.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/sim/clock.hpp"
#include "leodivide/sim/coverage.hpp"
#include "leodivide/sim/handover.hpp"
#include "leodivide/sim/qos.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/snapshot/artifacts.hpp"
#include "leodivide/stats/rng.hpp"

// ------------------------------------------------------------------------
// Counting allocator hooks (same pin as test_sim_equivalence.cpp): every
// operator new in the process bumps the counter; the steady-state test
// asserts the warmed event loop leaves it untouched.
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

namespace leodivide::event {
namespace {

constexpr sim::Strategy kAllStrategies[] = {sim::Strategy::kMostSlack,
                                            sim::Strategy::kFirstFit,
                                            sim::Strategy::kBestFit};

// Minimal one-county table so CellDemand::county_index 0 validates.
demand::CountyTable one_county() {
  demand::CountyTable counties;
  counties.add({"00001", {40.0, -100.0}, 50000.0, 0});
  return counties;
}

// Small synthetic demand profile over a latitude band: enough cells that
// schedules are non-trivial, few enough that the epoch-kernel reference
// runs stay fast.
demand::DemandProfile band_profile(std::uint64_t seed, std::size_t n,
                                   double lat_min, double lat_max) {
  stats::Pcg32 rng(seed);
  std::vector<demand::CellDemand> cells;
  cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    demand::CellDemand c;
    c.center = {lat_min + rng.next_double() * (lat_max - lat_min),
                -180.0 + rng.next_double() * 360.0};
    c.underserved = 1 + static_cast<std::uint32_t>(rng.next_below(2000));
    cells.push_back(c);
  }
  return demand::DemandProfile(std::move(cells), one_county());
}

demand::DemandProfile points_profile(
    const std::vector<geo::GeoPoint>& points) {
  std::vector<demand::CellDemand> cells;
  cells.reserve(points.size());
  std::uint32_t locations = 17;
  for (const geo::GeoPoint& p : points) {
    demand::CellDemand c;
    c.center = p;
    c.underserved = locations;
    locations = locations * 31 % 1900 + 1;
    cells.push_back(c);
  }
  return demand::DemandProfile(std::move(cells), one_county());
}

// ----------------------------------------------------- crossing solver ----

TEST(CrossingSolver, AgreesWithBruteForceFineScan) {
  // Every sign change of g observed on a fine scan must fall inside an
  // emitted window, and outside the windows the scanned sign must be
  // constant between consecutive windows.
  stats::Pcg32 rng(20250808);
  const double horizon = 6000.0;
  const double dt = 0.25;
  for (int trial = 0; trial < 8; ++trial) {
    orbit::CircularOrbit orbit;
    orbit.altitude_km = 400.0 + rng.next_double() * 800.0;
    orbit.inclination_rad = geo::deg2rad(30.0 + rng.next_double() * 68.0);
    orbit.raan_rad = rng.next_double() * 2.0 * 3.141592653589793;
    orbit.phase_rad = rng.next_double() * 2.0 * 3.141592653589793;
    const geo::GeoPoint ground{-80.0 + rng.next_double() * 160.0,
                               -180.0 + rng.next_double() * 360.0};
    const geo::Vec3 u =
        geo::spherical_to_cartesian(ground, geo::kEarthRadiusKm).unit();
    const double cos_psi = std::cos(0.1 + rng.next_double() * 0.3);

    const orbit::ConeCrossingSolver solver(orbit, cos_psi);
    std::vector<orbit::Crossing> crossings;
    orbit::CrossingScratch scratch;
    solver.find(u, 0.0, horizon, crossings, scratch);

    // Windows must be ordered and within the horizon.
    for (std::size_t i = 0; i < crossings.size(); ++i) {
      EXPECT_LE(crossings[i].window_lo_s, crossings[i].window_hi_s);
      EXPECT_GE(crossings[i].window_lo_s, 0.0);
      EXPECT_LE(crossings[i].window_hi_s, horizon);
      if (i > 0) {
        EXPECT_GE(crossings[i].window_lo_s, crossings[i - 1].window_lo_s);
      }
    }

    const auto in_window = [&](double a, double b) {
      for (const orbit::Crossing& c : crossings) {
        if (c.window_lo_s <= b && c.window_hi_s >= a) return true;
      }
      return false;
    };
    std::size_t sign_changes = 0;
    double g_prev = solver.eval(u, 0.0);
    for (double t = dt; t <= horizon; t += dt) {
      const double g = solver.eval(u, t);
      if ((g_prev < 0.0) != (g < 0.0)) {
        ++sign_changes;
        EXPECT_TRUE(in_window(t - dt, t))
            << "unbracketed sign change near t=" << t << " (trial " << trial
            << ")";
      }
      g_prev = g;
    }
    // Certain windows must account for at least the scanned sign changes
    // (scanning can merge a rise+set pair inside one dt, never invent one).
    std::size_t certain = 0;
    for (const orbit::Crossing& c : crossings) {
      if (c.certain) ++certain;
    }
    EXPECT_GE(certain, sign_changes) << "trial " << trial;
  }
}

TEST(CrossingSolver, LatitudePrefilterIsConservative) {
  // An equatorial-ish orbit can never see a polar cell: no crossings, and
  // the scan confirms g stays negative.
  orbit::CircularOrbit orbit;
  orbit.altitude_km = 550.0;
  orbit.inclination_rad = geo::deg2rad(10.0);
  orbit.raan_rad = 0.7;
  orbit.phase_rad = 0.1;
  const geo::Vec3 pole =
      geo::spherical_to_cartesian({88.0, 10.0}, geo::kEarthRadiusKm).unit();
  const double cos_psi = std::cos(geo::deg2rad(20.0));
  const orbit::ConeCrossingSolver solver(orbit, cos_psi);
  EXPECT_FALSE(solver.can_ever_see(pole));
  std::vector<orbit::Crossing> crossings;
  orbit::CrossingScratch scratch;
  solver.find(pole, 0.0, 6000.0, crossings, scratch);
  EXPECT_TRUE(crossings.empty());
  for (double t = 0.0; t <= 6000.0; t += 1.0) {
    ASSERT_LT(solver.eval(pole, t), 0.0) << "t=" << t;
  }
}

TEST(CrossingSolver, RejectsBadConfig) {
  const orbit::CircularOrbit orbit{550.0, 0.9, 0.0, 0.0};
  EXPECT_THROW(orbit::ConeCrossingSolver(orbit, 1.5), std::invalid_argument);
  EXPECT_THROW(orbit::ConeCrossingSolver(orbit, -1.5), std::invalid_argument);
}

// ------------------------------------------------- event order + queue ----

TEST(EventOrder, ComparatorIsAStrictTotalOrder) {
  const Event a{1.0, 1.0, 1.1, EventKind::kRise, 2, 3};
  Event b = a;
  EXPECT_FALSE(event_less(a, b));  // irreflexive on equal values
  b.sat = 4;
  EXPECT_TRUE(event_less(a, b));
  EXPECT_FALSE(event_less(b, a));  // antisymmetric
  Event c = b;
  c.cell = 9;
  EXPECT_TRUE(event_less(b, c));
  EXPECT_TRUE(event_less(a, c));  // transitive along the chain
  // Time dominates everything; kind breaks time ties in enum order.
  const Event later{2.0, 2.0, 2.1, EventKind::kInitial, 0, 0};
  EXPECT_TRUE(event_less(c, later));
  const Event initial{1.0, 1.0, 1.1, EventKind::kInitial, 99, 99};
  EXPECT_TRUE(event_less(initial, a));  // kInitial < kRise at equal time
  const Event set{1.0, 1.0, 1.1, EventKind::kSet, 0, 0};
  const Event graze{1.0, 1.0, 1.1, EventKind::kGraze, 0, 0};
  EXPECT_TRUE(event_less(a, set));
  EXPECT_TRUE(event_less(set, graze));
}

TEST(EventQueue, PopOrderIsSortedAndPushOrderInvariant) {
  stats::Pcg32 rng(42);
  std::vector<Event> events;
  for (int i = 0; i < 500; ++i) {
    Event ev;
    ev.time_s = static_cast<double>(rng.next_below(64));  // force time ties
    ev.window_lo_s = ev.time_s;
    ev.window_hi_s = ev.time_s + 0.001;
    ev.kind = static_cast<EventKind>(rng.next_below(4));
    ev.cell = static_cast<std::uint32_t>(rng.next_below(16));
    ev.sat = static_cast<std::uint32_t>(rng.next_below(1000));
    events.push_back(ev);
  }

  const auto drain = [](EventQueue& q) {
    std::vector<Event> out;
    out.reserve(q.size());
    while (!q.empty()) out.push_back(q.pop_min());
    return out;
  };

  EventQueue queue;
  for (const Event& ev : events) queue.push(ev);
  const std::vector<Event> forward = drain(queue);
  ASSERT_EQ(forward.size(), events.size());
  for (std::size_t i = 1; i < forward.size(); ++i) {
    EXPECT_FALSE(event_less(forward[i], forward[i - 1])) << "index " << i;
  }

  // Reversed and shuffled push orders must pop identically.
  for (std::uint64_t shuffle_seed : {1ULL, 2ULL}) {
    std::vector<Event> permuted = events;
    stats::Pcg32 shuffle_rng(shuffle_seed);
    for (std::size_t i = permuted.size(); i > 1; --i) {
      std::swap(permuted[i - 1],
                permuted[shuffle_rng.next_below(static_cast<std::uint32_t>(i))]);
    }
    for (const Event& ev : permuted) queue.push(ev);
    EXPECT_TRUE(drain(queue) == forward);
  }
  std::vector<Event> reversed(events.rbegin(), events.rend());
  for (const Event& ev : reversed) queue.push(ev);
  EXPECT_TRUE(drain(queue) == forward);
}

// ---------------------------------------------------- golden equivalence ----

sim::SimulationConfig fine_config(double duration_s, double step_s) {
  sim::SimulationConfig config;
  // Small shell: contact dynamics without epoch-kernel reference runs
  // dominating the test's wall clock.
  config.shell = {53.0, 550.0, 6, 6, 1};
  config.duration_s = duration_s;
  config.step_s = step_s;
  return config;
}

TEST(GoldenEquivalence, RandomShellsAllStrategiesMatchEpochKernel) {
  stats::Pcg32 rng(20250807);
  for (int trial = 0; trial < 3; ++trial) {
    sim::SimulationConfig config = fine_config(1200.0, 7.5);
    config.shell.inclination_deg = 45.0 + rng.next_double() * 52.0;
    config.shell.altitude_km = 400.0 + rng.next_double() * 700.0;
    config.shell.planes = 4 + static_cast<std::uint32_t>(rng.next_below(4));
    config.shell.sats_per_plane =
        4 + static_cast<std::uint32_t>(rng.next_below(4));
    config.shell.phasing =
        static_cast<std::uint32_t>(rng.next_below(config.shell.planes));
    const auto profile = band_profile(1000 + trial, 50, -80.0, 80.0);
    for (const sim::Strategy strategy : kAllStrategies) {
      config.scheduler.strategy = strategy;
      const sim::Simulation epoch_sim(config, profile);
      EventSimulation event_sim(config, profile);
      const auto expected = epoch_sim.run(runtime::serial_executor());
      const auto actual = event_sim.run(runtime::serial_executor());
      ASSERT_EQ(expected.size(), actual.size());
      for (std::size_t e = 0; e < expected.size(); ++e) {
        ASSERT_TRUE(expected[e] == actual[e])
            << "trial " << trial << " strategy "
            << static_cast<int>(strategy) << " epoch " << e;
      }
    }
  }
}

TEST(GoldenEquivalence, PolarAndDateLineCellsMatchEpochKernel) {
  std::vector<geo::GeoPoint> points;
  for (double lat : {90.0, 89.9, 88.0, -88.0, -89.9, -90.0}) {
    for (double lon : {-170.0, -45.0, 0.0, 60.0, 179.0}) {
      points.push_back({lat, lon});
    }
  }
  for (double lon : {179.99, 179.5, 178.0, -178.0, -179.5, -179.99, 180.0}) {
    for (double lat : {-40.0, 0.0, 35.0, 62.0}) {
      points.push_back({lat, lon});
    }
  }
  const auto profile = points_profile(points);
  sim::SimulationConfig config = fine_config(900.0, 6.0);
  config.shell = {97.0, 600.0, 6, 6, 1};  // polar: passes over the caps
  for (const sim::Strategy strategy : kAllStrategies) {
    config.scheduler.strategy = strategy;
    const sim::Simulation epoch_sim(config, profile);
    EventSimulation event_sim(config, profile);
    const auto expected = epoch_sim.run(runtime::serial_executor());
    const auto actual = event_sim.run(runtime::serial_executor());
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t e = 0; e < expected.size(); ++e) {
      ASSERT_TRUE(expected[e] == actual[e])
          << "strategy " << static_cast<int>(strategy) << " epoch " << e;
    }
  }
}

TEST(GoldenEquivalence, IdenticalAcrossThreadCounts) {
  const auto profile = band_profile(7, 60, -80.0, 80.0);
  const sim::SimulationConfig config = fine_config(1200.0, 10.0);

  const sim::Simulation epoch_sim(config, profile);
  const auto expected = epoch_sim.run(runtime::serial_executor());

  EventSimulation event_sim(config, profile);
  const auto serial = event_sim.run(runtime::serial_executor());
  runtime::ThreadPool pool4(4);
  const auto threads4 = event_sim.run(pool4);
  runtime::ThreadPool pool8(8);
  const auto threads8 = event_sim.run(pool8);

  EXPECT_TRUE(serial == expected);
  EXPECT_TRUE(serial == threads4);
  EXPECT_TRUE(serial == threads8);

  // The full trace — events, segments, exact handover totals — must also
  // be thread-count invariant, not just the sampled projection.
  const EventTrace trace_serial = event_sim.run_trace(runtime::serial_executor());
  const EventTrace trace4 = event_sim.run_trace(pool4);
  const EventTrace trace8 = event_sim.run_trace(pool8);
  EXPECT_TRUE(trace_serial == trace4);
  EXPECT_TRUE(trace_serial == trace8);
}

// -------------------------------------------------- exact trace accounting ----

TEST(EventTraceAccounting, SegmentsMatchNaiveKernelAndPartitionHorizon) {
  const auto profile = band_profile(11, 40, -70.0, 70.0);
  const sim::SimulationConfig config = fine_config(1500.0, 12.5);
  EventSimulation event_sim(config, profile);
  const EventTrace trace = event_sim.run_trace(runtime::serial_executor());

  ASSERT_FALSE(trace.segments.empty());
  EXPECT_EQ(trace.segments.front().begin_s, 0.0);
  EXPECT_EQ(trace.segments.back().end_s, config.duration_s);
  for (std::size_t i = 1; i < trace.segments.size(); ++i) {
    EXPECT_EQ(trace.segments[i].begin_s, trace.segments[i - 1].end_s);
  }
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_FALSE(event_less(trace.events[i], trace.events[i - 1]));
  }
  EXPECT_GE(trace.boundaries, trace.segments.size());

  // Each segment's coverage, QoS and the accumulated handover totals must
  // equal what the naive reference kernel computes at the segment starts.
  const auto orbits = orbit::make_constellation(config.shell);
  const core::SatelliteCapacityModel model;
  const auto& scheduler = event_sim.scheduler();
  const std::size_t n_cells = scheduler.cells().size();
  sim::HandoverStats expected_handovers;
  sim::ScheduleResult prev;
  for (std::size_t i = 0; i < trace.segments.size(); ++i) {
    const CoverageSegment& segment = trace.segments[i];
    const sim::ScheduleResult ref = scheduler.schedule_reference(
        orbit::propagate_all(orbits, segment.begin_s));
    const sim::EpochCoverage coverage =
        sim::summarize_epoch(ref, n_cells, segment.begin_s);
    EXPECT_TRUE(segment.coverage == coverage) << "segment " << i;
    const sim::QosSummary qos = sim::summarize_qos(sim::compute_qos(
        scheduler.cells(), ref, model, config.scheduler,
        core::kFccOversubscriptionCap));
    EXPECT_TRUE(segment.qos == qos) << "segment " << i;
    if (i > 0) {
      // Consecutive segments hold distinct schedules by construction.
      EXPECT_FALSE(ref == prev) << "segment " << i << " not merged";
      expected_handovers += sim::compare_schedules(prev, ref, n_cells);
    }
    prev = ref;
  }
  EXPECT_TRUE(trace.handovers == expected_handovers);
}

TEST(EventTraceAccounting, SampleEpochsRejectsEmptyTrace) {
  EventTrace trace;
  trace.duration_s = 100.0;
  trace.step_s = 10.0;
  EXPECT_THROW(sample_epochs(trace), std::invalid_argument);
}

// ------------------------------------------------------- zero allocation ----

TEST(EventWorkspaceTest, SteadyStateEventLoopIsAllocationFree) {
  const auto profile = band_profile(13, 30, -60.0, 60.0);
  const sim::SimulationConfig config = fine_config(1200.0, 5.0);
  EventSimulation event_sim(config, profile);
  EventTrace trace;
  // Two warm-up runs: the first sizes every buffer, the second settles any
  // lazily-grown capacity (queue, spans, segments).
  event_sim.run_trace(runtime::serial_executor(), trace);
  event_sim.run_trace(runtime::serial_executor(), trace);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  event_sim.run_trace(runtime::serial_executor(), trace);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "steady-state event loop performed " << (after - before)
      << " heap allocations";
}

// -------------------------------------------------------------- snapshot ----

TEST(EventTraceSnapshot, LiveRunRoundTripsExactly) {
  // A trace produced by a real event-driven run must survive the LDSNAP
  // round trip bit-for-bit, including every drained event and segment.
  const auto profile = band_profile(29, 25, -55.0, 55.0);
  const sim::SimulationConfig config = fine_config(900.0, 7.5);
  EventSimulation event_sim(config, profile);
  const EventTrace trace = [&] {
    EventTrace t;
    event_sim.run_trace(runtime::serial_executor(), t);
    return t;
  }();
  ASSERT_FALSE(trace.segments.empty());

  const std::string blob = snapshot::serialize(trace);
  const EventTrace restored = snapshot::deserialize_event_trace(blob);
  EXPECT_EQ(restored, trace);

  // Sampling the restored trace must reproduce the original projection —
  // the cached-blob-replaces-recomputation contract.
  EXPECT_EQ(sample_epochs(restored), sample_epochs(trace));
}

// The full event trace of a small fixed run, pinned byte-for-byte by
// digest. The 132-satellite shell spans two of propagate_all's 128-satellite
// blocks, so the blocked rotation the engine calls at every boundary is
// pinned on a full block and a tail.
TEST(EventTraceSnapshot, RunTraceMatchesGolden) {
  using leodivide::testing::Golden;
  const auto profile = band_profile(29, 25, -55.0, 55.0);
  sim::SimulationConfig config = fine_config(900.0, 7.5);
  config.shell = {53.0, 550.0, 12, 11, 1};
  EventSimulation event_sim(config, profile);
  const Golden want{0xe1f1a67ada3c9061ULL, 76148};
  const Golden serial = leodivide::testing::golden_of(
      snapshot::serialize(event_sim.run_trace(runtime::serial_executor())));
  EXPECT_EQ(serial, want) << leodivide::testing::to_literal(serial);
  runtime::ThreadPool pool4(4);
  const Golden threads4 = leodivide::testing::golden_of(
      snapshot::serialize(event_sim.run_trace(pool4)));
  EXPECT_EQ(threads4, want) << leodivide::testing::to_literal(threads4);
}

}  // namespace
}  // namespace leodivide::event
