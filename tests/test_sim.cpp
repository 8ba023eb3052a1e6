// Unit tests for leodivide::sim — the time-stepped beam scheduler.

#include <gtest/gtest.h>

#include <set>

#include "leodivide/demand/generator.hpp"
#include "leodivide/geo/angle.hpp"
#include "leodivide/sim/beam.hpp"
#include "leodivide/sim/clock.hpp"
#include "leodivide/sim/coverage.hpp"
#include "leodivide/sim/metrics.hpp"
#include "leodivide/sim/simulation.hpp"

namespace leodivide::sim {
namespace {

demand::DemandProfile small_profile() {
  return demand::SyntheticGenerator({.seed = 17, .scale = 0.01})
      .generate_profile();
}

// ------------------------------------------------------------------- clock ----

TEST(Clock, EpochCountAndTimes) {
  const SimClock clock(600.0, 60.0);
  EXPECT_EQ(clock.epochs(), 11U);
  EXPECT_DOUBLE_EQ(clock.time_at(0), 0.0);
  EXPECT_DOUBLE_EQ(clock.time_at(10), 600.0);
  EXPECT_THROW((void)clock.time_at(11), std::out_of_range);
}

TEST(Clock, ZeroDurationHasOneEpoch) {
  EXPECT_EQ(SimClock(0.0, 10.0).epochs(), 1U);
}

TEST(Clock, RejectsBadArgs) {
  EXPECT_THROW(SimClock(10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(SimClock(-1.0, 1.0), std::invalid_argument);
}

// -------------------------------------------------------------- beam budget ----

TEST(BeamBudgetTest, WholeBeamReservation) {
  BeamBudget b(24, 5);
  EXPECT_TRUE(b.reserve_whole(4));
  EXPECT_EQ(b.beams_free(), 20U);
  EXPECT_EQ(b.beams_used(), 4U);
  EXPECT_FALSE(b.reserve_whole(21));
  EXPECT_TRUE(b.reserve_whole(20));
  EXPECT_EQ(b.beams_free(), 0U);
  EXPECT_FALSE(b.reserve_whole(1));
}

TEST(BeamBudgetTest, SharedSlotsPackToBeamspread) {
  BeamBudget b(2, 3);
  // First shared slot opens a beam with 3 slots.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(b.reserve_shared_slot());
  EXPECT_EQ(b.beams_free(), 1U);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(b.reserve_shared_slot());
  EXPECT_EQ(b.beams_free(), 0U);
  EXPECT_FALSE(b.reserve_shared_slot());
  EXPECT_EQ(b.cells_assigned(), 6U);
}

TEST(BeamBudgetTest, SlackCountsBeamsAndOpenSlots) {
  BeamBudget b(4, 5);
  EXPECT_EQ(b.slack(), 20U);
  ASSERT_TRUE(b.reserve_shared_slot());
  EXPECT_EQ(b.slack(), 19U);  // 3 free beams * 5 + 4 open slots
  ASSERT_TRUE(b.reserve_whole(3));
  EXPECT_EQ(b.slack(), 4U);
}

TEST(BeamBudgetTest, RejectsZeroConfig) {
  EXPECT_THROW(BeamBudget(0, 5), std::invalid_argument);
  EXPECT_THROW(BeamBudget(24, 0), std::invalid_argument);
}

// ---------------------------------------------------------------- scheduler ----

TEST(Scheduler, CellsFromProfileComputeBeams) {
  const auto profile = small_profile();
  const auto cells = BeamScheduler::cells_from_profile(
      profile, core::SatelliteCapacityModel(), 20.0);
  ASSERT_EQ(cells.size(), profile.cell_count());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_GE(cells[i].beams_needed, 1U);
    EXPECT_LE(cells[i].beams_needed, 4U);
    EXPECT_EQ(cells[i].locations, profile.cells()[i].underserved);
  }
}

TEST(Scheduler, NoSatellitesMeansNothingServed) {
  const auto profile = small_profile();
  const BeamScheduler scheduler(
      BeamScheduler::cells_from_profile(profile,
                                        core::SatelliteCapacityModel(), 20.0),
      SchedulerConfig{});
  const ScheduleResult r = scheduler.schedule({});
  EXPECT_TRUE(r.assignments.empty());
  EXPECT_EQ(r.unassigned_cells.size(), profile.cell_count());
  EXPECT_EQ(r.locations_served, 0U);
}

TEST(Scheduler, SingleOverheadSatelliteServesNearbyCells) {
  // One satellite directly over a small cluster of cells.
  std::vector<SchedCell> cells;
  for (int i = 0; i < 10; ++i) {
    SchedCell c;
    c.center = {39.0 + 0.1 * i, -98.0};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 100;
    c.beams_needed = 1;
    cells.push_back(c);
  }
  const BeamScheduler scheduler(cells, SchedulerConfig{5});
  orbit::SatState sat;
  sat.subpoint = {39.5, -98.0};
  sat.ecef_km =
      geo::spherical_to_cartesian(sat.subpoint, geo::kEarthRadiusKm + 550.0);
  const ScheduleResult r = scheduler.schedule({sat});
  EXPECT_EQ(r.assignments.size(), 10U);
  EXPECT_EQ(r.locations_served, 1000U);
  // 10 single-beam cells at beamspread 5 need 2 beams.
  EXPECT_NEAR(r.mean_beam_utilization, 2.0 / 24.0, 1e-9);
}

TEST(Scheduler, BeamBudgetLimitsAssignments) {
  // 30 single-beam cells, beamspread 1, 24 beams: exactly 24 served.
  std::vector<SchedCell> cells;
  for (int i = 0; i < 30; ++i) {
    SchedCell c;
    c.center = {38.0 + 0.1 * i, -98.0};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 10;
    c.beams_needed = 1;
    cells.push_back(c);
  }
  const BeamScheduler scheduler(cells, SchedulerConfig{1});
  orbit::SatState sat;
  sat.subpoint = {39.5, -98.0};
  sat.ecef_km =
      geo::spherical_to_cartesian(sat.subpoint, geo::kEarthRadiusKm + 550.0);
  const ScheduleResult r = scheduler.schedule({sat});
  EXPECT_EQ(r.assignments.size(), 24U);
  EXPECT_EQ(r.unassigned_cells.size(), 6U);
}

TEST(Scheduler, MultiBeamCellsScheduledFirst) {
  // One 4-beam cell and 25 single-beam cells at beamspread 1: the 4-beam
  // cell must win its beams even though singles outnumber it.
  std::vector<SchedCell> cells;
  SchedCell heavy;
  heavy.center = {39.5, -98.0};
  heavy.ecef_km = geo::spherical_to_cartesian(heavy.center, geo::kEarthRadiusKm);
  heavy.locations = 3000;
  heavy.beams_needed = 4;
  cells.push_back(heavy);
  for (int i = 0; i < 25; ++i) {
    SchedCell c;
    c.center = {38.0 + 0.1 * i, -97.0};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 10;
    c.beams_needed = 1;
    cells.push_back(c);
  }
  const BeamScheduler scheduler(cells, SchedulerConfig{1});
  orbit::SatState sat;
  sat.subpoint = {39.0, -97.5};
  sat.ecef_km =
      geo::spherical_to_cartesian(sat.subpoint, geo::kEarthRadiusKm + 550.0);
  const ScheduleResult r = scheduler.schedule({sat});
  bool heavy_served = false;
  for (const auto& a : r.assignments) {
    if (a.cell == 0) {
      heavy_served = true;
      EXPECT_EQ(a.beams, 4U);
    }
  }
  EXPECT_TRUE(heavy_served);
  EXPECT_EQ(r.assignments.size(), 21U);  // 4 beams + 20 singles
}

TEST(Scheduler, FarawaySatelliteServesNothing) {
  std::vector<SchedCell> cells(1);
  cells[0].center = {39.0, -98.0};
  cells[0].ecef_km =
      geo::spherical_to_cartesian(cells[0].center, geo::kEarthRadiusKm);
  cells[0].locations = 10;
  cells[0].beams_needed = 1;
  const BeamScheduler scheduler(cells, SchedulerConfig{5});
  orbit::SatState sat;
  sat.subpoint = {-39.0, 98.0};
  sat.ecef_km =
      geo::spherical_to_cartesian(sat.subpoint, geo::kEarthRadiusKm + 550.0);
  const ScheduleResult r = scheduler.schedule({sat});
  EXPECT_TRUE(r.assignments.empty());
}

// ----------------------------------------------------------------- coverage ----

TEST(Coverage, SummarizeEpochCountsSatellites) {
  ScheduleResult r;
  r.assignments = {{0, 3, 0}, {1, 3, 0}, {2, 7, 4}};
  r.locations_total = 100;
  r.locations_served = 80;
  const EpochCoverage c = summarize_epoch(r, 5, 42.0);
  EXPECT_EQ(c.cells_served, 3U);
  EXPECT_EQ(c.cells_total, 5U);
  EXPECT_EQ(c.satellites_in_view, 2U);
  EXPECT_DOUBLE_EQ(c.cell_coverage(), 0.6);
  EXPECT_DOUBLE_EQ(c.location_coverage(), 0.8);
}

TEST(Coverage, EmptyTotalsCountAsFullCoverage) {
  const EpochCoverage c = summarize_epoch(ScheduleResult{}, 0, 0.0);
  EXPECT_DOUBLE_EQ(c.cell_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(c.location_coverage(), 1.0);
}

// ------------------------------------------------------------------ metrics ----

TEST(Metrics, SummarizeAggregates) {
  std::vector<EpochCoverage> epochs(2);
  epochs[0].cells_total = 10;
  epochs[0].cells_served = 5;
  epochs[1].cells_total = 10;
  epochs[1].cells_served = 10;
  const SimulationReport r = summarize(epochs);
  EXPECT_EQ(r.epochs, 2U);
  EXPECT_DOUBLE_EQ(r.min_cell_coverage, 0.5);
  EXPECT_DOUBLE_EQ(r.max_cell_coverage, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_cell_coverage, 0.75);
}

TEST(Metrics, RejectsEmptyTrace) {
  EXPECT_THROW((void)summarize({}), std::invalid_argument);
}

TEST(Metrics, SingleEpochCollapsesMinMeanMax) {
  EpochCoverage e;
  e.time_s = 60.0;
  e.cells_total = 8;
  e.cells_served = 6;
  e.locations_total = 100;
  e.locations_served = 40;
  e.mean_beam_utilization = 0.7;
  e.satellites_in_view = 9;
  const SimulationReport r = summarize({e});
  EXPECT_EQ(r.epochs, 1U);
  EXPECT_DOUBLE_EQ(r.min_cell_coverage, 0.75);
  EXPECT_DOUBLE_EQ(r.mean_cell_coverage, 0.75);
  EXPECT_DOUBLE_EQ(r.max_cell_coverage, 0.75);
  EXPECT_DOUBLE_EQ(r.min_location_coverage, 0.4);
  EXPECT_DOUBLE_EQ(r.mean_location_coverage, 0.4);
  EXPECT_DOUBLE_EQ(r.mean_beam_utilization, 0.7);
  EXPECT_DOUBLE_EQ(r.mean_satellites_in_view, 9.0);
}

// ---------------------------------------------------------------- simulation ----

TEST(SimulationTest, Shell1CoversSomethingButNotEverything) {
  SimulationConfig config;
  config.duration_s = 300.0;
  config.step_s = 100.0;
  config.scheduler.beamspread = 5;
  const Simulation sim(config, small_profile());
  const auto trace = sim.run();
  ASSERT_EQ(trace.size(), 4U);
  const SimulationReport report = summarize(trace);
  // Shell 1 (1584 sats) over a 1%-scale demand profile: substantial but
  // incomplete coverage — the paper's headline claim in miniature.
  EXPECT_GT(report.mean_cell_coverage, 0.1);
  EXPECT_GT(report.mean_satellites_in_view, 3.0);
}

TEST(SimulationTest, MoreSatellitesNeverReduceCoverage) {
  SimulationConfig small_config;
  small_config.shell = orbit::WalkerShell{53.0, 550.0, 18, 11, 1};
  small_config.duration_s = 120.0;
  small_config.step_s = 60.0;
  SimulationConfig big_config = small_config;
  big_config.shell = orbit::WalkerShell{53.0, 550.0, 72, 22, 1};
  const auto profile = small_profile();
  const auto small_report = Simulation(small_config, profile).run_report();
  const auto big_report = Simulation(big_config, profile).run_report();
  EXPECT_GE(big_report.mean_cell_coverage,
            small_report.mean_cell_coverage - 1e-9);
}

TEST(SimulationTest, RunReportMatchesSummarizedRun) {
  SimulationConfig config;
  config.duration_s = 120.0;
  config.step_s = 60.0;
  const Simulation sim(config, small_profile());
  const SimulationReport a = sim.run_report();
  const SimulationReport b = summarize(sim.run());
  EXPECT_DOUBLE_EQ(a.mean_cell_coverage, b.mean_cell_coverage);
  EXPECT_DOUBLE_EQ(a.min_cell_coverage, b.min_cell_coverage);
}

}  // namespace
}  // namespace leodivide::sim

// Appended: scheduler strategy comparison.
namespace leodivide::sim {
namespace {

class StrategySweep : public ::testing::TestWithParam<Strategy> {};

TEST_P(StrategySweep, EveryStrategyServesTheEasyCase) {
  // One satellite overhead, few single-beam cells: every strategy must
  // serve all of them.
  std::vector<SchedCell> cells;
  for (int i = 0; i < 8; ++i) {
    SchedCell c;
    c.center = {39.0 + 0.1 * i, -98.0};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 50;
    c.beams_needed = 1;
    cells.push_back(c);
  }
  SchedulerConfig config{5, GetParam()};
  const BeamScheduler scheduler(cells, config);
  orbit::SatState sat;
  sat.subpoint = {39.4, -98.0};
  sat.ecef_km =
      geo::spherical_to_cartesian(sat.subpoint, geo::kEarthRadiusKm + 550.0);
  const ScheduleResult r = scheduler.schedule({sat});
  EXPECT_EQ(r.assignments.size(), 8U);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategySweep,
                         ::testing::Values(Strategy::kMostSlack,
                                           Strategy::kFirstFit,
                                           Strategy::kBestFit));

TEST(StrategyComparison, BestFitPacksTighterThanMostSlack) {
  // Two satellites visible; best-fit should fill one before touching the
  // other, most-slack should spread.
  std::vector<SchedCell> cells;
  for (int i = 0; i < 4; ++i) {
    SchedCell c;
    c.center = {39.0 + 0.05 * i, -98.0};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 10;
    c.beams_needed = 1;
    cells.push_back(c);
  }
  auto make_sat = [](double lon) {
    orbit::SatState s;
    s.subpoint = {39.1, lon};
    s.ecef_km =
        geo::spherical_to_cartesian(s.subpoint, geo::kEarthRadiusKm + 550.0);
    return s;
  };
  const std::vector<orbit::SatState> sats{make_sat(-98.2), make_sat(-97.8)};

  auto distinct_sats = [&](Strategy strategy) {
    SchedulerConfig config{4, strategy};
    const BeamScheduler scheduler(cells, config);
    const auto r = scheduler.schedule(sats);
    std::set<std::uint32_t> used;
    for (const auto& a : r.assignments) used.insert(a.sat);
    return used.size();
  };
  // Best-fit concentrates on one satellite (4 cells fit one shared beam
  // opened on it); most-slack keeps alternating between equals but after
  // the first assignment the fuller satellite has less slack, so it
  // spreads across both.
  EXPECT_EQ(distinct_sats(Strategy::kBestFit), 1U);
  EXPECT_EQ(distinct_sats(Strategy::kMostSlack), 2U);
}

}  // namespace
}  // namespace leodivide::sim

// Appended: max-flow and the optimal slot bound (sim/maxflow.hpp).
#include "leodivide/sim/maxflow.hpp"

namespace leodivide::sim {
namespace {

TEST(MaxFlowTest, TextbookGraph) {
  // Classic 6-vertex example with max flow 23.
  MaxFlow f(6);
  f.add_edge(0, 1, 16);
  f.add_edge(0, 2, 13);
  f.add_edge(1, 2, 10);
  f.add_edge(2, 1, 4);
  f.add_edge(1, 3, 12);
  f.add_edge(3, 2, 9);
  f.add_edge(2, 4, 14);
  f.add_edge(4, 3, 7);
  f.add_edge(3, 5, 20);
  f.add_edge(4, 5, 4);
  EXPECT_EQ(f.solve(0, 5), 23);
}

TEST(MaxFlowTest, DisconnectedIsZero) {
  MaxFlow f(4);
  f.add_edge(0, 1, 5);
  f.add_edge(2, 3, 5);
  EXPECT_EQ(f.solve(0, 3), 0);
}

TEST(MaxFlowTest, ParallelEdgesAdd) {
  MaxFlow f(2);
  f.add_edge(0, 1, 3);
  f.add_edge(0, 1, 4);
  EXPECT_EQ(f.solve(0, 1), 7);
}

TEST(MaxFlowTest, RejectsBadUsage) {
  MaxFlow f(3);
  EXPECT_THROW(f.add_edge(0, 5, 1), std::out_of_range);
  EXPECT_THROW(f.add_edge(0, 1, -1), std::invalid_argument);
  EXPECT_THROW((void)f.solve(1, 1), std::invalid_argument);
  EXPECT_THROW(MaxFlow{1}, std::invalid_argument);
}

TEST(OptimalSlotBound, SingleSatelliteExactCapacity) {
  // 30 single-beam cells under one satellite with 24 beams, beamspread 1:
  // optimum serves exactly 24 slots of 30 demanded.
  std::vector<SchedCell> cells;
  for (int i = 0; i < 30; ++i) {
    SchedCell c;
    c.center = {38.0 + 0.1 * i, -98.0};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 10;
    c.beams_needed = 1;
    cells.push_back(c);
  }
  orbit::SatState sat;
  sat.subpoint = {39.5, -98.0};
  sat.ecef_km =
      geo::spherical_to_cartesian(sat.subpoint, geo::kEarthRadiusKm + 550.0);
  SchedulerConfig config;
  config.beamspread = 1;
  const FlowBound bound = optimal_slot_bound(cells, {sat}, config);
  EXPECT_EQ(bound.slots_demanded, 30);
  EXPECT_EQ(bound.slots_served, 24);
}

TEST(OptimalSlotBound, DominatesGreedy) {
  // On a random scenario the flow bound must be >= any greedy result.
  const auto profile =
      demand::SyntheticGenerator({.seed = 29, .scale = 0.01})
          .generate_profile();
  const auto orbits = orbit::make_constellation(orbit::starlink_shell1());
  const auto states = orbit::propagate_all(orbits, 100.0);
  const core::SatelliteCapacityModel capacity;
  const auto cells =
      BeamScheduler::cells_from_profile(profile, capacity, 20.0);
  SchedulerConfig config;
  config.beamspread = 2;
  const FlowBound bound = optimal_slot_bound(cells, states, config);
  for (Strategy strategy : {Strategy::kMostSlack, Strategy::kFirstFit,
                            Strategy::kBestFit}) {
    SchedulerConfig sc = config;
    sc.strategy = strategy;
    const BeamScheduler scheduler(cells, sc);
    const auto r = scheduler.schedule(states);
    std::int64_t slots = 0;
    for (const auto& a : r.assignments) {
      slots += cells[a.cell].beams_needed >= 2
                   ? static_cast<std::int64_t>(cells[a.cell].beams_needed) *
                         config.beamspread
                   : 1;
    }
    EXPECT_LE(slots, bound.slots_served);
  }
}

TEST(OptimalSlotBound, EmptyCellsAreFullyCovered) {
  const FlowBound bound = optimal_slot_bound({}, {}, SchedulerConfig{});
  EXPECT_DOUBLE_EQ(bound.slot_coverage, 1.0);
}

}  // namespace
}  // namespace leodivide::sim

// Appended: handover accounting (sim/handover.hpp).
#include "leodivide/sim/handover.hpp"

namespace leodivide::sim {
namespace {

TEST(Handover, CountsSwitchesDropsAndAcquisitions) {
  ScheduleResult before, after;
  before.assignments = {{0, 10, 0}, {1, 11, 0}, {2, 12, 0}};
  after.assignments = {{0, 10, 0}, {1, 99, 0}, {3, 7, 0}};
  const HandoverStats s = compare_schedules(before, after, 5);
  EXPECT_EQ(s.cells_tracked, 2U);   // cells 0 and 1
  EXPECT_EQ(s.handovers, 1U);       // cell 1 switched 11 -> 99
  EXPECT_EQ(s.cells_dropped, 1U);   // cell 2
  EXPECT_EQ(s.cells_acquired, 1U);  // cell 3
  EXPECT_DOUBLE_EQ(s.handover_rate(), 0.5);
}

TEST(Handover, IdenticalSchedulesHaveNoChurn) {
  ScheduleResult r;
  r.assignments = {{0, 1, 0}, {1, 2, 0}};
  const HandoverStats s = compare_schedules(r, r, 4);
  EXPECT_EQ(s.handovers, 0U);
  EXPECT_EQ(s.cells_dropped, 0U);
  EXPECT_DOUBLE_EQ(s.handover_rate(), 0.0);
}

TEST(Handover, RejectsOutOfRangeAssignments) {
  ScheduleResult bad;
  bad.assignments = {{9, 1, 0}};
  EXPECT_THROW((void)compare_schedules(bad, {}, 5), std::invalid_argument);
}

TEST(Handover, RealScheduleChurnsAsSatellitesMove) {
  // Two epochs 60 s apart: satellites move ~450 km, so some cells must
  // change serving satellite while overall coverage stays similar.
  const auto profile =
      demand::SyntheticGenerator({.seed = 31, .scale = 0.01})
          .generate_profile();
  const core::SatelliteCapacityModel capacity;
  const auto cells =
      BeamScheduler::cells_from_profile(profile, capacity, 20.0);
  const BeamScheduler scheduler(cells, SchedulerConfig{});
  const auto orbits = orbit::make_constellation(orbit::starlink_shell1());
  const auto r0 = scheduler.schedule(orbit::propagate_all(orbits, 0.0));
  const auto r1 = scheduler.schedule(orbit::propagate_all(orbits, 60.0));
  const HandoverStats s = compare_schedules(r0, r1, cells.size());
  EXPECT_GT(s.cells_tracked, 0U);
  EXPECT_GT(s.handovers, 0U);  // motion forces some churn
}

}  // namespace
}  // namespace leodivide::sim

// Appended: gateway placement (sim/gateway.hpp) and QoS (sim/qos.hpp).
#include "leodivide/sim/gateway.hpp"
#include "leodivide/sim/qos.hpp"

namespace leodivide::sim {
namespace {

TEST(GatewayPlacement, SingleCandidateCoversSmallRegion) {
  const std::vector<geo::GeoPoint> candidates{{39.0, -98.0}};
  const geo::BoundingBox region{37.0, 41.0, -100.0, -96.0};
  const auto placement =
      place_gateways(candidates, region);
  EXPECT_EQ(placement.sites.size(), 1U);
  EXPECT_EQ(placement.uncovered_samples, 0U);
}

TEST(GatewayPlacement, GreedyPrefersCentralCandidates) {
  // A central candidate covering everything beats two edge candidates
  // (the region is wide enough that neither edge candidate reaches the
  // far side within the ~940 km feeder footprint).
  const std::vector<geo::GeoPoint> candidates{
      {39.0, -104.0}, {39.0, -98.0}, {39.0, -92.0}};
  const geo::BoundingBox region{37.0, 41.0, -103.0, -93.0};
  const auto placement =
      place_gateways(candidates, region);
  ASSERT_GE(placement.sites.size(), 1U);
  EXPECT_NEAR(placement.sites.front().lon_deg, -98.0, 1e-9);
}

TEST(GatewayPlacement, WideRegionNeedsMultipleSites) {
  std::vector<geo::GeoPoint> candidates;
  for (double lon = -124.0; lon <= -68.0; lon += 4.0) {
    candidates.push_back({39.0, lon});
  }
  const geo::BoundingBox region{32.0, 46.0, -122.0, -70.0};
  const auto placement =
      place_gateways(candidates, region);
  EXPECT_GT(placement.sites.size(), 3U);
  EXPECT_EQ(placement.uncovered_samples, 0U);
}

TEST(GatewayPlacement, ReportsUnreachableSamples) {
  // One candidate far from most of the region.
  const std::vector<geo::GeoPoint> candidates{{45.0, -120.0}};
  const geo::BoundingBox region{25.0, 48.0, -124.0, -70.0};
  const auto placement =
      place_gateways(candidates, region);
  EXPECT_EQ(placement.sites.size(), 1U);
  EXPECT_GT(placement.uncovered_samples, 0U);
}

TEST(GatewayPlacement, RejectsBadInputs) {
  const geo::BoundingBox region{37.0, 41.0, -100.0, -96.0};
  EXPECT_THROW((void)place_gateways({}, region), std::invalid_argument);
}

TEST(Qos, WholeBeamAndSharedCapacities) {
  std::vector<SchedCell> cells(2);
  cells[0].locations = 2000;  // gets 3 whole beams below
  cells[1].locations = 400;   // shared slot
  ScheduleResult schedule;
  schedule.assignments = {{0, 0, 3}, {1, 0, 0}};
  const core::SatelliteCapacityModel model;
  SchedulerConfig config;
  config.beamspread = 5;
  const auto qos = compute_qos(cells, schedule, model, config, 20.0);
  ASSERT_EQ(qos.size(), 2U);
  EXPECT_NEAR(qos[0].capacity_gbps, 3.0 * 4.33125, 1e-9);
  // demand 200 Gbps / 12.99 Gbps ~ 15.4:1 -> within 20:1.
  EXPECT_TRUE(qos[0].within_target);
  EXPECT_NEAR(qos[1].capacity_gbps, 4.33125 / 5.0, 1e-9);
  // demand 40 Gbps / 0.866 ~ 46:1 -> violates 20:1.
  EXPECT_FALSE(qos[1].within_target);
}

TEST(Qos, SummaryAggregates) {
  std::vector<CellQos> qos(3);
  qos[0].achieved_oversub = 10.0;
  qos[0].within_target = true;
  qos[1].achieved_oversub = 30.0;
  qos[2].achieved_oversub = 20.0;
  qos[2].within_target = true;
  const QosSummary s = summarize_qos(qos);
  EXPECT_EQ(s.cells_served, 3U);
  EXPECT_EQ(s.cells_within_target, 2U);
  EXPECT_DOUBLE_EQ(s.mean_oversub, 20.0);
  EXPECT_DOUBLE_EQ(s.worst_oversub, 30.0);
  EXPECT_NEAR(s.fraction_within_target, 2.0 / 3.0, 1e-12);
}

TEST(Qos, EmptyScheduleIsTriviallyWithinTarget) {
  const QosSummary s = summarize_qos({});
  EXPECT_DOUBLE_EQ(s.fraction_within_target, 1.0);
}

TEST(Qos, RejectsBadInputs) {
  const core::SatelliteCapacityModel model;
  ScheduleResult bad;
  bad.assignments = {{5, 0, 0}};
  EXPECT_THROW(
      (void)compute_qos({}, bad, model, SchedulerConfig{}, 20.0),
      std::invalid_argument);
  EXPECT_THROW(
      (void)compute_qos({}, ScheduleResult{}, model, SchedulerConfig{}, 0.0),
      std::invalid_argument);
}

}  // namespace
}  // namespace leodivide::sim
