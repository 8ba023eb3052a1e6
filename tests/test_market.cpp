// Unit tests for leodivide::market — operators, spectrum splits, fairness,
// and the market driver's two load-bearing guarantees: byte-identical
// results for every thread count / operator order, and bit-for-bit
// agreement with the single-operator core/ + afford/ pipeline when one
// Starlink operator runs under the exclusive policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/beamspread.hpp"
#include "leodivide/core/longtail.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/market/market.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/snapshot/artifacts.hpp"

namespace leodivide::market {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

const demand::DemandProfile& small_profile() {
  static const demand::DemandProfile profile =
      demand::SyntheticGenerator({.seed = 7, .scale = 0.02})
          .generate_profile();
  return profile;
}

// ---------------------------------------------------------------- operator ----

TEST(OperatorCostsTest, AnnualCostDecomposition) {
  const OperatorCosts costs{.satellite_capex_usd = 1000.0,
                            .launch_capex_usd = 500.0,
                            .ground_capex_usd = 10000.0,
                            .satellite_lifetime_years = 5.0,
                            .annual_opex_fraction = 0.1};
  // 10 satellites: capex = 10*1500 + 10000 = 25000;
  // annual = 25000/5 + 0.1*25000 = 5000 + 2500.
  EXPECT_DOUBLE_EQ(costs.annual_cost_usd(10.0), 7500.0);
  EXPECT_THROW(costs.annual_cost_usd(-1.0), std::invalid_argument);
}

TEST(OperatorCostsTest, RejectsBadParameters) {
  OperatorCosts costs;
  costs.satellite_lifetime_years = 0.0;
  EXPECT_THROW(costs.annual_cost_usd(10.0), std::invalid_argument);
}

TEST(OperatorTest, PresetsValidate) {
  for (const OperatorConfig& op : default_market()) {
    EXPECT_NO_THROW(validate(op)) << op.name;
  }
}

TEST(OperatorTest, StarlinkSizingModelMatchesDefaultBitForBit) {
  // The strict-generalization anchor: the Starlink preset's model must be
  // indistinguishable from core::SizingModel{}.
  const core::SizingModel preset = starlink_operator().sizing_model();
  const core::SizingModel def{};
  EXPECT_TRUE(same_bits(preset.capacity.plan().full_cell_capacity_gbps(),
                        def.capacity.plan().full_cell_capacity_gbps()));
  EXPECT_TRUE(same_bits(preset.capacity.plan().spectral_efficiency(),
                        def.capacity.plan().spectral_efficiency()));
  EXPECT_EQ(preset.capacity.plan().user_beams(),
            def.capacity.plan().user_beams());
  EXPECT_EQ(preset.capacity.plan().beams_per_full_cell(),
            def.capacity.plan().beams_per_full_cell());
  EXPECT_TRUE(same_bits(preset.inclination_deg, def.inclination_deg));
  EXPECT_TRUE(same_bits(preset.cell_area_km2, def.cell_area_km2));
}

TEST(OperatorTest, FullShareReturnsUnscaledModel) {
  const OperatorConfig op = starlink_operator();
  const core::SizingModel full = op.sizing_model();
  const core::SizingModel at_one = op.sizing_model(1.0);
  EXPECT_TRUE(same_bits(full.capacity.plan().full_cell_capacity_gbps(),
                        at_one.capacity.plan().full_cell_capacity_gbps()));
  // A genuine scale halves the user-downlink capacity.
  const core::SizingModel half = op.sizing_model(0.5);
  EXPECT_LT(half.capacity.plan().full_cell_capacity_gbps(),
            full.capacity.plan().full_cell_capacity_gbps());
}

TEST(OperatorTest, SizingModelRejectsBadShare) {
  const OperatorConfig op = starlink_operator();
  EXPECT_THROW(op.sizing_model(0.0), std::invalid_argument);
  EXPECT_THROW(op.sizing_model(1.5), std::invalid_argument);
  EXPECT_THROW(op.sizing_model(-0.5), std::invalid_argument);
}

TEST(OperatorTest, ValidationRejectsMalformedConfigs) {
  {
    OperatorConfig op = starlink_operator();
    op.name.clear();
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
  {
    OperatorConfig op = starlink_operator();
    op.shells.clear();
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
  {
    OperatorConfig op = starlink_operator();
    op.bands.clear();
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
  {
    OperatorConfig op = starlink_operator();
    op.beams_per_full_cell = 0;
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
  {
    OperatorConfig op = starlink_operator();
    op.spectral_efficiency_bps_hz = 0.0;
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
  {
    OperatorConfig op = starlink_operator();
    op.plan.monthly_usd = -1.0;
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
}

// ------------------------------------------------------------------- split ----

TEST(SplitTest, PolicyNamesRoundTrip) {
  for (const SplitPolicy p :
       {SplitPolicy::kExclusive, SplitPolicy::kProportional,
        SplitPolicy::kFairShare}) {
    EXPECT_EQ(split_policy_from_string(to_string(p)), p);
  }
  EXPECT_THROW(split_policy_from_string("oligopoly"), std::invalid_argument);
}

TEST(SplitTest, ExclusiveGivesEveryOperatorFullShare) {
  const SpectrumSplit split(default_market(), {});
  for (std::size_t o = 0; o < split.operator_count(); ++o) {
    EXPECT_TRUE(split.uniform(o));
    EXPECT_TRUE(same_bits(split.economic_share(o), 1.0));
    for (std::size_t p = 0; p < split.operator_count(); ++p) {
      EXPECT_TRUE(same_bits(split.share(o, p), 1.0)) << o << "," << p;
    }
  }
}

TEST(SplitTest, SingleOperatorAlwaysHasFullShare) {
  for (const SplitPolicy policy :
       {SplitPolicy::kExclusive, SplitPolicy::kProportional,
        SplitPolicy::kFairShare}) {
    const SpectrumSplit split({starlink_operator()}, {.policy = policy});
    EXPECT_TRUE(split.uniform(0));
    EXPECT_TRUE(same_bits(split.share(0, 0), 1.0)) << to_string(policy);
  }
}

// Two operators with one identical band each: a fully contested table.
std::vector<OperatorConfig> contested_pair() {
  OperatorConfig a = starlink_operator();
  a.name = "alpha";
  OperatorConfig b = starlink_operator();
  b.name = "beta";
  return {std::move(a), std::move(b)};
}

TEST(SplitTest, ProportionalHalvesContestedSpectrum) {
  const SpectrumSplit split(contested_pair(),
                            {.policy = SplitPolicy::kProportional});
  for (std::size_t o = 0; o < 2; ++o) {
    EXPECT_TRUE(split.uniform(o));
    EXPECT_DOUBLE_EQ(split.share(o, 0), 0.5);
    EXPECT_DOUBLE_EQ(split.economic_share(o), 0.5);
  }
}

TEST(SplitTest, FairShareGivesPriorityWeightInOwnZones) {
  const SpectrumSplit split(
      contested_pair(),
      {.policy = SplitPolicy::kFairShare, .priority_weight = 0.7});
  EXPECT_FALSE(split.uniform(0));
  EXPECT_DOUBLE_EQ(split.share(0, 0), 0.7);  // alpha in alpha's zones
  EXPECT_DOUBLE_EQ(split.share(0, 1), 0.3);  // alpha in beta's zones
  EXPECT_DOUBLE_EQ(split.share(1, 1), 0.7);
  EXPECT_DOUBLE_EQ(split.share(1, 0), 0.3);
  EXPECT_DOUBLE_EQ(split.economic_share(0), 0.5);  // zone average
}

TEST(SplitTest, FairShareUncontestedSpectrumStaysWhole) {
  // Starlink (Ku+Ka) vs OneWeb: their Ku tables overlap, Kuiper absent.
  // An operator pair with disjoint tables is untouched by the policy.
  OperatorConfig ku = starlink_operator();
  ku.name = "ku_only";
  ku.bands = {{"10.7-12.7", 10.7, 12.7, 16, spectrum::BeamUsage::kUserDownlink}};
  OperatorConfig ka = starlink_operator();
  ka.name = "ka_only";
  ka.bands = {{"17.8-18.6", 17.8, 18.6, 16, spectrum::BeamUsage::kUserDownlink}};
  const SpectrumSplit split({ku, ka}, {.policy = SplitPolicy::kFairShare});
  for (std::size_t o = 0; o < 2; ++o) {
    EXPECT_TRUE(split.uniform(o));
    EXPECT_TRUE(same_bits(split.share(o, 0), 1.0));
    EXPECT_TRUE(same_bits(split.share(o, 1), 1.0));
  }
}

TEST(SplitTest, PriorityRotatesThroughLatitudeZones) {
  const SpectrumSplit split(
      contested_pair(),
      {.policy = SplitPolicy::kFairShare, .zone_deg = 5.0});
  // Zone k = floor((lat+90)/5), priority = k mod 2.
  EXPECT_EQ(split.priority_operator(-88.0), 0U);  // zone 0
  EXPECT_EQ(split.priority_operator(-83.0), 1U);  // zone 1
  EXPECT_EQ(split.priority_operator(-78.0), 0U);  // zone 2
  EXPECT_EQ(split.priority_operator(42.5), 26U % 2);
  EXPECT_THROW((void)split.priority_operator(91.0), std::invalid_argument);
}

TEST(SplitTest, NonFairShareIgnoresLatitude) {
  const SpectrumSplit split(contested_pair(),
                            {.policy = SplitPolicy::kProportional});
  EXPECT_EQ(split.priority_operator(-88.0), 0U);
  EXPECT_EQ(split.priority_operator(42.5), 0U);
}

TEST(SplitTest, ConfigValidationRejectsBadParameters) {
  EXPECT_THROW(validate(SpectrumSplitConfig{.zone_deg = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(validate(SpectrumSplitConfig{.zone_deg = 200.0}),
               std::invalid_argument);
  EXPECT_THROW(validate(SpectrumSplitConfig{.priority_weight = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(validate(SpectrumSplitConfig{.priority_weight = -0.1}),
               std::invalid_argument);
  EXPECT_NO_THROW(validate(SpectrumSplitConfig{}));
}

// ---------------------------------------------------------------- fairness ----

TEST(JainTest, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_index({5.0, 5.0, 5.0}), 1.0);   // all equal
  EXPECT_DOUBLE_EQ(jain_index({1.0, 0.0, 0.0}), 1.0 / 3.0);  // one-hot
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);        // all-zero: equal
  EXPECT_DOUBLE_EQ(jain_index({}), 0.0);                // empty
  EXPECT_NEAR(jain_index({4.0, 2.0}), 36.0 / 40.0, 1e-12);
}

TEST(JainTest, RejectsNegativeAndNonFinite) {
  EXPECT_THROW((void)jain_index({1.0, -1.0}), std::invalid_argument);
  EXPECT_THROW((void)jain_index({1.0, std::nan("")}), std::invalid_argument);
}

// --------------------------------------------------------------- validation ----

TEST(MarketConfigTest, ValidationRejectsBadScenarios) {
  EXPECT_THROW(validate(MarketConfig{}), std::invalid_argument);  // empty
  {
    MarketConfig config;
    config.operators = {starlink_operator(), starlink_operator()};
    EXPECT_THROW(validate(config), std::invalid_argument);  // duplicate name
  }
  {
    MarketConfig config;
    config.operators = {starlink_operator()};
    config.beamspread = 0.5;
    EXPECT_THROW(validate(config), std::invalid_argument);
  }
  {
    MarketConfig config;
    config.operators = {starlink_operator()};
    config.oversub_cap = 0.0;
    EXPECT_THROW(validate(config), std::invalid_argument);
  }
  {
    MarketConfig config;
    config.operators = default_market();
    EXPECT_NO_THROW(validate(config));
  }
}

TEST(MarketSimulationTest, RejectsEmptyProfile) {
  MarketConfig config;
  config.operators = {starlink_operator()};
  const MarketSimulation simulation(std::move(config));
  demand::CountyTable counties;
  counties.add({"90001", {}, 50000.0, 0});
  const demand::DemandProfile empty({}, std::move(counties));
  EXPECT_THROW((void)simulation.run(empty), std::invalid_argument);
}

// ------------------------------------------------- golden: single operator ----

TEST(MarketGoldenTest, SingleStarlinkExclusiveReproducesCorePipeline) {
  const demand::DemandProfile& profile = small_profile();
  MarketConfig config;
  config.operators = {starlink_operator()};
  const MarketSimulation simulation(config);
  const MarketReport report = simulation.run(profile);
  ASSERT_EQ(report.operators.size(), 1U);
  const OperatorOutcome& out = report.operators[0];

  // Every number the single-operator pipeline produces must come back
  // bit-for-bit: the market layer is a strict generalization, not an
  // approximation of it.
  const core::SizingModel model{};
  EXPECT_EQ(out.full,
            core::size_full_service(profile, model, config.beamspread));
  EXPECT_EQ(out.capped, core::size_with_cap(profile, model, config.beamspread,
                                            config.oversub_cap));
  EXPECT_TRUE(same_bits(
      out.served_cell_fraction,
      core::served_cell_fraction(profile, model.capacity, config.beamspread,
                                 config.oversub_cap)));
  EXPECT_TRUE(same_bits(
      out.served_location_fraction,
      core::served_location_fraction(profile, model.capacity,
                                     config.beamspread, config.oversub_cap)));
  EXPECT_EQ(out.longtail,
            core::longtail_curve(profile, model, config.beamspread,
                                 config.oversub_cap));
  const afford::AffordabilityAnalyzer analyzer(profile);
  EXPECT_EQ(out.affordability,
            analyzer.evaluate(config.operators[0].plan));
  EXPECT_TRUE(same_bits(out.economic_share, 1.0));

  // Single operator: it wins every cell it serves; nothing is
  // split-limited.
  EXPECT_EQ(report.fairness.split_limited_cells, 0U);
  EXPECT_DOUBLE_EQ(report.fairness.jain_served_locations, 1.0);
}

// ------------------------------------------------------------- determinism ----

std::string run_serialized(const MarketConfig& config,
                           runtime::Executor& executor) {
  const MarketSimulation simulation(config);
  return snapshot::serialize(simulation.run(small_profile(), executor));
}

TEST(MarketDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  for (const SplitPolicy policy :
       {SplitPolicy::kExclusive, SplitPolicy::kProportional,
        SplitPolicy::kFairShare}) {
    MarketConfig config;
    config.operators = default_market();
    config.split.policy = policy;
    runtime::ThreadPool pool1(1);
    runtime::ThreadPool pool4(4);
    runtime::ThreadPool pool8(8);
    const std::string serial = run_serialized(config, pool1);
    EXPECT_EQ(serial, run_serialized(config, pool4)) << to_string(policy);
    EXPECT_EQ(serial, run_serialized(config, pool8)) << to_string(policy);
  }
}

TEST(MarketDeterminismTest, OperatorOrderOnlyPermutesOutput) {
  // Evaluation order must not change any operator's numbers. (The winner
  // map legitimately differs when the tie-break index order changes, so
  // compare per-operator outcomes and fairness rows by name.)
  MarketConfig forward;
  forward.operators = default_market();
  forward.split.policy = SplitPolicy::kProportional;
  MarketConfig reversed = forward;
  std::reverse(reversed.operators.begin(), reversed.operators.end());

  const MarketReport a = MarketSimulation(forward).run(small_profile());
  const MarketReport b = MarketSimulation(reversed).run(small_profile());
  ASSERT_EQ(a.operators.size(), b.operators.size());
  for (const OperatorOutcome& ours : a.operators) {
    const auto it =
        std::find_if(b.operators.begin(), b.operators.end(),
                     [&ours](const OperatorOutcome& o) {
                       return o.name == ours.name;
                     });
    ASSERT_NE(it, b.operators.end()) << ours.name;
    EXPECT_EQ(ours, *it) << ours.name;
    const std::size_t ia =
        static_cast<std::size_t>(&ours - a.operators.data());
    const std::size_t ib =
        static_cast<std::size_t>(it - b.operators.begin());
    EXPECT_EQ(a.fairness.operators[ia].cells_served,
              b.fairness.operators[ib].cells_served);
    EXPECT_EQ(a.fairness.operators[ia].locations_served,
              b.fairness.operators[ib].locations_served);
  }
  EXPECT_EQ(a.fairness.unserved_cells, b.fairness.unserved_cells);
  EXPECT_EQ(a.fairness.unserved_locations, b.fairness.unserved_locations);
  EXPECT_EQ(a.fairness.capacity_limited_cells,
            b.fairness.capacity_limited_cells);
  EXPECT_EQ(a.fairness.split_limited_cells, b.fairness.split_limited_cells);
}

// -------------------------------------------------------- market invariants ----

MarketReport default_report(SplitPolicy policy) {
  MarketConfig config;
  config.operators = default_market();
  config.split.policy = policy;
  return MarketSimulation(std::move(config)).run(small_profile());
}

TEST(MarketReportTest, WinnerMapAndAttributionAreConsistent) {
  const MarketReport report = default_report(SplitPolicy::kFairShare);
  const std::size_t cells = small_profile().cell_count();
  ASSERT_EQ(report.fairness.winner.size(), cells);

  std::uint64_t won_total = 0;
  for (const OperatorFairness& f : report.fairness.operators) {
    EXPECT_LE(f.cells_won, f.cells_served);
    won_total += f.cells_won;
  }
  EXPECT_EQ(won_total + report.fairness.unserved_cells, cells);
  EXPECT_EQ(report.fairness.capacity_limited_cells +
                report.fairness.split_limited_cells,
            report.fairness.unserved_cells);

  std::uint64_t unserved_in_map = 0;
  for (const std::int32_t w : report.fairness.winner) {
    EXPECT_GE(w, -1);
    EXPECT_LT(w, static_cast<std::int32_t>(report.operators.size()));
    if (w < 0) ++unserved_in_map;
  }
  EXPECT_EQ(unserved_in_map, report.fairness.unserved_cells);
}

TEST(MarketReportTest, SharingNeverServesMoreThanExclusive) {
  const MarketReport exclusive = default_report(SplitPolicy::kExclusive);
  const MarketReport shared = default_report(SplitPolicy::kProportional);
  for (std::size_t o = 0; o < exclusive.operators.size(); ++o) {
    EXPECT_LE(shared.operators[o].served_location_fraction,
              exclusive.operators[o].served_location_fraction)
        << exclusive.operators[o].name;
    // Less spectrum can only grow the capped fleet.
    EXPECT_GE(shared.operators[o].capped.satellites,
              exclusive.operators[o].capped.satellites)
        << exclusive.operators[o].name;
  }
  EXPECT_EQ(exclusive.fairness.split_limited_cells, 0U);
}

TEST(MarketReportTest, CostCurveIsCoherent) {
  const MarketReport report = default_report(SplitPolicy::kExclusive);
  const std::uint64_t total = small_profile().total_locations();
  for (const OperatorOutcome& op : report.operators) {
    ASSERT_FALSE(op.cost_curve.empty()) << op.name;
    const OperatorConfig preset =
        op.name == "starlink"
            ? starlink_operator()
            : (op.name == "oneweb" ? oneweb_operator() : kuiper_operator());
    for (std::size_t i = 0; i < op.cost_curve.size(); ++i) {
      const MarketCostPoint& p = op.cost_curve[i];
      EXPECT_EQ(p.locations_served + p.locations_unserved, total);
      EXPECT_TRUE(same_bits(p.annual_cost_usd,
                            preset.costs.annual_cost_usd(p.satellites)));
      EXPECT_GT(p.cost_per_location_year_usd, 0.0);
      if (i > 0) {
        // Fewest-served first: unserved decreases along the curve.
        EXPECT_LE(p.locations_unserved,
                  op.cost_curve[i - 1].locations_unserved);
      }
    }
  }
}

TEST(MarketReportTest, RenderMentionsEveryOperatorAndPolicy) {
  const MarketReport report = default_report(SplitPolicy::kProportional);
  const std::string text = render_market_report(report);
  EXPECT_NE(text.find("proportional"), std::string::npos);
  for (const OperatorOutcome& op : report.operators) {
    EXPECT_NE(text.find(op.name), std::string::npos) << op.name;
  }
  EXPECT_NE(text.find("Jain"), std::string::npos);
}

TEST(MarketReportTest, FullPriorityWeightStillRuns) {
  // priority_weight = 1: non-priority claimants get zero in contested
  // zones. The run must complete and attribute the casualties to the split.
  MarketConfig config;
  config.operators = contested_pair();
  config.split.policy = SplitPolicy::kFairShare;
  config.split.priority_weight = 1.0;
  const MarketReport report =
      MarketSimulation(std::move(config)).run(small_profile());
  ASSERT_EQ(report.operators.size(), 2U);
  // Fully contested tables: each operator can serve only its own zones.
  EXPECT_LT(report.operators[0].served_cell_fraction, 1.0);
}

}  // namespace
}  // namespace leodivide::market
