// The paper's fixed inputs — res-5 service cells, res-3 county groups, the
// 25-degree terminal mask, 24 user beams per satellite, the FCC's 20:1 cap —
// are named constants, not settable fields. These goldens pin the outputs
// those constants feed (preset region profiles, the demand-stage
// fingerprint, the national max-flow bound, gateway placement), so moving
// a value between a field and a constant can never move a byte.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "golden_hash.hpp"
#include "leodivide/core/capacity_model.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/demand/region.hpp"
#include "leodivide/geo/bbox.hpp"
#include "leodivide/geo/us_outline.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/walker.hpp"
#include "leodivide/sim/gateway.hpp"
#include "leodivide/sim/maxflow.hpp"
#include "leodivide/snapshot/artifacts.hpp"
#include "leodivide/snapshot/fingerprint.hpp"

namespace leodivide {
namespace {

using testing::Golden;
using testing::golden_of;
using testing::to_literal;

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void append_f64(std::string& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

TEST(Constants, SchedulerBeamBudgetIsTheCapacityModelsPlan) {
  // Table 1's 24 user beams: the scheduler's per-satellite budget and the
  // capacity model's beam plan are one number.
  EXPECT_EQ(sim::kBeamsPerSatellite,
            core::SatelliteCapacityModel().plan().user_beams());
  EXPECT_EQ(sim::kBeamsPerSatellite, 24U);
}

TEST(ConstantGoldens, PresetRegionProfiles) {
  const struct {
    demand::RegionSpec spec;
    Golden golden;
  } cases[] = {
      {demand::dense_compact_region(),
       Golden{0xa59538e0f16bda1dULL, 33424}},
      {demand::sparse_expansive_region(),
       Golden{0x047dfe235c97da1cULL, 257454}},
      {demand::temperate_mixed_region(),
       Golden{0x1daf1f98d71bd0c9ULL, 96895}},
  };
  for (const auto& c : cases) {
    const Golden g = golden_of(
        snapshot::serialize(demand::RegionGenerator(c.spec).generate()));
    EXPECT_EQ(g, c.golden) << c.spec.name << " " << to_literal(g);
  }
}

TEST(ConstantGoldens, DemandProfileFingerprint) {
  snapshot::Fingerprint fp = snapshot::stage_fingerprint("demand.profile");
  snapshot::mix(fp, demand::GeneratorConfig{});
  EXPECT_EQ(fp.hex(), "cdea1a547951efb0");
}

TEST(ConstantGoldens, NationalSlotBoundAtEpochZero) {
  const auto profile = demand::SyntheticGenerator().generate_profile();
  const auto cells = sim::BeamScheduler::cells_from_profile(
      profile, core::SatelliteCapacityModel(), 20.0);
  const auto states = orbit::propagate_all(
      orbit::make_constellation(orbit::starlink_shell1()), 0.0);
  const sim::FlowBound bound =
      sim::optimal_slot_bound(cells, states, sim::SchedulerConfig{});
  std::string bytes;
  append_u64(bytes, static_cast<std::uint64_t>(bound.slots_demanded));
  append_u64(bytes, static_cast<std::uint64_t>(bound.slots_served));
  append_f64(bytes, bound.slot_coverage);
  const Golden g = golden_of(bytes);
  EXPECT_EQ(g, (Golden{0x444082e434ea8dabULL, 24}))
      << bound.slots_demanded << " " << bound.slots_served << " "
      << to_literal(g);
}

TEST(ConstantGoldens, ConusGatewaySites) {
  // The candidate grid of bench/extension_uplink_backhaul.
  std::vector<geo::GeoPoint> candidates;
  const auto& outline = geo::conus_outline();
  for (double lat = 26.0; lat <= 48.0; lat += 3.0) {
    for (double lon = -123.0; lon <= -69.0; lon += 3.0) {
      if (outline.contains({lat, lon})) candidates.push_back({lat, lon});
    }
  }
  const sim::GatewayPlacement placement =
      sim::place_gateways(candidates, geo::conus_bbox());
  std::string bytes;
  append_u64(bytes, placement.sample_points);
  append_u64(bytes, placement.uncovered_samples);
  for (const geo::GeoPoint& site : placement.sites) {
    append_f64(bytes, site.lat_deg);
    append_f64(bytes, site.lon_deg);
  }
  const Golden g = golden_of(bytes);
  EXPECT_EQ(g, (Golden{0xeaa74371ec976fd4ULL, 208}))
      << placement.sites.size() << " sites " << to_literal(g);
}

}  // namespace
}  // namespace leodivide
