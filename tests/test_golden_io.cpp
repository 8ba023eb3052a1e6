// Byte goldens for the dataset text formats: the profile CSVs and GeoJSON
// at the held-out seed 7919, and a small location-level dataset CSV. The
// digests are those of the stream and printf encoders, which the to_chars
// encoders must match; any byte that moves fails here. The full seed-42
// pipeline (all four national_analysis outputs) is pinned in
// test_examples_cli against the real binary.

#include <gtest/gtest.h>

#include <sstream>

#include "golden_hash.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/demand/geojson.hpp"
#include "leodivide/hex/hexgrid.hpp"

namespace leodivide {
namespace {

using testing::Golden;
using testing::golden_of;
using testing::to_literal;

const demand::DemandProfile& held_out_profile() {
  static const demand::DemandProfile profile =
      demand::SyntheticGenerator({.seed = 7919}).generate_profile();
  return profile;
}

TEST(GoldenIo, ProfileCsvSeed7919) {
  std::ostringstream cells, counties;
  held_out_profile().save_csv(cells, counties);
  const Golden c = golden_of(cells.str());
  const Golden k = golden_of(counties.str());
  EXPECT_EQ(c, (Golden{0x006d08b530fee1c3ULL, 926887}))
      << "cells.csv " << to_literal(c);
  EXPECT_EQ(k, (Golden{0x029b8737bdcdd94dULL, 95141}))
      << "counties.csv " << to_literal(k);
}

TEST(GoldenIo, ProfileCsvRoundTripReproducesBytes) {
  std::ostringstream cells, counties;
  held_out_profile().save_csv(cells, counties);
  std::istringstream cells_in(cells.str()), counties_in(counties.str());
  const demand::DemandProfile back =
      demand::DemandProfile::load_csv(cells_in, counties_in);
  std::ostringstream cells2, counties2;
  back.save_csv(cells2, counties2);
  EXPECT_EQ(cells2.str(), cells.str());
  EXPECT_EQ(counties2.str(), counties.str());
}

TEST(GoldenIo, GeoJsonSeed7919) {
  std::ostringstream out;
  demand::write_geojson(out, held_out_profile(), hex::HexGrid(),
                        /*min_locations=*/1000);
  const Golden g = golden_of(out.str());
  EXPECT_EQ(g, (Golden{0x3a9f57cec6141a66ULL, 347468}))
      << "dense_cells.geojson " << to_literal(g);
}

TEST(GoldenIo, LocationDatasetCsv) {
  const demand::SyntheticGenerator gen({.seed = 7, .scale = 0.002});
  const demand::DemandDataset data =
      gen.expand_locations(gen.generate_profile(), 0.05);
  std::ostringstream locations, counties;
  data.save_csv(locations, counties);
  const Golden l = golden_of(locations.str());
  const Golden k = golden_of(counties.str());
  EXPECT_EQ(l, (Golden{0xe89b327433ca4934ULL, 27083}))
      << "locations.csv " << to_literal(l);
  EXPECT_EQ(k, (Golden{0x56901b10b02805deULL, 1808}))
      << "counties.csv " << to_literal(k);
}

}  // namespace
}  // namespace leodivide
