#pragma once
// Gateway site placement. Bent-pipe operation requires every satellite
// serving a region to see a gateway; this module picks gateway sites from
// candidate locations with a greedy set-cover so that any satellite
// position over the region (sampled on a grid) has at least one gateway
// within its feeder footprint. Complements core/backhaul.hpp's capacity
// check with the geometric one.

#include <vector>

#include "leodivide/geo/bbox.hpp"
#include "leodivide/geo/geopoint.hpp"

namespace leodivide::sim {

/// Result of a placement.
struct GatewayPlacement {
  std::vector<geo::GeoPoint> sites;   ///< chosen gateway locations
  std::size_t sample_points = 0;      ///< satellite positions sampled
  std::size_t uncovered_samples = 0;  ///< samples no candidate could cover
};

/// Greedy set cover: repeatedly picks the candidate covering the most
/// still-uncovered satellite sample positions (a 2-degree grid over
/// `region`) until every coverable sample is covered. A sample is covered
/// by a candidate when their great-circle separation is within the feeder
/// footprint radius of a 550 km satellite seen at 25 degrees elevation (the
/// user-terminal footprint geometry). Throws std::invalid_argument on empty
/// candidates or a degenerate region.
[[nodiscard]] GatewayPlacement place_gateways(
    const std::vector<geo::GeoPoint>& candidates,
    const geo::BoundingBox& region);

}  // namespace leodivide::sim
