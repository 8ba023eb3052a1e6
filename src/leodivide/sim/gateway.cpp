#include "leodivide/sim/gateway.hpp"

#include <algorithm>
#include <stdexcept>

#include "leodivide/geo/greatcircle.hpp"
#include "leodivide/orbit/footprint.hpp"

namespace leodivide::sim {

namespace {

constexpr double kAltitudeKm = 550.0;
// Minimum elevation of the satellite as seen from a gateway dish.
constexpr double kGatewayElevationDeg = 25.0;
// Grid spacing for satellite-position sample points [deg].
constexpr double kSampleSpacingDeg = 2.0;

}  // namespace

GatewayPlacement place_gateways(const std::vector<geo::GeoPoint>& candidates,
                                const geo::BoundingBox& region) {
  if (candidates.empty()) {
    throw std::invalid_argument("place_gateways: no candidates");
  }
  if (!region.valid()) {
    throw std::invalid_argument("place_gateways: bad region");
  }
  // Sub-satellite sample points across the region.
  std::vector<geo::GeoPoint> samples;
  for (double lat = region.lat_min; lat <= region.lat_max;
       lat += kSampleSpacingDeg) {
    for (double lon = region.lon_min; lon <= region.lon_max;
         lon += kSampleSpacingDeg) {
      samples.push_back({lat, lon});
    }
  }
  const double radius_km =
      orbit::footprint_radius_km(kAltitudeKm, kGatewayElevationDeg);

  // Coverage sets: candidate -> sample indices within the footprint.
  std::vector<std::vector<std::size_t>> covers(candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    for (std::size_t s = 0; s < samples.size(); ++s) {
      if (geo::distance_km(candidates[c], samples[s]) <= radius_km) {
        covers[c].push_back(s);
      }
    }
  }

  GatewayPlacement out;
  out.sample_points = samples.size();
  std::vector<bool> covered(samples.size(), false);
  std::size_t remaining = samples.size();
  // Samples no candidate reaches can never be covered.
  {
    std::vector<bool> reachable(samples.size(), false);
    for (const auto& cover : covers) {
      for (std::size_t s : cover) reachable[s] = true;
    }
    for (std::size_t s = 0; s < samples.size(); ++s) {
      if (!reachable[s]) {
        covered[s] = true;  // exclude from the greedy loop
        --remaining;
        ++out.uncovered_samples;
      }
    }
  }
  std::vector<bool> used(candidates.size(), false);
  while (remaining > 0) {
    std::size_t best = candidates.size();
    std::size_t best_gain = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (used[c]) continue;
      std::size_t gain = 0;
      for (std::size_t s : covers[c]) {
        if (!covered[s]) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = c;
      }
    }
    if (best == candidates.size()) break;  // defensive; cannot happen
    used[best] = true;
    out.sites.push_back(candidates[best]);
    for (std::size_t s : covers[best]) {
      if (!covered[s]) {
        covered[s] = true;
        --remaining;
      }
    }
  }
  return out;
}

}  // namespace leodivide::sim
