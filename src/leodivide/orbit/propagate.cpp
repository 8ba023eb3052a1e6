#include "leodivide/orbit/propagate.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "leodivide/geo/angle.hpp"

namespace leodivide::orbit {

geo::Vec3 ecef_position(const CircularOrbit& orbit, double t_s) {
  const geo::Vec3 eci = eci_position(orbit, t_s);
  const double theta = geo::kEarthRotationRadPerSec * t_s;
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  return {eci.x * c + eci.y * s, -eci.x * s + eci.y * c, eci.z};
}

void propagate_all(const std::vector<CircularOrbit>& orbits, double t_s,
                   std::vector<SatState>& out) {
  // One Earth-rotation angle per epoch, not per satellite: every orbit
  // shares t, so cos/sin(theta) are hoisted. The per-satellite trig lives
  // in eci_position (each orbit has its own phase). The work runs in
  // fixed-size stack blocks, ECI positions first, then the rotation and
  // store: measured faster than one fused loop per satellite. The rotation
  // is ecef_position's expression, so positions stay bit-identical to it
  // (PropagateBatch.PropagateAllMatchesPerSatelliteScalar in test_orbit).
  const double theta = geo::kEarthRotationRadPerSec * t_s;
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  out.resize(orbits.size());
  constexpr std::size_t kBlock = 128;
  double eci_x[kBlock];
  double eci_y[kBlock];
  double eci_z[kBlock];
  for (std::size_t base = 0; base < orbits.size(); base += kBlock) {
    const std::size_t m = std::min(kBlock, orbits.size() - base);
    for (std::size_t j = 0; j < m; ++j) {
      const geo::Vec3 eci = eci_position(orbits[base + j], t_s);
      eci_x[j] = eci.x;
      eci_y[j] = eci.y;
      eci_z[j] = eci.z;
    }
    for (std::size_t j = 0; j < m; ++j) {
      const geo::Vec3 ecef{eci_x[j] * c + eci_y[j] * s,
                           -eci_x[j] * s + eci_y[j] * c, eci_z[j]};
      out[base + j] = SatState{ecef, geo::cartesian_to_spherical(ecef)};
    }
  }
}

std::vector<SatState> propagate_all(const std::vector<CircularOrbit>& orbits,
                                    double t_s) {
  std::vector<SatState> out;
  propagate_all(orbits, t_s, out);
  return out;
}

}  // namespace leodivide::orbit
