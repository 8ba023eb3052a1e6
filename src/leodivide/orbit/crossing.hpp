#pragma once
// Analytic cos-threshold crossing solver: the times at which a satellite on
// a circular orbit enters or leaves the coverage cone of a fixed ground
// point. The visibility test used everywhere in the simulator is
//
//   g(t) = dot(cell_unit, sat_unit(t)) - cos(psi)  >= 0,
//
// and for a circular orbit in the rotating Earth frame g is a smooth
// two-frequency function (mean motion n and Earth rotation omega_e) whose
// derivative is bounded by L = n + omega_e. That Lipschitz bound turns
// root finding into a *certified* procedure: an interval whose endpoint
// magnitudes sum to more than L * width provably contains no crossing and
// is discarded without further evaluation; everything else is bisected
// until the crossing is isolated inside a window at most 1 ms wide. The
// event engine reschedules beams only inside those windows, so the
// certificate — not sampling density — is what guarantees no visibility
// flip is ever missed.
//
// The solver is a pure function of its inputs (fixed evaluation order, no
// global state), so crossing sets are byte-reproducible at any thread
// count.

#include <cstddef>
#include <vector>

#include "leodivide/geo/ecef.hpp"
#include "leodivide/orbit/kepler.hpp"

namespace leodivide::orbit {

/// One certified crossing (or near-tangent uncertainty) of the coverage
/// threshold. All visibility flips of the pair inside [window_lo_s,
/// window_hi_s] are bracketed by the window; outside the union of emitted
/// windows the sign of g is certified constant.
struct Crossing {
  double time_s = 0.0;       ///< representative crossing time (window mid)
  double window_lo_s = 0.0;  ///< certified bracket around every flip
  double window_hi_s = 0.0;
  bool rising = false;  ///< g goes negative -> positive (satellite rises)
  bool certain = true;  ///< false: near-tangent graze, sign change unresolved
};

/// Reusable scratch for find(); holds no observable state. One instance
/// per thread.
struct CrossingScratch {
  /// Pending [lo, hi] intervals with cached endpoint evaluations.
  struct Interval {
    double lo, hi, g_lo, g_hi;
  };
  std::vector<Interval> stack;
};

/// Crossing solver for one circular orbit against a fixed coverage-cone
/// threshold cos(psi). Construction precomputes the orbit-plane basis; a
/// solver is cheap to build and immutable afterwards.
class ConeCrossingSolver {
 public:
  ConeCrossingSolver(const CircularOrbit& orbit, double cos_psi);

  /// g(t) for the ground unit vector `u` (exact model function, evaluated
  /// with a fixed operation order).
  [[nodiscard]] double eval(const geo::Vec3& u, double t_s) const noexcept;

  /// Lipschitz bound on |dg/dt| [1/s]: mean motion + Earth rotation.
  [[nodiscard]] double rate_bound() const noexcept { return rate_bound_; }

  /// Latitude prefilter: false when the orbit's sub-satellite band can
  /// never come within the coverage angle of `u` (the pair has no
  /// crossings and is never visible). Conservative: only returns false
  /// when visibility is strictly impossible.
  [[nodiscard]] bool can_ever_see(const geo::Vec3& u) const noexcept;

  /// Appends every crossing of g over [t_begin, t_end] to `out`, in
  /// ascending window order. `scratch` is caller-owned per-thread scratch;
  /// repeated calls at warm capacity perform no heap allocation (beyond
  /// growth of `out` itself).
  void find(const geo::Vec3& u, double t_begin, double t_end,
            std::vector<Crossing>& out, CrossingScratch& scratch) const;

 private:
  geo::Vec3 p_;  ///< unit basis: ascending-node direction
  geo::Vec3 q_;  ///< unit basis: 90 deg ahead in the orbital plane
  double mean_motion_;
  double phase_;
  double cos_psi_;
  double psi_rad_;
  double abs_sin_inc_;  ///< |sin(inclination)|: max |z| of the unit track
  double rate_bound_;
};

}  // namespace leodivide::orbit
