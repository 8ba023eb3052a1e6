#pragma once
// Reusable per-executor-thread scratch for the epoch scheduling loop. One
// workspace per worker (the simulation driver creates one per parallel_for
// chunk) lets every epoch after the first reuse the satellite budgets,
// touched flags, propagation target and the spatial index storage (which
// holds the bucket-ordered SoA unit vectors) — the steady-state epoch loop
// performs zero heap allocations (pinned by tests/test_sim_equivalence.cpp).

#include <cstdint>
#include <vector>

#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/visindex.hpp"
#include "leodivide/sim/beam.hpp"

namespace leodivide::sim {

/// Starlink's terminal elevation mask [deg]: a satellite serves a cell only
/// from at least this far above the cell's horizon.
inline constexpr double kMinElevationDeg = 25.0;

/// Memoized coverage-cone geometry. Keyed on the exact bit pattern of the
/// orbit radius: repeated epochs of one shell re-derive the acos/cos
/// constants only once per workspace, and a key miss merely recomputes
/// them, so exact float comparison is the correct cache test.
struct CoverageGeometry {
  double radius_km = -1.0;  ///< key: |sat position| (< 0 = unset)
  double psi_rad = 0.0;     ///< coverage central angle
  double cos_psi = 0.0;     ///< visibility threshold on unit dot

  [[nodiscard]] bool matches(double radius) const noexcept {
    // leolint:allow(float-eq): exact-bit memo key; a miss only recomputes
    return radius == radius_km;
  }
};

/// The coverage cone of the shell `sats` fly at kMinElevationDeg, through
/// `memo` (recomputed only when the radius bits change). Every satellite of
/// a Walker shell shares one altitude, so the radius comes from the first
/// state; with no states (nothing can be assigned, but psi must stay
/// well-defined for the index) a 550 km shell stands in. The angle is
/// orbit::coverage_central_angle_rad's, the one derivation the scheduler,
/// the event engine and the max-flow bound all use.
[[nodiscard]] const CoverageGeometry& coverage_geometry(
    const std::vector<orbit::SatState>& sats, CoverageGeometry& memo);

/// Scratch buffers for BeamScheduler::schedule and the simulation's epoch
/// loop. Not thread-safe: use one instance per worker thread.
struct ScheduleWorkspace {
  CoverageGeometry geometry;
  orbit::VisIndex index;

  std::vector<BeamBudget> budgets;        ///< per-satellite beam budgets
  std::vector<std::uint8_t> sat_touched;  ///< per-satellite "saw demand"
  std::vector<orbit::SatState> states;    ///< propagate_all target
  std::vector<std::uint32_t> sat_dedup;   ///< summarize_epoch scratch
};

}  // namespace leodivide::sim
