#pragma once
// Greedy beam->cell scheduler: at one epoch, assign every demand cell to a
// visible satellite within the per-satellite beam budget. This is the
// operational counterpart of the paper's analytical lower bound — the
// ablation bench compares the two.

#include <cstdint>
#include <memory>
#include <vector>

#include "leodivide/core/capacity_model.hpp"
#include "leodivide/geo/ecef.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/sim/workspace.hpp"

namespace leodivide::sim {

/// A demand cell prepared for scheduling (positions precomputed).
struct SchedCell {
  geo::GeoPoint center;
  geo::Vec3 ecef_km;           ///< surface position, precomputed
  std::uint32_t locations = 0;
  std::uint32_t beams_needed = 1;  ///< at the scheduler's oversub target
};

/// One successful assignment.
struct Assignment {
  std::uint32_t cell = 0;  ///< index into the scheduler's cell list
  std::uint32_t sat = 0;   ///< index into the epoch's satellite states
  std::uint32_t beams = 1; ///< whole beams (0 means a shared slot)

  friend bool operator==(const Assignment&, const Assignment&) = default;
};

/// How the scheduler picks among visible satellites with room.
enum class Strategy {
  kMostSlack,  ///< balance load: satellite with the most remaining capacity
  kFirstFit,   ///< cheapest: first visible satellite with room
  kBestFit,    ///< pack tightly: least remaining capacity that still fits
};

/// Scheduler configuration.
struct SchedulerConfig {
  std::uint32_t beams_per_satellite = 24;
  std::uint32_t beamspread = 5;
  double min_elevation_deg = 25.0;  ///< Starlink's terminal mask
  Strategy strategy = Strategy::kMostSlack;
};

/// Result of scheduling one epoch.
struct ScheduleResult {
  std::vector<Assignment> assignments;
  std::vector<std::uint32_t> unassigned_cells;  ///< indices
  std::uint64_t locations_served = 0;
  std::uint64_t locations_total = 0;
  double mean_beam_utilization = 0.0;  ///< over satellites that saw demand

  /// Exact (bit-level) equality; the indexed-vs-naive golden equivalence
  /// suite relies on it.
  friend bool operator==(const ScheduleResult&, const ScheduleResult&) =
      default;
};

/// Greedy scheduler over a fixed cell list.
class BeamScheduler {
 public:
  BeamScheduler(std::vector<SchedCell> cells, SchedulerConfig config);

  /// Schedules one epoch given satellite states. Cells are processed in
  /// descending beam need then descending demand; each picks among the
  /// visible satellites per the configured strategy. Internally the cell →
  /// satellite search runs through a per-epoch spatial index
  /// (orbit::VisIndex): each cell scans the contiguous bucket runs of its
  /// window, O(k) satellites instead of O(sats). The windows are built
  /// once per coverage angle and shared by every copy of this scheduler
  /// and every thread; the result is byte-identical to
  /// schedule_reference.
  [[nodiscard]] ScheduleResult schedule(
      const std::vector<orbit::SatState>& sats) const;

  /// As above, reusing `workspace` scratch and `out`'s vector capacity:
  /// repeated epochs over a constellation of fixed size perform zero heap
  /// allocations once the buffers and the windows have warmed up.
  /// `workspace` must not be shared between threads; the scheduler may be.
  void schedule(const std::vector<orbit::SatState>& sats,
                ScheduleWorkspace& workspace, ScheduleResult& out) const;

  /// The retained naive O(cells x sats) reference kernel (the pre-index
  /// implementation, kept verbatim): scans every satellite per cell. The
  /// golden equivalence suite and the sim.schedule bench compare the
  /// indexed kernel against it; never used on the hot path.
  [[nodiscard]] ScheduleResult schedule_reference(
      const std::vector<orbit::SatState>& sats) const;

  [[nodiscard]] const std::vector<SchedCell>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }

  /// Builds SchedCells from a demand profile at an oversubscription target
  /// (beams_needed computed from the capacity model).
  [[nodiscard]] static std::vector<SchedCell> cells_from_profile(
      const demand::DemandProfile& profile,
      const core::SatelliteCapacityModel& model, double oversub);

 private:
  class WindowCache;

  std::vector<SchedCell> cells_;
  SchedulerConfig config_;
  std::vector<std::uint32_t> order_;      ///< processing order, precomputed
  std::vector<geo::Vec3> cell_units_;     ///< unit radials, precomputed
  std::shared_ptr<WindowCache> windows_;  ///< cell windows per coverage angle
};

}  // namespace leodivide::sim
