#pragma once
// The Figure-2 sweep: fraction of US cells served as a function of
// beamspread and maximum acceptable oversubscription.

#include <cstdint>
#include <vector>

#include "leodivide/core/capacity_model.hpp"

namespace leodivide::core {

/// The Figure-2 served-count fold: a cell whose demand fits its per-cell
/// limit (max_locations_spread) is served, with all its locations. The
/// counts are integer sums, so folds over any partition of the cells merge
/// to the same tally.
struct ServedTally {
  std::uint64_t served_cells = 0;
  std::uint64_t served_locations = 0;

  /// The Figure-2 criterion: demand <= (C / beamspread) * oversub, as a
  /// location count against the limit.
  [[nodiscard]] static constexpr bool served(std::uint32_t underserved,
                                             std::uint32_t limit) noexcept {
    return underserved <= limit;
  }

  void step(std::uint32_t underserved, std::uint32_t limit) noexcept {
    if (served(underserved, limit)) {
      ++served_cells;
      served_locations += underserved;
    }
  }
  void merge(const ServedTally& other) noexcept {
    served_cells += other.served_cells;
    served_locations += other.served_locations;
  }

  /// served_cells / total_cells; 1.0 when there are no cells.
  [[nodiscard]] double cell_fraction(std::uint64_t total_cells) const noexcept;
  /// served_locations / total_locations; 1.0 when there are no locations.
  [[nodiscard]] double location_fraction(
      std::uint64_t total_locations) const noexcept;
};

/// Fraction of the profile's cells that receive adequate service under
/// (beamspread, oversub): demand <= (C / beamspread) * oversub.
[[nodiscard]] double served_cell_fraction(const demand::DemandProfile& profile,
                                          const SatelliteCapacityModel& model,
                                          double beamspread, double oversub);

/// Fraction of *locations* in served cells (the location-weighted variant).
[[nodiscard]] double served_location_fraction(
    const demand::DemandProfile& profile, const SatelliteCapacityModel& model,
    double beamspread, double oversub);

/// The full Figure-2 grid: rows are beamspread values, columns are
/// oversubscription values; entries are served cell fractions.
[[nodiscard]] std::vector<std::vector<double>> served_fraction_grid(
    const demand::DemandProfile& profile, const SatelliteCapacityModel& model,
    const std::vector<double>& beamspreads,
    const std::vector<double>& oversubs);

}  // namespace leodivide::core
