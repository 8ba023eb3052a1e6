#include "leodivide/core/served_fraction.hpp"

#include "leodivide/core/beamspread.hpp"

namespace leodivide::core {

double ServedTally::cell_fraction(std::uint64_t total_cells) const noexcept {
  return total_cells == 0 ? 1.0
                          : static_cast<double>(served_cells) /
                                static_cast<double>(total_cells);
}

double ServedTally::location_fraction(
    std::uint64_t total_locations) const noexcept {
  return total_locations == 0 ? 1.0
                              : static_cast<double>(served_locations) /
                                    static_cast<double>(total_locations);
}

namespace {

ServedTally served_tally(const demand::DemandProfile& profile,
                         const SatelliteCapacityModel& model,
                         double beamspread, double oversub) {
  ServedTally tally;
  if (profile.cell_count() == 0) return tally;
  const std::uint32_t limit = max_locations_spread(model, beamspread, oversub);
  for (const auto& cell : profile.cells()) tally.step(cell.underserved, limit);
  return tally;
}

}  // namespace

double served_cell_fraction(const demand::DemandProfile& profile,
                            const SatelliteCapacityModel& model,
                            double beamspread, double oversub) {
  return served_tally(profile, model, beamspread, oversub)
      .cell_fraction(profile.cell_count());
}

double served_location_fraction(const demand::DemandProfile& profile,
                                const SatelliteCapacityModel& model,
                                double beamspread, double oversub) {
  return served_tally(profile, model, beamspread, oversub)
      .location_fraction(profile.total_locations());
}

std::vector<std::vector<double>> served_fraction_grid(
    const demand::DemandProfile& profile, const SatelliteCapacityModel& model,
    const std::vector<double>& beamspreads,
    const std::vector<double>& oversubs) {
  std::vector<std::vector<double>> grid;
  grid.reserve(beamspreads.size());
  for (double s : beamspreads) {
    std::vector<double> row;
    row.reserve(oversubs.size());
    for (double o : oversubs) {
      row.push_back(served_cell_fraction(profile, model, s, o));
    }
    grid.push_back(std::move(row));
  }
  return grid;
}

}  // namespace leodivide::core
