#include "leodivide/core/sizing.hpp"

#include <stdexcept>

#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/orbit/density.hpp"
#include "leodivide/runtime/executor.hpp"

namespace leodivide::core {

double coverage_units(const SizingModel& model, double lat_deg) {
  // One satellite per cell at lat_deg: required density = 1 / A_cell.
  return orbit::constellation_size_for_density(1.0 / model.cell_area_km2,
                                               lat_deg,
                                               model.inclination_deg);
}

double satellites_for_binding_cell(const SizingModel& model, double lat_deg,
                                   double beamspread,
                                   std::uint32_t beams_on_binding) {
  return satellites_from_k(model, coverage_units(model, lat_deg), beamspread,
                           beams_on_binding);
}

double satellites_from_k(const SizingModel& model, double k, double beamspread,
                         std::uint32_t beams_on_binding) {
  if (k <= 0.0) throw std::invalid_argument("satellites_from_k: k must be > 0");
  const double cells = model.capacity.plan().cells_served_per_satellite(
      beamspread, beams_on_binding);
  return k / cells;
}

SizingResult binding_at(const SizingModel& model,
                        const demand::CellDemand& cell, std::size_t index,
                        double beamspread, std::uint32_t beams) {
  SizingResult r;
  r.binding_cell_index = index;
  r.binding_lat_deg = cell.center.lat_deg;
  r.beams_on_binding = beams;
  r.satellites = satellites_for_binding_cell(model, cell.center.lat_deg,
                                             beamspread, beams);
  return r;
}

std::size_t peak_cell_index(const demand::DemandProfile& profile) {
  PeakFold peak;
  for (std::size_t i = 0; i < profile.cell_count(); ++i) {
    peak.step(profile.cells()[i], i);
  }
  if (!peak.found) {
    throw std::invalid_argument("peak_cell_index: empty profile");
  }
  return peak.index;
}

SizingResult size_full_service(const demand::DemandProfile& profile,
                               const SizingModel& model, double beamspread) {
  if (profile.cell_count() == 0) {
    throw std::invalid_argument("size_full_service: empty profile");
  }
  const std::size_t peak = peak_cell_index(profile);
  return binding_at(model, profile.cells()[peak], peak, beamspread,
                    model.capacity.plan().beams_per_full_cell());
}

SizingResult size_with_cap(const demand::DemandProfile& profile,
                           const SizingModel& model, double beamspread,
                           double oversub_cap, runtime::Executor& executor) {
  if (profile.cell_count() == 0) {
    throw std::invalid_argument("size_with_cap: empty profile");
  }
  const obs::Span span("core.size_with_cap");
  if (obs::metrics_enabled()) {
    static obs::Counter& cells =
        obs::registry().counter("core.size_with_cap.cells");
    cells.add(profile.cell_count());
  }
  const CellCapacity capacity{&model,
                              model.capacity.max_locations_at(oversub_cap)};
  return size_binding(
      profile, [capacity](const demand::CellDemand&) { return capacity; },
      beamspread, oversub_cap, executor);
}

SizingResult size_with_cap(const demand::DemandProfile& profile,
                           const SizingModel& model, double beamspread,
                           double oversub_cap) {
  return size_with_cap(profile, model, beamspread, oversub_cap,
                       runtime::global_executor());
}

}  // namespace leodivide::core
