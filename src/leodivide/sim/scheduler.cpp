#include "leodivide/sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/orbit/footprint.hpp"
#include "leodivide/sim/beam.hpp"

namespace leodivide::sim {

// The altitude is taken as radius - R before the ratio R / (R + alt) is
// formed: that operation order is what the pinned traces were computed
// with, so cos_psi — and therefore every schedule — matches them bit for
// bit.
const CoverageGeometry& coverage_geometry(
    const std::vector<orbit::SatState>& sats, CoverageGeometry& memo) {
  const double radius_km = sats.empty() ? geo::kEarthRadiusKm + 550.0
                                        : sats.front().ecef_km.norm();
  if (!memo.matches(radius_km)) {
    memo.radius_km = radius_km;
    memo.psi_rad = orbit::coverage_central_angle_rad(
        radius_km - geo::kEarthRadiusKm, kMinElevationDeg);
    memo.cos_psi = std::cos(memo.psi_rad);
  }
  return memo;
}

namespace {

// Satellites per visibility-mask block: the mask lives on the stack, and a
// window's runs are a few dozen satellites, so one block almost always
// covers a whole run. Filling the mask in its own tight loop before the
// candidate loop is measured faster than testing visibility inside it.
constexpr std::uint32_t kMaskBlock = 256;

}  // namespace

// Cell windows per coverage angle, shared by every copy of a scheduler and
// every thread scheduling with it. A shell's radius varies in its last bits
// from epoch to epoch, so a run meets a handful of angles; the cache keeps
// the most recent few, and a hit costs one uncontended lock.
class BeamScheduler::WindowCache {
 public:
  std::shared_ptr<const orbit::CellWindows> get(
      const orbit::VisIndex& index, const std::vector<SchedCell>& cells,
      const std::vector<std::uint32_t>& order) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : entries_) {
      if (index.windows_match(*entry)) return entry;
    }
    // Windows in processing order, so the scheduling loop reads them
    // front to back.
    std::vector<geo::GeoPoint> centres;
    centres.reserve(order.size());
    for (const std::uint32_t ci : order) centres.push_back(cells[ci].center);
    auto built = std::make_shared<orbit::CellWindows>();
    index.build_windows(centres, *built);
    if (obs::metrics_enabled()) {
      static obs::Counter& builds =
          obs::registry().counter("sim.sched.window_builds");
      builds.add(1);
    }
    if (entries_.size() == kMaxEntries) entries_.erase(entries_.begin());
    entries_.push_back(std::move(built));
    return entries_.back();
  }

 private:
  static constexpr std::size_t kMaxEntries = 8;
  std::mutex mu_;
  std::vector<std::shared_ptr<const orbit::CellWindows>> entries_;
};

BeamScheduler::BeamScheduler(std::vector<SchedCell> cells,
                             SchedulerConfig config)
    : cells_(std::move(cells)),
      config_(config),
      windows_(std::make_shared<WindowCache>()) {
  if (config_.beamspread == 0) {
    throw std::invalid_argument("BeamScheduler: zero beamspread");
  }
  order_.resize(cells_.size());
  std::iota(order_.begin(), order_.end(), 0U);
  std::sort(order_.begin(), order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (cells_[a].beams_needed != cells_[b].beams_needed) {
                return cells_[a].beams_needed > cells_[b].beams_needed;
              }
              return cells_[a].locations > cells_[b].locations;
            });
  cell_units_.reserve(cells_.size());
  for (const auto& cell : cells_) cell_units_.push_back(cell.ecef_km.unit());
}

std::vector<SchedCell> BeamScheduler::cells_from_profile(
    const demand::DemandProfile& profile,
    const core::SatelliteCapacityModel& model, double oversub) {
  std::vector<SchedCell> out;
  out.reserve(profile.cell_count());
  for (const auto& cell : profile.cells()) {
    SchedCell sc;
    sc.center = cell.center;
    sc.ecef_km = geo::spherical_to_cartesian(cell.center, geo::kEarthRadiusKm);
    sc.locations = cell.underserved;
    sc.beams_needed = std::max(1U, model.beams_needed(cell.underserved,
                                                      oversub));
    out.push_back(sc);
  }
  return out;
}

ScheduleResult BeamScheduler::schedule(
    const std::vector<orbit::SatState>& sats) const {
  ScheduleWorkspace workspace;
  ScheduleResult result;
  schedule(sats, workspace, result);
  return result;
}

void BeamScheduler::schedule(const std::vector<orbit::SatState>& sats,
                             ScheduleWorkspace& ws,
                             ScheduleResult& result) const {
  const obs::Span span("sim.schedule");
  result.assignments.clear();
  result.unassigned_cells.clear();
  result.locations_served = 0;
  result.locations_total = 0;
  result.mean_beam_utilization = 0.0;
  if (cells_.empty()) return;

  const CoverageGeometry& geometry = coverage_geometry(sats, ws.geometry);
  const double cos_psi = geometry.cos_psi;

  ws.budgets.assign(sats.size(),
                    BeamBudget(kBeamsPerSatellite, config_.beamspread));
  ws.sat_touched.assign(sats.size(), 0);

  // The index stores each epoch's satellite unit radials in bucket order;
  // the cell windows (runs of buckets per cell, in processing order) are
  // shared by every epoch and thread at this coverage angle.
  std::shared_ptr<const orbit::CellWindows> windows;
  if (!sats.empty()) {
    ws.index.build(sats, geometry.psi_rad);
    windows = windows_->get(ws.index, cells_, order_);
  }
  const std::uint32_t* ids = ws.index.sat_ids();
  const double* ux = ws.index.unit_x();
  const double* uy = ws.index.unit_y();
  const double* uz = ws.index.unit_z();

  std::uint64_t candidates_scanned = 0;
  std::uint8_t mask[kMaskBlock];
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const std::uint32_t ci = order_[k];
    const SchedCell& cell = cells_[ci];
    result.locations_total += cell.locations;
    if (sats.empty()) {
      result.unassigned_cells.push_back(ci);
      continue;
    }
    const geo::Vec3& cell_unit = cell_units_[ci];

    // Selection is order-independent: the naive ascending scan with strict
    // improvement picks the lowest-indexed feasible satellite attaining
    // the best slack (max for kMostSlack, min for kBestFit, any for
    // kFirstFit), so scanning the window's runs in bucket order with an
    // explicit index tie-break chooses the identical satellite —
    // byte-identical schedules (pinned by the equivalence suite).
    std::int64_t best_sat = -1;
    std::uint32_t best_slack = 0;
    for (const orbit::BucketRun& run : windows->runs(k)) {
      const orbit::SatSpan sats_span = ws.index.span_of(run);
      candidates_scanned += sats_span.end - sats_span.begin;
      for (std::uint32_t lo = sats_span.begin; lo < sats_span.end;
           lo += kMaskBlock) {
        const std::uint32_t n = std::min(kMaskBlock, sats_span.end - lo);
        // Exact visibility over a contiguous span: the unit dot with the
        // cell radial passes cos_psi, the test schedule_reference makes
        // (SchedulerBitIdenticalOnGrazingGeometry pins the two together).
        for (std::uint32_t j = 0; j < n; ++j) {
          const double dot = cell_unit.x * ux[lo + j] +
                             cell_unit.y * uy[lo + j] +
                             cell_unit.z * uz[lo + j];
          mask[j] = dot >= cos_psi ? 1 : 0;
        }
        for (std::uint32_t j = 0; j < n; ++j) {
          if (mask[j] == 0) continue;
          const std::uint32_t si = ids[lo + j];
          const std::uint32_t slack = ws.budgets[si].slack();
          if (slack == 0) continue;
          // Whole-beam cells need enough free whole beams.
          if (cell.beams_needed >= 2 &&
              ws.budgets[si].beams_free() < cell.beams_needed) {
            continue;
          }
          const auto sat = static_cast<std::int64_t>(si);
          bool take = best_sat < 0;
          switch (config_.strategy) {
            case Strategy::kMostSlack:
              take = take || slack > best_slack ||
                     (slack == best_slack && sat < best_sat);
              break;
            case Strategy::kBestFit:
              take = take || slack < best_slack ||
                     (slack == best_slack && sat < best_sat);
              break;
            case Strategy::kFirstFit:
              take = take || sat < best_sat;
              break;
          }
          if (take) {
            best_sat = sat;
            best_slack = slack;
          }
        }
      }
    }
    if (best_sat < 0) {
      result.unassigned_cells.push_back(ci);
      continue;
    }
    auto& budget = ws.budgets[static_cast<std::size_t>(best_sat)];
    const bool ok = cell.beams_needed >= 2
                        ? budget.reserve_whole(cell.beams_needed)
                        : budget.reserve_shared_slot();
    if (!ok) {
      result.unassigned_cells.push_back(ci);
      continue;
    }
    ws.sat_touched[static_cast<std::size_t>(best_sat)] = 1;
    result.assignments.push_back(
        Assignment{ci, static_cast<std::uint32_t>(best_sat),
                   cell.beams_needed >= 2 ? cell.beams_needed : 0U});
    result.locations_served += cell.locations;
  }

  double util_sum = 0.0;
  std::size_t util_n = 0;
  for (std::size_t si = 0; si < sats.size(); ++si) {
    if (ws.sat_touched[si] == 0) continue;
    util_sum += static_cast<double>(ws.budgets[si].beams_used()) /
                static_cast<double>(kBeamsPerSatellite);
    ++util_n;
  }
  result.mean_beam_utilization = util_n == 0 ? 0.0 : util_sum /
                                                         static_cast<double>(
                                                             util_n);

  if (obs::metrics_enabled()) {
    static obs::Counter& candidates =
        obs::registry().counter("sim.sched.candidates");
    static obs::Counter& pruned = obs::registry().counter("sim.sched.pruned");
    const std::uint64_t pairs =
        static_cast<std::uint64_t>(cells_.size()) *
        static_cast<std::uint64_t>(sats.size());
    candidates.add(candidates_scanned);
    pruned.add(pairs - candidates_scanned);
  }
}

ScheduleResult BeamScheduler::schedule_reference(
    const std::vector<orbit::SatState>& sats) const {
  ScheduleResult result;
  if (cells_.empty()) return result;

  // Precompute the geometry threshold: a satellite is usable by a cell when
  // the cell lies within the coverage central angle for the elevation mask.
  CoverageGeometry geometry;
  const double cos_psi = coverage_geometry(sats, geometry).cos_psi;

  std::vector<BeamBudget> budgets(
      sats.size(), BeamBudget(kBeamsPerSatellite, config_.beamspread));

  // Unit vectors of satellite positions for the cheap visibility test.
  std::vector<geo::Vec3> sat_units;
  sat_units.reserve(sats.size());
  for (const auto& s : sats) sat_units.push_back(s.ecef_km.unit());

  std::vector<bool> sat_touched(sats.size(), false);

  for (std::uint32_t ci : order_) {
    const SchedCell& cell = cells_[ci];
    result.locations_total += cell.locations;
    const geo::Vec3 cell_unit = cell.ecef_km.unit();

    std::int64_t best_sat = -1;
    std::uint32_t best_slack = 0;
    for (std::size_t si = 0; si < sats.size(); ++si) {
      if (cell_unit.dot(sat_units[si]) < cos_psi) continue;  // not visible
      const std::uint32_t slack = budgets[si].slack();
      if (slack == 0) continue;
      // Whole-beam cells need enough free whole beams.
      if (cell.beams_needed >= 2 &&
          budgets[si].beams_free() < cell.beams_needed) {
        continue;
      }
      bool take = best_sat < 0;
      switch (config_.strategy) {
        case Strategy::kMostSlack:
          take = take || slack > best_slack;
          break;
        case Strategy::kBestFit:
          take = take || slack < best_slack;
          break;
        case Strategy::kFirstFit:
          break;  // keep the first feasible satellite
      }
      if (take) {
        best_sat = static_cast<std::int64_t>(si);
        best_slack = slack;
        if (config_.strategy == Strategy::kFirstFit) break;
      }
    }
    if (best_sat < 0) {
      result.unassigned_cells.push_back(ci);
      continue;
    }
    auto& budget = budgets[static_cast<std::size_t>(best_sat)];
    const bool ok = cell.beams_needed >= 2
                        ? budget.reserve_whole(cell.beams_needed)
                        : budget.reserve_shared_slot();
    if (!ok) {
      result.unassigned_cells.push_back(ci);
      continue;
    }
    sat_touched[static_cast<std::size_t>(best_sat)] = true;
    result.assignments.push_back(
        Assignment{ci, static_cast<std::uint32_t>(best_sat),
                   cell.beams_needed >= 2 ? cell.beams_needed : 0U});
    result.locations_served += cell.locations;
  }

  double util_sum = 0.0;
  std::size_t util_n = 0;
  for (std::size_t si = 0; si < sats.size(); ++si) {
    if (!sat_touched[si]) continue;
    util_sum += static_cast<double>(budgets[si].beams_used()) /
                static_cast<double>(kBeamsPerSatellite);
    ++util_n;
  }
  result.mean_beam_utilization = util_n == 0 ? 0.0 : util_sum /
                                                         static_cast<double>(
                                                             util_n);
  return result;
}

}  // namespace leodivide::sim
