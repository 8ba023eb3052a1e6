#pragma once
// Constellation sizing (Section 3.0.2, Table 2, Finding F2). The paper's
// lower-bound model:
//
//   * The satellite over the binding (bandwidth-neediest) cell dedicates
//     b beams to it; each of its remaining (B - b) user beams is spread
//     across `beamspread` cells, so that satellite covers
//     1 + (B - b) * beamspread cells.
//   * The constellation must therefore supply one satellite per that many
//     cells *at the binding cell's location*. Walker geometry converts the
//     local density requirement into a total constellation size via the
//     latitude density model (orbit/density.hpp):
//         N = K(phi) / (1 + (B - b) * s),
//     K(phi) = 2 pi^2 R^2 sqrt(sin^2 i - sin^2 phi) / A_cell.
//
// Per P2, sizing is driven by peak *demand* density: the binding cell is
// the demand cell whose requirement maximises N, not baseline coverage.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "leodivide/core/capacity_model.hpp"
#include "leodivide/demand/dataset.hpp"
#include "leodivide/hex/hexgrid.hpp"
#include "leodivide/runtime/map_reduce.hpp"

namespace leodivide::core {

/// Sizing parameters beyond the capacity model.
struct SizingModel {
  SatelliteCapacityModel capacity;
  double inclination_deg = 53.0;  ///< Starlink shell-1
  double cell_area_km2 = hex::cell_area_km2(hex::kServiceCellResolution);
};

/// K(phi): satellites-per-covered-cell scale factor at a latitude — the
/// total constellation size that yields exactly one satellite per cell of
/// area cell_area_km2 at that latitude.
[[nodiscard]] double coverage_units(const SizingModel& model, double lat_deg);

/// N = K(phi) / (1 + (B - beams_on_binding) * beamspread).
[[nodiscard]] double satellites_for_binding_cell(const SizingModel& model,
                                                 double lat_deg,
                                                 double beamspread,
                                                 std::uint32_t beams_on_binding);

/// Calibrated variant: N = k / (1 + (B - beams_on_binding) * beamspread)
/// with k supplied directly (e.g. the paper's reverse-engineered constants).
[[nodiscard]] double satellites_from_k(const SizingModel& model, double k,
                                       double beamspread,
                                       std::uint32_t beams_on_binding);

/// Result of sizing against a demand profile.
struct SizingResult {
  double satellites = 0.0;
  double binding_lat_deg = 0.0;
  std::uint32_t beams_on_binding = 0;
  std::size_t binding_cell_index = 0;  ///< index into profile.cells()

  // Exact comparison on purpose: sizing is deterministic, and callers
  // (serve/ paranoid mode, golden tests) check bit-for-bit agreement.
  friend bool operator==(const SizingResult&, const SizingResult&) = default;
};

/// Cell `index` as the binding cell, dedicating `beams` beams under `model`.
[[nodiscard]] SizingResult binding_at(const SizingModel& model,
                                      const demand::CellDemand& cell,
                                      std::size_t index, double beamspread,
                                      std::uint32_t beams);

/// The peak-cell rule (P2's "peak cell") as a fold: the cell with the most
/// un(der)served locations, the smaller cell id on equal counts. step()
/// takes cells in any order and merge() combines folds over any partition
/// of the cells; both give the same peak, because unique cell ids make
/// the (count desc, cell id asc) order total.
struct PeakFold {
  std::uint32_t count = 0;
  std::uint64_t cell_bits = 0;
  std::size_t index = 0;  ///< index into profile.cells()
  bool found = false;

  void step(const demand::CellDemand& cell, std::size_t i) noexcept {
    offer(cell.underserved, cell.cell.bits(), i);
  }
  void merge(const PeakFold& other) noexcept {
    if (other.found) offer(other.count, other.cell_bits, other.index);
  }

 private:
  void offer(std::uint32_t c, std::uint64_t bits, std::size_t i) noexcept {
    if (!found || c > count || (c == count && bits < cell_bits)) {
      found = true;
      count = c;
      cell_bits = bits;
      index = i;
    }
  }
};

/// Index of the profile's peak cell (a PeakFold over every cell). Throws
/// std::invalid_argument on an empty profile.
[[nodiscard]] std::size_t peak_cell_index(const demand::DemandProfile& profile);

/// Per-cell capacity for the binding rule: the sizing model in force over
/// the cell and its per-cell cap (max_locations_at(oversub_cap)). A null
/// model means no spectrum there: the cell cannot bind.
struct CellCapacity {
  const SizingModel* model = nullptr;
  std::uint32_t cap_locs = 0;
};

/// The binding-cell rule as a fold. A cell truncated at its cap needs
/// beams_needed(served, oversub_cap) beams; a cell needing >= 2 beams is
/// demand-driven and a candidate, and the candidate with the largest
/// requirement N binds. On a bit-equal requirement the smaller cell index
/// wins, so step() in index order keeps the earliest strict maximum and
/// merge() gives the same binding cell for any partition of the cells
/// (contiguous shards or interleaved regions).
struct BindingFold {
  SizingResult best;
  bool found = false;  ///< some cell so far needs >= 2 beams

  void step(const demand::CellDemand& cell, std::size_t index,
            CellCapacity capacity, double beamspread, double oversub_cap) {
    if (capacity.model == nullptr) return;  // no spectrum: cannot bind
    const std::uint32_t served = std::min(cell.underserved, capacity.cap_locs);
    const std::uint32_t beams =
        capacity.model->capacity.beams_needed(served, oversub_cap);
    if (beams < 2) return;  // demand-driven binding needs >= 2 beams
    offer(binding_at(*capacity.model, cell, index, beamspread, beams));
  }
  void merge(const BindingFold& other) noexcept {
    if (other.found) offer(other.best);
  }

  /// The binding cell: the fold's best when some cell needs >= 2 beams,
  /// else the single-beam fallback — `peak`, the peak cell among the cells
  /// with a capacity, binds on one beam under its `peak_model`.
  [[nodiscard]] SizingResult resolve(const SizingModel& peak_model,
                                     const demand::CellDemand& peak_cell,
                                     std::size_t peak,
                                     double beamspread) const {
    return found ? best
                 : binding_at(peak_model, peak_cell, peak, beamspread, 1);
  }

 private:
  void offer(const SizingResult& c) noexcept {
    if (!found || c.satellites > best.satellites ||
        (std::bit_cast<std::uint64_t>(c.satellites) ==
             std::bit_cast<std::uint64_t>(best.satellites) &&
         c.binding_cell_index < best.binding_cell_index)) {
      found = true;
      best = c;
    }
  }
};

/// The binding cell of `profile` under a per-cell capacity lookup
/// (`lookup(cell)` -> CellCapacity): a BindingFold over the cells as a
/// sharded map_reduce on `executor`, identical for every thread count,
/// resolved with the single-beam fallback. Throws std::invalid_argument
/// when no cell has a capacity.
template <typename Lookup>
[[nodiscard]] SizingResult size_binding(const demand::DemandProfile& profile,
                                        const Lookup& lookup,
                                        double beamspread, double oversub_cap,
                                        runtime::Executor& executor) {
  const auto& cells = profile.cells();
  const BindingFold fold = runtime::map_reduce<BindingFold>(
      executor, 0, cells.size(),
      [&cells, &lookup, beamspread, oversub_cap](
          BindingFold& shard, std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
          shard.step(cells[i], i, lookup(cells[i]), beamspread, oversub_cap);
        }
      },
      [](BindingFold& into, BindingFold&& from) { into.merge(from); },
      /*grain=*/1024);
  if (fold.found) return fold.best;
  PeakFold peak;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (lookup(cells[i]).model != nullptr) peak.step(cells[i], i);
  }
  if (!peak.found) {
    throw std::invalid_argument("size_binding: no cell has any capacity");
  }
  return fold.resolve(*lookup(cells[peak.index]).model, cells[peak.index],
                      peak.index, beamspread);
}

/// Full-service deployment (F1 option A): every location served, unbounded
/// oversubscription. Per the paper's generous lower-bound assumption, the
/// peak-demand cell takes the full beams_per_full_cell and no other cell
/// needs more than one beam, so the peak cell is the binding cell.
[[nodiscard]] SizingResult size_full_service(
    const demand::DemandProfile& profile, const SizingModel& model,
    double beamspread);

/// Capped deployment (F1 option B): per-cell service is truncated at
/// `oversub_cap`:1 of the full cell capacity; each cell needs
/// beams_needed(served, cap) beams, and the binding cell is the
/// demand-driven (>= 2 beams) cell maximising the satellite requirement.
/// Falls back to the peak cell when no cell needs more than one beam.
/// size_binding with the same capacity for every cell; the selected
/// binding cell is identical for every thread count (earliest cell wins
/// exact ties, as in the serial scan).
[[nodiscard]] SizingResult size_with_cap(const demand::DemandProfile& profile,
                                         const SizingModel& model,
                                         double beamspread,
                                         double oversub_cap,
                                         runtime::Executor& executor);

/// As above, on the process-global executor (LEODIVIDE_THREADS).
[[nodiscard]] SizingResult size_with_cap(const demand::DemandProfile& profile,
                                         const SizingModel& model,
                                         double beamspread,
                                         double oversub_cap);

}  // namespace leodivide::core
