#pragma once
// Per-epoch satellite spatial index: buckets satellites by sub-satellite
// point into a lat-band x lon-sector geodesic grid sized from the coverage
// central angle psi, so a ground cell scans only the O(k) satellites whose
// buckets can intersect its coverage cone instead of the whole
// constellation.
//
// Bucket ids run band by band, sector by sector, so a cell's window — the
// buckets its cone can reach — is at most two runs of consecutive bucket
// ids per lat band (two when the window wraps the date line). A window
// depends only on the cell centre and psi, never on the satellites, so
// CellWindows computes every cell's runs once per (cell list, psi) and is
// then shared read-only by every epoch and thread. build() stores each
// epoch's satellite ids and unit radials in bucket order (SoA), so a run of
// buckets is one contiguous span of satellites and the exact cos-threshold
// test runs over it without a gather. The scanned set is a strict superset
// of the truly visible set (callers keep their exact angular test as the
// final filter) and is duplicate-free, because buckets partition the
// satellites.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "leodivide/orbit/propagate.hpp"

namespace leodivide::orbit {

/// Half-open run [begin, end) of consecutive bucket ids.
struct BucketRun {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Half-open span [begin, end) into a VisIndex's bucket-ordered arrays.
struct SatSpan {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Every cell's query window over the grid of one coverage angle, as runs
/// of bucket ids in CSR layout. Built by VisIndex::build_windows; immutable
/// afterwards, so one instance may be read by any number of threads.
class CellWindows {
 public:
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// The runs of cell `i` (in the order the cells were given).
  [[nodiscard]] std::span<const BucketRun> runs(std::size_t i) const noexcept {
    return {runs_.data() + offsets_[i], runs_.data() + offsets_[i + 1]};
  }

 private:
  friend class VisIndex;
  double psi_rad_ = 0.0;                ///< coverage angle built for
  std::vector<std::uint32_t> offsets_;  ///< CSR offsets (cells + 1)
  std::vector<BucketRun> runs_;
};

class VisIndex {
 public:
  /// Rebuilds the index over `sats` for a coverage central angle of
  /// `psi_rad` (must be > 0): the bucket CSR plus the satellite ids and
  /// unit radials in bucket order. Internal storage is reused: rebuilding
  /// at an unchanged constellation size and coverage angle performs no
  /// heap allocation after the first build.
  void build(const std::vector<SatState>& sats, double psi_rad);

  /// Computes the window of every cell in `cells` over the grid of the last
  /// build() (`out` is overwritten). The windows are valid for any later
  /// build at the same coverage angle — check with windows_match().
  void build_windows(std::span<const geo::GeoPoint> cells,
                     CellWindows& out) const;

  /// True iff `windows` was computed for this index's coverage angle (bit
  /// for bit), so its bucket runs address this grid.
  [[nodiscard]] bool windows_match(const CellWindows& windows) const noexcept;

  /// Fills `out` (cleared first) with the index of every satellite whose
  /// bucket can contain a sub-point within psi of `cell` — a superset of
  /// the satellites actually inside the coverage cone — sorted ascending.
  /// Handles polar caps (all longitudes scanned once the cap reaches a
  /// pole) and the date-line longitude wrap. Uses the same window code as
  /// build_windows().
  void query(const geo::GeoPoint& cell, std::vector<std::uint32_t>& out) const;

  /// The bucket-ordered positions holding the satellites of `run`.
  [[nodiscard]] SatSpan span_of(const BucketRun& run) const noexcept {
    return {bucket_start_[run.begin], bucket_start_[run.end]};
  }
  /// Satellite index at each bucket-ordered position.
  [[nodiscard]] const std::uint32_t* sat_ids() const noexcept {
    return bucket_sats_.data();
  }
  /// Unit radial components at each bucket-ordered position.
  [[nodiscard]] const double* unit_x() const noexcept { return unit_x_.data(); }
  [[nodiscard]] const double* unit_y() const noexcept { return unit_y_.data(); }
  [[nodiscard]] const double* unit_z() const noexcept { return unit_z_.data(); }

  [[nodiscard]] std::size_t sat_count() const noexcept { return n_sats_; }
  [[nodiscard]] std::uint32_t band_count() const noexcept { return n_bands_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return bucket_start_.empty() ? 0 : bucket_start_.size() - 1;
  }

 private:
  [[nodiscard]] std::uint32_t band_of(double lat_deg) const noexcept;
  [[nodiscard]] std::uint32_t sector_of(std::uint32_t band,
                                        double lon_deg) const noexcept;
  /// Appends `cell`'s window to `runs` as maximal runs of consecutive
  /// bucket ids (runs touching earlier entries of `runs` are not merged).
  void append_window(const geo::GeoPoint& cell,
                     std::vector<BucketRun>& runs) const;

  std::size_t n_sats_ = 0;
  std::uint32_t n_bands_ = 0;
  double band_height_deg_ = 180.0;
  double psi_rad_ = 0.0;
  double psi_deg_ = 0.0;
  std::vector<std::uint32_t> band_sectors_;  ///< lon sectors per band
  std::vector<std::uint32_t> band_offset_;   ///< first bucket id per band
  std::vector<std::uint32_t> bucket_start_;  ///< CSR offsets (buckets + 1)
  std::vector<std::uint32_t> bucket_sats_;   ///< ascending within a bucket
  std::vector<double> unit_x_;               ///< unit radials, bucket order
  std::vector<double> unit_y_;
  std::vector<double> unit_z_;
  std::vector<std::uint32_t> sat_bucket_;    ///< build scratch
};

}  // namespace leodivide::orbit
