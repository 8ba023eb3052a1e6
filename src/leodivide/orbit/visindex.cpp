#include "leodivide/orbit/visindex.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"

namespace leodivide::orbit {

namespace {

// Query windows are inflated by this margin so a satellite sitting exactly
// on the coverage boundary (where the caller's cos-threshold test could
// still accept it under rounding) can never fall outside the scanned
// buckets. ~0.1 m on the ground — a few extra candidates at most.
constexpr double kWindowSlackDeg = 1e-6;

// Upper bounds keeping the grid small when psi is tiny (high elevation
// masks / very low shells). Coarser buckets only add candidates; the exact
// test downstream removes them.
constexpr std::uint32_t kMaxBands = 256;
constexpr std::uint32_t kMaxSectorsPerBand = 1024;

}  // namespace

std::uint32_t VisIndex::band_of(double lat_deg) const noexcept {
  const double scaled = (lat_deg + 90.0) / band_height_deg_;
  if (scaled <= 0.0) return 0;
  const auto b = static_cast<std::uint32_t>(scaled);
  return b >= n_bands_ ? n_bands_ - 1 : b;
}

std::uint32_t VisIndex::sector_of(std::uint32_t band,
                                  double lon_deg) const noexcept {
  const std::uint32_t sectors = band_sectors_[band];
  const double scaled =
      (lon_deg + 180.0) / (360.0 / static_cast<double>(sectors));
  if (scaled <= 0.0) return 0;
  const auto s = static_cast<std::uint32_t>(scaled);
  return s >= sectors ? sectors - 1 : s;
}

void VisIndex::build(const std::vector<SatState>& sats, double psi_rad) {
  if (!(psi_rad > 0.0)) {
    throw std::invalid_argument("VisIndex: coverage angle must be > 0");
  }
  n_sats_ = sats.size();
  psi_rad_ = psi_rad;
  psi_deg_ = geo::rad2deg(psi_rad);

  n_bands_ = std::clamp(static_cast<std::uint32_t>(180.0 / psi_deg_), 1U,
                        kMaxBands);
  band_height_deg_ = 180.0 / static_cast<double>(n_bands_);

  // Sector count per band: widths of at least one coverage angle at the
  // band latitude closest to the equator (where parallels are longest), so
  // a single query window spans O(1) sectors.
  band_sectors_.resize(n_bands_);
  band_offset_.resize(n_bands_ + 1);
  std::uint32_t buckets = 0;
  for (std::uint32_t b = 0; b < n_bands_; ++b) {
    const double lat_lo = -90.0 + static_cast<double>(b) * band_height_deg_;
    const double lat_hi = lat_lo + band_height_deg_;
    const double min_abs_lat =
        (lat_lo <= 0.0 && lat_hi >= 0.0)
            ? 0.0
            : std::min(std::abs(lat_lo), std::abs(lat_hi));
    const double parallel_deg = 360.0 * std::cos(geo::deg2rad(min_abs_lat));
    band_sectors_[b] = std::clamp(
        static_cast<std::uint32_t>(parallel_deg / psi_deg_), 1U,
        kMaxSectorsPerBand);
    band_offset_[b] = buckets;
    buckets += band_sectors_[b];
  }
  band_offset_[n_bands_] = buckets;

  // CSR fill in two passes; iterating satellites in index order keeps every
  // bucket's list ascending, which query() relies on.
  bucket_start_.assign(static_cast<std::size_t>(buckets) + 1, 0);
  sat_bucket_.resize(n_sats_);
  for (std::size_t i = 0; i < n_sats_; ++i) {
    const geo::GeoPoint& sp = sats[i].subpoint;
    const std::uint32_t band = band_of(sp.lat_deg);
    const std::uint32_t bucket =
        band_offset_[band] + sector_of(band, sp.lon_deg);
    sat_bucket_[i] = bucket;
    ++bucket_start_[bucket + 1];
  }
  for (std::size_t b = 1; b < bucket_start_.size(); ++b) {
    bucket_start_[b] += bucket_start_[b - 1];
  }
  bucket_sats_.resize(n_sats_);
  unit_x_.resize(n_sats_);
  unit_y_.resize(n_sats_);
  unit_z_.resize(n_sats_);
  // bucket_start_ doubles as the write cursor (allocation-free): after the
  // fill, entry b holds bucket b's end, which is bucket b+1's start, so one
  // right-shift restores the offsets.
  for (std::size_t i = 0; i < n_sats_; ++i) {
    const std::uint32_t pos = bucket_start_[sat_bucket_[i]]++;
    bucket_sats_[pos] = static_cast<std::uint32_t>(i);
    const geo::Vec3 u = sats[i].ecef_km.unit();
    unit_x_[pos] = u.x;
    unit_y_[pos] = u.y;
    unit_z_[pos] = u.z;
  }
  for (std::size_t b = bucket_start_.size() - 1; b > 0; --b) {
    bucket_start_[b] = bucket_start_[b - 1];
  }
  bucket_start_[0] = 0;
}

void VisIndex::append_window(const geo::GeoPoint& cell,
                             std::vector<BucketRun>& runs) const {
  const std::size_t first = runs.size();
  // Runs are emitted band by band in ascending bucket id, so a run that
  // starts where the previous one ended extends it (full bands of a polar
  // cap collapse into one run).
  auto emit = [&runs, first](std::uint32_t begin, std::uint32_t end) {
    if (runs.size() > first && runs.back().end == begin) {
      runs.back().end = end;
    } else {
      runs.push_back(BucketRun{begin, end});
    }
  };

  const double window_deg = psi_deg_ + kWindowSlackDeg;
  const std::uint32_t b_lo = band_of(cell.lat_deg - window_deg);
  const std::uint32_t b_hi = band_of(cell.lat_deg + window_deg);

  // Longitude half-width of the coverage cap: sin(dlon) = sin(psi)/cos(lat)
  // while the cap stays clear of the poles; a cap containing a pole spans
  // every longitude.
  const bool polar = std::abs(cell.lat_deg) + window_deg >= 90.0;
  double dlon_deg = 180.0;
  if (!polar) {
    const double s = std::sin(geo::deg2rad(window_deg)) /
                     std::cos(geo::deg2rad(cell.lat_deg));
    dlon_deg =
        geo::rad2deg(std::asin(std::min(1.0, s))) + kWindowSlackDeg;
  }
  const double lon = geo::wrap_longitude_deg(cell.lon_deg);

  for (std::uint32_t b = b_lo; b <= b_hi; ++b) {
    const std::uint32_t sectors = band_sectors_[b];
    const std::uint32_t base = band_offset_[b];
    const double sector_width = 360.0 / static_cast<double>(sectors);
    std::uint32_t s0 = 0;
    std::uint32_t count = sectors;
    if (dlon_deg < 180.0 - sector_width) {
      s0 = sector_of(b, geo::wrap_longitude_deg(lon - dlon_deg));
      const std::uint32_t s1 =
          sector_of(b, geo::wrap_longitude_deg(lon + dlon_deg));
      count = std::min(sectors, (s1 + sectors - s0) % sectors + 1);
    }
    // Sectors s0 .. s0+count-1 modulo the band; a window past the band's
    // last sector (the date line) wraps to its first, giving two runs.
    if (s0 + count <= sectors) {
      emit(base + s0, base + s0 + count);
    } else {
      emit(base, base + (s0 + count - sectors));
      emit(base + s0, base + sectors);
    }
  }
}

void VisIndex::build_windows(std::span<const geo::GeoPoint> cells,
                             CellWindows& out) const {
  out.psi_rad_ = psi_rad_;
  out.offsets_.clear();
  out.runs_.clear();
  out.offsets_.reserve(cells.size() + 1);
  out.offsets_.push_back(0);
  for (const geo::GeoPoint& cell : cells) {
    append_window(cell, out.runs_);
    out.offsets_.push_back(static_cast<std::uint32_t>(out.runs_.size()));
  }
}

bool VisIndex::windows_match(const CellWindows& windows) const noexcept {
  // The grid is a pure function of psi, so equal bits mean equal buckets.
  return std::bit_cast<std::uint64_t>(windows.psi_rad_) ==
         std::bit_cast<std::uint64_t>(psi_rad_);
}

void VisIndex::query(const geo::GeoPoint& cell,
                     std::vector<std::uint32_t>& out) const {
  out.clear();
  if (n_sats_ == 0) return;
  std::vector<BucketRun> runs;
  append_window(cell, runs);
  for (const BucketRun& run : runs) {
    const SatSpan span = span_of(run);
    out.insert(out.end(), bucket_sats_.begin() + span.begin,
               bucket_sats_.begin() + span.end);
  }
  // Buckets partition the satellites, so the gather has no duplicates; the
  // sort restores global ascending order.
  std::sort(out.begin(), out.end());
}

}  // namespace leodivide::orbit
