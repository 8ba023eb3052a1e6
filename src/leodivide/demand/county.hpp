#pragma once
// County registry: the affordability analysis joins un(der)served locations
// with the median household income of their county (US Census ACS style).

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "leodivide/geo/geopoint.hpp"

namespace leodivide::demand {

/// One county (or county-equivalent cluster in synthetic data).
struct County {
  std::string fips;                 ///< 5-digit FIPS code (synthetic ok)
  geo::GeoPoint centroid;
  double median_income_usd = 0.0;   ///< annual household median income
  std::uint64_t underserved_locations = 0;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const County&, const County&) = default;
};

/// Synthetic county-equivalents (national and region generators) group the
/// service cells that share a parent cell at this coarser hex resolution.
inline constexpr int kCountyResolution = 3;

/// Flat county table with a FIPS -> index map: `add` and `find` are O(1),
/// so building a table is linear in its size.
class CountyTable {
 public:
  CountyTable() = default;
  explicit CountyTable(std::vector<County> counties);

  /// Appends a county; returns its index. Throws std::invalid_argument on
  /// duplicate FIPS.
  std::uint32_t add(County county);

  [[nodiscard]] const County& at(std::uint32_t index) const;
  /// Mutable access for counts and income. The caller must not change
  /// `fips`: the FIPS index would go stale. (delta.cpp, the only writer,
  /// touches counts and income alone.)
  [[nodiscard]] County& at(std::uint32_t index);

  /// Index of a county by FIPS, or -1 if absent.
  [[nodiscard]] std::int64_t find(const std::string& fips) const;

  [[nodiscard]] std::size_t size() const noexcept { return counties_.size(); }
  [[nodiscard]] const std::vector<County>& all() const noexcept {
    return counties_;
  }

  /// Total un(der)served locations across counties.
  [[nodiscard]] std::uint64_t total_underserved() const noexcept;

 private:
  std::vector<County> counties_;
  std::unordered_map<std::string, std::uint32_t> index_;  ///< FIPS -> index
};

}  // namespace leodivide::demand
