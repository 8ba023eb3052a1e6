#include "leodivide/demand/generator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

#include "leodivide/demand/calibration.hpp"
#include "leodivide/geo/greatcircle.hpp"
#include "leodivide/geo/us_outline.hpp"
#include "leodivide/hex/polyfill.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/runtime/map_reduce.hpp"
#include "leodivide/runtime/rng_split.hpp"
#include "leodivide/stats/distributions.hpp"
#include "leodivide/stats/rng.hpp"

namespace leodivide::demand {

namespace {

// Locations-per-cell above which a cell needs two or more beams at the
// oversubscription ratios the paper sweeps (>= 15:1); such cells must
// respect the generator's latitude floor so the calibrated binding cells
// remain binding — a multi-beam cell further from the inclination latitude
// would otherwise dominate the sizing (see DESIGN.md).
constexpr std::uint32_t kHeavyCellThreshold = 650;

static_assert(kCountyResolution < hex::kServiceCellResolution,
              "county-equivalents group service cells under a coarser parent");

std::vector<std::size_t> shuffled_indices(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  stats::Pcg32 rng(seed, /*stream=*/1);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.next_below(static_cast<std::uint32_t>(i));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

// Index of the nearest not-yet-taken region cell to `target`. A sharded
// first-strict-min reduction: every shard keeps its first minimum and the
// in-order merge keeps the earliest, matching the serial scan exactly.
std::size_t nearest_free_cell(const hex::HexGrid& grid,
                              const std::vector<hex::CellId>& region,
                              const std::vector<bool>& taken,
                              const geo::GeoPoint& target,
                              runtime::Executor& executor) {
  struct Best {
    double d = 1e30;
    std::size_t i = 0;
    bool found = false;
  };
  const Best best = runtime::map_reduce<Best>(
      executor, 0, region.size(),
      [&grid, &region, &taken, &target](
          Best& shard, std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (taken[i]) continue;
          const double d = geo::distance_km(grid.center_of(region[i]), target);
          if (!shard.found || d < shard.d) {
            shard.d = d;
            shard.i = i;
            shard.found = true;
          }
        }
      },
      [](Best& into, Best&& from) {
        if (from.found && (!into.found || from.d < into.d)) into = from;
      },
      /*grain=*/512);
  return best.found ? best.i : region.size();
}

}  // namespace

SyntheticGenerator::SyntheticGenerator(GeneratorConfig config)
    : config_(config) {
  if (config_.scale <= 0.0 || config_.scale > 1.0) {
    throw std::invalid_argument("GeneratorConfig: scale must be in (0, 1]");
  }
}

std::array<geo::GeoPoint, 5> SyntheticGenerator::planted_targets() {
  const double area = hex::cell_area_km2(hex::kServiceCellResolution);
  // The two binding latitudes are derived from the paper's Table-2
  // constants; the remaining peaks sit safely north of both.
  const double lat_full = paper::binding_latitude_for_k(
      paper::kKFullService, area);
  const double lat_cap = paper::binding_latitude_for_k(paper::kK20To1, area);
  return {geo::GeoPoint{lat_full, -92.3},   // 5998: Ozarks, MO
          geo::GeoPoint{lat_cap, -89.7},    // 4580: TN/MO bootheel
          geo::GeoPoint{38.9, -83.1},       // 4200: Appalachian OH
          geo::GeoPoint{37.8, -81.2},       // 3900: West Virginia
          geo::GeoPoint{40.6, -78.4}};      // 3750: central PA
}

DemandProfile SyntheticGenerator::generate_profile(
    runtime::Executor& executor) const {
  const obs::Span obs_span("demand.generate_profile");
  const hex::HexGrid grid;
  const auto region =
      hex::polyfill(grid, geo::conus_outline(),
                                    hex::kServiceCellResolution, executor);
  if (region.empty()) {
    throw std::runtime_error("SyntheticGenerator: empty region polyfill");
  }

  const auto target_total = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(paper::kTotalLocations) *
                   config_.scale));

  // Decide whether the planted peaks fit at this scale.
  const bool plant = target_total > 2 * paper::kPeakCellLocationSum;
  const std::uint64_t planted_sum = plant ? paper::kPeakCellLocationSum : 0;
  const std::uint64_t target_other = target_total - planted_sum;

  // Stratified counts from the calibrated quantile function.
  const auto quantile = paper::cell_count_quantile();
  const double mean = quantile.mean();
  auto n_other = static_cast<std::size_t>(
      std::llround(static_cast<double>(target_other) / mean));
  n_other = std::max<std::size_t>(n_other, 1);
  const std::size_t n_planted = plant ? paper::kPlantedPeakCells.size() : 0;
  if (n_other + n_planted > region.size()) {
    throw std::runtime_error(
        "SyntheticGenerator: region too small for requested scale");
  }

  std::vector<std::uint32_t> counts(n_other);
  for (std::size_t i = 0; i < n_other; ++i) {
    const double p =
        (static_cast<double>(i) + 0.5) / static_cast<double>(n_other);
    counts[i] = static_cast<std::uint32_t>(
        std::max<long long>(1, std::llround(quantile(p))));
  }

  // Fix up rounding so the total matches the target exactly. Adjust +-1 per
  // cell round-robin, never pushing a generated cell above the upper anchor
  // (3400) or below 1.
  long long diff = static_cast<long long>(target_other);
  for (std::uint32_t c : counts) diff -= c;
  std::size_t cursor = n_other / 2;
  while (diff != 0 && n_other > 0) {
    auto& c = counts[cursor];
    if (diff > 0 && c < 3400) {
      ++c;
      --diff;
    } else if (diff < 0 && c > 1) {
      --c;
      ++diff;
    }
    cursor = (cursor + 1) % n_other;
  }

  // Geographic assignment. Planted peaks snap to their calibrated targets;
  // the rest fill a seeded shuffle of the region, with heavy cells
  // constrained to the latitude floor.
  std::vector<bool> taken(region.size(), false);
  std::vector<CellDemand> cells;
  cells.reserve(n_other + n_planted);

  if (plant) {
    const auto targets = planted_targets();
    for (std::size_t k = 0; k < targets.size(); ++k) {
      // Nearest unassigned region cell to the target point.
      const std::size_t best =
          nearest_free_cell(grid, region, taken, targets[k], executor);
      if (best == region.size()) {
        throw std::runtime_error("SyntheticGenerator: ran out of cells");
      }
      taken[best] = true;
      cells.push_back(CellDemand{region[best], grid.center_of(region[best]),
                                 paper::kPlantedPeakCells[k], 0});
    }
  }

  const auto order = shuffled_indices(region.size(), config_.seed);
  // Assign heavy generated counts first so latitude-constrained slots are
  // available; then the remainder in shuffle order.
  std::vector<std::size_t> count_order(n_other);
  std::iota(count_order.begin(), count_order.end(), std::size_t{0});
  std::sort(count_order.begin(), count_order.end(),
            [&](std::size_t a, std::size_t b) { return counts[a] > counts[b]; });
  // Two monotone cursors into the shuffle: every entry a cursor has passed
  // is taken or (for the heavy cursor) below the latitude floor, and
  // neither condition is ever undone, so each scan resumes where the last
  // one stopped — O(region) in total, and the same picks as a rescan from
  // the front.
  std::size_t scan = 0;
  std::size_t heavy_scan = 0;
  std::uint64_t heavy_scan_steps = 0;
  for (std::size_t ci : count_order) {
    const bool heavy = counts[ci] > kHeavyCellThreshold;
    std::size_t pick = region.size();
    if (heavy) {
      for (; heavy_scan < order.size(); ++heavy_scan) {
        ++heavy_scan_steps;
        const std::size_t i = order[heavy_scan];
        if (taken[i]) continue;
        if (grid.center_of(region[i]).lat_deg >= kHeavyCellMinLatDeg) {
          pick = i;
          break;
        }
      }
    } else {
      while (scan < order.size() && taken[order[scan]]) ++scan;
      if (scan < order.size()) pick = order[scan];
    }
    if (pick == region.size()) {
      throw std::runtime_error("SyntheticGenerator: ran out of cells");
    }
    taken[pick] = true;
    cells.push_back(
        CellDemand{region[pick], grid.center_of(region[pick]), counts[ci], 0});
  }

  // County-equivalents: group cells by their coarse parent, in sorted parent
  // order for determinism.
  std::map<hex::CellId, std::vector<std::size_t>> by_parent;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    by_parent[grid.parent_of(cells[i].cell, kCountyResolution)]
        .push_back(i);
  }

  struct CountyDraft {
    hex::CellId parent;
    std::uint64_t weight = 0;
    std::uint64_t shuffle_key = 0;
  };
  std::vector<CountyDraft> drafts;
  drafts.reserve(by_parent.size());
  for (const auto& [parent, members] : by_parent) {
    CountyDraft d;
    d.parent = parent;
    for (std::size_t i : members) d.weight += cells[i].underserved;
    d.shuffle_key = stats::mix_seed(config_.seed, parent.bits());
    drafts.push_back(d);
  }
  // Income decorrelated from geography via the hash order; stratified over
  // cumulative location weight so the location-weighted income CDF matches
  // the calibrated quantile function exactly (up to county granularity).
  std::sort(drafts.begin(), drafts.end(),
            [](const CountyDraft& a, const CountyDraft& b) {
              return a.shuffle_key < b.shuffle_key;
            });
  const auto income_q = paper::income_quantile();
  const double total_weight = static_cast<double>(std::accumulate(
      drafts.begin(), drafts.end(), std::uint64_t{0},
      [](std::uint64_t acc, const CountyDraft& d) { return acc + d.weight; }));

  // The smallest county carries the distribution's minimum income exactly:
  // Fig 4's curve endpoints (proportions 0.050 / 0.046) come from the
  // poorest county's $28,800 median, and making it the *smallest* county
  // keeps the mass below $30k under the 0.01% anchor.
  std::size_t poorest = 0;
  for (std::size_t i = 1; i < drafts.size(); ++i) {
    if (drafts[i].weight < drafts[poorest].weight) poorest = i;
  }

  CountyTable counties;
  std::map<hex::CellId, std::uint32_t> county_of_parent;
  double cum = 0.0;
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    const double mid =
        (cum + static_cast<double>(drafts[i].weight) / 2.0) / total_weight;
    cum += static_cast<double>(drafts[i].weight);
    County county;
    county.fips = std::to_string(10000 + i);
    county.fips[0] = '9';
    county.centroid = grid.center_of(drafts[i].parent);
    county.median_income_usd =
        i == poorest ? paper::kMinCountyIncomeUsd : std::round(income_q(mid));
    county.underserved_locations = drafts[i].weight;
    county_of_parent[drafts[i].parent] = counties.add(std::move(county));
  }
  for (auto& cell : cells) {
    cell.county_index = county_of_parent.at(
        grid.parent_of(cell.cell, kCountyResolution));
  }

  if (obs::metrics_enabled()) {
    static obs::Counter& generated =
        obs::registry().counter("demand.cells_generated");
    static obs::Counter& scan_steps =
        obs::registry().counter("demand.generate.scan_steps");
    generated.add(cells.size());
    scan_steps.add(heavy_scan_steps);
  }
  return DemandProfile(std::move(cells), std::move(counties));
}

DemandProfile SyntheticGenerator::generate_profile() const {
  return generate_profile(runtime::global_executor());
}

DemandDataset SyntheticGenerator::expand_locations(
    const DemandProfile& profile, double sample_fraction,
    runtime::Executor& executor) const {
  if (sample_fraction <= 0.0 || sample_fraction > 1.0) {
    throw std::invalid_argument("expand_locations: fraction outside (0, 1]");
  }
  const obs::Span obs_span("demand.expand_locations");
  const hex::HexGrid grid;
  const double circumradius = hex::edge_length_km(hex::kServiceCellResolution);
  const auto& cells = profile.cells();

  // Per-cell location counts and output offsets, so every cell owns a fixed
  // slice of the output and a fixed id range regardless of thread count.
  std::vector<std::uint64_t> offset(cells.size() + 1, 0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    offset[i + 1] = offset[i] + static_cast<std::uint64_t>(std::ceil(
        static_cast<double>(cells[i].underserved) * sample_fraction));
  }
  std::vector<Location> locations(offset.back());

  runtime::parallel_for_each(
      executor, 0, cells.size(),
      // leolint:allow(parallel-capture): offset is read-only here; each cell writes only its own disjoint locations slice
      [this, &cells, &offset, &locations, &grid, circumradius](
          std::size_t ci) {
        const auto& cell = cells[ci];
        // Split RNG stream per cell: draws depend only on (seed, cell
        // index), never on scheduling.
        stats::Pcg32 rng(runtime::split_seed(config_.seed, ci), /*stream=*/2);
        const auto want =
            static_cast<std::uint32_t>(offset[ci + 1] - offset[ci]);
        for (std::uint32_t k = 0; k < want; ++k) {
          // Rejection-sample a point inside the hexagon.
          geo::GeoPoint pos = cell.center;
          for (int attempt = 0; attempt < 16; ++attempt) {
            const double ang = stats::sample_uniform(rng, 0.0, 360.0);
            const double rad =
                circumradius * std::sqrt(rng.next_double());
            const geo::GeoPoint candidate =
                geo::destination(cell.center, ang, rad);
            if (grid.cell_of(candidate, hex::kServiceCellResolution) ==
                cell.cell) {
              pos = candidate;
              break;
            }
          }
          Location loc;
          loc.id = offset[ci] + k + 1;
          loc.position = pos;
          loc.county_index = cell.county_index;
          // Best-offer mix for un(der)served locations: all fail 100/20.
          const double u = rng.next_double();
          if (u < 0.15) {
            loc.technology = Technology::kNone;
            loc.best_offer = {0.0, 0.0};
          } else if (u < 0.50) {
            loc.technology = Technology::kDsl;
            loc.best_offer = {25.0, 3.0};
          } else if (u < 0.75) {
            loc.technology = Technology::kFixedWireless;
            loc.best_offer = {50.0, 10.0};
          } else if (u < 0.85) {
            loc.technology = Technology::kGeoSatellite;
            loc.best_offer = {100.0, 3.0};
          } else {
            loc.technology = Technology::kCable;
            loc.best_offer = {100.0, 10.0};
          }
          locations[offset[ci] + k] = loc;
        }
      });

  if (obs::metrics_enabled()) {
    static obs::Counter& expanded =
        obs::registry().counter("demand.locations_expanded");
    expanded.add(locations.size());
  }
  CountyTable counties(profile.counties().all());
  return DemandDataset(std::move(locations), std::move(counties));
}

DemandDataset SyntheticGenerator::expand_locations(
    const DemandProfile& profile, double sample_fraction) const {
  return expand_locations(profile, sample_fraction,
                          runtime::global_executor());
}

}  // namespace leodivide::demand
