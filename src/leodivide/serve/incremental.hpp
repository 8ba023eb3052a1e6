#pragma once
// The incremental-recompute engine behind the analysis service. The
// baseline demand profile is partitioned into *regions* — coarse hex cells
// (region_resolution) covering the service cells — and every query is a
// deterministic merge of per-region partial results:
//
//   resize          per-region core::BindingFold candidates
//   served fraction per-region core::ServedTally integer sums
//   peak cell       per-region core::PeakFold maxima
//
// Each region carries a content digest (a snapshot::Fingerprint over its
// member cells). A partial is valid only while its recorded digest matches
// the region's current digest, so ApplyDelta just updates the one dirtied
// region's digest and O(dirty) partials recompute at the next query while
// every untouched region is served from its cached partial. With a
// StageCache attached, partials also spill to disk as kServePartial blobs
// keyed by sub-stage fingerprints (substage_fingerprint), so a restarted
// server warm-starts from the cache.
//
// Determinism contract: every answer is byte-identical to the plain
// library call (core::size_full_service / size_with_cap /
// served_*_fraction, afford::AffordabilityAnalyzer) on the mutated
// profile, at every thread count. Each partial is a core fold stepped over
// the region's members, and each answer merges the regions' folds and
// applies core's rule: the binding fold and its single-beam fallback, the
// peak fold, the served tally and its divisions. Those folds give the same
// result for any partition of the cells, so the regions' interleaved
// partitions answer as the library's serial scan does.
// --paranoid mode re-runs the full computation on every query and throws
// ParanoiaError on any bit difference.

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/delta.hpp"
#include "leodivide/hex/hexgrid.hpp"
#include "leodivide/snapshot/cache.hpp"

namespace leodivide::serve {

/// Region granularity. Aperture-4 ladder: resolution 2 puts ~64 service
/// cells (hex::kServiceCellResolution) in one region — small enough that a
/// delta dirties little, large enough that per-region bookkeeping stays
/// cheap.
inline constexpr int kRegionResolution = 2;

/// Engine settings plus the sizing model every query evaluates.
struct EngineConfig {
  bool paranoid = false;  ///< cross-check every answer against full recompute
  core::SizingModel model;
};

/// A paranoid-mode cross-check failed: an incremental answer differed from
/// the full recompute at the bit level. This is always an engine bug.
class ParanoiaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Counters since engine construction.
struct EngineStats {
  std::uint64_t deltas_applied = 0;
  std::uint64_t dirty_regions = 0;      ///< cumulative regions dirtied
  std::uint64_t region_recomputes = 0;  ///< partials actually recomputed
  std::uint64_t partial_hits = 0;       ///< partials served from memory
  std::uint64_t partial_misses = 0;
  std::uint64_t paranoid_checks = 0;
  std::uint64_t cells = 0;    ///< current profile cell count
  std::uint64_t regions = 0;  ///< current region count
};

/// What one applied delta touched.
struct ApplyOutcome {
  demand::DeltaEffect effect;
  std::size_t region = 0;     ///< dirtied region (when effect.cells_changed)
  bool region_added = false;  ///< the op created a brand-new region
};

/// Resize answer: both deployment options of F1.
struct ResizeAnswer {
  core::SizingResult full;    ///< full service (unbounded oversubscription)
  core::SizingResult capped;  ///< capped at the requested oversubscription

  friend bool operator==(const ResizeAnswer&, const ResizeAnswer&) = default;
};

/// Served-fraction answer with the integer evidence behind the ratios.
struct ServedFractionAnswer {
  double cell_fraction = 0.0;
  double location_fraction = 0.0;
  std::uint64_t served_cells = 0;
  std::uint64_t total_cells = 0;
  std::uint64_t served_locations = 0;
  std::uint64_t total_locations = 0;

  friend bool operator==(const ServedFractionAnswer&,
                         const ServedFractionAnswer&) = default;
};

/// The engine. NOT thread-safe: the serving layer serializes access (one
/// mutation or query at a time) under its own lock. Non-copyable and
/// non-movable — the internal DeltaApplier borrows the owned profile.
class IncrementalEngine {
 public:
  /// Takes ownership of the baseline profile. `cache` (optional, borrowed,
  /// may be nullptr; must outlive the engine) persists per-region partials
  /// across restarts. Stores are synchronous, so a partial is on disk once
  /// the query that computed it returns.
  IncrementalEngine(demand::DemandProfile baseline, EngineConfig config,
                    snapshot::StageCache* cache = nullptr);

  IncrementalEngine(const IncrementalEngine&) = delete;
  IncrementalEngine& operator=(const IncrementalEngine&) = delete;

  /// Applies one delta (kSetPlanPrice is rejected here — plan prices live
  /// in the serving layer's plan table). Throws std::invalid_argument on
  /// invalid ops; the profile is unchanged when apply throws.
  ApplyOutcome apply(const demand::DeltaOp& op);

  /// Byte-identical to core::size_full_service + core::size_with_cap on
  /// the current profile. Throws std::invalid_argument on an empty profile.
  [[nodiscard]] ResizeAnswer query_resize(double beamspread,
                                          double oversub_cap);

  /// Byte-identical to core::served_cell_fraction +
  /// core::served_location_fraction on the current profile.
  [[nodiscard]] ServedFractionAnswer query_served_fraction(double beamspread,
                                                           double oversub);

  /// Byte-identical to afford::AffordabilityAnalyzer(profile).evaluate on
  /// the current profile (the analyzer is rebuilt only when the county
  /// table actually changed). Throws std::invalid_argument when no county
  /// has un(der)served locations.
  [[nodiscard]] afford::PlanAffordability query_affordability(
      const afford::ServicePlan& plan, double threshold);

  [[nodiscard]] const demand::DemandProfile& profile() const noexcept {
    return applier_.profile();
  }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t region_count() const noexcept {
    return regions_.size();
  }
  [[nodiscard]] EngineStats stats() const noexcept;

 private:
  struct Region {
    std::vector<std::size_t> members;  ///< cell indices, ascending
    std::uint64_t digest = 0;          ///< content fingerprint of members
  };

  // A per-region fold. `digest` records the region content it was
  // computed against; a partial is live only while it matches.
  template <typename Fold>
  struct Partial {
    bool valid = false;
    std::uint64_t digest = 0;
    Fold fold;
  };
  using SizingPartials = std::vector<Partial<core::BindingFold>>;
  using PeakPartials = std::vector<Partial<core::PeakFold>>;
  using ServedPartials = std::vector<Partial<core::ServedTally>>;

  using SizeKey = std::pair<std::uint64_t, std::uint64_t>;  // bit patterns
  using AffordKey = std::tuple<std::string, std::uint64_t, std::uint64_t,
                               std::uint64_t, std::uint64_t>;

  /// Region of a cell id, creating the region if new (returns its index).
  std::size_t region_of(hex::CellId cell);
  void refresh_region_digest(std::size_t region);
  [[nodiscard]] std::uint64_t region_content_digest(
      const Region& region) const;

  /// Region `region`'s fold in `memo`: from memory while its digest
  /// matches, else restored from the `stage` disk spill or recomputed by
  /// `step(fold, cell, index)` over the members. `mix_params(fp)` adds the
  /// query parameters to the sub-stage fingerprint.
  template <typename Fold, typename MixParams, typename Step>
  const Fold& region_partial(std::vector<Partial<Fold>>& memo,
                             std::size_t region, std::string_view stage,
                             const MixParams& mix_params, const Step& step);

  /// Index of the global peak cell (core::peak_cell_index).
  [[nodiscard]] std::size_t merged_peak_index();

  void rebuild_analyzer_if_stale();

  void paranoid_check_resize(double beamspread, double oversub_cap,
                             const ResizeAnswer& answer);
  void paranoid_check_served(double beamspread, double oversub,
                             const ServedFractionAnswer& answer);
  void paranoid_check_affordability(const afford::ServicePlan& plan,
                                    double threshold,
                                    const afford::PlanAffordability& answer);

  EngineConfig config_;
  hex::HexGrid grid_;
  demand::DemandProfile profile_;
  demand::DeltaApplier applier_;  // borrows profile_ and grid_
  snapshot::StageCache* cache_;

  std::vector<Region> regions_;
  std::vector<std::size_t> cell_region_;  ///< cell index -> region index
  // Region-parent cell bits -> region index. Lookups only; nothing ever
  // iterates it, so the map's order can't leak into results.
  std::unordered_map<std::uint64_t, std::size_t> region_index_;

  std::uint64_t total_locations_ = 0;

  std::map<SizeKey, SizingPartials> sizing_memo_;
  PeakPartials peak_memo_;
  std::map<std::uint32_t, ServedPartials> served_memo_;

  std::optional<afford::AffordabilityAnalyzer> analyzer_;
  std::uint64_t analyzer_digest_ = 0;
  bool county_digest_valid_ = false;
  std::uint64_t county_digest_ = 0;
  std::map<AffordKey, afford::PlanAffordability> afford_memo_;

  EngineStats stats_;
};

}  // namespace leodivide::serve
