#pragma once
// Synthetic national demand generator. Produces a DemandProfile (and
// optionally a location-level DemandDataset) over real CONUS geography whose
// per-cell count distribution and location-weighted county income
// distribution match every statistic the paper reports (see calibration.hpp
// and DESIGN.md). Generation is deterministic for a given config: location
// synthesis draws from per-cell RNG streams split off the seed with
// SplitMix64 (runtime/rng_split.hpp), so the output is byte-identical for
// every executor thread count.

#include <array>
#include <cstdint>

#include "leodivide/demand/dataset.hpp"
#include "leodivide/hex/hexgrid.hpp"

namespace leodivide::runtime {
class Executor;
}

namespace leodivide::demand {

/// Cells that need the maximum beam count are constrained to latitudes at
/// or above this bound so the calibrated binding cells stay binding.
inline constexpr double kHeavyCellMinLatDeg = 37.0;

/// Generator parameters. Cells are service cells
/// (hex::kServiceCellResolution) grouped into county-equivalents at
/// kCountyResolution; the paper's five >3465-location peak cells are
/// planted whenever the scale leaves room for them.
struct GeneratorConfig {
  std::uint64_t seed = 42;

  /// Overall scale knob: 1.0 reproduces the paper's 4.67M locations;
  /// smaller values generate proportionally smaller datasets for tests.
  double scale = 1.0;
};

/// Deterministic synthetic generator, calibrated to the paper.
class SyntheticGenerator {
 public:
  explicit SyntheticGenerator(GeneratorConfig config = {});

  /// Cell-level profile: per-cell un(der)served counts + county incomes.
  /// Runs the CONUS polyfill and peak-cell placement scans on `executor`;
  /// the profile is byte-identical for every thread count.
  [[nodiscard]] DemandProfile generate_profile(
      runtime::Executor& executor) const;

  /// As above, on the process-global executor (LEODIVIDE_THREADS).
  [[nodiscard]] DemandProfile generate_profile() const;

  /// Expands a profile to individual locations. `sample_fraction` in (0,1]
  /// keeps that fraction of each cell's locations (rounded up), for
  /// memory-bounded tests. Cells are filled in parallel on `executor`, each
  /// from its own split RNG stream into a precomputed slice, so ids,
  /// positions and offers are byte-identical for every thread count.
  [[nodiscard]] DemandDataset expand_locations(const DemandProfile& profile,
                                               double sample_fraction,
                                               runtime::Executor& executor) const;

  /// As above, on the process-global executor.
  [[nodiscard]] DemandDataset expand_locations(
      const DemandProfile& profile, double sample_fraction = 1.0) const;

  [[nodiscard]] const GeneratorConfig& config() const noexcept {
    return config_;
  }

  /// Geographic targets of the five planted peak cells. The first two sit
  /// at the latitudes derived from the paper's Table-2 constants (the
  /// full-service and 20:1 binding cells); see calibration.hpp.
  [[nodiscard]] static std::array<geo::GeoPoint, 5> planted_targets();

 private:
  GeneratorConfig config_;
};

}  // namespace leodivide::demand
