#pragma once
// Content fingerprints for the stage cache: a streaming 64-bit FNV-1a hash
// over every input that determines a stage's output — config struct fields
// (mixed field-by-field, never as raw struct bytes, so padding and ABI
// layout can't leak in), seeds, the library format version, and upstream
// artifact digests. Two runs with equal fingerprints are guaranteed equal
// inputs under the library's determinism contract, so their outputs are
// byte-identical and a cached blob can stand in for recomputation.
//
// Thread counts, wall-clock time and environment never enter a
// fingerprint: a snapshot produced at --threads 8 must hit for a rerun at
// --threads 1.

#include <cstdint>
#include <string>
#include <string_view>

#include "leodivide/snapshot/format.hpp"

namespace leodivide::demand {
struct GeneratorConfig;
struct DeltaOp;
}
namespace leodivide::core {
struct SizingModel;
struct AnalysisConfig;
}
namespace leodivide::sim {
struct SimulationConfig;
}
namespace leodivide::market {
struct OperatorCosts;
struct OperatorConfig;
struct SpectrumSplitConfig;
struct MarketConfig;
}

namespace leodivide::snapshot {

/// Streaming FNV-1a fingerprint. Every mix folds a type tag first, so
/// mix_u64(0) and mix_f64(0.0) — or "ab" + "c" vs "a" + "bc" — never
/// collide structurally.
class Fingerprint {
 public:
  Fingerprint& mix(std::string_view bytes);
  Fingerprint& mix_u64(std::uint64_t v);
  Fingerprint& mix_i64(std::int64_t v) {
    return mix_u64(static_cast<std::uint64_t>(v));
  }
  Fingerprint& mix_f64(double v);
  Fingerprint& mix_bool(bool v) { return mix_u64(v ? 1 : 0); }

  [[nodiscard]] std::uint64_t digest() const noexcept { return h_; }
  /// 16 lowercase hex digits — the blob filename stem under the cache.
  [[nodiscard]] std::string hex() const;

 private:
  Fingerprint& tag(std::uint8_t t);
  std::uint64_t h_ = kFnvOffset;
};

/// Fresh fingerprint seeded with the stage name and the LDSNAP format
/// version — every stage fingerprint starts here, so a format bump
/// invalidates every cached blob at once.
[[nodiscard]] Fingerprint stage_fingerprint(std::string_view stage);

/// Sub-stage fingerprint: a stage fingerprint further scoped by a sub-stage
/// name (e.g. one region of a per-region recompute). Serve/'s incremental
/// engine keys its per-region partials with these so a region's cached
/// artifact can never collide with another region's, or with the parent
/// stage's whole-output blob.
[[nodiscard]] Fingerprint substage_fingerprint(std::string_view stage,
                                               std::string_view substage);

/// Field-by-field config mixers (every field participates; extend these
/// when a config grows a field, or stale cache blobs will hit).
void mix(Fingerprint& fp, const demand::GeneratorConfig& config);
void mix(Fingerprint& fp, const core::SizingModel& model);
void mix(Fingerprint& fp, const core::AnalysisConfig& config);
void mix(Fingerprint& fp, const sim::SimulationConfig& config);
void mix(Fingerprint& fp, const demand::DeltaOp& op);
void mix(Fingerprint& fp, const market::OperatorCosts& costs);
void mix(Fingerprint& fp, const market::OperatorConfig& config);
void mix(Fingerprint& fp, const market::SpectrumSplitConfig& config);
void mix(Fingerprint& fp, const market::MarketConfig& config);

}  // namespace leodivide::snapshot
