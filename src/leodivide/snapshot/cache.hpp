#pragma once
// Content-addressed stage cache: skips recomputation of a pipeline stage
// when a snapshot of its output already exists for the exact inputs.
//
// A blob lives at <dir>/<stage>/<fingerprint-hex>.ldsnap, where the
// fingerprint hashes everything the stage's output depends on (config
// fields, seeds, upstream artifact digests, the LDSNAP format version —
// see fingerprint.hpp). Lookups are pure functions of the fingerprint, so
// hit/miss behaviour is identical at every thread count; nothing
// schedule-dependent ever enters a cache key.
//
// A corrupted or truncated blob is never trusted: deserialization failures
// (SnapshotError) count as a miss, the stage recomputes, and the fresh
// blob atomically replaces the bad one. Stores go through
// io::write_text_file (write-temp-then-rename), so a crashed writer can't
// leave a half-written blob behind for the next run to trip over.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "leodivide/snapshot/fingerprint.hpp"
#include "leodivide/snapshot/format.hpp"

namespace leodivide::snapshot {

class StageCache {
 public:
  /// Binds the cache to `dir` (created, with parents, if absent). Throws
  /// std::runtime_error when the directory cannot be created.
  explicit StageCache(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Path of the blob for (stage, fingerprint).
  [[nodiscard]] std::string blob_path(std::string_view stage,
                                      const Fingerprint& fp) const;

  /// Raw blob bytes if present, std::nullopt on a miss. Counts the
  /// hit/miss and records load bytes + latency in obs.
  [[nodiscard]] std::optional<std::string> load(std::string_view stage,
                                                const Fingerprint& fp) const;

  /// Atomically stores a blob for (stage, fingerprint). A cache directory
  /// that exists but cannot be written (read-only mount, a stray file where
  /// the stage directory should be) degrades to recompute-without-store:
  /// the first failure prints one warning to stderr and disables further
  /// stores for this cache; it never throws. This matches the corrupt-blob
  /// philosophy — a broken cache costs recomputation, never the run.
  void store(std::string_view stage, const Fingerprint& fp,
             std::string_view blob) const;

  /// The cache's core operation: returns the deserialized cached artifact
  /// when a valid blob exists, otherwise runs `compute`, stores
  /// `serialize(result)` and returns the result. A blob that fails to
  /// deserialize (SnapshotError) is treated as a miss and overwritten.
  ///
  /// `compute()` -> T, `serialize(const T&)` -> std::string,
  /// `deserialize(std::string_view)` -> T.
  template <typename Compute, typename Serialize, typename Deserialize>
  auto get_or_compute(std::string_view stage, const Fingerprint& fp,
                      Compute&& compute, Serialize&& serialize,
                      Deserialize&& deserialize) -> decltype(compute()) {
    if (std::optional<std::string> blob = load(stage, fp)) {
      try {
        return deserialize(std::string_view(*blob));
      } catch (const SnapshotError&) {
        // Invalid blob: fall through to recompute; the store below
        // replaces it.
        note_bad_blob();
      }
    }
    auto result = compute();
    store(stage, fp, serialize(result));
    return result;
  }

  /// Validated hits / misses since construction. A blob that existed but
  /// failed deserialization counts as a miss, not a hit.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Stores that failed (and were swallowed) since construction. Nonzero
  /// means the cache has degraded to recompute-without-store.
  [[nodiscard]] std::uint64_t store_failures() const noexcept {
    return store_failures_.load(std::memory_order_relaxed);
  }

 private:
  /// Reclassifies the last load() hit as a miss (blob failed validation).
  void note_bad_blob() const noexcept;

  std::string dir_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> store_failures_{0};
  mutable std::atomic<bool> store_disabled_{false};
};

/// Process-global cache, for CLI/env wiring.
///
/// The first global_cache() call initialises it from the
/// LEODIVIDE_SNAPSHOT_DIR environment variable (unset or empty = caching
/// off); set_global_dir() overrides that — an empty dir disables caching.
/// Returns nullptr when caching is off.
[[nodiscard]] StageCache* global_cache();
void set_global_dir(std::string dir);

/// Consumes `--snapshot-dir <dir>` / `--snapshot-dir=<dir>` at argv[i]
/// (advancing i past a separate value argument) and routes it to
/// set_global_dir. Returns false when argv[i] is not a snapshot flag.
/// Throws std::runtime_error when the flag is present but the value is
/// missing.
bool parse_cli_arg(int argc, char** argv, int& i);

}  // namespace leodivide::snapshot
