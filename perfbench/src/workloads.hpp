#pragma once
// The benchmark's workloads. BENCHMARK.json says why each exists;
// perfbench/workloads.json says which end-to-end metric each per-layer
// metric should move on it.

#include <array>
#include <memory>
#include <string_view>

#include "harness.hpp"

namespace perfbench {

inline constexpr std::array<std::string_view, 2> kWorkloads = {"batch",
                                                               "serve"};

/// The batch workload's parts, run in this order by one unit (see
/// make_sequence): the national_analysis pipeline without a cache
/// (national_cold, warm = false) and restored from one (national_warm,
/// warm = true), the spectrum-split market, the epoch engine's coverage run
/// and the event engine's handover run.
[[nodiscard]] std::unique_ptr<BatchWorkload> make_national(const Options& o,
                                                           bool warm);
[[nodiscard]] std::unique_ptr<BatchWorkload> make_market(const Options& o);
[[nodiscard]] std::unique_ptr<BatchWorkload> make_coverage(const Options& o);
[[nodiscard]] std::unique_ptr<BatchWorkload> make_handover(const Options& o);

/// The serve workload: a loopback server and closed-loop clients; a unit is
/// one block of requests on one connection.
[[nodiscard]] Measurement run_serve(const Options& o);

}  // namespace perfbench
