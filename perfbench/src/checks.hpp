#pragma once
// Output checks. A unit whose output fails one counts as failed, not as a
// fast sample. Each check returns an empty string when the output is right,
// otherwise a one-line description of what is wrong.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "leodivide/demand/dataset.hpp"
#include "leodivide/demand/delta.hpp"
#include "leodivide/event/trace.hpp"
#include "leodivide/serve/protocol.hpp"
#include "leodivide/sim/coverage.hpp"

namespace perfbench {

/// The F1 headline numbers of a national run.
struct F1Numbers {
  std::uint64_t total_locations = 0;
  std::uint32_t peak_cell = 0;
  std::uint64_t above_cap = 0;
  std::uint64_t unservable = 0;
};

/// EXPERIMENTS.md F1 at the generator's default seed.
inline constexpr std::uint64_t kPaperSeed = 42;
inline constexpr F1Numbers kPaperF1{4'672'500, 5'998, 22'428, 5'103};

[[nodiscard]] std::string check_f1(const F1Numbers& got);

/// Byte identity; names the first differing offset.
[[nodiscard]] std::string check_same(std::string_view what,
                                     std::string_view expected,
                                     std::string_view got);

/// The event trace projected onto the epoch grid equals the epoch engine's
/// trace on the same configuration.
[[nodiscard]] std::string check_handover(
    const leodivide::event::EventTrace& trace,
    const std::vector<leodivide::sim::EpochCoverage>& epoch_engine);

/// The serve workload's closing query set.
struct FinalQueries {
  std::vector<std::pair<double, double>> resize;  ///< (beamspread, cap)
  std::vector<std::pair<double, double>> served;  ///< (beamspread, oversub)
  std::vector<std::string> plans;                 ///< default threshold
};

struct FinalAnswers {
  std::vector<leodivide::serve::protocol::ResizeReply> resize;
  std::vector<leodivide::serve::protocol::ServedFractionReply> served;
  std::vector<leodivide::serve::protocol::AffordabilityReply> afford;
};

/// Answers `queries` with the batch library on `baseline` after replaying
/// `journal` through leodivide::demand::DeltaApplier (plan-price ops go to a plan
/// table, as the server applies them).
[[nodiscard]] FinalAnswers batch_answers(leodivide::demand::DemandProfile baseline,
                                         const std::vector<leodivide::demand::DeltaOp>& journal,
                                         const FinalQueries& queries);

/// The answers a server gave over the socket equal the batch library's on
/// the profile rebuilt from its journal.
[[nodiscard]] std::string check_serve(
    const leodivide::demand::DemandProfile& baseline,
    const std::vector<leodivide::demand::DeltaOp>& journal, const FinalQueries& queries,
    const FinalAnswers& socket);

}  // namespace perfbench
