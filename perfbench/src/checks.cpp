#include "checks.hpp"

#include <algorithm>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/beamspread.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/hex/hexgrid.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/serve/session.hpp"
#include "leodivide/snapshot/artifacts.hpp"

namespace perfbench {

namespace protocol = leodivide::serve::protocol;
using namespace leodivide;

std::string check_f1(const F1Numbers& got) {
  const auto field = [](const char* name, std::uint64_t want,
                        std::uint64_t have) -> std::string {
    if (want == have) return {};
    return std::string("F1 ") + name + ": expected " + std::to_string(want) +
           ", got " + std::to_string(have);
  };
  for (std::string e :
       {field("total locations", kPaperF1.total_locations, got.total_locations),
        field("peak cell", kPaperF1.peak_cell, got.peak_cell),
        field("locations above 20:1", kPaperF1.above_cap, got.above_cap),
        field("unservable at 20:1", kPaperF1.unservable, got.unservable)}) {
    if (!e.empty()) return e;
  }
  return {};
}

std::string check_same(std::string_view what, std::string_view expected,
                       std::string_view got) {
  if (expected == got) return {};
  const auto diff = std::mismatch(expected.begin(), expected.end(),
                                  got.begin(), got.end());
  return std::string(what) + " differs from the reference at byte " +
         std::to_string(diff.first - expected.begin()) + " (" +
         std::to_string(got.size()) + " vs " +
         std::to_string(expected.size()) + " bytes)";
}

std::string check_handover(const event::EventTrace& trace,
                           const std::vector<sim::EpochCoverage>& epoch_engine) {
  return check_same("event trace sampled on the epoch grid",
                    snapshot::serialize(epoch_engine),
                    snapshot::serialize(event::sample_epochs(trace)));
}

FinalAnswers batch_answers(demand::DemandProfile baseline,
                           const std::vector<demand::DeltaOp>& journal,
                           const FinalQueries& queries) {
  const hex::HexGrid grid;
  demand::DeltaApplier applier(baseline, grid, hex::kServiceCellResolution);
  serve::PlanTable plans;
  for (const demand::DeltaOp& op : journal) {
    if (op.kind == demand::DeltaKind::kSetPlanPrice) {
      plans.set_price(op.plan_name, op.value);
    } else {
      (void)applier.apply(op);
    }
  }
  const demand::DemandProfile& profile = applier.profile();
  const core::SizingModel model{};
  FinalAnswers out;
  for (const auto& [bs, cap] : queries.resize) {
    const core::SizingResult full = core::size_full_service(profile, model, bs);
    const core::SizingResult capped = core::size_with_cap(
        profile, model, bs, cap, runtime::serial_executor());
    out.resize.push_back({full.satellites, full.binding_lat_deg,
                          full.beams_on_binding, full.binding_cell_index,
                          capped.satellites, capped.binding_lat_deg,
                          capped.beams_on_binding, capped.binding_cell_index});
  }
  for (const auto& [bs, os] : queries.served) {
    // The same integer evidence the server reports: cells at or under the
    // per-cell location limit, then the fractions.
    protocol::ServedFractionReply r;
    r.total_cells = profile.cell_count();
    r.total_locations = profile.total_locations();
    const std::uint32_t limit =
        core::max_locations_spread(model.capacity, bs, os);
    for (const demand::CellDemand& cell : profile.cells()) {
      if (cell.underserved <= limit) {
        ++r.served_cells;
        r.served_locations += cell.underserved;
      }
    }
    r.cell_fraction = r.total_cells == 0
                          ? 1.0
                          : static_cast<double>(r.served_cells) /
                                static_cast<double>(r.total_cells);
    r.location_fraction = r.total_locations == 0
                              ? 1.0
                              : static_cast<double>(r.served_locations) /
                                    static_cast<double>(r.total_locations);
    out.served.push_back(r);
  }
  const afford::AffordabilityAnalyzer analyzer(profile);
  for (const std::string& name : queries.plans) {
    const afford::PlanAffordability a =
        analyzer.evaluate(plans.find(name), afford::kAffordabilityThreshold);
    out.afford.push_back({a.plan.name, a.plan.monthly_usd,
                          a.income_required_usd, a.locations_unable,
                          a.fraction_unable});
  }
  return out;
}

std::string check_serve(const demand::DemandProfile& baseline,
                        const std::vector<demand::DeltaOp>& journal,
                        const FinalQueries& queries,
                        const FinalAnswers& socket) {
  FinalAnswers batch;
  try {
    batch = batch_answers(baseline, journal, queries);
  } catch (const std::exception& e) {
    return std::string("journal does not replay: ") + e.what();
  }
  if (socket.resize.size() != batch.resize.size() ||
      socket.served.size() != batch.served.size() ||
      socket.afford.size() != batch.afford.size()) {
    return "the server answered a different number of queries";
  }
  for (std::size_t i = 0; i < batch.resize.size(); ++i) {
    if (!(socket.resize[i] == batch.resize[i])) {
      return "QueryResize #" + std::to_string(i) +
             " differs from the batch library";
    }
  }
  for (std::size_t i = 0; i < batch.served.size(); ++i) {
    if (!(socket.served[i] == batch.served[i])) {
      return "QueryServedFraction #" + std::to_string(i) +
             " differs from the batch library";
    }
  }
  for (std::size_t i = 0; i < batch.afford.size(); ++i) {
    if (!(socket.afford[i] == batch.afford[i])) {
      return "QueryAffordability #" + std::to_string(i) +
             " differs from the batch library";
    }
  }
  return {};
}

}  // namespace perfbench
