#include "leodivide/market/simulation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "leodivide/core/beamspread.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/map_reduce.hpp"

namespace leodivide::market {

void validate(const MarketConfig& config) {
  if (config.operators.empty()) {
    throw std::invalid_argument("MarketConfig: no operators");
  }
  for (std::size_t i = 0; i < config.operators.size(); ++i) {
    validate(config.operators[i]);
    for (std::size_t j = i + 1; j < config.operators.size(); ++j) {
      if (config.operators[i].name == config.operators[j].name) {
        throw std::invalid_argument("MarketConfig: duplicate operator name \"" +
                                    config.operators[i].name + "\"");
      }
    }
  }
  validate(config.split);
  if (!std::isfinite(config.beamspread) || config.beamspread < 1.0) {
    throw std::invalid_argument("MarketConfig: beamspread must be >= 1");
  }
  if (!std::isfinite(config.oversub_cap) || config.oversub_cap <= 0.0) {
    throw std::invalid_argument("MarketConfig: oversub_cap must be > 0");
  }
}

namespace {

/// Per-(operator, priority-zone) capacity state. Absent when the split
/// leaves the operator no spectrum in that zone.
struct ZoneModel {
  core::SizingModel model;
  std::uint32_t cap_locs = 0;      ///< per-cell cap at oversub_cap
  std::uint32_t served_limit = 0;  ///< Figure-2 served criterion limit
};

using ZoneModels = std::vector<std::optional<ZoneModel>>;

bool is_one(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v) == std::bit_cast<std::uint64_t>(1.0);
}

ZoneModels zone_models(const OperatorConfig& op, const SpectrumSplit& split,
                       std::size_t index, double beamspread,
                       double oversub_cap) {
  ZoneModels zones(split.operator_count());
  for (std::size_t p = 0; p < split.operator_count(); ++p) {
    const double share = split.share(index, p);
    if (share <= 0.0) continue;
    ZoneModel zone;
    zone.model = op.sizing_model(share);
    zone.cap_locs = zone.model.capacity.max_locations_at(oversub_cap);
    zone.served_limit =
        core::max_locations_spread(zone.model.capacity, beamspread,
                                   oversub_cap);
    zones[p] = std::move(zone);
  }
  return zones;
}

/// core::size_with_cap generalized to a per-cell (zone) capacity model.
/// Mirrors its shard algebra, grain and tie-breaks exactly, so a uniform
/// full share reproduces the core result bit-for-bit.
core::SizingResult scaled_size_with_cap(const demand::DemandProfile& profile,
                                        const ZoneModels& zones,
                                        const SpectrumSplit& split,
                                        double beamspread, double oversub_cap,
                                        runtime::Executor& executor) {
  struct Shard {
    core::SizingResult best;
    bool found = false;
  };
  const Shard reduced = runtime::map_reduce<Shard>(
      executor, 0, profile.cell_count(),
      [&profile, &zones, &split, beamspread, oversub_cap](
          Shard& shard, std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
          const auto& cell = profile.cells()[i];
          const auto& zone =
              zones[split.priority_operator(cell.center.lat_deg)];
          if (!zone) continue;  // no spectrum here: the cell cannot bind
          const std::uint32_t served =
              std::min(cell.underserved, zone->cap_locs);
          const std::uint32_t beams =
              zone->model.capacity.beams_needed(served, oversub_cap);
          if (beams < 2) continue;  // demand-driven binding needs >= 2 beams
          const double sats = core::satellites_for_binding_cell(
              zone->model, cell.center.lat_deg, beamspread, beams);
          if (!shard.found || sats > shard.best.satellites) {
            shard.found = true;
            shard.best.satellites = sats;
            shard.best.binding_lat_deg = cell.center.lat_deg;
            shard.best.beams_on_binding = beams;
            shard.best.binding_cell_index = i;
          }
        }
      },
      [](Shard& into, Shard&& from) {
        if (from.found &&
            (!into.found || from.best.satellites > into.best.satellites)) {
          into = from;
        }
      },
      /*grain=*/1024);
  if (reduced.found) return reduced.best;
  // No cell needs more than one beam: the largest cell with any usable
  // spectrum binds with a single beam (core's fallback, zone-aware).
  for (std::size_t i : profile.cells_by_count_desc()) {
    const auto& cell = profile.cells()[i];
    const auto& zone = zones[split.priority_operator(cell.center.lat_deg)];
    if (!zone) continue;
    core::SizingResult best;
    best.binding_cell_index = i;
    best.binding_lat_deg = cell.center.lat_deg;
    best.beams_on_binding = 1;
    best.satellites = core::satellites_for_binding_cell(
        zone->model, best.binding_lat_deg, beamspread, 1);
    return best;
  }
  throw std::invalid_argument(
      "market: operator has no usable spectrum over the profile");
}

OperatorOutcome run_operator(const demand::DemandProfile& profile,
                             const afford::AffordabilityAnalyzer& analyzer,
                             const SpectrumSplit& split,
                             const MarketConfig& config,
                             const ZoneModels& zones, std::size_t index,
                             runtime::Executor& inner) {
  const OperatorConfig& op = config.operators[index];
  OperatorOutcome out;
  out.name = op.name;
  out.economic_share = split.economic_share(index);
  const core::SizingModel model = op.sizing_model();
  out.full = core::size_full_service(profile, model, config.beamspread);
  if (split.uniform(index) && is_one(split.share(index, 0))) {
    // Full spectrum everywhere: delegate to the single-operator pipeline —
    // this is the strict-generalization guarantee the golden tests pin.
    out.capped = core::size_with_cap(profile, model, config.beamspread,
                                     config.oversub_cap, inner);
  } else {
    out.capped = scaled_size_with_cap(profile, zones, split, config.beamspread,
                                      config.oversub_cap, inner);
  }
  // Served fractions, mirroring core::served_cell_fraction /
  // served_location_fraction with the per-zone limit.
  {
    std::size_t served_cells = 0;
    std::uint64_t served_locations = 0;
    for (const auto& cell : profile.cells()) {
      const auto& zone = zones[split.priority_operator(cell.center.lat_deg)];
      const std::uint32_t limit = zone ? zone->served_limit : 0;
      if (cell.underserved <= limit) {
        ++served_cells;
        served_locations += cell.underserved;
      }
    }
    out.served_cell_fraction = static_cast<double>(served_cells) /
                               static_cast<double>(profile.cell_count());
    const std::uint64_t total = profile.total_locations();
    out.served_location_fraction =
        total == 0 ? 1.0
                   : static_cast<double>(served_locations) /
                         static_cast<double>(total);
  }
  const core::SizingModel econ = op.sizing_model(out.economic_share);
  out.longtail = core::longtail_curve(profile, econ, config.beamspread,
                                      config.oversub_cap);
  // $/location-year curve, fewest served first (core::longtail_economics
  // order) with the operator's own capex/opex decomposition.
  std::vector<core::LongTailPoint> ordered = out.longtail;
  std::sort(ordered.begin(), ordered.end(),
            [](const core::LongTailPoint& a, const core::LongTailPoint& b) {
              return a.locations_unserved > b.locations_unserved;
            });
  const std::uint64_t total = profile.total_locations();
  out.cost_curve.reserve(ordered.size());
  for (const core::LongTailPoint& p : ordered) {
    MarketCostPoint c;
    c.locations_unserved = p.locations_unserved;
    c.satellites = p.satellites;
    c.annual_cost_usd = op.costs.annual_cost_usd(p.satellites);
    c.locations_served = total > p.locations_unserved
                             ? total - p.locations_unserved
                             : 0;
    c.cost_per_location_year_usd =
        c.locations_served == 0
            ? 0.0
            : c.annual_cost_usd / static_cast<double>(c.locations_served);
    out.cost_curve.push_back(c);
  }
  out.affordability = analyzer.evaluate(op.plan);
  return out;
}

FairnessReport compute_fairness(const demand::DemandProfile& profile,
                                const std::vector<ZoneModels>& zones,
                                const std::vector<std::uint32_t>& full_limits,
                                const SpectrumSplit& split,
                                runtime::Executor& executor) {
  const std::size_t n = split.operator_count();
  struct Shard {
    std::vector<std::int32_t> winner;  // ordered concat across shards
    std::vector<OperatorFairness> ops;
    std::uint64_t unserved_cells = 0;
    std::uint64_t unserved_locations = 0;
    std::uint64_t capacity_limited = 0;
    std::uint64_t split_limited = 0;
  };
  Shard reduced = runtime::map_reduce<Shard>(
      executor, 0, profile.cell_count(),
      [&profile, &zones, &full_limits, &split, n](
          Shard& shard, std::size_t lo, std::size_t hi, std::size_t) {
        if (shard.ops.size() != n) shard.ops.assign(n, OperatorFairness{});
        for (std::size_t i = lo; i < hi; ++i) {
          const auto& cell = profile.cells()[i];
          const std::size_t p = split.priority_operator(cell.center.lat_deg);
          std::int32_t win = -1;
          std::uint32_t win_limit = 0;
          for (std::size_t o = 0; o < n; ++o) {
            const auto& zone = zones[o][p];
            const std::uint32_t limit = zone ? zone->served_limit : 0;
            if (cell.underserved > limit) continue;
            ++shard.ops[o].cells_served;
            shard.ops[o].locations_served += cell.underserved;
            // Winner: most capacity headroom; earliest index on exact ties.
            if (win < 0 || limit > win_limit) {
              win = static_cast<std::int32_t>(o);
              win_limit = limit;
            }
          }
          shard.winner.push_back(win);
          if (win >= 0) {
            ++shard.ops[static_cast<std::size_t>(win)].cells_won;
          } else {
            ++shard.unserved_cells;
            shard.unserved_locations += cell.underserved;
            bool full_spectrum_could = false;
            for (std::size_t o = 0; o < n; ++o) {
              if (cell.underserved <= full_limits[o]) {
                full_spectrum_could = true;
                break;
              }
            }
            if (full_spectrum_could) {
              ++shard.split_limited;
            } else {
              ++shard.capacity_limited;
            }
          }
        }
      },
      [n](Shard& into, Shard&& from) {
        if (into.ops.size() != n) into.ops.assign(n, OperatorFairness{});
        if (from.ops.size() != n) from.ops.assign(n, OperatorFairness{});
        into.winner.insert(into.winner.end(), from.winner.begin(),
                           from.winner.end());
        for (std::size_t o = 0; o < n; ++o) {
          into.ops[o].cells_won += from.ops[o].cells_won;
          into.ops[o].cells_served += from.ops[o].cells_served;
          into.ops[o].locations_served += from.ops[o].locations_served;
        }
        into.unserved_cells += from.unserved_cells;
        into.unserved_locations += from.unserved_locations;
        into.capacity_limited += from.capacity_limited;
        into.split_limited += from.split_limited;
      },
      /*grain=*/1024);
  if (reduced.ops.size() != n) reduced.ops.assign(n, OperatorFairness{});
  FairnessReport report;
  report.winner = std::move(reduced.winner);
  report.operators = std::move(reduced.ops);
  std::vector<double> served;
  served.reserve(n);
  for (const OperatorFairness& f : report.operators) {
    served.push_back(static_cast<double>(f.locations_served));
  }
  report.jain_served_locations = jain_index(served);
  report.unserved_cells = reduced.unserved_cells;
  report.unserved_locations = reduced.unserved_locations;
  report.capacity_limited_cells = reduced.capacity_limited;
  report.split_limited_cells = reduced.split_limited;
  return report;
}

}  // namespace

MarketSimulation::MarketSimulation(MarketConfig config)
    : config_(std::move(config)) {
  validate(config_);
}

MarketReport MarketSimulation::run(const demand::DemandProfile& profile,
                                   runtime::Executor& executor) const {
  if (profile.cell_count() == 0) {
    throw std::invalid_argument("MarketSimulation: empty profile");
  }
  const obs::Span span("market.run");
  const std::size_t n = config_.operators.size();
  const SpectrumSplit split(config_.operators, config_.split);
  const afford::AffordabilityAnalyzer analyzer(profile);
  const std::vector<ZoneModels> zones = [&] {
    std::vector<ZoneModels> out;
    out.reserve(n);
    for (std::size_t o = 0; o < n; ++o) {
      out.push_back(zone_models(config_.operators[o], split, o,
                                config_.beamspread, config_.oversub_cap));
    }
    return out;
  }();
  const std::vector<std::uint32_t> full_limits = [&] {
    std::vector<std::uint32_t> out;
    out.reserve(n);
    for (const OperatorConfig& op : config_.operators) {
      out.push_back(core::max_locations_spread(op.sizing_model().capacity,
                                               config_.beamspread,
                                               config_.oversub_cap));
    }
    return out;
  }();
  MarketReport report;
  report.policy = config_.split.policy;
  report.beamspread = config_.beamspread;
  report.oversub_cap = config_.oversub_cap;
  report.operators.resize(n);
  // Operators are independent of each other *and* of the fairness report —
  // fairness depends only on the zone models, limits and split, never on
  // operator outcomes — so all n + 1 units run as one batch: task i < n
  // evaluates operator i and task n the fairness pass, which on a pool
  // overlaps the operator pipelines instead of barriering behind them. Each
  // task runs its inner loops serially and writes only its own slot, so the
  // report lands in config order byte-identically at every thread count
  // (golden-tested), and a failure rethrows the lowest-indexed task's error.
  executor.run_tasks(
      n + 1,
      // leolint:allow(parallel-capture): task i < n writes only report.operators[i], task n only report.fairness
      [this, &report, &profile, &analyzer, &split, &zones, &full_limits,
       n](std::size_t i) {
        if (i < n) {
          const obs::Span task_span("market.operator");
          report.operators[i] =
              run_operator(profile, analyzer, split, config_, zones[i], i,
                           runtime::serial_executor());
        } else {
          const obs::Span task_span("market.fairness");
          report.fairness = compute_fairness(profile, zones, full_limits,
                                             split,
                                             runtime::serial_executor());
        }
      });
  return report;
}

MarketReport MarketSimulation::run(const demand::DemandProfile& profile) const {
  return run(profile, runtime::global_executor());
}

}  // namespace leodivide::market
