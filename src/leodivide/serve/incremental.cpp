#include "leodivide/serve/incremental.hpp"

#include <bit>
#include <string>
#include <string_view>

#include "leodivide/core/beamspread.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/snapshot/format.hpp"

namespace leodivide::serve {

namespace {

[[nodiscard]] std::uint64_t bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

// kServePartial blob codecs for the disk spill, one section per fold. The
// in-memory bookkeeping fields (valid, digest) are deliberately not stored:
// the blob's identity IS the sub-stage fingerprint, which already binds the
// region content.

std::string partial_blob(std::string name, snapshot::ByteWriter&& w) {
  snapshot::SnapshotWriter sw(snapshot::ArtifactKind::kServePartial);
  sw.add_section(std::move(name), std::move(w).take());
  return std::move(sw).finish();
}

snapshot::ByteReader partial_section(std::string_view file,
                                     std::string_view name) {
  const snapshot::SnapshotReader reader = snapshot::SnapshotReader::parse(file);
  if (reader.kind() != snapshot::ArtifactKind::kServePartial) {
    throw snapshot::SnapshotError("LDSNAP: expected a serve_partial snapshot");
  }
  return snapshot::ByteReader(reader.section(name));
}

std::string serialize_partial(const core::BindingFold& fold) {
  snapshot::ByteWriter w;
  w.u8(fold.found ? 1 : 0);
  w.f64(fold.best.satellites);
  w.f64(fold.best.binding_lat_deg);
  w.u32(fold.best.beams_on_binding);
  w.u64(fold.best.binding_cell_index);
  return partial_blob("sizing", std::move(w));
}

void deserialize_partial(std::string_view file, core::BindingFold& fold) {
  snapshot::ByteReader r = partial_section(file, "sizing");
  fold.found = r.u8() != 0;
  fold.best.satellites = r.f64();
  fold.best.binding_lat_deg = r.f64();
  fold.best.beams_on_binding = r.u32();
  fold.best.binding_cell_index = static_cast<std::size_t>(r.u64());
  r.expect_exhausted("serve_partial sizing section");
}

std::string serialize_partial(const core::PeakFold& fold) {
  snapshot::ByteWriter w;
  w.u32(fold.count);
  w.u64(fold.cell_bits);
  w.u64(fold.index);
  return partial_blob("peak", std::move(w));
}

void deserialize_partial(std::string_view file, core::PeakFold& fold) {
  snapshot::ByteReader r = partial_section(file, "peak");
  fold.count = r.u32();
  fold.cell_bits = r.u64();
  fold.index = static_cast<std::size_t>(r.u64());
  fold.found = true;  // regions are never empty
  r.expect_exhausted("serve_partial peak section");
}

std::string serialize_partial(const core::ServedTally& tally) {
  snapshot::ByteWriter w;
  w.u64(tally.served_cells);
  w.u64(tally.served_locations);
  return partial_blob("served", std::move(w));
}

void deserialize_partial(std::string_view file, core::ServedTally& tally) {
  snapshot::ByteReader r = partial_section(file, "served");
  tally.served_cells = r.u64();
  tally.served_locations = r.u64();
  r.expect_exhausted("serve_partial served section");
}

void count_metric(const char* name, std::uint64_t n = 1) {
  if (!obs::metrics_enabled()) return;
  obs::registry().counter(name).add(n);
}

}  // namespace

IncrementalEngine::IncrementalEngine(demand::DemandProfile baseline,
                                     EngineConfig config,
                                     snapshot::StageCache* cache)
    : config_(config),
      grid_(),
      profile_(std::move(baseline)),
      applier_(profile_, grid_, hex::kServiceCellResolution),
      cache_(cache) {
  const auto& cells = profile_.cells();
  cell_region_.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t region = region_of(cells[i].cell);
    regions_[region].members.push_back(i);
    cell_region_.push_back(region);
  }
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    regions_[r].digest = region_content_digest(regions_[r]);
  }
  total_locations_ = profile_.total_locations();
}

std::size_t IncrementalEngine::region_of(hex::CellId cell) {
  const hex::CellId parent = grid_.parent_of(cell, kRegionResolution);
  const auto [it, inserted] =
      region_index_.emplace(parent.bits(), regions_.size());
  if (inserted) regions_.emplace_back();
  return it->second;
}

std::uint64_t IncrementalEngine::region_content_digest(
    const Region& region) const {
  snapshot::Fingerprint fp =
      snapshot::substage_fingerprint("serve.region", "content");
  const auto& cells = profile_.cells();
  for (std::size_t i : region.members) {
    const demand::CellDemand& c = cells[i];
    fp.mix_u64(i)
        .mix_u64(c.cell.bits())
        .mix_f64(c.center.lat_deg)
        .mix_f64(c.center.lon_deg)
        .mix_u64(c.underserved)
        .mix_u64(c.county_index);
  }
  return fp.digest();
}

void IncrementalEngine::refresh_region_digest(std::size_t region) {
  regions_[region].digest = region_content_digest(regions_[region]);
}

ApplyOutcome IncrementalEngine::apply(const demand::DeltaOp& op) {
  ApplyOutcome out;
  out.effect = applier_.apply(op);
  ++stats_.deltas_applied;
  count_metric("serve.deltas");
  if (out.effect.cells_changed) {
    if (out.effect.cell_added) {
      const std::size_t before = regions_.size();
      const std::size_t region =
          region_of(profile_.cells()[out.effect.cell_index].cell);
      out.region_added = regions_.size() != before;
      regions_[region].members.push_back(out.effect.cell_index);
      cell_region_.push_back(region);
      out.region = region;
    } else {
      out.region = cell_region_[out.effect.cell_index];
    }
    refresh_region_digest(out.region);
    ++stats_.dirty_regions;
    count_metric("serve.dirty_regions");
    if (op.kind == demand::DeltaKind::kAddLocations) {
      total_locations_ += op.count;
    } else {
      total_locations_ -= op.count;
    }
  }
  if (out.effect.counties_changed) county_digest_valid_ = false;
  return out;
}

// -------------------------------------------------------------- partials --

template <typename Fold, typename MixParams, typename Step>
const Fold& IncrementalEngine::region_partial(std::vector<Partial<Fold>>& memo,
                                              std::size_t region,
                                              std::string_view stage,
                                              const MixParams& mix_params,
                                              const Step& step) {
  if (memo.size() < regions_.size()) memo.resize(regions_.size());
  Partial<Fold>& p = memo[region];
  const std::uint64_t digest = regions_[region].digest;
  if (p.valid && p.digest == digest) {
    ++stats_.partial_hits;
    count_metric("serve.partial_hits");
    return p.fold;
  }
  ++stats_.partial_misses;
  count_metric("serve.partial_misses");
  const auto compute = [&] {
    ++stats_.region_recomputes;
    count_metric("serve.region_recomputes");
    Fold fresh;
    const auto& cells = profile_.cells();
    for (const std::size_t i : regions_[region].members) {
      step(fresh, cells[i], i);
    }
    return fresh;
  };
  if (cache_ == nullptr) {
    p.fold = compute();
  } else {
    snapshot::Fingerprint fp = snapshot::substage_fingerprint(stage, "region");
    mix_params(fp);
    fp.mix_u64(digest);
    p.fold = cache_->get_or_compute(
        stage, fp, compute,
        [](const Fold& fold) { return serialize_partial(fold); },
        [](std::string_view file) {
          Fold fold;
          deserialize_partial(file, fold);
          return fold;
        });
  }
  p.valid = true;
  p.digest = digest;
  return p.fold;
}

std::size_t IncrementalEngine::merged_peak_index() {
  core::PeakFold peak;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    peak.merge(region_partial(
        peak_memo_, r, "serve.peak", [](snapshot::Fingerprint&) {},
        [](core::PeakFold& fold, const demand::CellDemand& cell,
           std::size_t i) { fold.step(cell, i); }));
  }
  return peak.index;
}

// ---------------------------------------------------------------- resize --

ResizeAnswer IncrementalEngine::query_resize(double beamspread,
                                             double oversub_cap) {
  if (profile_.cell_count() == 0) {
    throw std::invalid_argument("size_full_service: empty profile");
  }
  const core::SizingModel& model = config_.model;
  const auto& cells = profile_.cells();
  const std::size_t peak = merged_peak_index();
  ResizeAnswer answer;
  answer.full = core::binding_at(model, cells[peak], peak, beamspread,
                                 model.capacity.plan().beams_per_full_cell());

  const core::CellCapacity capacity{
      &model, model.capacity.max_locations_at(oversub_cap)};
  SizingPartials& partials =
      sizing_memo_[SizeKey{bits(beamspread), bits(oversub_cap)}];
  core::BindingFold binding;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    binding.merge(region_partial(
        partials, r, "serve.sizing",
        [&](snapshot::Fingerprint& fp) {
          mix(fp, model);
          fp.mix_f64(beamspread).mix_f64(oversub_cap);
        },
        [&](core::BindingFold& fold, const demand::CellDemand& cell,
            std::size_t i) {
          fold.step(cell, i, capacity, beamspread, oversub_cap);
        }));
  }
  // Every cell has the same capacity, so the single-beam fallback's peak
  // is the global peak.
  answer.capped = binding.resolve(model, cells[peak], peak, beamspread);

  if (config_.paranoid) paranoid_check_resize(beamspread, oversub_cap, answer);
  return answer;
}

// ------------------------------------------------------- served fraction --

ServedFractionAnswer IncrementalEngine::query_served_fraction(double beamspread,
                                                              double oversub) {
  core::ServedTally served;
  if (profile_.cell_count() != 0) {
    const std::uint32_t limit =
        core::max_locations_spread(config_.model.capacity, beamspread, oversub);
    ServedPartials& partials = served_memo_[limit];
    for (std::size_t r = 0; r < regions_.size(); ++r) {
      served.merge(region_partial(
          partials, r, "serve.served",
          [limit](snapshot::Fingerprint& fp) { fp.mix_u64(limit); },
          [limit](core::ServedTally& tally, const demand::CellDemand& cell,
                  std::size_t) { tally.step(cell.underserved, limit); }));
    }
  }
  ServedFractionAnswer answer;
  answer.served_cells = served.served_cells;
  answer.total_cells = profile_.cell_count();
  answer.served_locations = served.served_locations;
  answer.total_locations = total_locations_;
  answer.cell_fraction = served.cell_fraction(answer.total_cells);
  answer.location_fraction = served.location_fraction(answer.total_locations);

  if (config_.paranoid) paranoid_check_served(beamspread, oversub, answer);
  return answer;
}

// ----------------------------------------------------------- afford ------

void IncrementalEngine::rebuild_analyzer_if_stale() {
  if (!county_digest_valid_) {
    snapshot::Fingerprint fp =
        snapshot::substage_fingerprint("serve.afford", "counties");
    for (const demand::County& c : profile_.counties().all()) {
      fp.mix(c.fips)
          .mix_f64(c.centroid.lat_deg)
          .mix_f64(c.centroid.lon_deg)
          .mix_f64(c.median_income_usd)
          .mix_u64(c.underserved_locations);
    }
    county_digest_ = fp.digest();
    county_digest_valid_ = true;
  }
  if (!analyzer_.has_value() || analyzer_digest_ != county_digest_) {
    analyzer_.emplace(profile_);
    analyzer_digest_ = county_digest_;
    afford_memo_.clear();
  }
}

afford::PlanAffordability IncrementalEngine::query_affordability(
    const afford::ServicePlan& plan, double threshold) {
  rebuild_analyzer_if_stale();
  const AffordKey key{plan.name, bits(plan.monthly_usd),
                      bits(plan.speeds.down_mbps), bits(plan.speeds.up_mbps),
                      bits(threshold)};
  const auto it = afford_memo_.find(key);
  afford::PlanAffordability answer;
  if (it != afford_memo_.end()) {
    ++stats_.partial_hits;
    count_metric("serve.partial_hits");
    answer = it->second;
  } else {
    ++stats_.partial_misses;
    count_metric("serve.partial_misses");
    answer = analyzer_->evaluate(plan, threshold);
    afford_memo_.emplace(key, answer);
  }
  if (config_.paranoid) paranoid_check_affordability(plan, threshold, answer);
  return answer;
}

// ----------------------------------------------------------- paranoia ----

namespace {

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] bool same_sizing(const core::SizingResult& a,
                               const core::SizingResult& b) {
  return same_bits(a.satellites, b.satellites) &&
         same_bits(a.binding_lat_deg, b.binding_lat_deg) &&
         a.beams_on_binding == b.beams_on_binding &&
         a.binding_cell_index == b.binding_cell_index;
}

[[noreturn]] void paranoia_fail(const std::string& what) {
  throw ParanoiaError("serve: paranoid cross-check failed for " + what +
                      " (incremental answer differs from full recompute)");
}

}  // namespace

void IncrementalEngine::paranoid_check_resize(double beamspread,
                                              double oversub_cap,
                                              const ResizeAnswer& answer) {
  ++stats_.paranoid_checks;
  count_metric("serve.paranoid_checks");
  const core::SizingResult full =
      core::size_full_service(profile_, config_.model, beamspread);
  const core::SizingResult capped =
      core::size_with_cap(profile_, config_.model, beamspread, oversub_cap,
                          runtime::serial_executor());
  if (!same_sizing(full, answer.full) || !same_sizing(capped, answer.capped)) {
    paranoia_fail("query_resize");
  }
}

void IncrementalEngine::paranoid_check_served(
    double beamspread, double oversub, const ServedFractionAnswer& answer) {
  ++stats_.paranoid_checks;
  count_metric("serve.paranoid_checks");
  const double cell_fraction = core::served_cell_fraction(
      profile_, config_.model.capacity, beamspread, oversub);
  const double location_fraction = core::served_location_fraction(
      profile_, config_.model.capacity, beamspread, oversub);
  if (!same_bits(cell_fraction, answer.cell_fraction) ||
      !same_bits(location_fraction, answer.location_fraction)) {
    paranoia_fail("query_served_fraction");
  }
}

void IncrementalEngine::paranoid_check_affordability(
    const afford::ServicePlan& plan, double threshold,
    const afford::PlanAffordability& answer) {
  ++stats_.paranoid_checks;
  count_metric("serve.paranoid_checks");
  const afford::AffordabilityAnalyzer fresh(profile_);
  const afford::PlanAffordability expected = fresh.evaluate(plan, threshold);
  const bool same =
      expected.plan.name == answer.plan.name &&
      same_bits(expected.plan.monthly_usd, answer.plan.monthly_usd) &&
      same_bits(expected.plan.speeds.down_mbps, answer.plan.speeds.down_mbps) &&
      same_bits(expected.plan.speeds.up_mbps, answer.plan.speeds.up_mbps) &&
      same_bits(expected.income_required_usd, answer.income_required_usd) &&
      same_bits(expected.locations_unable, answer.locations_unable) &&
      same_bits(expected.fraction_unable, answer.fraction_unable);
  if (!same) paranoia_fail("query_affordability");
}

EngineStats IncrementalEngine::stats() const noexcept {
  EngineStats s = stats_;
  s.cells = profile_.cell_count();
  s.regions = regions_.size();
  return s;
}

}  // namespace leodivide::serve
