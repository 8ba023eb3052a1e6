#include "leodivide/serve/incremental.hpp"

#include <algorithm>
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

// kServePartial blob codecs for the disk spill. The in-memory bookkeeping
// fields (valid, digest) are deliberately not stored: the blob's identity
// IS the sub-stage fingerprint, which already binds the region content.

std::string serialize_sizing_blob(const core::SizingResult& best, bool found) {
  snapshot::ByteWriter w;
  w.u8(found ? 1 : 0);
  w.f64(best.satellites);
  w.f64(best.binding_lat_deg);
  w.u32(best.beams_on_binding);
  w.u64(best.binding_cell_index);
  snapshot::SnapshotWriter sw(snapshot::ArtifactKind::kServePartial);
  sw.add_section("sizing", std::move(w).take());
  return std::move(sw).finish();
}

std::pair<core::SizingResult, bool> deserialize_sizing_blob(
    std::string_view file) {
  const snapshot::SnapshotReader reader = snapshot::SnapshotReader::parse(file);
  if (reader.kind() != snapshot::ArtifactKind::kServePartial) {
    throw snapshot::SnapshotError("LDSNAP: expected a serve_partial snapshot");
  }
  snapshot::ByteReader r(reader.section("sizing"));
  const bool found = r.u8() != 0;
  core::SizingResult best;
  best.satellites = r.f64();
  best.binding_lat_deg = r.f64();
  best.beams_on_binding = r.u32();
  best.binding_cell_index = static_cast<std::size_t>(r.u64());
  r.expect_exhausted("serve_partial sizing section");
  return {best, found};
}

std::string serialize_peak_blob(std::uint32_t max_count,
                                std::uint64_t best_cell_bits,
                                std::size_t cell_index) {
  snapshot::ByteWriter w;
  w.u32(max_count);
  w.u64(best_cell_bits);
  w.u64(cell_index);
  snapshot::SnapshotWriter sw(snapshot::ArtifactKind::kServePartial);
  sw.add_section("peak", std::move(w).take());
  return std::move(sw).finish();
}

std::tuple<std::uint32_t, std::uint64_t, std::size_t> deserialize_peak_blob(
    std::string_view file) {
  const snapshot::SnapshotReader reader = snapshot::SnapshotReader::parse(file);
  if (reader.kind() != snapshot::ArtifactKind::kServePartial) {
    throw snapshot::SnapshotError("LDSNAP: expected a serve_partial snapshot");
  }
  snapshot::ByteReader r(reader.section("peak"));
  const std::uint32_t max_count = r.u32();
  const std::uint64_t best_cell_bits = r.u64();
  const std::size_t cell_index = static_cast<std::size_t>(r.u64());
  r.expect_exhausted("serve_partial peak section");
  return {max_count, best_cell_bits, cell_index};
}

std::string serialize_served_blob(std::uint64_t served_cells,
                                  std::uint64_t served_locations) {
  snapshot::ByteWriter w;
  w.u64(served_cells);
  w.u64(served_locations);
  snapshot::SnapshotWriter sw(snapshot::ArtifactKind::kServePartial);
  sw.add_section("served", std::move(w).take());
  return std::move(sw).finish();
}

std::pair<std::uint64_t, std::uint64_t> deserialize_served_blob(
    std::string_view file) {
  const snapshot::SnapshotReader reader = snapshot::SnapshotReader::parse(file);
  if (reader.kind() != snapshot::ArtifactKind::kServePartial) {
    throw snapshot::SnapshotError("LDSNAP: expected a serve_partial snapshot");
  }
  snapshot::ByteReader r(reader.section("served"));
  const std::uint64_t served_cells = r.u64();
  const std::uint64_t served_locations = r.u64();
  r.expect_exhausted("serve_partial served section");
  return {served_cells, served_locations};
}

void count_metric(const char* name, std::uint64_t n = 1) {
  if (!obs::metrics_enabled()) return;
  obs::registry().counter(name).add(n);
}

// A partial through the disk spill when a cache is attached (restored from
// its blob, or computed and stored), computed directly when caching is off.
template <typename Compute, typename Serialize, typename Deserialize>
auto cached_or_compute(snapshot::StageCache* cache, std::string_view stage,
                       const snapshot::Fingerprint& fp, Compute&& compute,
                       Serialize&& serialize, Deserialize&& deserialize)
    -> decltype(compute()) {
  if (cache == nullptr) return compute();
  return cache->get_or_compute(stage, fp, compute, serialize, deserialize);
}

}  // namespace

IncrementalEngine::IncrementalEngine(demand::DemandProfile baseline,
                                     EngineConfig config,
                                     snapshot::StageCache* cache)
    : config_(config),
      grid_(),
      profile_(std::move(baseline)),
      applier_(profile_, grid_, config_.cell_resolution),
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
  const hex::CellId parent = grid_.parent_of(cell, config_.region_resolution);
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

// ---------------------------------------------------------------- resize --

IncrementalEngine::SizingPartial IncrementalEngine::compute_sizing_partial(
    const Region& region, double beamspread, double oversub_cap) const {
  // Mirrors one shard of core::size_with_cap: members ascend in global
  // index, and only a strictly larger requirement displaces the incumbent,
  // so the kept candidate is the region's earliest strict maximum.
  SizingPartial p;
  const std::uint32_t cap_locs =
      config_.model.capacity.max_locations_at(oversub_cap);
  const auto& cells = profile_.cells();
  for (std::size_t i : region.members) {
    const demand::CellDemand& cell = cells[i];
    const std::uint32_t served = std::min(cell.underserved, cap_locs);
    const std::uint32_t beams =
        config_.model.capacity.beams_needed(served, oversub_cap);
    if (beams < 2) continue;  // demand-driven binding needs >= 2 beams
    const double sats = core::satellites_for_binding_cell(
        config_.model, cell.center.lat_deg, beamspread, beams);
    if (!p.found || sats > p.best.satellites) {
      p.found = true;
      p.best.satellites = sats;
      p.best.binding_lat_deg = cell.center.lat_deg;
      p.best.beams_on_binding = beams;
      p.best.binding_cell_index = i;
    }
  }
  return p;
}

const IncrementalEngine::SizingPartial& IncrementalEngine::sizing_partial(
    std::size_t region, double beamspread, double oversub_cap,
    std::vector<SizingPartial>& partials) {
  if (partials.size() < regions_.size()) partials.resize(regions_.size());
  SizingPartial& p = partials[region];
  if (p.valid && p.digest == regions_[region].digest) {
    ++stats_.partial_hits;
    count_metric("serve.partial_hits");
    return p;
  }
  ++stats_.partial_misses;
  count_metric("serve.partial_misses");
  snapshot::Fingerprint fp =
      snapshot::substage_fingerprint("serve.sizing", "region");
  mix(fp, config_.model);
  fp.mix_f64(beamspread)
      .mix_f64(oversub_cap)
      .mix_u64(regions_[region].digest);
  const auto [best, found] = cached_or_compute(
      cache_, "serve.sizing", fp,
      [&] {
        ++stats_.region_recomputes;
        count_metric("serve.region_recomputes");
        const SizingPartial fresh = compute_sizing_partial(
            regions_[region], beamspread, oversub_cap);
        return std::pair<core::SizingResult, bool>{fresh.best,
                                                   fresh.found};
      },
      [](const std::pair<core::SizingResult, bool>& v) {
        return serialize_sizing_blob(v.first, v.second);
      },
      deserialize_sizing_blob);
  p.best = best;
  p.found = found;
  p.valid = true;
  p.digest = regions_[region].digest;
  return p;
}

IncrementalEngine::PeakPartial IncrementalEngine::compute_peak_partial(
    const Region& region) const {
  // cells_by_count_desc's comparator: count descending, cell id ascending.
  PeakPartial p;
  const auto& cells = profile_.cells();
  bool init = false;
  for (std::size_t i : region.members) {
    const demand::CellDemand& c = cells[i];
    if (!init || c.underserved > p.max_count ||
        (c.underserved == p.max_count && c.cell.bits() < p.best_cell_bits)) {
      init = true;
      p.max_count = c.underserved;
      p.best_cell_bits = c.cell.bits();
      p.cell_index = i;
    }
  }
  return p;
}

const IncrementalEngine::PeakPartial& IncrementalEngine::peak_partial(
    std::size_t region) {
  if (peak_memo_.size() < regions_.size()) peak_memo_.resize(regions_.size());
  PeakPartial& p = peak_memo_[region];
  if (p.valid && p.digest == regions_[region].digest) {
    ++stats_.partial_hits;
    count_metric("serve.partial_hits");
    return p;
  }
  ++stats_.partial_misses;
  count_metric("serve.partial_misses");
  snapshot::Fingerprint fp =
      snapshot::substage_fingerprint("serve.peak", "region");
  fp.mix_u64(regions_[region].digest);
  const auto [max_count, best_cell_bits, cell_index] = cached_or_compute(
      cache_, "serve.peak", fp,
      [&] {
        ++stats_.region_recomputes;
        count_metric("serve.region_recomputes");
        const PeakPartial fresh = compute_peak_partial(regions_[region]);
        return std::tuple<std::uint32_t, std::uint64_t, std::size_t>{
            fresh.max_count, fresh.best_cell_bits, fresh.cell_index};
      },
      [](const std::tuple<std::uint32_t, std::uint64_t, std::size_t>& v) {
        return serialize_peak_blob(std::get<0>(v), std::get<1>(v),
                                   std::get<2>(v));
      },
      deserialize_peak_blob);
  p.max_count = max_count;
  p.best_cell_bits = best_cell_bits;
  p.cell_index = cell_index;
  p.valid = true;
  p.digest = regions_[region].digest;
  return p;
}

std::size_t IncrementalEngine::merged_peak_index() {
  // Every region is nonempty by construction (created on first member), so
  // each partial holds a genuine candidate; cell ids are unique, making the
  // (count desc, cell-id asc) order total — the merge winner is exactly
  // cells_by_count_desc().front().
  bool init = false;
  std::uint32_t max_count = 0;
  std::uint64_t best_cell_bits = 0;
  std::size_t best_index = 0;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const PeakPartial& p = peak_partial(r);
    if (!init || p.max_count > max_count ||
        (p.max_count == max_count && p.best_cell_bits < best_cell_bits)) {
      init = true;
      max_count = p.max_count;
      best_cell_bits = p.best_cell_bits;
      best_index = p.cell_index;
    }
  }
  return best_index;
}

ResizeAnswer IncrementalEngine::query_resize(double beamspread,
                                             double oversub_cap) {
  if (profile_.cell_count() == 0) {
    throw std::invalid_argument("size_full_service: empty profile");
  }
  ResizeAnswer answer;

  const std::size_t peak = merged_peak_index();
  const std::uint32_t full_beams =
      config_.model.capacity.plan().beams_per_full_cell();
  answer.full.binding_cell_index = peak;
  answer.full.binding_lat_deg = profile_.cells()[peak].center.lat_deg;
  answer.full.beams_on_binding = full_beams;
  answer.full.satellites = core::satellites_for_binding_cell(
      config_.model, answer.full.binding_lat_deg, beamspread, full_beams);

  std::vector<SizingPartial>& partials =
      sizing_memo_[SizeKey{bits(beamspread), bits(oversub_cap)}];
  bool found = false;
  core::SizingResult best;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const SizingPartial& p = sizing_partial(r, beamspread, oversub_cap,
                                            partials);
    if (!p.found) continue;
    // Strictly-larger wins; an exact (bit-level) tie goes to the smaller
    // global cell index — together equivalent to the serial first-strict-max
    // scan, because each partial already kept its region's earliest max.
    if (!found || p.best.satellites > best.satellites ||
        (bits(p.best.satellites) == bits(best.satellites) &&
         p.best.binding_cell_index < best.binding_cell_index)) {
      found = true;
      best = p.best;
    }
  }
  if (!found) {
    // No cell needs more than one beam at this cap: the peak cell binds
    // with a single beam (same fallback as core::size_with_cap).
    best.binding_cell_index = peak;
    best.binding_lat_deg = profile_.cells()[peak].center.lat_deg;
    best.beams_on_binding = 1;
    best.satellites = core::satellites_for_binding_cell(
        config_.model, best.binding_lat_deg, beamspread, 1);
  }
  answer.capped = best;

  if (config_.paranoid) paranoid_check_resize(beamspread, oversub_cap, answer);
  return answer;
}

// ------------------------------------------------------- served fraction --

IncrementalEngine::ServedPartial IncrementalEngine::compute_served_partial(
    const Region& region, std::uint32_t limit) const {
  ServedPartial p;
  const auto& cells = profile_.cells();
  for (std::size_t i : region.members) {
    const demand::CellDemand& c = cells[i];
    if (c.underserved <= limit) {
      ++p.served_cells;
      p.served_locations += c.underserved;
    }
  }
  return p;
}

const IncrementalEngine::ServedPartial& IncrementalEngine::served_partial(
    std::size_t region, std::uint32_t limit,
    std::vector<ServedPartial>& partials) {
  if (partials.size() < regions_.size()) partials.resize(regions_.size());
  ServedPartial& p = partials[region];
  if (p.valid && p.digest == regions_[region].digest) {
    ++stats_.partial_hits;
    count_metric("serve.partial_hits");
    return p;
  }
  ++stats_.partial_misses;
  count_metric("serve.partial_misses");
  snapshot::Fingerprint fp =
      snapshot::substage_fingerprint("serve.served", "region");
  fp.mix_u64(limit).mix_u64(regions_[region].digest);
  const auto [served_cells, served_locations] = cached_or_compute(
      cache_, "serve.served", fp,
      [&] {
        ++stats_.region_recomputes;
        count_metric("serve.region_recomputes");
        const ServedPartial fresh =
            compute_served_partial(regions_[region], limit);
        return std::pair<std::uint64_t, std::uint64_t>{
            fresh.served_cells, fresh.served_locations};
      },
      [](const std::pair<std::uint64_t, std::uint64_t>& v) {
        return serialize_served_blob(v.first, v.second);
      },
      deserialize_served_blob);
  p.served_cells = served_cells;
  p.served_locations = served_locations;
  p.valid = true;
  p.digest = regions_[region].digest;
  return p;
}

ServedFractionAnswer IncrementalEngine::query_served_fraction(double beamspread,
                                                              double oversub) {
  ServedFractionAnswer answer;
  answer.total_cells = profile_.cell_count();
  answer.total_locations = total_locations_;
  if (answer.total_cells != 0) {
    const std::uint32_t limit =
        core::max_locations_spread(config_.model.capacity, beamspread, oversub);
    std::vector<ServedPartial>& partials = served_memo_[limit];
    for (std::size_t r = 0; r < regions_.size(); ++r) {
      const ServedPartial& p = served_partial(r, limit, partials);
      answer.served_cells += p.served_cells;
      answer.served_locations += p.served_locations;
    }
  }
  // Same divisions (and the same empty-input conventions) as
  // core::served_cell_fraction / served_location_fraction.
  answer.cell_fraction =
      answer.total_cells == 0
          ? 1.0
          : static_cast<double>(answer.served_cells) /
                static_cast<double>(answer.total_cells);
  answer.location_fraction =
      answer.total_locations == 0
          ? 1.0
          : static_cast<double>(answer.served_locations) /
                static_cast<double>(answer.total_locations);

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
