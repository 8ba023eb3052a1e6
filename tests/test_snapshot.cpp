// snapshot/ — LDSNAP container, artifact round trips, adversarial inputs,
// fingerprints, and the content-addressed stage cache.
//
// The adversarial cases are the load-bearing ones: every way a snapshot
// file can be malformed (truncation, bit flips, wrong version, wrong
// endianness, dangling indices) must surface as a typed SnapshotError —
// never UB — which the ASan CI job double-checks.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "leodivide/core/scenario.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/event/engine.hpp"
#include "leodivide/io/csv.hpp"
#include "leodivide/io/fileio.hpp"
#include "leodivide/io/json.hpp"
#include "leodivide/market/market.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/snapshot/snapshot.hpp"

namespace {

using namespace leodivide;
namespace fs = std::filesystem;

// ------------------------------------------------------------ fixtures --

demand::CountyTable small_counties() {
  std::vector<demand::County> counties;
  counties.push_back({"10001", {39.0, -75.5}, 52000.0, 120});
  counties.push_back({"10003", {39.7, -75.6}, 71000.0, 45});
  return demand::CountyTable(std::move(counties));
}

demand::DemandProfile small_profile() {
  std::vector<demand::CellDemand> cells;
  cells.push_back({hex::CellId(3, {10, -4}), {39.1, -75.4}, 820, 0});
  cells.push_back({hex::CellId(3, {11, -4}), {39.6, -75.7}, 61, 1});
  cells.push_back({hex::CellId(3, {12, -5}), {39.9, -75.2}, 0, 1});
  return demand::DemandProfile(std::move(cells), small_counties());
}

demand::DemandDataset small_dataset() {
  std::vector<demand::Location> locations;
  locations.push_back({1, {39.10, -75.40}, 0, {25.0, 3.0},
                       demand::Technology::kDsl});
  locations.push_back({2, {39.61, -75.71}, 1, {0.0, 0.0},
                       demand::Technology::kNone});
  locations.push_back({7, {39.92, -75.23}, 1, {940.0, 35.0},
                       demand::Technology::kFiber});
  return demand::DemandDataset(std::move(locations), small_counties());
}

core::AnalysisResults small_analysis() {
  // A tiny but fully-populated AnalysisResults: every field participates
  // in the round trip.
  core::AnalysisResults r;
  r.table1 = {3850.0, 8850.0, 24, 28, 4.5, 17.325, 5998, 100.0, 20.0,
              599.8, 34.62};
  r.f1 = {17.325, 34.62, 3465, 2357212, 22428, 5103, 5, 0.99883};
  r.table2 = {{1.0, 9563.0, 9621.0}, {5.0, 1913.0, 1925.0}};
  r.fig2_beamspreads = {2.0, 4.0};
  r.fig2_oversubs = {5.0, 10.0};
  r.fig2_grid = {{10.0, 20.0}, {30.0, 40.0}};
  r.fig3 = {{5.0, 20.0, {{5103, 1925.0, 4, 36.9}, {9000, 1800.0, 3, 38.2}}}};
  r.fig4 = {{{"Starlink Residential", 120.0, {100.0, 20.0}}, 72000.0,
             1327000.0, 0.563}};
  r.fig4_lifeline_threshold_income = 66450.0;
  r.fig4_starlink_threshold_income = 72000.0;
  return r;
}

std::vector<sim::EpochCoverage> small_epochs() {
  return {{0.0, 100, 97, 50000, 48000, 0.83, 41},
          {60.0, 100, 99, 50000, 49800, 0.86, 43}};
}

event::EventTrace small_trace() {
  event::EventTrace t;
  t.duration_s = 600.0;
  t.step_s = 60.0;
  t.cells_total = 100;
  t.boundaries = 7;
  t.handovers = {90, 12, 3, 5};
  t.events = {
      {0.0, 0.0, 0.0, event::EventKind::kInitial, 0, 0},
      {118.25, 118.25, 118.251, event::EventKind::kRise, 4, 17},
      {301.5, 301.5, 301.501, event::EventKind::kSet, 9, 2},
      {550.0, 549.999, 550.001, event::EventKind::kGraze, 1, 8},
  };
  t.segments = {
      {0.0, 118.25, {0.0, 100, 97, 50000, 48000, 0.83, 41},
       {97, 90, 4.2, 19.5, 0.9}},
      {118.25, 600.0, {118.25, 100, 99, 50000, 49800, 0.86, 43},
       {99, 95, 4.0, 18.0, 0.95}},
  };
  return t;
}

market::MarketReport small_market_report() {
  // Two fully-populated operator outcomes: every field participates in the
  // round trip.
  market::MarketReport r;
  r.policy = market::SplitPolicy::kFairShare;
  r.beamspread = 10.0;
  r.oversub_cap = 20.0;
  market::OperatorOutcome a;
  a.name = "starlink";
  a.economic_share = 0.85;
  a.full = {9563.0, 36.9, 4, 2};
  a.capped = {9621.0, 37.1, 3, 1};
  a.served_cell_fraction = 0.97;
  a.served_location_fraction = 0.74;
  a.longtail = {{5103, 1925.0, 4, 36.9}, {9000, 1800.0, 3, 38.2}};
  a.cost_curve = {{9000, 1800.0, 4.5e8, 41000, 10975.6},
                  {5103, 1925.0, 4.8e8, 44897, 10691.2}};
  a.affordability = {{"Starlink Residential", 120.0, {100.0, 20.0}},
                     72000.0, 1327000.0, 0.563};
  market::OperatorOutcome b;
  b.name = "oneweb";
  b.economic_share = 0.5;
  b.full = {17937.0, 49.0, 2, 0};
  b.capped = {19811.0, 48.5, 2, 0};
  b.served_cell_fraction = 0.38;
  b.served_location_fraction = 0.02;
  b.longtail = {{1200, 900.0, 2, 49.0}};
  b.cost_curve = {{1200, 900.0, 2.1e8, 7000, 30000.0}};
  b.affordability = {{"oneweb_community", 99.0, {150.0, 20.0}},
                     59400.0, 900000.0, 0.42};
  r.operators = {std::move(a), std::move(b)};
  r.fairness.winner = {0, 1, -1, 0};
  r.fairness.operators = {{2, 3, 881}, {1, 1, 61}};
  r.fairness.jain_served_locations = 0.69;
  r.fairness.unserved_cells = 1;
  r.fairness.unserved_locations = 120;
  r.fairness.capacity_limited_cells = 1;
  r.fairness.split_limited_cells = 0;
  return r;
}

// ------------------------------------------------------- byte primitives --

TEST(ByteFormat, WriterReaderRoundTrip) {
  snapshot::ByteWriter w;
  w.u8(0x7F);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFU);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(-1234.5678);
  w.str("hello, snapshot");
  const std::string buf = std::move(w).take();

  snapshot::ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.f64(), -1234.5678);
  EXPECT_EQ(r.str(), "hello, snapshot");
  EXPECT_TRUE(r.exhausted());
  EXPECT_NO_THROW(r.expect_exhausted("test"));
}

TEST(ByteFormat, LittleEndianOnTheWire) {
  snapshot::ByteWriter w;
  w.u32(0x01020304U);
  const std::string buf = w.buffer();
  ASSERT_EQ(buf.size(), 4U);
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(buf[3]), 0x01);
}

TEST(ByteFormat, ReaderUnderRunThrowsTyped) {
  snapshot::ByteWriter w;
  w.u16(7);
  const std::string buf = w.buffer();
  snapshot::ByteReader r(buf);
  EXPECT_THROW((void)r.u32(), snapshot::SnapshotError);
}

TEST(ByteFormat, StringLengthGuard) {
  snapshot::ByteWriter w;
  w.u32(0xFFFFFFFFU);  // absurd length prefix from "corrupted" input
  const std::string buf = w.buffer();
  snapshot::ByteReader r(buf);
  EXPECT_THROW((void)r.str(), snapshot::SnapshotError);
}

TEST(ByteFormat, TrailingBytesRejected) {
  snapshot::ByteWriter w;
  w.u8(1);
  w.u8(2);
  const std::string buf = w.buffer();
  snapshot::ByteReader r(buf);
  (void)r.u8();
  EXPECT_THROW(r.expect_exhausted("test"), snapshot::SnapshotError);
}

// -------------------------------------------------------------- checksums --

TEST(Checksum, Fnv1a64KnownVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(snapshot::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(snapshot::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(snapshot::fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Checksum, ChunkedChecksumThreadCountInvariant) {
  // > 2 chunks so the parallel fold actually spans tasks.
  std::string big(5 * (1 << 20) / 2, 'x');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 131 + 7);
  }
  const std::uint64_t serial =
      snapshot::chunked_checksum(big, runtime::serial_executor());
  runtime::ThreadPool pool4(4);
  EXPECT_EQ(snapshot::chunked_checksum(big, pool4), serial);
  runtime::ThreadPool pool3(3);
  EXPECT_EQ(snapshot::chunked_checksum(big, pool3), serial);
}

// ------------------------------------------------------- container format --

TEST(Container, HeaderAndSectionsRoundTrip) {
  snapshot::SnapshotWriter w(snapshot::ArtifactKind::kProfile);
  w.add_section("alpha", "payload-a");
  w.add_section("beta", std::string("\x00\x01\x02", 3));
  const std::string file = std::move(w).finish();

  const auto reader = snapshot::SnapshotReader::parse(file);
  EXPECT_EQ(reader.kind(), snapshot::ArtifactKind::kProfile);
  EXPECT_EQ(reader.version(), snapshot::kFormatVersion);
  ASSERT_EQ(reader.sections().size(), 2U);
  EXPECT_EQ(reader.section("alpha"), "payload-a");
  EXPECT_EQ(reader.section("beta"), std::string_view("\x00\x01\x02", 3));
  EXPECT_THROW((void)reader.section("gamma"), snapshot::SnapshotError);
}

TEST(Container, MagicStartsTheFile) {
  snapshot::SnapshotWriter w(snapshot::ArtifactKind::kEpochs);
  w.add_section("s", "x");
  const std::string file = std::move(w).finish();
  ASSERT_GE(file.size(), 6U);
  EXPECT_EQ(file.substr(0, 6), "LDSNAP");
}

// ------------------------------------------------------ artifact round trips

TEST(Artifacts, DatasetRoundTripExact) {
  const demand::DemandDataset dataset = small_dataset();
  const std::string blob = snapshot::serialize(dataset);
  const demand::DemandDataset back = snapshot::deserialize_dataset(blob);
  EXPECT_EQ(back.locations(), dataset.locations());
  EXPECT_EQ(back.counties().all(), dataset.counties().all());
}

TEST(Artifacts, ProfileRoundTripExact) {
  const demand::DemandProfile profile = small_profile();
  const std::string blob = snapshot::serialize(profile);
  const demand::DemandProfile back = snapshot::deserialize_profile(blob);
  EXPECT_EQ(back.cells(), profile.cells());
  EXPECT_EQ(back.counties().all(), profile.counties().all());
}

TEST(Artifacts, GeneratedProfileRoundTripExact) {
  // A real (scaled-down) generator output: thousands of cells with
  // full-precision doubles, not hand-picked values.
  demand::GeneratorConfig config;
  config.scale = 0.02;
  const demand::DemandProfile profile =
      demand::SyntheticGenerator{config}.generate_profile();
  ASSERT_GT(profile.cell_count(), 0U);
  const demand::DemandProfile back =
      snapshot::deserialize_profile(snapshot::serialize(profile));
  EXPECT_EQ(back.cells(), profile.cells());
  EXPECT_EQ(back.counties().all(), profile.counties().all());
}

TEST(Artifacts, AnalysisRoundTripExact) {
  const core::AnalysisResults results = small_analysis();
  const std::string blob = snapshot::serialize(results);
  EXPECT_EQ(snapshot::deserialize_analysis(blob), results);
}

TEST(Artifacts, EpochsRoundTripExact) {
  const std::vector<sim::EpochCoverage> epochs = small_epochs();
  const std::string blob = snapshot::serialize(epochs);
  EXPECT_EQ(snapshot::deserialize_epochs(blob), epochs);
}

TEST(Artifacts, EventTraceRoundTripExact) {
  const event::EventTrace trace = small_trace();
  const std::string blob = snapshot::serialize(trace);
  const snapshot::SnapshotReader reader =
      snapshot::SnapshotReader::parse(blob);
  EXPECT_EQ(reader.kind(), snapshot::ArtifactKind::kEventTrace);
  EXPECT_EQ(to_string(reader.kind()), "event_trace");
  EXPECT_EQ(snapshot::deserialize_event_trace(blob), trace);
}

TEST(Artifacts, MarketReportRoundTripExact) {
  const market::MarketReport report = small_market_report();
  const std::string blob = snapshot::serialize(report);
  const snapshot::SnapshotReader reader =
      snapshot::SnapshotReader::parse(blob);
  EXPECT_EQ(reader.kind(), snapshot::ArtifactKind::kMarketReport);
  EXPECT_EQ(to_string(reader.kind()), "market_report");
  EXPECT_EQ(snapshot::deserialize_market_report(blob), report);
}

TEST(Artifacts, SerializationIsDeterministic) {
  EXPECT_EQ(snapshot::serialize(small_profile()),
            snapshot::serialize(small_profile()));
  EXPECT_EQ(snapshot::serialize(small_analysis()),
            snapshot::serialize(small_analysis()));
  EXPECT_EQ(snapshot::serialize(small_trace()),
            snapshot::serialize(small_trace()));
  EXPECT_EQ(snapshot::serialize(small_market_report()),
            snapshot::serialize(small_market_report()));
}

// -------------------------------------------------------- adversarial input

TEST(Adversarial, EveryTruncationFailsTyped) {
  const std::string blob = snapshot::serialize(small_profile());
  // Every strict prefix must fail with SnapshotError — never crash, never
  // parse. Step keeps the loop fast on the larger payloads.
  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 37)) {
    EXPECT_THROW((void)snapshot::deserialize_profile(blob.substr(0, len)),
                 snapshot::SnapshotError)
        << "prefix length " << len << " parsed";
  }
}

TEST(Adversarial, BitFlipFailsChecksumTyped) {
  const std::string blob = snapshot::serialize(small_profile());
  // Flip one bit in every region of the file: header flips fail header
  // validation, payload flips fail the section checksum.
  for (std::size_t pos = 0; pos < blob.size(); pos += 41) {
    std::string bad = blob;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    EXPECT_THROW((void)snapshot::deserialize_profile(bad),
                 snapshot::SnapshotError)
        << "bit flip at " << pos << " parsed";
  }
}

TEST(Adversarial, WrongVersionRejected) {
  std::string blob = snapshot::serialize(small_profile());
  blob[8] = static_cast<char>(snapshot::kFormatVersion + 1);  // version LSB
  EXPECT_THROW((void)snapshot::deserialize_profile(blob),
               snapshot::SnapshotError);
}

TEST(Adversarial, ByteSwappedEndianMarkerRejected) {
  std::string blob = snapshot::serialize(small_profile());
  std::swap(blob[6], blob[7]);  // 0xFEFF -> big-endian byte order
  try {
    (void)snapshot::deserialize_profile(blob);
    FAIL() << "byte-swapped endian marker parsed";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("endian"), std::string::npos);
  }
}

TEST(Adversarial, BadMagicRejected) {
  std::string blob = snapshot::serialize(small_profile());
  blob[0] = 'X';
  EXPECT_THROW((void)snapshot::deserialize_profile(blob),
               snapshot::SnapshotError);
  EXPECT_THROW((void)snapshot::SnapshotReader::parse("not a snapshot"),
               snapshot::SnapshotError);
  EXPECT_THROW((void)snapshot::SnapshotReader::parse(""),
               snapshot::SnapshotError);
}

TEST(Adversarial, TrailingGarbageRejected) {
  const std::string blob = snapshot::serialize(small_profile()) + "junk";
  EXPECT_THROW((void)snapshot::deserialize_profile(blob),
               snapshot::SnapshotError);
}

TEST(Adversarial, KindMismatchRejected) {
  const std::string blob = snapshot::serialize(small_epochs());
  EXPECT_THROW((void)snapshot::deserialize_profile(blob),
               snapshot::SnapshotError);
  EXPECT_THROW((void)snapshot::deserialize_analysis(blob),
               snapshot::SnapshotError);
  EXPECT_THROW((void)snapshot::deserialize_dataset(blob),
               snapshot::SnapshotError);
}

TEST(Adversarial, DanglingCountyIndexRejected) {
  // Hand-build a profile blob whose cell references county 9 of 2. The
  // container checksums are valid, so only the semantic validation can
  // catch it.
  snapshot::ByteWriter counties;
  counties.u64(1);
  counties.str("10001");
  counties.f64(39.0);
  counties.f64(-75.5);
  counties.f64(52000.0);
  counties.u64(120);
  snapshot::ByteWriter cells;
  cells.u64(1);
  cells.u64(hex::CellId(3, {10, -4}).bits());
  cells.f64(39.1);
  cells.f64(-75.4);
  cells.u32(820);
  cells.u32(9);  // dangling
  snapshot::SnapshotWriter w(snapshot::ArtifactKind::kProfile);
  w.add_section("counties", std::move(counties).take());
  w.add_section("cells", std::move(cells).take());
  EXPECT_THROW((void)snapshot::deserialize_profile(std::move(w).finish()),
               snapshot::SnapshotError);
}

TEST(Adversarial, DuplicateFipsRejectedTyped) {
  // A container-valid profile blob listing one FIPS twice: the county
  // table's duplicate check must surface as SnapshotError, its message
  // kept.
  snapshot::ByteWriter counties;
  counties.u64(2);
  for (int i = 0; i < 2; ++i) {
    counties.str("10001");
    counties.f64(39.0);
    counties.f64(-75.5);
    counties.f64(52000.0);
    counties.u64(120);
  }
  snapshot::ByteWriter cells;
  cells.u64(0);
  snapshot::SnapshotWriter w(snapshot::ArtifactKind::kProfile);
  w.add_section("counties", std::move(counties).take());
  w.add_section("cells", std::move(cells).take());
  try {
    (void)snapshot::deserialize_profile(std::move(w).finish());
    FAIL() << "duplicate FIPS decoded";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate FIPS 10001"),
              std::string::npos)
        << e.what();
  }
}

TEST(Adversarial, EventTraceUnknownEventKindRejected) {
  // A container-valid event-trace snapshot whose single event carries an
  // out-of-range kind byte must fail the semantic re-validation, not
  // produce a bogus enum value.
  snapshot::ByteWriter meta;
  meta.f64(60.0);
  meta.f64(60.0);
  meta.u64(1);
  meta.u64(0);
  meta.u64(0);
  meta.u64(0);
  meta.u64(0);
  meta.u64(0);
  snapshot::ByteWriter events;
  events.u64(1);
  events.f64(0.0);
  events.f64(0.0);
  events.f64(0.0);
  events.u8(200);  // no such EventKind
  events.u32(0);
  events.u32(0);
  snapshot::ByteWriter segments;
  segments.u64(0);
  snapshot::SnapshotWriter sw(snapshot::ArtifactKind::kEventTrace);
  sw.add_section("meta", std::move(meta).take());
  sw.add_section("events", std::move(events).take());
  sw.add_section("segments", std::move(segments).take());
  const std::string blob = std::move(sw).finish();
  EXPECT_THROW((void)snapshot::deserialize_event_trace(blob),
               snapshot::SnapshotError);
}

TEST(Adversarial, MarketEveryTruncationFailsTyped) {
  const std::string blob = snapshot::serialize(small_market_report());
  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 37)) {
    EXPECT_THROW(
        (void)snapshot::deserialize_market_report(blob.substr(0, len)),
        snapshot::SnapshotError)
        << "prefix length " << len << " parsed";
  }
}

TEST(Adversarial, MarketBitFlipFailsChecksumTyped) {
  const std::string blob = snapshot::serialize(small_market_report());
  for (std::size_t pos = 0; pos < blob.size(); pos += 41) {
    std::string bad = blob;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    EXPECT_THROW((void)snapshot::deserialize_market_report(bad),
                 snapshot::SnapshotError)
        << "bit flip at " << pos << " parsed";
  }
}

TEST(Adversarial, MarketUnknownPolicyRejected) {
  // A container-valid snapshot whose policy byte is out of range must fail
  // the semantic re-validation, not produce a bogus enum value.
  market::MarketReport report = small_market_report();
  report.policy = static_cast<market::SplitPolicy>(9);
  EXPECT_THROW(
      (void)snapshot::deserialize_market_report(snapshot::serialize(report)),
      snapshot::SnapshotError);
}

TEST(Adversarial, MarketWinnerIndexOutOfRangeRejected) {
  market::MarketReport report = small_market_report();
  report.fairness.winner[1] = 7;  // only 2 operators
  EXPECT_THROW(
      (void)snapshot::deserialize_market_report(snapshot::serialize(report)),
      snapshot::SnapshotError);
  report = small_market_report();
  report.fairness.winner[1] = -2;  // only -1 means "unserved"
  EXPECT_THROW(
      (void)snapshot::deserialize_market_report(snapshot::serialize(report)),
      snapshot::SnapshotError);
}

TEST(Adversarial, MarketFairnessRowCountMismatchRejected) {
  market::MarketReport report = small_market_report();
  report.fairness.operators.pop_back();  // 1 row for 2 operators
  EXPECT_THROW(
      (void)snapshot::deserialize_market_report(snapshot::serialize(report)),
      snapshot::SnapshotError);
}

TEST(Adversarial, MarketKindMismatchRejected) {
  EXPECT_THROW((void)snapshot::deserialize_market_report(
                   snapshot::serialize(small_profile())),
               snapshot::SnapshotError);
  EXPECT_THROW((void)snapshot::deserialize_profile(
                   snapshot::serialize(small_market_report())),
               snapshot::SnapshotError);
}

TEST(Adversarial, UnknownTechnologyRejected) {
  snapshot::ByteWriter counties;
  counties.u64(1);
  counties.str("10001");
  counties.f64(39.0);
  counties.f64(-75.5);
  counties.f64(52000.0);
  counties.u64(120);
  snapshot::ByteWriter locations;
  locations.u64(1);
  locations.u64(1);
  locations.f64(39.1);
  locations.f64(-75.4);
  locations.u32(0);
  locations.f64(25.0);
  locations.f64(3.0);
  locations.u8(250);  // no such Technology
  snapshot::SnapshotWriter w(snapshot::ArtifactKind::kLocations);
  w.add_section("counties", std::move(counties).take());
  w.add_section("locations", std::move(locations).take());
  EXPECT_THROW((void)snapshot::deserialize_dataset(std::move(w).finish()),
               snapshot::SnapshotError);
}

// ------------------------------------------------------------ fingerprints --

TEST(Fingerprints, TypeTagsSeparateMixes) {
  snapshot::Fingerprint a;
  a.mix_u64(0);
  snapshot::Fingerprint b;
  b.mix_f64(0.0);
  EXPECT_NE(a.digest(), b.digest());

  snapshot::Fingerprint c;
  c.mix("ab").mix("c");
  snapshot::Fingerprint d;
  d.mix("a").mix("bc");
  EXPECT_NE(c.digest(), d.digest());
}

TEST(Fingerprints, StageNameAndVersionSeedTheHash) {
  EXPECT_NE(snapshot::stage_fingerprint("demand.profile").digest(),
            snapshot::stage_fingerprint("core.analysis").digest());
}

TEST(Fingerprints, ConfigFieldsChangeTheDigest) {
  demand::GeneratorConfig a;
  demand::GeneratorConfig b;
  b.seed = a.seed + 1;
  snapshot::Fingerprint fa = snapshot::stage_fingerprint("demand.profile");
  snapshot::mix(fa, a);
  snapshot::Fingerprint fb = snapshot::stage_fingerprint("demand.profile");
  snapshot::mix(fb, b);
  EXPECT_NE(fa.digest(), fb.digest());

  demand::GeneratorConfig c;
  c.scale = 0.5;
  snapshot::Fingerprint fc = snapshot::stage_fingerprint("demand.profile");
  snapshot::mix(fc, c);
  EXPECT_NE(fa.digest(), fc.digest());
}

TEST(Fingerprints, MarketConfigFieldsChangeTheDigest) {
  market::MarketConfig base;
  base.operators = market::default_market();
  snapshot::Fingerprint fa = snapshot::stage_fingerprint("market.report");
  snapshot::mix(fa, base);

  // The same config hashes the same...
  {
    market::MarketConfig again;
    again.operators = market::default_market();
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, again);
    EXPECT_EQ(fa.digest(), fp.digest());
  }
  // ...and every kind of field change lands in the digest: a plan price,
  // a band edge, a cost input, the sharing policy, a sweep parameter.
  {
    market::MarketConfig c = base;
    c.operators[0].plan.monthly_usd += 1.0;
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, c);
    EXPECT_NE(fa.digest(), fp.digest());
  }
  {
    market::MarketConfig c = base;
    c.operators[1].bands[0].hi_ghz += 0.1;
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, c);
    EXPECT_NE(fa.digest(), fp.digest());
  }
  {
    market::MarketConfig c = base;
    c.operators[2].costs.annual_opex_fraction += 0.01;
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, c);
    EXPECT_NE(fa.digest(), fp.digest());
  }
  {
    market::MarketConfig c = base;
    c.split.policy = market::SplitPolicy::kFairShare;
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, c);
    EXPECT_NE(fa.digest(), fp.digest());
  }
  {
    market::MarketConfig c = base;
    c.beamspread = 5.0;
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, c);
    EXPECT_NE(fa.digest(), fp.digest());
  }
}

TEST(Fingerprints, HexIs16LowercaseDigits) {
  const std::string hex = snapshot::stage_fingerprint("x").hex();
  ASSERT_EQ(hex.size(), 16U);
  for (char ch : hex) {
    EXPECT_TRUE((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'));
  }
}

// -------------------------------------------------------------- stage cache

class StageCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ldsnap_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(StageCacheTest, MissComputesAndStoresThenHits) {
  snapshot::StageCache cache(dir_.string());
  const demand::DemandProfile profile = small_profile();
  snapshot::Fingerprint fp = snapshot::stage_fingerprint("demand.profile");
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return small_profile();
  };
  auto ser = [](const demand::DemandProfile& p) {
    return snapshot::serialize(p);
  };
  auto de = [](std::string_view blob) {
    return snapshot::deserialize_profile(blob);
  };

  const demand::DemandProfile first =
      cache.get_or_compute("demand.profile", fp, compute, ser, de);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.hits(), 0U);
  EXPECT_EQ(cache.misses(), 1U);
  EXPECT_TRUE(fs::exists(cache.blob_path("demand.profile", fp)));

  const demand::DemandProfile second =
      cache.get_or_compute("demand.profile", fp, compute, ser, de);
  EXPECT_EQ(computes, 1) << "hit must not recompute";
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(second.cells(), profile.cells());
}

TEST_F(StageCacheTest, DifferentFingerprintsDifferentBlobs) {
  snapshot::StageCache cache(dir_.string());
  snapshot::Fingerprint a = snapshot::stage_fingerprint("s");
  a.mix_u64(1);
  snapshot::Fingerprint b = snapshot::stage_fingerprint("s");
  b.mix_u64(2);
  EXPECT_NE(cache.blob_path("s", a), cache.blob_path("s", b));
}

TEST_F(StageCacheTest, CorruptBlobRecomputesAndRepairs) {
  snapshot::StageCache cache(dir_.string());
  snapshot::Fingerprint fp = snapshot::stage_fingerprint("demand.profile");
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return small_profile();
  };
  auto ser = [](const demand::DemandProfile& p) {
    return snapshot::serialize(p);
  };
  auto de = [](std::string_view blob) {
    return snapshot::deserialize_profile(blob);
  };
  (void)cache.get_or_compute("demand.profile", fp, compute, ser, de);
  ASSERT_EQ(computes, 1);

  // Corrupt the stored blob; the next lookup must detect it, recompute,
  // and leave a valid blob behind.
  const std::string path = cache.blob_path("demand.profile", fp);
  std::string blob = io::read_text_file(path);
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x40);
  io::write_text_file(path, blob);

  const demand::DemandProfile back =
      cache.get_or_compute("demand.profile", fp, compute, ser, de);
  EXPECT_EQ(computes, 2) << "corrupt blob must recompute";
  EXPECT_EQ(cache.misses(), 2U);
  EXPECT_EQ(cache.hits(), 0U);
  EXPECT_EQ(back.cells(), small_profile().cells());
  EXPECT_NO_THROW(
      (void)snapshot::deserialize_profile(io::read_text_file(path)));
}

TEST_F(StageCacheTest, CacheRestoreIsByteIdenticalAcrossThreadCounts) {
  // The acceptance property in miniature: a blob written under one
  // executor is bit-identical to one written under another, so a warm run
  // at any thread count restores the cold run's bytes.
  demand::GeneratorConfig config;
  config.scale = 0.02;
  const demand::DemandProfile profile =
      demand::SyntheticGenerator{config}.generate_profile();
  const std::string blob_serial = snapshot::serialize(profile);
  runtime::ThreadPool pool(4);
  // Checksums are the only executor-dependent part of the writer path.
  EXPECT_EQ(snapshot::chunked_checksum(blob_serial, pool),
            snapshot::chunked_checksum(blob_serial,
                                       runtime::serial_executor()));
  const demand::DemandProfile back =
      snapshot::deserialize_profile(blob_serial);
  EXPECT_EQ(snapshot::serialize(back), blob_serial);
}

TEST(SnapshotCli, ParseCliArgForms) {
  // Restore the global to "off" afterwards so other tests are unaffected.
  struct Restore {
    ~Restore() { snapshot::set_global_dir(""); }
  } restore;

  const fs::path dir = fs::temp_directory_path() / "ldsnap_cli_test";
  fs::remove_all(dir);
  const std::string eq_arg = "--snapshot-dir=" + dir.string();
  std::string flag = "--snapshot-dir";
  std::string val = dir.string();
  char* argv_pair[] = {flag.data(), flag.data(), val.data()};
  int i = 1;
  EXPECT_TRUE(snapshot::parse_cli_arg(3, argv_pair, i));
  EXPECT_EQ(i, 2) << "separate value argument must be consumed";
  ASSERT_NE(snapshot::global_cache(), nullptr);
  EXPECT_EQ(snapshot::global_cache()->dir(), dir.string());

  std::string eq = eq_arg;
  char* argv_eq[] = {flag.data(), eq.data()};
  i = 1;
  EXPECT_TRUE(snapshot::parse_cli_arg(2, argv_eq, i));
  EXPECT_EQ(i, 1);

  std::string other = "--threads";
  char* argv_other[] = {flag.data(), other.data()};
  i = 1;
  EXPECT_FALSE(snapshot::parse_cli_arg(2, argv_other, i));

  std::string bare = "--snapshot-dir";
  char* argv_bare[] = {flag.data(), bare.data()};
  i = 1;
  EXPECT_THROW((void)snapshot::parse_cli_arg(2, argv_bare, i),
               std::runtime_error);
  fs::remove_all(dir);
}

// --------------------------------------------------------------- io layer --

TEST(FileIo, WriteTextFileRoundTripsBinary) {
  const fs::path path = fs::temp_directory_path() / "ldsnap_io_test.bin";
  const std::string payload("\x00\x01LDSNAP\r\n\xFF", 11);
  io::write_text_file(path.string(), payload);
  EXPECT_EQ(io::read_text_file(path.string()), payload);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"))
      << "temp file must not survive a successful write";
  // Overwrite is atomic-replace, not append.
  io::write_text_file(path.string(), "short");
  EXPECT_EQ(io::read_text_file(path.string()), "short");
  fs::remove(path);
}

TEST(FileIo, WriteTextFileFailurePathThrows) {
  EXPECT_THROW(
      io::write_text_file("/nonexistent-dir-xyz/file.txt", "payload"),
      std::runtime_error);
}

TEST(FileIo, CsvWriterPropagatesStreamFailure) {
  std::ofstream out("/nonexistent-dir-xyz/out.csv");
  io::CsvWriter w(out);
  EXPECT_THROW(w.write_row({"a", "b"}), std::runtime_error);
}

TEST(FileIo, JsonWriterPropagatesStreamFailure) {
  std::ofstream out("/nonexistent-dir-xyz/out.json");
  io::JsonWriter json(out);
  EXPECT_THROW(json.begin_object(), std::runtime_error);
}

}  // namespace

// Appended: indexed-kernel compatibility. The scheduling kernel was swapped
// from a naive full scan to the VisIndex-pruned one; snapshots written by
// pre-index builds must keep working — same stage fingerprints (no silent
// cache invalidation) and byte-identical trace payloads.
namespace {

sim::SimulationConfig golden_sim_config() {
  sim::SimulationConfig config;
  config.duration_s = 300.0;
  config.step_s = 100.0;
  config.scheduler.beamspread = 5;
  return config;
}

TEST(IndexedKernelCompat, SimEpochsFingerprintIsStable) {
  snapshot::Fingerprint fp = snapshot::stage_fingerprint("sim.epochs");
  snapshot::mix(fp, golden_sim_config());
  // Captured from the pre-index build. The fingerprint mixes config fields
  // only, so swapping the kernel must not move it — a change here silently
  // invalidates every existing ldsnap cache entry.
  EXPECT_EQ(fp.hex(), "fef47cc646ddcf3e");
}

TEST(IndexedKernelCompat, TraceBlobMatchesPreIndexBuildByteForByte) {
  const auto profile =
      demand::SyntheticGenerator({.seed = 17, .scale = 0.01})
          .generate_profile();
  const sim::Simulation simulation(golden_sim_config(), profile);
  const auto trace = simulation.run(runtime::serial_executor());
  const std::string blob = snapshot::serialize(trace);
  // Size and digest of the blob the pre-index build serialized for this
  // exact scenario: a trace cached by an old build deserializes equal to a
  // fresh indexed-kernel run, so warm caches survive the kernel swap.
  EXPECT_EQ(blob.size(), 274U);
  snapshot::Fingerprint digest;
  digest.mix(blob);
  EXPECT_EQ(digest.hex(), "2b5efa2983576320");
  EXPECT_TRUE(snapshot::deserialize_epochs(blob) == trace);
}

// ------------------------------------------------- serve/ delta journal --

std::vector<demand::DeltaOp> small_journal() {
  std::vector<demand::DeltaOp> journal;
  demand::DeltaOp add;
  add.kind = demand::DeltaKind::kAddLocations;
  add.position = {39.1, -75.4};
  add.count = 37;
  add.county_index = 1;
  journal.push_back(add);
  demand::DeltaOp remove = add;
  remove.kind = demand::DeltaKind::kRemoveLocations;
  remove.count = 12;
  journal.push_back(remove);
  demand::DeltaOp upgrade = add;
  upgrade.kind = demand::DeltaKind::kUpgradeLocations;
  upgrade.count = 3;
  journal.push_back(upgrade);
  demand::DeltaOp price;
  price.kind = demand::DeltaKind::kSetPlanPrice;
  price.plan_name = "Starlink Residential";  // spaces must survive the trip
  price.value = 95.0;
  journal.push_back(price);
  demand::DeltaOp income;
  income.kind = demand::DeltaKind::kSetCountyIncome;
  income.county_index = 0;
  income.value = 48213.5;
  journal.push_back(income);
  return journal;
}

TEST(Artifacts, DeltaJournalRoundTripExact) {
  const std::vector<demand::DeltaOp> journal = small_journal();
  const std::string blob = snapshot::serialize(journal);
  const snapshot::SnapshotReader reader =
      snapshot::SnapshotReader::parse(blob);
  EXPECT_EQ(reader.kind(), snapshot::ArtifactKind::kDeltaJournal);
  EXPECT_EQ(to_string(reader.kind()), "delta_journal");
  EXPECT_EQ(snapshot::deserialize_delta_journal(blob), journal);
}

TEST(Artifacts, EmptyDeltaJournalRoundTrips) {
  const std::string blob = snapshot::serialize(std::vector<demand::DeltaOp>{});
  EXPECT_TRUE(snapshot::deserialize_delta_journal(blob).empty());
}

TEST(Adversarial, DeltaJournalEveryTruncationFailsTyped) {
  const std::string blob = snapshot::serialize(small_journal());
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(
        (void)snapshot::deserialize_delta_journal(blob.substr(0, len)),
        snapshot::SnapshotError)
        << "prefix length " << len << " parsed";
  }
}

TEST(Adversarial, DeltaJournalUnknownKindRejected) {
  // Container-valid journal whose single op carries kind byte 9: the
  // checksums pass, so only read_delta_op's kind validation can refuse it.
  snapshot::ByteWriter ops;
  ops.u64(1);
  ops.u8(9);  // no such DeltaKind
  ops.f64(39.1);
  ops.f64(-75.4);
  ops.u32(5);
  ops.u32(0);
  ops.str("");
  ops.f64(0.0);
  snapshot::SnapshotWriter w(snapshot::ArtifactKind::kDeltaJournal);
  w.add_section("ops", std::move(ops).take());
  EXPECT_THROW(
      (void)snapshot::deserialize_delta_journal(std::move(w).finish()),
      snapshot::SnapshotError);
}

TEST_F(StageCacheTest, UnwritableDirDegradesToRecomputeWithOneWarning) {
  // A stray regular file where the stage directory should be makes every
  // store fail (the test runs as root, so a read-only directory would not).
  // The cache must degrade to recompute-without-store: one stderr warning,
  // every store counted as a failure, every get_or_compute still answering.
  fs::create_directories(dir_);
  io::write_text_file((dir_ / "stage").string(), "not a directory");

  snapshot::StageCache cache(dir_.string());
  snapshot::Fingerprint fp = snapshot::stage_fingerprint("stage");
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return small_profile();
  };
  auto ser = [](const demand::DemandProfile& p) {
    return snapshot::serialize(p);
  };
  auto de = [](std::string_view blob) {
    return snapshot::deserialize_profile(blob);
  };

  ::testing::internal::CaptureStderr();
  const demand::DemandProfile first =
      cache.get_or_compute("stage", fp, compute, ser, de);
  const demand::DemandProfile second =
      cache.get_or_compute("stage", fp, compute, ser, de);
  const std::string warnings = ::testing::internal::GetCapturedStderr();

  EXPECT_EQ(computes, 2) << "nothing was stored, so nothing can hit";
  EXPECT_EQ(first.cells(), second.cells());
  EXPECT_EQ(cache.store_failures(), 2U);
  EXPECT_EQ(cache.hits(), 0U);
  const std::string needle = "is not writable";
  std::size_t count = 0;
  for (std::size_t pos = warnings.find(needle); pos != std::string::npos;
       pos = warnings.find(needle, pos + needle.size())) {
    ++count;
  }
  EXPECT_EQ(count, 1U) << "exactly one warning expected, got:\n" << warnings;
}

}  // namespace
