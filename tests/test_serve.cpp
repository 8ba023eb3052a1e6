// serve/ subsystem tests: incremental-engine golden equivalence against
// the plain library on mutated profiles, disk-partial warm restarts,
// paranoid mode, the session dispatcher's reply/error contract, the
// loopback server/client end-to-end path, and the concurrent-session test
// CI runs under TSan.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/delta.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/serve/client.hpp"
#include "leodivide/serve/incremental.hpp"
#include "leodivide/serve/server.hpp"
#include "leodivide/serve/session.hpp"
#include "leodivide/snapshot/artifacts.hpp"
#include "leodivide/snapshot/cache.hpp"

namespace {

using namespace leodivide;
namespace fs = std::filesystem;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

demand::DemandProfile small_profile() {
  return demand::SyntheticGenerator({.seed = 7, .scale = 0.02})
      .generate_profile();
}

// The mutation sequence every equivalence test replays: adds into existing
// and brand-new cells, removals, subsidy upgrades and an income revision.
std::vector<demand::DeltaOp> scripted_ops(const demand::DemandProfile& base) {
  std::vector<demand::DeltaOp> ops;
  demand::DeltaOp add;
  add.kind = demand::DeltaKind::kAddLocations;
  add.position = base.cells()[3].center;
  add.count = 400;
  ops.push_back(add);

  demand::DeltaOp fresh;  // a position no baseline cell covers
  fresh.kind = demand::DeltaKind::kAddLocations;
  fresh.position = {47.9, -69.2};
  fresh.count = 55;
  fresh.county_index = 2;
  ops.push_back(fresh);

  demand::DeltaOp remove;
  remove.kind = demand::DeltaKind::kRemoveLocations;
  remove.position = base.cells()[3].center;
  remove.count = 150;
  ops.push_back(remove);

  demand::DeltaOp upgrade;
  upgrade.kind = demand::DeltaKind::kUpgradeLocations;
  upgrade.position = base.cells()[base.cell_count() / 2].center;
  upgrade.count = 1;
  ops.push_back(upgrade);

  demand::DeltaOp income;
  income.kind = demand::DeltaKind::kSetCountyIncome;
  income.county_index = 1;
  income.value = 23456.0;
  ops.push_back(income);
  return ops;
}

// Asserts every engine answer equals the plain library computation on
// `reference` at the bit level, across several query parameter points.
void expect_engine_matches_library(serve::IncrementalEngine& engine,
                                   const demand::DemandProfile& reference) {
  const core::SizingModel model{};
  runtime::Executor& executor = runtime::serial_executor();
  const double points[][2] = {{10.0, 20.0}, {4.0, 20.0}, {10.0, 5.0}};
  for (const auto& p : points) {
    const serve::ResizeAnswer got = engine.query_resize(p[0], p[1]);
    const core::SizingResult full =
        core::size_full_service(reference, model, p[0]);
    const core::SizingResult capped =
        core::size_with_cap(reference, model, p[0], p[1], executor);
    EXPECT_TRUE(same_bits(got.full.satellites, full.satellites));
    EXPECT_TRUE(same_bits(got.full.binding_lat_deg, full.binding_lat_deg));
    EXPECT_EQ(got.full.beams_on_binding, full.beams_on_binding);
    EXPECT_EQ(got.full.binding_cell_index, full.binding_cell_index);
    EXPECT_TRUE(same_bits(got.capped.satellites, capped.satellites));
    EXPECT_TRUE(same_bits(got.capped.binding_lat_deg, capped.binding_lat_deg));
    EXPECT_EQ(got.capped.beams_on_binding, capped.beams_on_binding);
    EXPECT_EQ(got.capped.binding_cell_index, capped.binding_cell_index);

    const serve::ServedFractionAnswer served =
        engine.query_served_fraction(p[0], p[1]);
    EXPECT_TRUE(same_bits(
        served.cell_fraction,
        core::served_cell_fraction(reference, model.capacity, p[0], p[1])));
    EXPECT_TRUE(same_bits(served.location_fraction,
                          core::served_location_fraction(
                              reference, model.capacity, p[0], p[1])));
    EXPECT_EQ(served.total_locations, reference.total_locations());
  }
  const afford::ServicePlan plan = afford::starlink_residential();
  EXPECT_EQ(engine.query_affordability(plan, afford::kAffordabilityThreshold),
            afford::AffordabilityAnalyzer(reference).evaluate(
                plan, afford::kAffordabilityThreshold));
}

// ----------------------------------------------------- incremental engine --

TEST(ServeIncremental, BaselineAnswersMatchLibrary) {
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  EXPECT_GT(engine.region_count(), 1U);
  expect_engine_matches_library(engine, base);
}

TEST(ServeIncremental, GoldenEquivalenceThroughDeltaSequence) {
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  (void)engine.query_resize(10.0, 20.0);  // warm the partials

  demand::DemandProfile reference = base;
  const hex::HexGrid grid;
  demand::DeltaApplier applier(reference, grid, hex::kServiceCellResolution);
  for (const demand::DeltaOp& op : scripted_ops(base)) {
    const serve::ApplyOutcome outcome = engine.apply(op);
    (void)applier.apply(op);
    if (op.kind != demand::DeltaKind::kSetCountyIncome) {
      EXPECT_TRUE(outcome.effect.cells_changed);
    }
    expect_engine_matches_library(engine, reference);
  }
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.deltas_applied, scripted_ops(base).size());
  EXPECT_GT(stats.partial_hits, 0U);
  // A single-cell delta must not invalidate the other regions: far fewer
  // recomputes than (rounds x regions) full recomputation would take.
  EXPECT_LT(stats.region_recomputes,
            stats.partial_hits + stats.region_recomputes);
}

// A position whose service cell is NOT in `profile` (scans candidates, so
// the test never depends on what the 2% sample happened to include).
geo::GeoPoint vacant_position(const demand::DemandProfile& profile) {
  const hex::HexGrid grid;
  for (double lat = 26.0; lat < 48.0; lat += 1.3) {
    for (double lon = -120.0; lon < -70.0; lon += 1.7) {
      const std::uint64_t bits =
          grid.cell_of({lat, lon}, hex::kServiceCellResolution).bits();
      bool taken = false;
      for (const auto& cell : profile.cells()) {
        if (cell.cell.bits() == bits) {
          taken = true;
          break;
        }
      }
      if (!taken) return {lat, lon};
    }
  }
  throw std::runtime_error("no vacant cell found");
}

TEST(ServeIncremental, AddIntoBrandNewRegionGrowsTheEngine) {
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  const std::size_t regions_before = engine.region_count();
  const std::size_t cells_before = engine.profile().cell_count();

  demand::DeltaOp op;
  op.kind = demand::DeltaKind::kAddLocations;
  op.position = vacant_position(base);
  op.count = 10;
  op.county_index = 0;
  const serve::ApplyOutcome outcome = engine.apply(op);
  EXPECT_TRUE(outcome.effect.cell_added);
  EXPECT_EQ(engine.profile().cell_count(), cells_before + 1);
  if (outcome.region_added) {
    EXPECT_EQ(engine.region_count(), regions_before + 1);
  }
  demand::DemandProfile reference = engine.profile();
  expect_engine_matches_library(engine, reference);
}

TEST(ServeIncremental, InvalidOpLeavesAnswersUnchanged) {
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  const serve::ResizeAnswer before = engine.query_resize(10.0, 20.0);

  demand::DeltaOp bad;
  bad.kind = demand::DeltaKind::kRemoveLocations;
  bad.position = base.cells()[0].center;
  bad.count = 0xFFFFFFFF;  // more than any cell holds
  EXPECT_THROW((void)engine.apply(bad), std::invalid_argument);

  demand::DeltaOp price;
  price.kind = demand::DeltaKind::kSetPlanPrice;
  price.plan_name = "X";
  price.value = 1.0;
  EXPECT_THROW((void)engine.apply(price), std::invalid_argument);

  const serve::ResizeAnswer after = engine.query_resize(10.0, 20.0);
  EXPECT_EQ(before, after);
}

TEST(ServeIncremental, EmptyProfileConventions) {
  serve::IncrementalEngine engine(demand::DemandProfile{},
                                  serve::EngineConfig{});
  EXPECT_THROW((void)engine.query_resize(10.0, 20.0), std::invalid_argument);
  const serve::ServedFractionAnswer served =
      engine.query_served_fraction(10.0, 20.0);
  EXPECT_TRUE(same_bits(served.cell_fraction, 1.0));
  EXPECT_TRUE(same_bits(served.location_fraction, 1.0));
  EXPECT_EQ(served.total_cells, 0U);
}

TEST(ServeIncremental, SingleBeamFallbackMatchesLibrary) {
  // At 1000:1 one beam carries every cell, so the capped answer comes from
  // the single-beam fallback on the merged peak cell.
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  constexpr double kOneBeamCap = 1000.0;
  const core::SizingModel model{};
  const serve::ResizeAnswer got = engine.query_resize(10.0, kOneBeamCap);
  EXPECT_EQ(got.capped.beams_on_binding, 1U);
  EXPECT_EQ(got.capped, core::size_with_cap(base, model, 10.0, kOneBeamCap,
                                            runtime::serial_executor()));
  EXPECT_EQ(got.full, core::size_full_service(base, model, 10.0));
}

TEST(ServeIncremental, BitEqualRequirementsBindTheSmallestIndex) {
  // Cells alternate between two regions by index (A, B, A, B). Cells 1-3
  // share a latitude and a count, so their requirements are bit-equal;
  // region A's candidate is cell 2 and it merges first, but the binding
  // cell must be cell 1, as in the serial scan.
  const hex::HexGrid grid;
  const serve::EngineConfig config{};
  const auto children = [&grid](const geo::GeoPoint& at) {
    return grid.children_of(grid.cell_of(at, serve::kRegionResolution),
                            hex::kServiceCellResolution);
  };
  const std::vector<hex::CellId> a = children({40.0, -100.0});
  const std::vector<hex::CellId> b = children({40.0, -85.0});
  ASSERT_GE(a.size(), 2U);
  ASSERT_GE(b.size(), 2U);
  const hex::CellId ids[] = {a[0], b[0], a[1], b[1]};
  std::vector<demand::CellDemand> cells(4);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].cell = ids[i];
    cells[i].center = {40.0, -100.0 + static_cast<double>(i)};
    cells[i].underserved = i == 0 ? 10 : 3000;
  }
  demand::CountyTable counties;
  counties.add({"90001", {}, 50000.0, 0});
  const demand::DemandProfile profile(std::move(cells), std::move(counties));
  const auto region = [&](std::size_t i) {
    return grid.parent_of(ids[i], serve::kRegionResolution);
  };
  ASSERT_EQ(region(0), region(2));
  ASSERT_EQ(region(1), region(3));
  ASSERT_NE(region(0), region(1));

  serve::IncrementalEngine engine(profile, config);
  ASSERT_EQ(engine.region_count(), 2U);
  const serve::ResizeAnswer got = engine.query_resize(10.0, 20.0);
  EXPECT_GE(got.capped.beams_on_binding, 2U);
  EXPECT_EQ(got.capped.binding_cell_index, 1U);
  EXPECT_EQ(got.capped, core::size_with_cap(profile, config.model, 10.0, 20.0,
                                            runtime::serial_executor()));
}

TEST(ServeIncremental, ParanoidModeAcceptsCorrectAnswers) {
  const demand::DemandProfile base = small_profile();
  serve::EngineConfig config;
  config.paranoid = true;
  serve::IncrementalEngine engine(base, config);
  for (const demand::DeltaOp& op : scripted_ops(base)) {
    (void)engine.apply(op);
    EXPECT_NO_THROW((void)engine.query_resize(10.0, 20.0));
    EXPECT_NO_THROW((void)engine.query_served_fraction(10.0, 20.0));
    EXPECT_NO_THROW((void)engine.query_affordability(
        afford::starlink_residential(), afford::kAffordabilityThreshold));
  }
  EXPECT_GT(engine.stats().paranoid_checks, 0U);
}

TEST(ServeIncremental, WarmRestartServesPartialsFromDisk) {
  const fs::path dir =
      fs::temp_directory_path() / "leodivide_serve_warm_test";
  fs::remove_all(dir);
  const demand::DemandProfile base = small_profile();
  {
    snapshot::StageCache cache(dir);
    serve::IncrementalEngine engine(base, serve::EngineConfig{}, &cache);
    (void)engine.query_resize(10.0, 20.0);
    (void)engine.query_served_fraction(10.0, 20.0);
    EXPECT_GT(engine.stats().region_recomputes, 0U);  // cold: computed
  }
  {
    snapshot::StageCache cache(dir);
    serve::IncrementalEngine engine(base, serve::EngineConfig{}, &cache);
    const serve::ResizeAnswer got = engine.query_resize(10.0, 20.0);
    (void)engine.query_served_fraction(10.0, 20.0);
    const serve::EngineStats stats = engine.stats();
    // The in-memory partials were cold (misses), but every one of them was
    // restored from the disk cache — nothing was recomputed.
    EXPECT_GT(stats.partial_misses, 0U);
    EXPECT_EQ(stats.region_recomputes, 0U);
    const core::SizingResult full =
        core::size_full_service(base, core::SizingModel{}, 10.0);
    EXPECT_TRUE(same_bits(got.full.satellites, full.satellites));
  }
  fs::remove_all(dir);
}

// -------------------------------------------------------------- session --

serve::ServiceState make_state(bool paranoid = false) {
  serve::ServiceConfig config;
  config.engine.paranoid = paranoid;
  return serve::ServiceState(small_profile(), config);
}

TEST(ServeSession, HelloDescribesTheBaseline) {
  serve::ServiceState state = make_state();
  const serve::protocol::Frame reply = state.handle(
      {serve::protocol::MsgType::kHello,
       encode(serve::protocol::HelloRequest{"test"})});
  ASSERT_EQ(reply.type, serve::protocol::MsgType::kHelloReply);
  const serve::protocol::HelloReply hello =
      serve::protocol::decode_hello_reply(reply.payload);
  EXPECT_EQ(hello.cells, small_profile().cell_count());
  EXPECT_EQ(hello.protocol_version, serve::protocol::kProtocolVersion);
  EXPECT_FALSE(hello.paranoid);
  EXPECT_EQ(hello.server, serve::kServerName);
}

TEST(ServeSession, AffordabilityWithoutThresholdUsesThePapersThreshold) {
  serve::ServiceState state = make_state();
  const auto ask = [&state](double threshold) {
    const serve::protocol::Frame reply = state.handle(
        {serve::protocol::MsgType::kQueryAffordability,
         encode(serve::protocol::QueryAffordabilityRequest{
             "Starlink Residential", threshold})});
    EXPECT_EQ(reply.type, serve::protocol::MsgType::kAffordabilityResult);
    return serve::protocol::decode_affordability_reply(reply.payload);
  };
  const serve::protocol::AffordabilityReply by_default = ask(0.0);
  EXPECT_EQ(by_default, ask(afford::kAffordabilityThreshold));
  EXPECT_FALSE(by_default == ask(2.0 * afford::kAffordabilityThreshold));
}

TEST(ServeSession, ApplyDeltaReportsDirtyRegionsAndJournals) {
  serve::ServiceState state = make_state();
  serve::protocol::ApplyDeltaRequest req;
  req.ops = scripted_ops(small_profile());
  demand::DeltaOp price;
  price.kind = demand::DeltaKind::kSetPlanPrice;
  price.plan_name = "Starlink Residential";
  price.value = 99.0;
  req.ops.push_back(price);

  const serve::protocol::Frame reply = state.handle(
      {serve::protocol::MsgType::kApplyDelta, encode(req)});
  ASSERT_EQ(reply.type, serve::protocol::MsgType::kDeltaApplied);
  const serve::protocol::DeltaAppliedReply applied =
      serve::protocol::decode_delta_applied_reply(reply.payload);
  EXPECT_EQ(applied.ops_applied, req.ops.size());
  EXPECT_GT(applied.dirty_regions, 0U);
  EXPECT_EQ(applied.journal_length, req.ops.size());
  EXPECT_EQ(state.journal_copy(), req.ops);

  // The journal round-trips through its LDSNAP artifact.
  EXPECT_EQ(snapshot::deserialize_delta_journal(state.serialized_journal()),
            req.ops);
}

TEST(ServeSession, MidBatchFailureReportsProgressAndKeepsPriorOps) {
  serve::ServiceState state = make_state();
  serve::protocol::ApplyDeltaRequest req;
  demand::DeltaOp ok;
  ok.kind = demand::DeltaKind::kAddLocations;
  ok.position = small_profile().cells()[0].center;
  ok.count = 5;
  demand::DeltaOp bad;
  bad.kind = demand::DeltaKind::kSetCountyIncome;
  bad.county_index = 0;
  bad.value = -1.0;  // invalid: income must be positive
  req.ops = {ok, bad, ok};

  const serve::protocol::Frame reply = state.handle(
      {serve::protocol::MsgType::kApplyDelta, encode(req)});
  ASSERT_EQ(reply.type, serve::protocol::MsgType::kError);
  const std::string message =
      serve::protocol::decode_error_reply(reply.payload).message;
  EXPECT_NE(message.find("op 1"), std::string::npos);
  EXPECT_NE(message.find("1 op(s) applied"), std::string::npos);
  EXPECT_EQ(state.journal_copy(), std::vector<demand::DeltaOp>{ok});
}

TEST(ServeSession, RequestLevelErrorsAnswerWithoutKillingTheSession) {
  serve::ServiceState state = make_state();
  // Unknown plan.
  serve::protocol::Frame reply = state.handle(
      {serve::protocol::MsgType::kQueryAffordability,
       encode(serve::protocol::QueryAffordabilityRequest{"no-such-plan",
                                                         0.0})});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kError);
  EXPECT_NE(serve::protocol::decode_error_reply(reply.payload)
                .message.find("unknown plan"),
            std::string::npos);
  // Malformed payload.
  reply = state.handle({serve::protocol::MsgType::kQueryResize, "xy"});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kError);
  // Unknown message type.
  reply = state.handle({static_cast<serve::protocol::MsgType>(77), ""});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kError);
  // The session still answers real queries afterwards.
  reply = state.handle(
      {serve::protocol::MsgType::kQueryServedFraction,
       encode(serve::protocol::QueryServedFractionRequest{10.0, 20.0})});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kServedFractionResult);
}

TEST(ServeSession, StatsExposesTheEngineCounters) {
  serve::ServiceState state = make_state();
  (void)state.handle(
      {serve::protocol::MsgType::kQueryServedFraction,
       encode(serve::protocol::QueryServedFractionRequest{10.0, 20.0})});
  const serve::protocol::Frame reply =
      state.handle({serve::protocol::MsgType::kStats, ""});
  ASSERT_EQ(reply.type, serve::protocol::MsgType::kStatsReply);
  const serve::protocol::StatsReply stats =
      serve::protocol::decode_stats_reply(reply.payload);
  bool saw_cells = false;
  for (const auto& [name, value] : stats.counters) {
    if (name == "serve.cells") {
      saw_cells = true;
      EXPECT_EQ(value, small_profile().cell_count());
    }
  }
  EXPECT_TRUE(saw_cells);
}

// --------------------------------------------------------- server/client --

TEST(ServeServer, LoopbackEndToEnd) {
  serve::ServiceState state = make_state();
  serve::ServerConfig config;
  config.workers = 2;
  serve::Server server(state, config);
  server.start();
  ASSERT_GT(server.port(), 0);

  serve::Client client;
  client.connect("127.0.0.1", server.port());
  const serve::protocol::HelloReply hello = client.hello("e2e");
  EXPECT_EQ(hello.cells, small_profile().cell_count());

  // Mutate, then check a query against a directly-driven identical state.
  demand::DeltaOp op;
  op.kind = demand::DeltaKind::kAddLocations;
  op.position = small_profile().cells()[1].center;
  op.count = 77;
  const serve::protocol::DeltaAppliedReply applied = client.apply_delta({op});
  EXPECT_EQ(applied.ops_applied, 1U);

  serve::ServiceState direct = make_state();
  (void)direct.handle(
      {serve::protocol::MsgType::kApplyDelta, encode([&] {
         serve::protocol::ApplyDeltaRequest r;
         r.ops = {op};
         return r;
       }())});
  const serve::protocol::Frame expected = direct.handle(
      {serve::protocol::MsgType::kQueryServedFraction,
       encode(serve::protocol::QueryServedFractionRequest{10.0, 20.0})});
  const serve::protocol::ServedFractionReply got =
      client.query_served_fraction(10.0, 20.0);
  EXPECT_EQ(encode(got), expected.payload);

  // Request-level failure surfaces as ServiceError, connection survives.
  EXPECT_THROW((void)client.query_affordability("no-such-plan"),
               serve::ServiceError);
  EXPECT_NO_THROW((void)client.stats());

  client.shutdown_server();
  EXPECT_TRUE(state.shutdown_requested());
  server.stop();
}

TEST(ServeServer, ConcurrentSessionsStayConsistent) {
  // The TSan job runs this: several clients hammer one server from
  // separate threads; every reply must be well-formed and the journal must
  // end with exactly one op per client.
  serve::ServiceState state = make_state();
  serve::ServerConfig config;
  config.workers = 4;
  serve::Server server(state, config);
  server.start();

  constexpr std::size_t kClients = 4;
  const demand::DemandProfile base = small_profile();
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        serve::Client client;
        client.connect("127.0.0.1", server.port());
        (void)client.hello("client-" + std::to_string(c));
        for (int q = 0; q < 10; ++q) {
          const serve::protocol::ServedFractionReply served =
              client.query_served_fraction(10.0, 20.0);
          if (served.total_cells == 0) failures[c] = 1;
          (void)client.query_resize(10.0, 20.0);
        }
        demand::DeltaOp op;
        op.kind = demand::DeltaKind::kAddLocations;
        op.position = base.cells()[c].center;
        op.count = 1;
        if (client.apply_delta({op}).ops_applied != 1) failures[c] = 1;
      } catch (const std::exception&) {
        failures[c] = 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  EXPECT_EQ(state.journal_copy().size(), kClients);
  server.stop();
}

TEST(ServeServer, UnknownMessageTypeGetsAnErrorFrame) {
  serve::ServiceState state = make_state();
  serve::Server server(state, serve::ServerConfig{});
  server.start();

  serve::Client client;
  client.connect("127.0.0.1", server.port());
  // A well-framed message of a type the server does not know: answered
  // with kError, connection stays up for the next request.
  const serve::protocol::Frame reply = client.call(
      static_cast<serve::protocol::MsgType>(0xDEAD), "not a real payload");
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kError);
  EXPECT_NO_THROW((void)client.hello("still-alive"));
  server.stop();
}

TEST(ServeServer, StopUnblocksIdleSessions) {
  serve::ServiceState state = make_state();
  serve::Server server(state, serve::ServerConfig{});
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  (void)client.hello("idle");
  // The client sits idle in the worker's recv(); stop() must not hang.
  server.stop();
}

}  // namespace
