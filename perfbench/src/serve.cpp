// serve: an in-process analysis server on loopback. Two client connections
// each run a closed loop (the next request goes out when the reply
// arrives, as analysts and analysis_client do) over a seeded script in
// which one request in four is an ApplyDelta, so writes sit beside the
// reads that recompute the regions they dirty. A unit is a block of
// kBlock consecutive requests on one connection: every block holds the
// same mix (two of each query kind and an add with its removal or
// upgrade), so unit times are alike, where single requests of four kinds
// with costs apart by 5x have no steady median.

#include <malloc.h>

#include <array>
#include <fstream>
#include <optional>
#include <thread>

#include "checks.hpp"
#include "leodivide/afford/plan.hpp"
#include "leodivide/obs/gate.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/serve/client.hpp"
#include "leodivide/serve/server.hpp"
#include "leodivide/serve/session.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace leodivide;
namespace protocol = serve::protocol;
using protocol::MsgType;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kServerWorkers = 2;
// Requests per unit: the script's kind pattern repeats every four
// requests, and every add is followed by its removal within the block.
constexpr std::size_t kBlock = 8;
// Requests per connection script. A multiple of kBlock, so the script
// replays validly from any block it left off at.
constexpr std::size_t kScriptLength = 512;

// Figure 2 grid points.
constexpr std::array<double, 7> kBeamspreads = {2, 4, 6, 8, 10, 12, 14};
constexpr std::array<double, 6> kOversubs = {5, 10, 15, 20, 25, 30};

// Request kinds, in the order of the per-type latency tables.
constexpr std::array<MsgType, 4> kKinds = {
    MsgType::kApplyDelta, MsgType::kQueryResize,
    MsgType::kQueryServedFraction, MsgType::kQueryAffordability};
constexpr std::array<const char*, 4> kKindSpans = {
    "serve.apply_delta", "serve.query_resize", "serve.query_served_fraction",
    "serve.query_affordability"};
constexpr std::array<const char*, 4> kKindMetrics = {
    "serve.delta_p50_us", "serve.resize_p50_us", "serve.served_p50_us",
    "serve.afford_p50_us"};

struct Request {
  std::size_t kind = 0;  ///< index into kKinds
  std::vector<demand::DeltaOp> ops;
  double beamspread = 0.0;
  double ratio = 0.0;  ///< oversubscription cap or ratio
  std::string plan;
};

// Connection `conn` only touches cells and counties whose index is
// congruent to `conn` modulo kConnections, so both scripts stay valid under
// any interleaving.
std::vector<Request> make_script(const demand::DemandProfile& profile,
                                 std::uint64_t seed, std::size_t conn) {
  SeededRng rng(seed * 0x9E3779B97F4A7C15ULL + conn + 1);
  const auto& cells = profile.cells();
  const std::size_t counties = profile.counties().size();
  const std::vector<afford::ServicePlan> plans = afford::paper_plans();
  const auto own = [&](std::size_t n) {
    const std::size_t k = (n - conn + kConnections - 1) / kConnections;
    return conn + kConnections * rng.below(k);
  };
  std::vector<Request> script;
  std::optional<demand::DeltaOp> pending_add;
  for (std::size_t i = 0; i < kScriptLength; ++i) {
    Request r;
    if (i % 4 == 3) {
      r.kind = 0;
      demand::DeltaOp op;
      if (pending_add) {
        op = *pending_add;
        op.kind = rng.below(2) == 0 ? demand::DeltaKind::kRemoveLocations
                                    : demand::DeltaKind::kUpgradeLocations;
        pending_add.reset();
      } else {
        const demand::CellDemand& cell = cells[own(cells.size())];
        op.kind = demand::DeltaKind::kAddLocations;
        op.position = cell.center;
        op.count = static_cast<std::uint32_t>(1 + rng.below(64));
        op.county_index = cell.county_index;
        pending_add = op;
      }
      r.ops.push_back(op);
      if (rng.below(8) == 0) {
        demand::DeltaOp income;
        income.kind = demand::DeltaKind::kSetCountyIncome;
        income.county_index = static_cast<std::uint32_t>(own(counties));
        income.value = 30000.0 + static_cast<double>(rng.below(60)) * 1000.0;
        r.ops.push_back(income);
      }
    } else {
      r.kind = 1 + i % 4;
      r.beamspread = kBeamspreads[rng.below(kBeamspreads.size())];
      r.ratio = kOversubs[rng.below(kOversubs.size())];
      r.plan = plans[rng.below(plans.size())].name;
    }
    script.push_back(std::move(r));
  }
  return script;
}

void send(serve::Client& client, const Request& r) {
  switch (kKinds[r.kind]) {
    case MsgType::kApplyDelta:
      (void)client.apply_delta(r.ops);
      return;
    case MsgType::kQueryResize:
      (void)client.query_resize(r.beamspread, r.ratio);
      return;
    case MsgType::kQueryServedFraction:
      (void)client.query_served_fraction(r.beamspread, r.ratio);
      return;
    default:
      (void)client.query_affordability(r.plan);
      return;
  }
}

// One client connection's closed loop.
struct Connection {
  std::vector<Request> script;
  std::size_t cursor = 0;
  std::vector<double> block_ms;  ///< blocks with no failed request
  /// Request latencies by kind, kept while the tracer records.
  std::array<std::vector<double>, kKinds.size()> ms;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::vector<std::string> errors;

  void run(std::uint16_t port, double seconds, std::size_t min_blocks,
           Tracer& tracer, std::uint64_t request_base) {
    const auto until = Clock::now() +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    try {
      serve::Client client;
      client.connect("127.0.0.1", port);
      (void)client.hello("perfbench");
      std::uint64_t id = request_base;
      for (std::size_t n = 0; n < min_blocks || Clock::now() < until; ++n) {
        const auto t0 = Clock::now();
        bool ok = true;
        {
          const Tracer::Scope unit(tracer, "unit");
          for (std::size_t k = 0; k < kBlock; ++k) {
            const Request& r = script[cursor++ % script.size()];
            ++attempted;
            const auto t1 = Clock::now();
            try {
              const Tracer::Scope span(tracer, kKindSpans[r.kind], ++id);
              send(client, r);
            } catch (const serve::ServiceError& e) {
              errors.push_back(std::string("unexpected kError: ") + e.what());
              ok = false;
              continue;
            }
            if (tracer.recording()) ms[r.kind].push_back(ms_since(t1));
            ++completed;
          }
        }
        if (ok) block_ms.push_back(ms_since(t0));
      }
    } catch (const std::exception& e) {
      errors.push_back(std::string("transport: ") + e.what());
    }
  }
};

// Runs `conns` concurrently, each on its own thread, and moves their block
// times into `samples` and, when given, request latencies into `by_kind`.
// Returns the requests completed per second.
double run_clients(const std::vector<Connection*>& conns, std::uint16_t port,
                   double seconds, std::size_t min_blocks, Tracer& tracer,
                   Measurement& m, std::vector<double>& samples,
                   std::array<std::vector<double>, kKinds.size()>* by_kind) {
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] {
      conns[i]->run(port, seconds, min_blocks, tracer,
                    (static_cast<std::uint64_t>(i) + 1) << 40);
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = ms_since(start) / 1e3;
  std::uint64_t completed = 0;
  for (Connection* c : conns) {
    m.attempted += c->attempted;
    completed += c->completed;
    c->attempted = c->completed = 0;
    for (const std::string& e : c->errors) m.fail(e);
    c->errors.clear();
    samples.insert(samples.end(), c->block_ms.begin(), c->block_ms.end());
    c->block_ms.clear();
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      if (by_kind != nullptr) {
        (*by_kind)[k].insert((*by_kind)[k].end(), c->ms[k].begin(),
                             c->ms[k].end());
      }
      c->ms[k].clear();
    }
  }
  return static_cast<double>(completed) / elapsed;
}

// Untimed queries at every grid point and plan, which fill the engine's
// per-region partials as a running server has them.
void warm_up(const serve::Server& server, Measurement& m) {
  ++m.attempted;
  try {
    serve::Client client;
    client.connect("127.0.0.1", server.port());
    for (const double bs : kBeamspreads) {
      for (const double ratio : kOversubs) {
        (void)client.query_resize(bs, ratio);
        (void)client.query_served_fraction(bs, ratio);
      }
    }
    for (const afford::ServicePlan& p : afford::paper_plans()) {
      (void)client.query_affordability(p.name);
    }
  } catch (const std::exception& e) {
    m.fail(std::string("warm-up: ") + e.what());
  }
}

serve::ServerConfig server_config(std::size_t workers) {
  serve::ServerConfig config;
  config.workers = workers;
  return config;
}

}  // namespace

Measurement run_serve(const Options& o) {
  Measurement m;
#ifdef __GLIBC__
  // Server and client threads start anew in every slot, and glibc gives
  // new threads new malloc arenas as timing allows: peak RSS of identical
  // runs ranged 14-20 MB. One arena makes it repeat; throughput is the same.
  mallopt(M_ARENA_MAX, 1);
#endif
  runtime::set_global_threads(o.threads);
  demand::DemandProfile baseline;
  std::optional<serve::ServiceState> state;
  std::optional<serve::Server> server;
  std::vector<double> state_build_ms;
  for (int i = 0; i < kSetupRuns; ++i) {
    const auto t0 = Clock::now();
    server.reset();
    state.reset();
    baseline = seeded_profile(o.seed);
    const auto t1 = Clock::now();
    state.emplace(baseline, serve::ServiceConfig{});
    state_build_ms.push_back(ms_since(t1));
    server.emplace(*state, server_config(kServerWorkers));
    server->start();
    warm_up(*server, m);
    m.setup_s.push_back(ms_since(t0) / 1e3);
  }

  std::array<Connection, kConnections> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    conns[c].script = make_script(baseline, o.seed, c);
  }
  const std::vector<Connection*> both = {&conns[0], &conns[1]};
  const std::vector<Connection*> first = {&conns[0]};
  Tracer tracer;
  const WindowPlan plan(o);
  std::array<std::vector<double>, kKinds.size()> traced_by_kind;
  serve::EngineStats traced_stats;
  const auto add_stats = [&](const serve::EngineStats& a,
                             const serve::EngineStats& b) {
    traced_stats.partial_hits += b.partial_hits - a.partial_hits;
    traced_stats.partial_misses += b.partial_misses - a.partial_misses;
    traced_stats.region_recomputes += b.region_recomputes - a.region_recomputes;
    traced_stats.dirty_regions += b.dirty_regions - a.dirty_regions;
  };
  // Every slot starts a server over a fresh state, so no slot inherits
  // another's deltas and the journal, which grows with every delta, holds
  // one slot's worth at most.
  const auto restart = [&](std::size_t workers) {
    server.reset();
    state.emplace(baseline, serve::ServiceConfig{});
    server.emplace(*state, server_config(workers));
    server->start();
    warm_up(*server, m);
  };
  if (o.trace) obs::registry().reset_values();
  std::vector<double> req_per_s;
  for (int r = 0; r < kWindows; ++r) {
    if (r > 0) restart(kServerWorkers);
    req_per_s.push_back(run_clients(both, server->port(), plan.untraced_s,
                                    plan.min_units, tracer, m, m.unit_ms,
                                    nullptr));
    if (o.trace) {
      restart(kServerWorkers);
      const serve::EngineStats before = state->engine_stats();
      obs::set_metrics_enabled(true);
      tracer.set_recording(true);
      run_clients(both, server->port(), plan.traced_s, plan.min_units, tracer,
                  m, m.traced_ms, &traced_by_kind);
      tracer.set_recording(false);
      obs::set_metrics_enabled(false);
      add_stats(before, state->engine_stats());
    }
    // One thread: a one-worker server and a single connection.
    restart(1);
    run_clients(first, server->port(), plan.one_thread_s, plan.min_units_1t,
                tracer, m, m.unit_1t_ms, nullptr);
  }
  m.units_per_s = median(req_per_s);

  if (o.trace) {
    m.layers = tracer.per_unit_ms();
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      std::vector<double> us = traced_by_kind[k];
      for (double& x : us) x *= 1e3;
      m.layers[kKindMetrics[k]] = median(us);
    }
    double requests = 0.0;
    for (const auto& k : traced_by_kind) requests += static_cast<double>(k.size());
    const auto hits = static_cast<double>(traced_stats.partial_hits);
    const auto misses = static_cast<double>(traced_stats.partial_misses);
    if (hits + misses > 0.0) {
      m.layers["serve.partial_hit_ratio"] = hits / (hits + misses);
    }
    if (requests > 0.0) {
      m.layers["serve.region_recomputes"] =
          static_cast<double>(traced_stats.region_recomputes) / requests;
      m.layers["serve.dirty_regions"] =
          static_cast<double>(traced_stats.dirty_regions) / requests;
    }
    m.layers["serve.state_build_ms"] = median(state_build_ms);
    std::ofstream out(o.trace_file);
    tracer.write_chrome_json(out);
  }

  // The closing query set over the socket, against the batch library on
  // the profile rebuilt from the server's journal.
  FinalQueries queries;
  queries.resize = {{5, 20}, {10, 20}};
  queries.served = {{10, 20}, {4, 5}};
  for (const afford::ServicePlan& p : afford::paper_plans()) {
    queries.plans.push_back(p.name);
  }
  FinalAnswers answers;
  m.attempted += queries.resize.size() + queries.served.size() +
                 queries.plans.size();
  try {
    serve::Client client;
    client.connect("127.0.0.1", server->port());
    for (const auto& [bs, cap] : queries.resize) {
      answers.resize.push_back(client.query_resize(bs, cap));
    }
    for (const auto& [bs, os] : queries.served) {
      answers.served.push_back(client.query_served_fraction(bs, os));
    }
    for (const std::string& name : queries.plans) {
      answers.afford.push_back(client.query_affordability(name));
    }
  } catch (const std::exception& e) {
    m.fail(std::string("final queries: ") + e.what());
  }
  server.reset();
  const std::string error =
      check_serve(baseline, state->journal_copy(), queries, answers);
  if (!error.empty()) m.fail(error);
  return m;
}

}  // namespace perfbench
