// The benchmark's own tests: its order statistics, its span accounting, and
// each output check rejecting a planted wrong output.

#include <gtest/gtest.h>

#include <thread>

#include "checks.hpp"
#include "harness.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/event/engine.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/sim/simulation.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace leodivide;

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Stats, Median) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({7}), 7.0);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // Reference values from statistics.quantiles(data, n=4).
  const auto expect = [](std::vector<double> v, double q1, double q3) {
    const Quartiles q = quartiles(std::move(v));
    EXPECT_DOUBLE_EQ(q.q1, q1);
    EXPECT_DOUBLE_EQ(q.q3, q3);
  };
  expect({1, 2}, 0.75, 2.25);
  expect({1, 2, 3}, 1.0, 3.0);
  expect({5, 1, 4, 2, 3}, 1.5, 4.5);
  expect(iota(11), 3.0, 9.0);
  expect(iota(10), 2.75, 8.25);
  expect({4.0}, 4.0, 4.0);
}

TEST(Stats, TailHasTenSamplesBeyondItUpToP80) {
  const Tail t30 = tail(iota(30));
  EXPECT_EQ(t30.value, 20.0);  // 21..30 lie beyond it
  EXPECT_NEAR(t30.percentile, 200.0 / 3.0, 1e-12);
  EXPECT_EQ(t30.samples, 30u);

  const Tail t11 = tail(iota(11));
  EXPECT_EQ(t11.value, 1.0);
  EXPECT_NEAR(t11.percentile, 100.0 / 11.0, 1e-12);

  // Past 50 samples the tail stops at p80.
  const Tail t50 = tail(iota(50));
  EXPECT_EQ(t50.value, 40.0);
  EXPECT_NEAR(t50.percentile, 80.0, 1e-12);
  const Tail t1000 = tail(iota(1000));
  EXPECT_EQ(t1000.value, 800.0);
  EXPECT_NEAR(t1000.percentile, 80.0, 1e-12);
  EXPECT_EQ(tail(iota(1000), 10, 99.0).value, 990.0);

  // Too few samples for any percentile with ten beyond: the maximum.
  const Tail t10 = tail(iota(10));
  EXPECT_EQ(t10.value, 10.0);
  EXPECT_EQ(t10.percentile, 100.0);
}

TEST(Tracer, ChildrenPlusUntracedAddUpToTheUnit) {
  Tracer tracer;
  tracer.set_recording(true);
  for (int u = 0; u < 3; ++u) {
    const Tracer::Scope unit(tracer, "unit");
    tracer.call("a.first", [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    const int x = tracer.call("b.second", [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return 7;
    });
    EXPECT_EQ(x, 7);
  }
  tracer.set_recording(false);
  { const Tracer::Scope ignored(tracer, "unit"); }  // not recorded

  const std::map<std::string, double> v = tracer.per_unit_ms();
  EXPECT_GE(v.at("a.first_ms"), 2.0);
  EXPECT_GE(v.at("b.second_ms"), 1.0);
  EXPECT_NEAR(v.at("a.first_ms") + v.at("b.second_ms") + v.at("untraced_ms"),
              v.at("unit_ms"), 1e-9);
  ASSERT_EQ(tracer.spans().size(), 9u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);  // a.first under the first unit
}

TEST(Checks, F1RejectsAPlantedWrongNumber) {
  EXPECT_EQ(check_f1(kPaperF1), "");
  F1Numbers wrong = kPaperF1;
  wrong.peak_cell = 5'997;
  EXPECT_NE(check_f1(wrong).find("peak cell"), std::string::npos);
  wrong = kPaperF1;
  wrong.unservable += 1;
  EXPECT_NE(check_f1(wrong), "");
}

TEST(Checks, SameRejectsOneChangedByte) {
  EXPECT_EQ(check_same("x", "abcdef", "abcdef"), "");
  EXPECT_NE(check_same("x", "abcdef", "abcXef").find("byte 3"),
            std::string::npos);
  EXPECT_NE(check_same("x", "abcdef", "abcde"), "");
}

// A small seeded profile, generated once for the slower checks.
const demand::DemandProfile& small_profile() {
  static const demand::DemandProfile profile = [] {
    demand::GeneratorConfig config;
    config.seed = 3;
    config.scale = 0.02;
    return demand::SyntheticGenerator{config}.generate_profile(
        runtime::serial_executor());
  }();
  return profile;
}

TEST(Checks, HandoverRejectsAPlantedWrongTrace) {
  const auto& cells = small_profile().cells();
  const demand::DemandProfile region(
      std::vector<demand::CellDemand>(cells.begin(), cells.begin() + 6),
      small_profile().counties());
  sim::SimulationConfig config;
  config.step_s = 1.0;
  config.duration_s = 60.0;
  const std::vector<sim::EpochCoverage> epochs =
      sim::Simulation(config, region).run(runtime::serial_executor());
  config.engine = sim::Engine::kEvent;
  event::EventSimulation engine(config, region);
  event::EventTrace trace = engine.run_trace(runtime::serial_executor());
  EXPECT_EQ(check_handover(trace, epochs), "");

  ASSERT_FALSE(trace.segments.empty());
  trace.segments.front().coverage.locations_served += 1;
  EXPECT_NE(check_handover(trace, epochs), "");
}

TEST(Checks, ServeRejectsATamperedJournalOrAnswer) {
  const demand::DemandProfile& baseline = small_profile();
  const demand::CellDemand& cell = baseline.cells()[10];
  std::vector<demand::DeltaOp> journal(3);
  journal[0].kind = demand::DeltaKind::kAddLocations;
  journal[0].position = cell.center;
  journal[0].count = 5000;  // makes this cell the peak, so sizing moves
  journal[1].kind = demand::DeltaKind::kSetCountyIncome;
  journal[1].county_index = 0;
  journal[1].value = 20000.0;
  journal[2].kind = demand::DeltaKind::kRemoveLocations;
  journal[2].position = cell.center;
  journal[2].count = 100;

  FinalQueries queries;
  queries.resize = {{5, 20}, {10, 20}};
  queries.served = {{4, 5}};
  queries.plans = {"Starlink Residential"};
  const FinalAnswers right = batch_answers(baseline, journal, queries);
  EXPECT_EQ(check_serve(baseline, journal, queries, right), "");

  // The server's journal says one thing, its answers reflect another.
  std::vector<demand::DeltaOp> tampered = journal;
  tampered[2].count = 99;
  EXPECT_NE(check_serve(baseline, tampered, queries, right), "");
  tampered = journal;
  tampered.erase(tampered.begin());
  EXPECT_NE(check_serve(baseline, tampered, queries, right), "");
  // A journal that cannot be replayed.
  tampered = journal;
  tampered[2].count = 1'000'000;
  EXPECT_NE(check_serve(baseline, tampered, queries, right).find("replay"),
            std::string::npos);

  FinalAnswers wrong = right;
  wrong.served[0].served_cells += 1;
  EXPECT_NE(check_serve(baseline, journal, queries, wrong), "");
  wrong = right;
  wrong.afford.pop_back();
  EXPECT_NE(check_serve(baseline, journal, queries, wrong), "");
}

// A part whose unit waits a fixed time and whose check always passes.
class Wait final : public BatchWorkload {
 public:
  explicit Wait(double ms) : ms_(ms) {}
  void setup(Measurement&) override {}
  void unit(Tracer&) override {
    const auto t0 = Clock::now();
    while (ms_since(t0) < ms_) {
    }
  }
  std::string check(bool) override { return ""; }

 private:
  double ms_;
};

TEST(Harness, SequenceKeepsEachPartsWallTimeByThreadCount) {
  std::vector<Part> parts;
  parts.push_back({"short", std::make_unique<Wait>(1.0)});
  parts.push_back({"long", std::make_unique<Wait>(5.0)});
  const auto seq = make_sequence(std::move(parts));
  Tracer tracer;
  seq->unit(tracer);
  seq->unit_passed(4);
  seq->unit(tracer);
  seq->unit_passed(1);
  seq->unit(tracer);  // not passed: kept by neither median
  Measurement m;
  seq->add_layer_metrics(m, 0.0);
  for (const char* name : {"short", "long"}) {
    for (const char* metric : {".wall_ms_p50", ".wall_ms_1t_p50"}) {
      EXPECT_EQ(m.layers.count(std::string(name) + metric), 1u) << name;
    }
  }
  EXPECT_GE(m.layers["short.wall_ms_p50"], 1.0);
  EXPECT_LT(m.layers["short.wall_ms_p50"], m.layers["long.wall_ms_p50"]);
  EXPECT_GE(m.layers["long.wall_ms_1t_p50"], 5.0);
}

TEST(Harness, SeededRngRepeats) {
  SeededRng a(9);
  SeededRng b(9);
  SeededRng c(10);
  const std::uint64_t first = a.next();
  EXPECT_EQ(first, b.next());
  EXPECT_NE(first, c.next());
  for (int i = 0; i < 100; ++i) EXPECT_LT(a.below(7), 7u);
}

}  // namespace
}  // namespace perfbench
