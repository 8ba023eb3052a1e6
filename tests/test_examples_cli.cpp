// Example binaries must reject unknown `--flags` with a nonzero exit and
// name the offending flag — a typo'd `--snapshot-dri` must never silently
// run a full (uncached) analysis. Each case spawns the real binary via
// popen and inspects its exit status and output. The same harness checks
// that every binary writes `--metrics` JSON and pins the bytes of the
// national_analysis outputs.
//
// Binary locations come from the LEODIVIDE_EXAMPLES_DIR and LEODIVIDE_LDSNAP
// compile definitions (set in tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>

#include <unistd.h>

#include "golden_hash.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/io/fileio.hpp"
#include "leodivide/io/json.hpp"
#include "leodivide/snapshot/snapshot.hpp"

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs `command` with stderr folded into stdout; returns exit code and
/// combined output.
RunResult run_command(const std::string& command) {
  RunResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> chunk{};
  while (std::fgets(chunk.data(), static_cast<int>(chunk.size()), pipe) !=
         nullptr) {
    result.output += chunk.data();
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

std::string example_path(const std::string& name) {
  return (fs::path(LEODIVIDE_EXAMPLES_DIR) / name).string();
}

class ExamplesCli : public ::testing::TestWithParam<const char*> {};

TEST_P(ExamplesCli, RejectsUnknownFlagNonzeroAndNamesIt) {
  const std::string binary = example_path(GetParam());
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const RunResult r = run_command(binary + " --definitely-not-a-flag");
  EXPECT_NE(r.exit_code, 0) << "unknown flag accepted by " << GetParam()
                            << "\noutput:\n"
                            << r.output;
  EXPECT_NE(r.output.find("--definitely-not-a-flag"), std::string::npos)
      << GetParam() << " did not name the offending flag:\n"
      << r.output;
}

INSTANTIATE_TEST_SUITE_P(AllExamples, ExamplesCli,
                         ::testing::Values("national_analysis",
                                           "coverage_sim",
                                           "affordability_report",
                                           "constellation_planner",
                                           "quickstart",
                                           "market_compare",
                                           "region_study",
                                           "analysis_client"),
                         [](const auto& test_info) {
                           return std::string(test_info.param);
                         });

// national_analysis has one pipeline and no `--graph` mode: the flag must
// be refused like any other typo, not silently run the pipeline.
TEST(ExamplesCli, NationalAnalysisRejectsGraphFlag) {
  const std::string binary = example_path("national_analysis");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const RunResult r = run_command(binary + " --graph");
  EXPECT_EQ(r.exit_code, 2) << "--graph accepted:\n" << r.output;
  EXPECT_NE(r.output.find("--graph"), std::string::npos)
      << "national_analysis did not name the offending flag:\n"
      << r.output;
}

TEST(ExamplesCli, MarketCompareBadScaleRejected) {
  const std::string binary = example_path("market_compare");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const RunResult r = run_command(binary + " --scale=not-a-number");
  EXPECT_EQ(r.exit_code, 2) << "non-numeric --scale accepted:\n" << r.output;
}

TEST(ExamplesCli, MarketCompareBadThreadsRejected) {
  const std::string binary = example_path("market_compare");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const RunResult r = run_command(binary + " --threads zero");
  EXPECT_EQ(r.exit_code, 2) << "bad --threads accepted:\n" << r.output;
  EXPECT_NE(r.output.find("--threads"), std::string::npos) << r.output;
}

TEST(ExamplesCli, EngineFlagUnknownValueRejected) {
  const std::string binary = example_path("coverage_sim");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const RunResult r = run_command(binary + " --engine=warp");
  EXPECT_NE(r.exit_code, 0) << "--engine=warp accepted:\n" << r.output;
  EXPECT_NE(r.output.find("--engine"), std::string::npos)
      << "coverage_sim did not name the offending flag:\n"
      << r.output;
}

TEST(ExamplesCli, SnapshotDirWithoutValueRejected) {
  const std::string binary = example_path("national_analysis");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const RunResult r = run_command(binary + " --snapshot-dir");
  EXPECT_NE(r.exit_code, 0) << "bare --snapshot-dir accepted:\n" << r.output;
}

// Every binary takes `--metrics=FILE` and writes the metrics registry there
// as one JSON object at exit. Arguments keep each run small; %DIR% is a
// temporary directory holding a profile snapshot (snap.ldsnap) and a
// two-command client script (script.txt).
struct MetricsCase {
  const char* binary;
  const char* args;
};

// Without a printer gtest shows the two pointers' bytes, which change with
// every load address, so the listed test names would differ per build.
void PrintTo(const MetricsCase& c, std::ostream* os) {
  *os << c.binary;
  if (*c.args != '\0') {
    *os << ' ' << c.args;
  }
}

class ExamplesMetrics : public ::testing::TestWithParam<MetricsCase> {};

std::string binary_path(const std::string& name) {
  if (name == "ldsnap") {
#ifdef LEODIVIDE_LDSNAP
    return LEODIVIDE_LDSNAP;
#else
    return {};
#endif
  }
  return example_path(name);
}

TEST_P(ExamplesMetrics, WritesValidMetricsJson) {
  using namespace leodivide;
  const MetricsCase c = GetParam();
  const std::string binary = binary_path(c.binary);
  if (binary.empty() || !fs::exists(binary)) {
    GTEST_SKIP() << c.binary << " not built";
  }
  const fs::path dir = fs::temp_directory_path() /
                       ("leodivide_metrics_" + std::string(c.binary) + "_" +
                        std::to_string(::getpid()));
  fs::create_directories(dir);
  const demand::SyntheticGenerator gen({.seed = 7, .scale = 0.002});
  io::write_text_file((dir / "snap.ldsnap").string(),
                      snapshot::serialize(gen.generate_profile()));
  io::write_text_file((dir / "script.txt").string(),
                      "resize 2 20\nserved 2 20\n");
  std::string args = c.args;
  for (std::size_t at = args.find("%DIR%"); at != std::string::npos;
       at = args.find("%DIR%")) {
    args.replace(at, 5, dir.string());
  }
  const fs::path metrics = dir / "metrics.json";
  const RunResult r =
      run_command(binary + " --metrics=" + metrics.string() + " " + args);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const io::JsonValue doc = io::json_parse(
      leodivide::testing::read_bytes(metrics.string()));
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.at("counters").is_object());
  EXPECT_TRUE(doc.at("timers").is_object());
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllBinaries, ExamplesMetrics,
    ::testing::Values(
        MetricsCase{"coverage_sim", "6 6 2 5"},
        MetricsCase{"quickstart", "0.01"},
        MetricsCase{"region_study", ""},
        MetricsCase{"affordability_report", "120 0.02"},
        MetricsCase{"constellation_planner", "8000 20"},
        MetricsCase{"analysis_client",
                    "--batch --scale 0.01 --script %DIR%/script.txt "
                    "--out %DIR%/answers.txt"},
        MetricsCase{"ldsnap", "verify %DIR%/snap.ldsnap"}),
    [](const auto& test_info) { return std::string(test_info.param.binary); });

// national_analysis accounts for its own report and JSON export: both
// stages are spans, so `--metrics` lists them as timers.
TEST(ExamplesCli, NationalAnalysisMetricsListReportAndJsonExport) {
  using namespace leodivide;
  const std::string binary = example_path("national_analysis");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const fs::path dir = fs::temp_directory_path() /
                       ("leodivide_spans_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const fs::path metrics = dir / "metrics.json";
  fs::create_directories(dir);
  const RunResult r = run_command(binary + " --metrics=" + metrics.string() +
                                  " " + (dir / "out").string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const io::JsonValue doc =
      io::json_parse(leodivide::testing::read_bytes(metrics.string()));
  const io::JsonValue& timers = doc.at("timers");
  EXPECT_NE(timers.find("core.render_report"), nullptr);
  EXPECT_NE(timers.find("io.results_json"), nullptr);
  fs::remove_all(dir);
}

// The full seed-42 pipeline, pinned byte for byte. The digests are those
// of the stream and printf encoders, which the to_chars encoders must
// match. A cold run and a `--snapshot-dir` warm rerun (profile and
// analysis restored from LDSNAP blobs) must both reproduce all four files.
TEST(ExamplesCli, NationalAnalysisOutputsMatchGoldens) {
  using leodivide::testing::Golden;
  const std::string binary = example_path("national_analysis");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const fs::path dir = fs::temp_directory_path() /
                       ("leodivide_golden_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::pair<const char*, Golden> expected[] = {
      {"cells.csv", {0x1c4f89dcd523bd76ULL, 927172}},
      {"counties.csv", {0x0a00cadb6c43e81bULL, 95026}},
      {"results.json", {0xa744c62153325b05ULL, 1463}},
      {"dense_cells.geojson", {0xa9405a8254fa7a46ULL, 347466}},
  };
  for (const char* mode : {"cold", "warm"}) {
    const std::string cmd = binary + " --threads 2 --snapshot-dir " +
                            (dir / "cache").string() + " " +
                            (dir / mode).string();
    const RunResult r = run_command(cmd);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    for (const auto& [name, want] : expected) {
      const Golden got = leodivide::testing::golden_of(
          leodivide::testing::read_bytes((dir / mode / name).string()));
      EXPECT_EQ(got, want) << mode << " " << name << " "
                           << leodivide::testing::to_literal(got);
    }
  }
  fs::remove_all(dir);
}

// The three-split market at the default seed and scale: pins the
// exclusive, proportional and FairShare capped sizing, served fractions
// and fairness reports byte for byte.
TEST(ExamplesCli, MarketCompareOutputsMatchGoldens) {
  using leodivide::testing::Golden;
  const std::string binary = example_path("market_compare");
  if (!fs::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  const fs::path dir = fs::temp_directory_path() /
                       ("leodivide_market_golden_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::pair<const char*, Golden> expected[] = {
      {"operators.csv", {0x0cd6603df2a800b6ULL, 974}},
      {"fairness.csv", {0xda451476eaeb0f10ULL, 232}},
      {"market.json", {0x5404b8fb5b88268bULL, 3127}},
      {"market_exclusive.ldsnap", {0x3ad3b21d0e510a16ULL, 471612}},
      {"market_proportional.ldsnap", {0x3ee83d441da9cd21ULL, 1124888}},
      {"market_fairshare.ldsnap", {0x89c2c3d3a5ac0262ULL, 1124888}},
  };
  const RunResult r = run_command(binary + " --threads 2 " + dir.string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  for (const auto& [name, want] : expected) {
    const Golden got = leodivide::testing::golden_of(
        leodivide::testing::read_bytes((dir / name).string()));
    EXPECT_EQ(got, want) << name << " "
                         << leodivide::testing::to_literal(got);
  }
  fs::remove_all(dir);
}

}  // namespace
