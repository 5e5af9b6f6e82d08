#include "exp/json_report.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "obs/metrics.hpp"
#include "temp_dir.hpp"

namespace mts::exp {
namespace {

const CityTableResult& small_result() {
  static const CityTableResult result = [] {
    RunConfig config;
    config.city = citygen::City::Chicago;
    config.scale = 0.2;
    config.trials = 2;
    config.path_rank = 8;
    config.seed = 5;
    return run_city_table(config);
  }();
  return result;
}

void expect_balanced_json(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '{' || ch == '[') ++depth;
    else if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonReport, BalancedAndComplete) {
  const std::string json = to_json(small_result());
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"city\":\"Chicago\""), std::string::npos);
  EXPECT_NE(json.find("\"weight\":\"LENGTH\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\":\"LP-PathCover\""), std::string::npos);
  EXPECT_NE(json.find("\"cost_model\":\"WIDTH\""), std::string::npos);
  EXPECT_NE(json.find("\"edges_removed\""), std::string::npos);
  EXPECT_NE(json.find("\"verification_failures\":0"), std::string::npos);
  // 4 algorithms x 3 cost models = 12 cells.
  std::size_t cells = 0;
  for (std::size_t pos = json.find("\"algorithm\""); pos != std::string::npos;
       pos = json.find("\"algorithm\"", pos + 1)) {
    ++cells;
  }
  EXPECT_EQ(cells, 12u);
}

TEST(JsonReport, SaveCreatesFile) {
  const test::TempDir dir;
  const auto path = (dir / "sub" / "r.json").string();
  save_json(small_result(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)), {});
  EXPECT_EQ(content, to_json(small_result()));
}

TEST(JsonReport, NumbersAreFiniteAndPlain) {
  const std::string json = to_json(small_result());
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

// MTS_OBS_SUFFIX exists so concurrent runs sharing an --obs base (e.g. a
// routed daemon and a loadgen) stop clobbering each other's files.  The
// default must stay the historical fixed names, byte-for-byte.
class ObsSuffixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("MTS_OBS_SUFFIX");
    obs::set_metrics_enabled(true);
  }
  void TearDown() override {
    unsetenv("MTS_OBS_SUFFIX");
    obs::set_metrics_enabled(false);
  }
  test::TempDir dir_;
};

TEST_F(ObsSuffixTest, DefaultSuffixIsEmptyAndKeepsHistoricalFilenames) {
  EXPECT_EQ(observability_suffix(), "");
  const std::string base = (dir_ / "run").string();
  save_observability(base);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "run_metrics.json"));
}

TEST_F(ObsSuffixTest, PidSuffixDisambiguatesConcurrentProcesses) {
  setenv("MTS_OBS_SUFFIX", "pid", 1);
  const std::string expected = "." + std::to_string(::getpid());
  EXPECT_EQ(observability_suffix(), expected);
  const std::string base = (dir_ / "run").string();
  save_observability(base);
  EXPECT_TRUE(std::filesystem::exists(dir_ / ("run" + expected + "_metrics.json")));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "run_metrics.json"));
}

TEST_F(ObsSuffixTest, LiteralSuffixIsUsedVerbatim) {
  setenv("MTS_OBS_SUFFIX", ".loadgen", 1);
  EXPECT_EQ(observability_suffix(), ".loadgen");
  save_observability((dir_ / "run").string());
  EXPECT_TRUE(std::filesystem::exists(dir_ / "run.loadgen_metrics.json"));
}

TEST_F(ObsSuffixTest, MetricsOffWritesNothing) {
  obs::set_metrics_enabled(false);
  save_observability((dir_ / "run").string());
  EXPECT_TRUE(std::filesystem::is_empty(dir_.path()));
}

}  // namespace
}  // namespace mts::exp
