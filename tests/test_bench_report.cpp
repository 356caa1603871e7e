// The bench report writer (bench/common.hpp): the exact bytes of one
// BENCH_<name>.json.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench/common.hpp"

namespace beesim::bench {
namespace {

TEST(BenchReport, OneEntryPerConfigurationAndColumnInFirstAppearanceOrder) {
  // Two configurations x three repetitions; only the hedged one carries the
  // gated hedge column, as addFeatureColumns leaves it off unhedged runs.
  harness::ResultStore store;
  const auto add = [&](const char* variant, const char* rep,
                       std::map<std::string, double> metrics) {
    store.add({{{"variant", variant}, {"rep", rep}}, std::move(metrics)});
  };
  add("plain", "0", {{"bandwidth_mibps", 100.0}});
  add("hedged", "0", {{"bandwidth_mibps", 80.0}, {"hedge_issued", 3.0}});
  add("plain", "1", {{"bandwidth_mibps", 102.0}});
  add("hedged", "1", {{"bandwidth_mibps", 84.0}, {"hedge_issued", 5.0}});
  add("plain", "2", {{"bandwidth_mibps", 101.0}});
  add("hedged", "2", {{"bandwidth_mibps", 82.0}, {"hedge_issued", 4.0}});

  const auto dir = std::filesystem::temp_directory_path() / "beesim_bench_report";
  std::filesystem::create_directories(dir);
  ASSERT_EQ(setenv("BEESIM_RESULTS_DIR", dir.c_str(), 1), 0);
  writeReport("demo", store, {{"speedup", 1.25}, {"runs", 6.0}});
  unsetenv("BEESIM_RESULTS_DIR");

  std::ifstream file(dir / "BENCH_demo.json");
  std::ostringstream bytes;
  bytes << file.rdbuf();
  EXPECT_EQ(bytes.str(), R"({
  "bench": "demo",
  "headline": {
    "runs": 6,
    "speedup": 1.25
  },
  "metrics": [
    {
      "factors": {
        "variant": "plain"
      },
      "max": 102,
      "mean": 101,
      "min": 100,
      "name": "bandwidth_mibps",
      "reps": 3,
      "sd": 1,
      "value": 101
    },
    {
      "factors": {
        "variant": "hedged"
      },
      "max": 84,
      "mean": 82,
      "min": 80,
      "name": "bandwidth_mibps",
      "reps": 3,
      "sd": 2,
      "value": 82
    },
    {
      "factors": {
        "variant": "hedged"
      },
      "max": 5,
      "mean": 4,
      "min": 3,
      "name": "hedge_issued",
      "reps": 3,
      "sd": 1,
      "value": 4
    }
  ]
}
)");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace beesim::bench
