// The benchmark's own tests: input generation is a pure function of the
// seed, the profile-hot mix has no cost edge at the latency percentiles,
// and a corrupted reference drives ok_rate below 1.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   ctest --test-dir .bench_build/perfbench --output-on-failure
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "jepo/profiler.hpp"
#include "jlang/parser.hpp"
#include "obs/registry.hpp"
#include "oracles.hpp"
#include "support/json_reader.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::string perfbenchDir() {
  const char* dir = std::getenv("PERFBENCH_DIR");
  return dir != nullptr ? dir : "perfbench";
}

Oracles referenceOracles() {
  return loadOracles(perfbenchDir() + "/oracles");
}

/// The bound of an end-to-end metric in BENCHMARK.json.
double metricBound(const std::string& name) {
  std::ifstream in(perfbenchDir() + "/../BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  const jepo::json::Value doc = jepo::json::parseJson(text.str());
  for (const auto& m : doc.find("end_to_end")->asArray()) {
    if (m.find("name")->asString() == name) {
      return m.find("bound")->asDouble();
    }
  }
  ADD_FAILURE() << "no end_to_end metric " << name;
  return 0.0;
}

Args shortRun(const std::string& workload) {
  Args args;
  args.workload = workload;
  args.seed = 5;
  args.seconds = 1;
  args.workDir = ::testing::TempDir() + "perfbench_test";
  return args;
}

double metricValue(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1.0;
}

TEST(Inputs, HotMixIsAPureFunctionOfTheSeed) {
  const HotInputs a = makeHotInputs(7);
  const HotInputs b = makeHotInputs(7);
  const HotInputs c = makeHotInputs(8);
  ASSERT_EQ(a.programs.size(), b.programs.size());
  for (std::size_t i = 0; i < a.programs.size(); ++i) {
    EXPECT_EQ(a.programs[i].source, b.programs[i].source);
  }
  ASSERT_EQ(a.jobs.size(), static_cast<std::size_t>(kHotJobsPerPass));
  bool differs = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].program, b.jobs[i].program);
    EXPECT_EQ(a.jobs[i].seed, b.jobs[i].seed);
    differs = differs || a.jobs[i].program != c.jobs[i].program;
  }
  EXPECT_TRUE(differs) << "seeds 7 and 8 drew the same job order";
}

TEST(Inputs, ColdJobsAreAPureFunctionOfTheSeed) {
  const ColdInputs a = makeColdInputs(7);
  const ColdInputs b = makeColdInputs(7);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  ASSERT_EQ(a.jobs.size(), a.optimizeUnits.size() + a.suggestUnits.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].suggest, b.jobs[i].suggest);
    EXPECT_EQ(a.jobs[i].unit, b.jobs[i].unit);
    EXPECT_EQ(jepo::jepod::renderRequest(coldRequest(a, a.jobs[i], i, "t")),
              jepo::jepod::renderRequest(coldRequest(b, b.jobs[i], i, "t")));
  }
  // The full-scale corpus: every unit of all ten classifiers.
  EXPECT_EQ(a.optimizeUnits.size(), 6715u);
}

/// Sorted per-job costs (vm.steps of the job's program) of a seed's mix
/// must be flat around the p50 and p99 positions: within 5% of the jobs
/// on either side of p50, and 0.5% of p99, costs differ by less than the
/// latency bound, so noise in which job lands on a percentile cannot move
/// it past its bound. A percentile on the edge between the cheap jobs and
/// the demo project fails here: with the demo at 1% of the mix, p99's
/// window spans 37k to 212k steps.
TEST(MixShape, NoCostEdgeAtTheLatencyPercentiles) {
  std::vector<double> programSteps;
  for (const SourceProgram& p : hotPrograms()) {
    const auto program = jepo::jlang::Parser::parseProgram(p.name, p.source);
    jepo::core::Profiler profiler;
    auto& steps = jepo::obs::Registry::global().counter("vm.steps");
    const std::uint64_t before = steps.value();
    profiler.profile(program, p.mainClass);
    programSteps.push_back(static_cast<double>(steps.value() - before));
  }
  const struct {
    const char* metric;
    double q;
    double window;  // share of the jobs on each side of the position
  } positions[] = {{"latency_p50_ms", 0.50, 0.05},
                   {"latency_p99_ms", 0.99, 0.005}};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::vector<double> costs;
    for (const HotJob& job : makeHotInputs(seed).jobs) {
      costs.push_back(programSteps[job.program]);
    }
    std::sort(costs.begin(), costs.end());
    const auto n = static_cast<double>(costs.size());
    for (const auto& pos : positions) {
      const auto at = static_cast<std::ptrdiff_t>(std::ceil(pos.q * n)) - 1;
      const auto w = static_cast<std::ptrdiff_t>(std::ceil(pos.window * n));
      const auto lo =
          static_cast<std::size_t>(std::max<std::ptrdiff_t>(at - w, 0));
      const auto hi = static_cast<std::size_t>(
          std::min<std::ptrdiff_t>(at + w, static_cast<std::ptrdiff_t>(n) - 1));
      const double spread =
          (costs[hi] - costs[lo]) / costs[static_cast<std::size_t>(at)];
      EXPECT_LT(spread, metricBound(pos.metric))
          << "seed " << seed << " " << pos.metric << ": costs "
          << costs[lo] << ".." << costs[hi];
    }
  }
}

TEST(Oracles, ReferencesMatchTheProgram) {
  const Oracles o = referenceOracles();
  const RunResult r = runProfileHot(shortRun("profile-hot"), o);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(metricValue(r, "ok_rate"), 1.0);
}

TEST(Oracles, CorruptedProfileDigestLowersOkRate) {
  Oracles o = referenceOracles();
  o.profilePayload["synth0"] ^= 1;
  const RunResult r = runProfileHot(shortRun("profile-hot"), o);
  EXPECT_FALSE(r.correct);
  EXPECT_GT(r.failed, 0u);
  EXPECT_LT(metricValue(r, "ok_rate"), 1.0);
}

TEST(Oracles, CorruptedChangesTotalLowersOkRate) {
  Oracles o = referenceOracles();
  o.changes[2] += 1;  // RandomForest
  const RunResult r = runAnalyzeCold(shortRun("analyze-cold"), o);
  EXPECT_FALSE(r.correct);
  EXPECT_LT(metricValue(r, "ok_rate"), 1.0);
}

TEST(Oracles, CorruptedSuggestDigestLowersOkRate) {
  Oracles o = referenceOracles();
  o.suggestPayload.begin()->second ^= 1;
  const RunResult r = runAnalyzeCold(shortRun("analyze-cold"), o);
  EXPECT_FALSE(r.correct);
  EXPECT_LT(metricValue(r, "ok_rate"), 1.0);
}

TEST(Oracles, CorruptedTable4RowLowersOkRate) {
  Oracles o = referenceOracles();
  o.table4Rows[0].replace(o.table4Rows[0].find("\"changes\":"), 10,
                          "\"changes\":1");
  const RunResult r = runTable4(shortRun("table4"), o);
  EXPECT_FALSE(r.correct);
  EXPECT_LT(metricValue(r, "ok_rate"), 1.0);
}

}  // namespace
}  // namespace perfbench
