#include <gtest/gtest.h>

#include <cmath>

#include "energy/op.hpp"
#include "experiments/weka_experiment.hpp"
#include "ml/evaluation.hpp"
#include "ml/forest.hpp"
#include "obs/registry.hpp"

namespace jepo::experiments {
namespace {

using ml::ClassifierKind;

WekaExperimentConfig fastConfig() {
  WekaExperimentConfig cfg;
  cfg.instances = 400;
  cfg.folds = 5;
  cfg.runs = 4;
  cfg.corpusScale = 0.02;
  cfg.withNoise = false;  // exact measurements for tight assertions
  cfg.forestTrees = 5;
  return cfg;
}

TEST(Experiments, PaperRowsMatchTableFour) {
  const PaperRow rf = paperTable4Row(ClassifierKind::kRandomForest);
  EXPECT_EQ(rf.changes, 719);
  EXPECT_DOUBLE_EQ(rf.packageImprovement, 14.46);
  EXPECT_DOUBLE_EQ(rf.timeImprovement, 12.93);
  const PaperRow rt = paperTable4Row(ClassifierKind::kRandomTree);
  EXPECT_DOUBLE_EQ(rt.accuracyDrop, 0.48);
}

TEST(Experiments, SingleClassifierPipelineProducesSaneNumbers) {
  const auto r =
      runClassifierExperiment(ClassifierKind::kNaiveBayes, fastConfig());
  EXPECT_GT(r.changes, 0);
  EXPECT_GT(r.changesFullScale, r.changes);
  EXPECT_GT(r.basePackageJoules, 0.0);
  EXPECT_GT(r.optPackageJoules, 0.0);
  EXPECT_LT(r.optPackageJoules, r.basePackageJoules);
  EXPECT_GT(r.packageImprovement, 0.0);
  EXPECT_LT(r.packageImprovement, 100.0);
  EXPECT_GT(r.accuracyBase, 0.4);
  EXPECT_LT(std::fabs(r.accuracyDrop), 5.0);
}

// The headline shape claims of Table IV, on the exact (noise-free) runner.
TEST(Experiments, RandomForestImprovesMostAndNearZeroTrioStaysSmall) {
  const WekaExperimentConfig cfg = fastConfig();
  const double rf =
      runClassifierExperiment(ClassifierKind::kRandomForest, cfg)
          .packageImprovement;
  const double j48 =
      runClassifierExperiment(ClassifierKind::kJ48, cfg).packageImprovement;
  const double rt = runClassifierExperiment(ClassifierKind::kRandomTree, cfg)
                        .packageImprovement;
  const double logistic =
      runClassifierExperiment(ClassifierKind::kLogistic, cfg)
          .packageImprovement;

  EXPECT_GT(rf, 10.0);
  EXPECT_GT(rf, j48);
  EXPECT_GT(j48, 2.0);
  EXPECT_LT(std::fabs(rt), 1.0);
  EXPECT_LT(std::fabs(logistic), 1.0);
}

TEST(Experiments, EnergyImprovementExceedsTimeImprovement) {
  const auto r =
      runClassifierExperiment(ClassifierKind::kRandomForest, fastConfig());
  EXPECT_GT(r.packageImprovement, r.timeImprovement);
}

TEST(Experiments, ChangesScaleWithCorpusScale) {
  WekaExperimentConfig small = fastConfig();
  small.corpusScale = 0.02;
  WekaExperimentConfig big = fastConfig();
  big.corpusScale = 0.06;
  const auto a = runClassifierExperiment(ClassifierKind::kJ48, small);
  const auto b = runClassifierExperiment(ClassifierKind::kJ48, big);
  EXPECT_GT(b.changes, a.changes * 2);
  // Extrapolated full-scale counts agree within rounding.
  EXPECT_NEAR(a.changesFullScale, b.changesFullScale, 60);
}

TEST(Experiments, ExposureOverrideRaisesImprovement) {
  WekaExperimentConfig cfg = fastConfig();
  const auto tuned =
      runClassifierExperiment(ClassifierKind::kRandomTree, cfg);
  cfg.exposureOverride = 1.0;
  const auto maxed = runClassifierExperiment(ClassifierKind::kRandomTree, cfg);
  EXPECT_GT(maxed.packageImprovement, tuned.packageImprovement + 10.0);
}

TEST(Experiments, PerturbedCostModelKeepsOrdering) {
  WekaExperimentConfig cfg = fastConfig();
  Rng rng(5);
  cfg.costModel = energy::CostModel::calibrated().perturbed(0.5, rng);
  const double rf =
      runClassifierExperiment(ClassifierKind::kRandomForest, cfg)
          .packageImprovement;
  const double rt = runClassifierExperiment(ClassifierKind::kRandomTree, cfg)
                        .packageImprovement;
  EXPECT_GT(rf, 5.0);
  EXPECT_LT(std::fabs(rt), 1.0);
}

// The tentpole determinism guarantee: the ParallelRunner must reproduce the
// serial path bit-for-bit, Tukey re-measurements and noise included, at any
// thread count. EXPECT_EQ on doubles here is deliberate — "close" would hide
// a scheduling-dependent RNG stream.
TEST(Experiments, ParallelRunnerIsBitIdenticalToSerial) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.instances = 200;
  cfg.withNoise = true;  // exercise the Tukey loop + per-ordinal noise seeds

  WekaExperimentConfig serialCfg = cfg;
  serialCfg.parallel.threads = 1;
  WekaExperimentConfig parallelCfg = cfg;
  parallelCfg.parallel.threads = 4;

  const auto serial = runWekaExperiment(serialCfg);
  const auto parallel = runWekaExperiment(parallelCfg);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const ClassifierResult& a = serial[i];
    const ClassifierResult& b = parallel[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.changes, b.changes);
    EXPECT_EQ(a.changesFullScale, b.changesFullScale);
    EXPECT_EQ(a.packageImprovement, b.packageImprovement);
    EXPECT_EQ(a.cpuImprovement, b.cpuImprovement);
    EXPECT_EQ(a.timeImprovement, b.timeImprovement);
    EXPECT_EQ(a.accuracyBase, b.accuracyBase);
    EXPECT_EQ(a.accuracyOpt, b.accuracyOpt);
    EXPECT_EQ(a.accuracyDrop, b.accuracyDrop);
    EXPECT_EQ(a.basePackageJoules, b.basePackageJoules);
    EXPECT_EQ(a.optPackageJoules, b.optPackageJoules);
    EXPECT_EQ(a.tukeyRemeasurements, b.tukeyRemeasurements);
    EXPECT_EQ(a.degenerateBaseline, b.degenerateBaseline);
  }
}

bool sameIntervals(const ResultIntervals& a, const ResultIntervals& b) {
  const auto same = [](const stats::Interval& p, const stats::Interval& q) {
    return p.lo == q.lo && p.mean == q.mean && p.hi == q.hi;
  };
  return same(a.basePackage, b.basePackage) &&
         same(a.optPackage, b.optPackage) &&
         same(a.packageImprovement, b.packageImprovement) &&
         a.validRuns == b.validRuns && a.excludedRuns == b.excludedRuns &&
         a.retriedFraction == b.retriedFraction &&
         a.degradedFraction == b.degradedFraction &&
         a.widenFactor == b.widenFactor &&
         a.pointEstimate == b.pointEstimate;
}

// The probabilistic layer inherits the pipeline's determinism contract:
// bootstrap intervals are bit-identical across reruns and thread counts
// for a fixed seed (the resample streams derive from ordinals, never from
// scheduling).
TEST(Experiments, IntervalsAreBitIdenticalAcrossRerunsAndThreadCounts) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.instances = 200;
  cfg.withNoise = true;
  cfg.intervals = true;
  cfg.bootstrap.resamples = 80;

  WekaExperimentConfig serialCfg = cfg;
  serialCfg.parallel.threads = 1;
  const auto serial = runWekaExperiment(serialCfg);
  const auto rerun = runWekaExperiment(serialCfg);

  ASSERT_EQ(serial.size(), rerun.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].intervals.has_value());
    ASSERT_TRUE(rerun[i].intervals.has_value());
    EXPECT_TRUE(sameIntervals(*serial[i].intervals, *rerun[i].intervals))
        << "rerun drifted at row " << i;
  }

  for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    WekaExperimentConfig parallelCfg = cfg;
    parallelCfg.parallel.threads = threads;
    const auto parallel = runWekaExperiment(parallelCfg);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(parallel[i].intervals.has_value());
      EXPECT_TRUE(
          sameIntervals(*serial[i].intervals, *parallel[i].intervals))
          << "row " << i << " differs at " << threads << " threads";
    }
  }
}

TEST(Experiments, IntervalsBracketTheReportedPointEstimates) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.withNoise = true;  // nonzero run-to-run variance
  cfg.intervals = true;
  const ClassifierResult r =
      runClassifierExperiment(ClassifierKind::kJ48, cfg);
  ASSERT_TRUE(r.intervals.has_value());
  const ResultIntervals& iv = *r.intervals;
  EXPECT_LE(iv.basePackage.lo, r.basePackageJoules);
  EXPECT_GE(iv.basePackage.hi, r.basePackageJoules);
  EXPECT_LE(iv.optPackage.lo, r.optPackageJoules);
  EXPECT_GE(iv.optPackage.hi, r.optPackageJoules);
  EXPECT_LE(iv.packageImprovement.lo, r.packageImprovement);
  EXPECT_GE(iv.packageImprovement.hi, r.packageImprovement);
  EXPECT_EQ(iv.validRuns, 2 * static_cast<int>(cfg.runs));
  EXPECT_EQ(iv.widenFactor, 1.0);  // clean run: no quality penalty
  EXPECT_FALSE(iv.pointEstimate);
}

TEST(Experiments, IntervalsOffLeavesRowsWithoutThem) {
  const ClassifierResult r =
      runClassifierExperiment(ClassifierKind::kNaiveBayes, fastConfig());
  EXPECT_FALSE(r.intervals.has_value());
}

// Same contract with a fault plan attached: the retry/backoff schedule is
// derived from measurement identity, never from thread interleaving, so a
// fault-injected matrix is bit-identical at 1, 4 and 8 threads — including
// the robustness bookkeeping (quality, retry counts, flags).
TEST(Experiments, FaultPlanKeepsBitIdentityAcrossOneFourEightThreads) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.instances = 200;
  cfg.faultPlan = fault::parseFaultPlan("transient:seed=19");

  WekaExperimentConfig serialCfg = cfg;
  serialCfg.parallel.threads = 1;
  const auto serial = runWekaExperiment(serialCfg);

  int retries = 0;
  for (const auto& r : serial) retries += r.faultRetries;
  EXPECT_GT(retries, 0) << "plan injected nothing; identity is vacuous";

  for (std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    WekaExperimentConfig parallelCfg = cfg;
    parallelCfg.parallel.threads = threads;
    const auto parallel = runWekaExperiment(parallelCfg);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const ClassifierResult& a = serial[i];
      const ClassifierResult& b = parallel[i];
      EXPECT_EQ(a.packageImprovement, b.packageImprovement)
          << "row " << i << " at " << threads << " threads";
      EXPECT_EQ(a.cpuImprovement, b.cpuImprovement);
      EXPECT_EQ(a.timeImprovement, b.timeImprovement);
      EXPECT_EQ(a.accuracyDrop, b.accuracyDrop);
      EXPECT_EQ(a.basePackageJoules, b.basePackageJoules);
      EXPECT_EQ(a.optPackageJoules, b.optPackageJoules);
      EXPECT_EQ(a.quality, b.quality);
      EXPECT_EQ(a.faultRetries, b.faultRetries);
      EXPECT_EQ(a.flagged, b.flagged);
    }
  }
}

// A transient-only plan must not move the science columns at all relative
// to running with no plan: retried reads recover the exact values.
TEST(Experiments, TransientFaultsDoNotPerturbScienceColumns) {
  const auto clean =
      runClassifierExperiment(ClassifierKind::kSgd, fastConfig());
  WekaExperimentConfig cfg = fastConfig();
  // Single-read bursts at a modest rate stay well inside the 4-attempt
  // read budget, so every fault is absorbed at the read level and the
  // recovered values are exact.
  cfg.faultPlan = fault::parseFaultPlan(
      "transient:seed=6,transient-prob=0.1,transient-burst=1");
  const auto faulted = runClassifierExperiment(ClassifierKind::kSgd, cfg);
  EXPECT_EQ(faulted.packageImprovement, clean.packageImprovement);
  EXPECT_EQ(faulted.cpuImprovement, clean.cpuImprovement);
  EXPECT_EQ(faulted.timeImprovement, clean.timeImprovement);
  EXPECT_EQ(faulted.accuracyDrop, clean.accuracyDrop);
  EXPECT_FALSE(faulted.flagged);
}

TEST(Experiments, ZeroCostBaselineReportsZeroImprovementNotNaN) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.instances = 200;
  // A cost model where every op is free and idle draw is zero: baseline
  // package/core/seconds all measure exactly 0.
  energy::CostModel zero = energy::CostModel::calibrated();
  for (std::size_t i = 0; i < energy::kOpCount; ++i) {
    auto& c = zero.cost(static_cast<energy::Op>(i));
    c.packageNanojoules = 0.0;
    c.nanoseconds = 0.0;
    c.dramNanojoules = 0.0;
  }
  zero.setIdleWatts(0.0, 0.0, 0.0);
  cfg.costModel = zero;

  const auto r = runClassifierExperiment(ClassifierKind::kNaiveBayes, cfg);
  EXPECT_TRUE(r.degenerateBaseline);
  EXPECT_EQ(r.packageImprovement, 0.0);
  EXPECT_EQ(r.cpuImprovement, 0.0);
  EXPECT_EQ(r.timeImprovement, 0.0);
  EXPECT_FALSE(std::isnan(r.packageImprovement));
  EXPECT_FALSE(std::isnan(r.accuracyDrop));
  // Accuracy is still measured — the classifier ran, only energy was free.
  EXPECT_GT(r.accuracyBase, 0.4);
}

TEST(Experiments, NoisyProtocolStaysNearExactResult) {
  WekaExperimentConfig exact = fastConfig();
  const auto clean =
      runClassifierExperiment(ClassifierKind::kSgd, exact);
  WekaExperimentConfig noisy = fastConfig();
  noisy.withNoise = true;
  const auto measured = runClassifierExperiment(ClassifierKind::kSgd, noisy);
  // Tukey scrubbing keeps the noisy estimate within ~1.5pp of truth.
  EXPECT_NEAR(measured.packageImprovement, clean.packageImprovement, 1.5);
}

// The measurement workload before record/replay, kept verbatim as the
// oracle: the stream's whole cross-validation, run on the measured machine.
double liveCrossValidation(ClassifierKind kind, int style,
                           const ml::Instances& data,
                           const WekaExperimentConfig& cfg,
                           energy::SimMachine& machine) {
  const bool baseline = style == 0;
  const ml::Precision precision =
      baseline ? ml::Precision::kDouble : ml::Precision::kFloat;
  ml::MlRuntime rt(machine,
                   baseline ? ml::CodeStyle::javaBaseline()
                            : ml::CodeStyle::jepoOptimized(),
                   baseline ? ml::StyleExposure::full()
                            : ml::StyleExposure::forClassifier(
                                  static_cast<int>(kind)));
  Rng cvRng(cfg.seed + 17);
  return ml::crossValidate(
      [&]() -> std::unique_ptr<ml::Classifier> {
        if (kind == ClassifierKind::kRandomForest) {
          ml::ForestOptions opts;
          opts.numTrees = cfg.forestTrees;
          if (precision == ml::Precision::kDouble) {
            return std::make_unique<ml::RandomForest<double>>(
                rt, opts, Rng(cfg.seed + 99));
          }
          return std::make_unique<ml::RandomForest<float>>(
              rt, opts, Rng(cfg.seed + 99));
        }
        return ml::makeClassifier(kind, precision, rt, cfg.seed + 99);
      },
      data, cfg.folds, cvRng);
}

// Replaying a stream's recorded op counts must measure exactly what running
// its cross-validation live measures: same noise, same fault schedule, same
// RAPL reads, bit for bit — for every classifier, style, ordinal and plan.
void expectReplayMatchesLive(const std::optional<fault::FaultSpec>& plan) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.instances = 200;
  cfg.withNoise = true;
  cfg.faultPlan = plan;
  const energy::CostModel model = energy::CostModel::calibrated();
  int imperfect = 0;
  for (int k = 0; k < ml::kClassifierKindCount; ++k) {
    const auto kind = static_cast<ClassifierKind>(k);
    const detail::ClassifierPrep prep = detail::prepClassifier(kind, cfg);
    for (int style = 0; style < detail::kStyleCount; ++style) {
      SCOPED_TRACE(std::string(ml::classifierName(kind)) + " style " +
                   std::to_string(style));
      const detail::StyleTrace trace =
          detail::recordStyle(kind, style, prep, cfg);
      const detail::StyleTrace again =
          detail::recordStyle(kind, style, prep, cfg);
      ASSERT_FALSE(trace.threw) << trace.error;
      EXPECT_EQ(trace.counts, again.counts);
      EXPECT_EQ(trace.accuracy, again.accuracy);

      const perf::PerfRunner runner = detail::styleRunner(kind, style, cfg);
      for (std::uint64_t ordinal = 0; ordinal < 12; ++ordinal) {
        for (int attempt = 0; attempt < 2; ++attempt) {
          SCOPED_TRACE("ordinal " + std::to_string(ordinal) + " attempt " +
                       std::to_string(attempt));
          double liveAccuracy = -1.0;
          double replayAccuracy = -2.0;
          const perf::PerfStat live = runner.statAt(
              ordinal, attempt,
              [&](energy::SimMachine& m) {
                liveAccuracy =
                    liveCrossValidation(kind, style, *prep.data, cfg, m);
              },
              model);
          const perf::PerfStat replay = runner.statAt(
              ordinal, attempt,
              [&](energy::SimMachine& m) {
                replayAccuracy = detail::replayStyle(trace, m);
              },
              model);
          EXPECT_EQ(live.seconds, replay.seconds);
          EXPECT_EQ(live.packageJoules, replay.packageJoules);
          EXPECT_EQ(live.coreJoules, replay.coreJoules);
          EXPECT_EQ(live.dramJoules, replay.dramJoules);
          EXPECT_EQ(live.quality, replay.quality);
          EXPECT_EQ(live.readRetries, replay.readRetries);
          EXPECT_EQ(live.packageOnly, replay.packageOnly);
          EXPECT_EQ(liveAccuracy, replayAccuracy);
          if (replay.quality != rapl::MeasurementQuality::kOk) ++imperfect;
        }
      }
    }
  }
  if (plan) {
    EXPECT_GT(imperfect, 0) << "plan injected nothing; identity is vacuous";
  }
}

TEST(Experiments, ReplayedTraceMeasuresLikeLiveRunWithoutFaults) {
  expectReplayMatchesLive(std::nullopt);
}

TEST(Experiments, ReplayedTraceMeasuresLikeLiveRunUnderTransientPlan) {
  expectReplayMatchesLive(fault::parseFaultPlan("transient"));
}

TEST(Experiments, ReplayedTraceMeasuresLikeLiveRunUnderChaosPlan) {
  expectReplayMatchesLive(fault::parseFaultPlan("chaos"));
}

TEST(Experiments, ReplayedTraceMeasuresLikeLiveRunUnderNoDramPlan) {
  expectReplayMatchesLive(fault::parseFaultPlan("no-dram"));
}

// Record once, replay many: a run records each (classifier, style) workload
// exactly once at any thread count, while the measurement protocol keeps
// every initial run and every Tukey re-measurement.
TEST(Experiments, RecordsEachWorkloadOnceWhileProtocolKeepsEveryMeasurement) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.instances = 200;
  cfg.withNoise = true;
  obs::Counter& recorded =
      obs::Registry::global().counter("experiment.workload.recorded");
  obs::Counter& measured =
      obs::Registry::global().counter("perf.measurements");
  const std::uint64_t streams =
      static_cast<std::uint64_t>(detail::kStyleCount) *
      ml::kClassifierKindCount;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    cfg.parallel.threads = threads;
    const std::uint64_t recorded0 = recorded.value();
    const std::uint64_t measured0 = measured.value();
    const auto rows = runWekaExperiment(cfg);
    std::uint64_t remeasured = 0;
    for (const auto& row : rows) {
      remeasured += static_cast<std::uint64_t>(row.tukeyRemeasurements);
    }
    EXPECT_GT(remeasured, 0u) << "no Tukey round ran; the count is vacuous";
    EXPECT_EQ(recorded.value() - recorded0, streams);
    EXPECT_EQ(measured.value() - measured0,
              streams * static_cast<std::uint64_t>(cfg.runs) + remeasured);
  }
}

}  // namespace
}  // namespace jepo::experiments
