// ParallelRunner — the Table IV measurement matrix on a thread pool.
//
// The serial pipeline walks 10 classifiers × {baseline, optimized} ×
// config.runs measurements one after another; nothing in that matrix shares
// state, so it fans out over jepo::ThreadPool in four phases:
//
//   1. prep      — per-classifier Optimizer change count + dataset build
//                  (10 independent tasks)
//   2. record    — each (classifier, style) cross-validation runs once
//                  (detail::recordStyle, 2 × 10 tasks, RandomForest first
//                  since it is the longest); its op counts and accuracy
//                  are the stream's trace
//   3. measure   — ALL classifiers' measurement streams go through ONE
//                  stats::measureManyWithTukeyLoop call, so the initial
//                  batch is 10 × 2 × runs independent jobs and each Tukey
//                  round batches every stream's re-measurements together.
//                  A job replays its stream's trace into a fresh machine
//                  under its own noise and fault streams — cheap, so the
//                  phase costs a small fraction of the record phase
//   4. assemble  — fold protocol results into ClassifierResult rows, in
//                  ClassifierKind order
//
// Determinism guarantee: every measurement derives its RNG from
// deriveSeed(config.seed, classifier, style, ordinal) and writes a
// pre-assigned result slot; traces are pure functions of (classifier,
// style); Tukey decisions run on the coordinating thread between batches
// and depend only on measured values. Results are therefore bit-identical
// to the serial path for ANY thread count and ANY scheduling order — which
// is what lets `--threads` be a pure performance knob. No task waits on
// another: each phase is one single-level fan-out behind a barrier.
#pragma once

#include <vector>

#include "experiments/weka_experiment.hpp"

namespace jepo::experiments {

class ParallelRunner {
 public:
  /// `config.parallel.threads`: 0 = one per core, N = exactly N workers.
  explicit ParallelRunner(const WekaExperimentConfig& config)
      : config_(config) {}

  /// Run all ten classifiers; rows in ClassifierKind order, bit-identical
  /// to runClassifierExperiment on each kind.
  std::vector<ClassifierResult> run();

 private:
  WekaExperimentConfig config_;
};

}  // namespace jepo::experiments
