#include "experiments/parallel_runner.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "obs/span.hpp"
#include "stats/protocol.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "support/watchdog.hpp"

namespace jepo::experiments {

std::vector<ClassifierResult> ParallelRunner::run() {
  const std::size_t kinds =
      static_cast<std::size_t>(ml::kClassifierKindCount);
  ThreadPool pool(config_.parallel.resolvedThreads());

  // Per-task watchdog: flags (never cancels) measurement jobs that outlive
  // config_.watchdogSeconds, so one wedged task is visible long before the
  // run's end instead of silently stalling the whole matrix.
  Watchdog watchdog(config_.watchdogSeconds);

  // ---- Phase 1: per-classifier prep (corpus optimize + dataset build).
  // Each task writes its own pre-sized slot; prepClassifier is a pure
  // function of (kind, config).
  std::vector<detail::ClassifierPrep> preps(kinds);
  parallelFor(pool, kinds, [&](std::size_t k) {
    const auto scope = watchdog.watch(
        "prep " + std::string(ml::classifierName(
                      static_cast<ml::ClassifierKind>(k))));
    preps[k] = detail::prepClassifier(static_cast<ml::ClassifierKind>(k),
                                      config_);
  });

  // ---- Phase 2: record each (classifier, style) workload once. Stream
  // s = 2k + style; RandomForest's two recordings are the longest tasks,
  // so they go first and never start last on an otherwise idle pool.
  constexpr auto styles = static_cast<std::size_t>(detail::kStyleCount);
  const std::size_t streamCount = styles * kinds;
  const auto forest =
      static_cast<std::size_t>(ml::ClassifierKind::kRandomForest);
  std::vector<std::size_t> order(streamCount);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_partition(order.begin(), order.end(), [&](std::size_t s) {
    return s / styles == forest;
  });
  std::vector<detail::StyleTrace> traces(streamCount);
  parallelFor(pool, streamCount, [&](std::size_t i) {
    const std::size_t s = order[i];
    const auto kind = static_cast<ml::ClassifierKind>(s / styles);
    const int style = static_cast<int>(s % styles);
    const auto scope = watchdog.watch(
        "record " + std::string(ml::classifierName(kind)) + " style " +
        std::to_string(style));
    traces[s] = detail::recordStyle(kind, style,
                                    preps[s / styles], config_);
  });

  // ---- Phase 3: one protocol call over all 2×kinds measurement streams,
  // each replaying its trace (stable from here on) into every measurement.
  std::vector<stats::IndexedMeasure> streams;
  streams.reserve(streamCount);
  for (std::size_t s = 0; s < streamCount; ++s) {
    streams.push_back(detail::makeStyleMeasure(
        static_cast<ml::ClassifierKind>(s / styles),
        static_cast<int>(s % styles), traces[s], config_));
  }
  const stats::BatchExecutor exec =
      [&pool, &watchdog](const std::vector<std::function<void()>>& jobs) {
        parallelFor(pool, jobs.size(), [&jobs, &watchdog](std::size_t i) {
          const auto scope =
              watchdog.watch("measure job #" + std::to_string(i));
          jobs[i]();
        });
      };
  const auto protocols = [&] {
    // prep/record/assemble spans come from the detail functions themselves
    // (they run inside pool tasks); the measure phase is driven from here.
    obs::Span span("experiment.measure");
    return stats::measureManyWithTukeyLoop(
        streams, config_.runs, exec, /*maxRounds=*/50, /*fenceK=*/1.5,
        detail::kTukeyMetricColumns);
  }();

  // ---- Phase 4: assemble, preserving the serial output ordering.
  // Rows whose measurements stayed invalid arrive flagged from
  // assembleResult — partial results, never an aborted matrix.
  std::vector<ClassifierResult> out;
  out.reserve(kinds);
  for (std::size_t k = 0; k < kinds; ++k) {
    out.push_back(detail::assembleResult(static_cast<ml::ClassifierKind>(k),
                                         preps[k], protocols[2 * k],
                                         protocols[2 * k + 1], config_));
  }
  return out;
}

}  // namespace jepo::experiments
