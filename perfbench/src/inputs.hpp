// Input generation for the three workloads. Every generator is a pure
// function of its seed argument: the same seed gives byte-identical
// inputs, and the program under test receives only what is generated
// here. The program sets (synthetic corpus, WEKA-scale corpora) are
// fixed; the seed draws the job mix and order over them, so frozen
// reference outputs stay valid for every seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/weka_experiment.hpp"
#include "jepod/protocol.hpp"

namespace perfbench {

// ---- profile-hot -----------------------------------------------------------

/// Synthetic programs in the hot mix, from predict::synthesizeCorpus.
inline constexpr int kSynthPrograms = 192;
inline constexpr std::uint64_t kSynthCorpusSeed = 2020;
/// Jobs in one pass over the mix, and the demo project's share of them.
inline constexpr int kHotJobsPerPass = 2000;
inline constexpr int kHotDemoJobs = 60;  // 3%

struct SourceProgram {
  std::string name;       // "synth<i>" or "demo"
  std::string mainClass;  // "" = the unique main class
  std::string source;
};

struct HotJob {
  std::size_t program = 0;  // index into HotInputs::programs
  std::uint64_t seed = 0;   // the job's seed field
};

struct HotInputs {
  std::vector<SourceProgram> programs;  // synth0..synthN-1, then demo
  std::vector<HotJob> jobs;             // one pass
};

/// The fixed program set (synthetic corpus + demo project).
std::vector<SourceProgram> hotPrograms();
/// Programs plus the seed-drawn pass: every synthetic program appears an
/// equal number of times (to within one), the demo exactly kHotDemoJobs
/// times, in seed-shuffled order with seed-drawn per-job seeds.
HotInputs makeHotInputs(std::uint64_t seed);

jepo::jepod::JobRequest hotRequest(const HotInputs& in, const HotJob& job,
                                   std::size_t ordinal);

// ---- analyze-cold ----------------------------------------------------------

/// Corpus seeds: optimize jobs cover every unit of the full-scale corpus
/// of kOptimizeCorpusSeed; suggest jobs cover a scaled corpus of a second
/// seed; warm-up uses a third, so no warm-up source is in the measured set.
inline constexpr std::uint64_t kOptimizeCorpusSeed = 42;
inline constexpr std::uint64_t kSuggestCorpusSeed = 43;
inline constexpr double kSuggestCorpusScale = 0.25;
inline constexpr std::uint64_t kWarmupCorpusSeed = 44;
inline constexpr double kWarmupCorpusScale = 0.02;

struct CorpusUnit {
  std::string name;    // "<Classifier>/<unit index>"
  int classifier = 0;  // ml::ClassifierKind
  std::string source;  // canonical printed unit
};

struct ColdJob {
  bool suggest = false;  // else optimize
  std::size_t unit = 0;  // index into the matching unit list
};

struct ColdInputs {
  std::vector<CorpusUnit> optimizeUnits;
  std::vector<CorpusUnit> suggestUnits;
  std::vector<CorpusUnit> warmupUnits;
  std::vector<ColdJob> jobs;  // one pass: every unit once, seed-shuffled
};

/// Units of corpus::generateCorpus (scale 1) or generateScaledCorpus.
std::vector<CorpusUnit> corpusUnits(std::uint64_t corpusSeed, double scale);
ColdInputs makeColdInputs(std::uint64_t seed);

/// The request for `job`. `tag` is appended to the source as a trailing
/// comment: each pass uses a fresh tag so every measured source is new to
/// the daemon's cache while parse, suggest and optimize output stay the
/// same.
jepo::jepod::JobRequest coldRequest(const ColdInputs& in, const ColdJob& job,
                                    std::size_t ordinal,
                                    const std::string& tag);

// ---- table4 ----------------------------------------------------------------

/// The paper's default Table IV configuration on two workers. It has no
/// free input: the rows it produces are the frozen reference.
jepo::experiments::WekaExperimentConfig table4Config();
/// A reduced configuration for set-up warm-up and for probing the
/// experiment layers from the other workloads' traced runs.
jepo::experiments::WekaExperimentConfig table4ProbeConfig();

/// "Random Forest" -> "RandomForest": the classifier as a metric-name part.
std::string classifierToken(int kind);

}  // namespace perfbench
