#include "inputs.hpp"

#include <algorithm>

#include "bench/demo_project.hpp"
#include "corpus/corpus.hpp"
#include "jlang/printer.hpp"
#include "ml/classifier.hpp"
#include "predict/synth.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kHotMixTag = 0x4807;
constexpr std::uint64_t kColdMixTag = 0xC01D;

template <typename T>
void shuffle(std::vector<T>& v, jepo::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.nextBelow(i)]);
  }
}

std::string printProgram(const jepo::jlang::Program& program) {
  std::string out;
  for (const auto& unit : program.units) out += jepo::jlang::printUnit(unit);
  return out;
}

}  // namespace

std::vector<SourceProgram> hotPrograms() {
  std::vector<SourceProgram> out;
  for (auto& sp :
       jepo::predict::synthesizeCorpus(kSynthPrograms, kSynthCorpusSeed)) {
    out.push_back({sp.name, sp.mainClass, printProgram(sp.program)});
  }
  out.push_back({"demo", "", jepo::bench::kDemoProjectSource});
  return out;
}

HotInputs makeHotInputs(std::uint64_t seed) {
  HotInputs in;
  in.programs = hotPrograms();
  const std::size_t demo = in.programs.size() - 1;
  jepo::Rng rng(jepo::deriveSeed(seed, kHotMixTag));
  const int synthJobs = kHotJobsPerPass - kHotDemoJobs;
  for (int i = 0; i < synthJobs; ++i) {
    in.jobs.push_back({static_cast<std::size_t>(i % kSynthPrograms), 0});
  }
  for (int i = 0; i < kHotDemoJobs; ++i) in.jobs.push_back({demo, 0});
  shuffle(in.jobs, rng);
  for (HotJob& job : in.jobs) job.seed = rng.nextBelow(1u << 20);
  return in;
}

jepo::jepod::JobRequest hotRequest(const HotInputs& in, const HotJob& job,
                                   std::size_t ordinal) {
  const SourceProgram& p = in.programs[job.program];
  jepo::jepod::JobRequest req;
  req.id = "h" + std::to_string(ordinal);
  req.tenant = "perfbench";
  req.command = "profile";
  req.source = p.source;
  req.mainClass = p.mainClass;
  req.seed = job.seed;
  return req;
}

std::vector<CorpusUnit> corpusUnits(std::uint64_t corpusSeed, double scale) {
  std::vector<CorpusUnit> out;
  for (int k = 0; k < jepo::ml::kClassifierKindCount; ++k) {
    const auto kind = static_cast<jepo::ml::ClassifierKind>(k);
    int seeded = 0;
    const jepo::jlang::Program program =
        scale >= 1.0
            ? jepo::corpus::generateCorpus(kind, corpusSeed)
            : jepo::corpus::generateScaledCorpus(kind, scale, corpusSeed,
                                                 &seeded);
    const std::string prefix = classifierToken(k) + "/";
    for (std::size_t u = 0; u < program.units.size(); ++u) {
      out.push_back({prefix + std::to_string(u), k,
                     jepo::jlang::printUnit(program.units[u])});
    }
  }
  return out;
}

ColdInputs makeColdInputs(std::uint64_t seed) {
  ColdInputs in;
  in.optimizeUnits = corpusUnits(kOptimizeCorpusSeed, 1.0);
  in.suggestUnits = corpusUnits(kSuggestCorpusSeed, kSuggestCorpusScale);
  in.warmupUnits = corpusUnits(kWarmupCorpusSeed, kWarmupCorpusScale);
  for (std::size_t u = 0; u < in.optimizeUnits.size(); ++u) {
    in.jobs.push_back({false, u});
  }
  for (std::size_t u = 0; u < in.suggestUnits.size(); ++u) {
    in.jobs.push_back({true, u});
  }
  jepo::Rng rng(jepo::deriveSeed(seed, kColdMixTag));
  shuffle(in.jobs, rng);
  return in;
}

jepo::jepod::JobRequest coldRequest(const ColdInputs& in, const ColdJob& job,
                                    std::size_t ordinal,
                                    const std::string& tag) {
  const CorpusUnit& u =
      job.suggest ? in.suggestUnits[job.unit] : in.optimizeUnits[job.unit];
  jepo::jepod::JobRequest req;
  req.id = "c" + std::to_string(ordinal);
  req.tenant = "perfbench";
  req.command = job.suggest ? "suggest" : "optimize";
  req.source = u.source;
  if (!tag.empty()) req.source += "// " + tag + "\n";
  return req;
}

jepo::experiments::WekaExperimentConfig table4Config() {
  jepo::experiments::WekaExperimentConfig cfg;
  cfg.parallel.threads = 2;
  return cfg;
}

jepo::experiments::WekaExperimentConfig table4ProbeConfig() {
  jepo::experiments::WekaExperimentConfig cfg = table4Config();
  cfg.instances = 400;
  cfg.folds = 5;
  cfg.runs = 1;
  cfg.corpusScale = 0.05;
  return cfg;
}

std::string classifierToken(int kind) {
  std::string out;
  for (const char c :
       jepo::ml::classifierName(static_cast<jepo::ml::ClassifierKind>(kind))) {
    if (c != ' ') out += c;
  }
  return out;
}

}  // namespace perfbench
