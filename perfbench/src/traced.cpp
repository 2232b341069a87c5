// The traced run: the workload's generated inputs replayed one thread at
// a time through each layer's public call, each call timed from outside
// and wrapped in an obs span from this file. Layers a workload's inputs
// cannot reach (profiling on the analyze-cold units, the experiment
// layers on the jepod workloads, the jepod layers on table4) are measured
// on small fixed probe inputs so every traced run reports every layer;
// the run lists them in a note.
#include <algorithm>
#include <cmath>
#include <set>
#include <map>
#include <thread>
#include <type_traits>

#include "energy/machine.hpp"
#include "experiments/weka_experiment.hpp"
#include "inputs.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jepo/engine.hpp"
#include "jepo/optimizer.hpp"
#include "jepo/profiler.hpp"
#include "jepo/views.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jlang/resolve.hpp"
#include "jvm/instrumenter.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace_writer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace jp = jepo::jepod;

namespace {

/// The per-layer metrics, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& layerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"jepod.decode_us", "us"},        {"jepod.run_job_us", "us"},
        {"jepod.transport_us", "us"},     {"jepod.render_us", "us"},
        {"jepod.response_bytes", "bytes"}, {"jepod.cache_hit_rate", "ratio"},
        {"jepod.cache_evictions", "count"},
        {"jepod.contention_ratio", "ratio"},
        {"jlang.parse_us", "us"},         {"jlang.resolve_us", "us"},
        {"jlang.print_us", "us"},         {"jepo.profile_us", "us"},
        {"jepo.view_us", "us"},           {"jepo.suggest_us", "us"},
        {"jepo.optimize_us", "us"},       {"jepo.changes_per_job", "count"},
        {"jvm.steps_per_job", "count"},   {"jvm.records_per_job", "count"},
        {"jbc.compile_us", "us"},         {"jbc.exec_us", "us"},
        {"experiments.prep_s", "s"},
    };
    for (int k = 0; k < jepo::ml::kClassifierKindCount; ++k) {
      v.push_back({"experiments.row_s." + classifierToken(k), "s"});
    }
    v.push_back({"experiments.parallel_efficiency", "ratio"});
    v.push_back({"stats.tukey_remeasurements", "count"});
    v.push_back({"perf.measurements", "count"});
    v.push_back({"support.pool_tasks", "count"});
    v.push_back({"tracing_overhead", "ratio"});
    return v;
  }();
  return kUnits;
}


/// The traced run's root and phase spans are always recorded, so the
/// layer spans' self times account for the run's whole wall time.
constexpr bool kAlways = true;

/// Time spent per layer call, measured from outside the call.
class Layers {
 public:
  template <typename F>
  auto time(const std::string& name, F&& f) {
    LayerSpan span(name);
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      add(name, secondsSince(t0));
    } else {
      auto result = f();
      add(name, secondsSince(t0));
      return result;
    }
  }
  void add(const std::string& name, double seconds) {
    Acc& a = acc_[name];
    a.seconds += seconds;
    ++a.calls;
  }
  double meanUs(const std::string& name) const {
    const auto it = acc_.find(name);
    return it == acc_.end() || it->second.calls == 0
               ? 0.0
               : it->second.seconds * 1e6 /
                     static_cast<double>(it->second.calls);
  }
  double totalSeconds(const std::string& name) const {
    const auto it = acc_.find(name);
    return it == acc_.end() ? 0.0 : it->second.seconds;
  }

 private:
  struct Acc {
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Acc> acc_;
};

/// The per-layer values of one traced run. Values measured on the
/// workload's own inputs are set first; probes only fill names still
/// missing, and are listed.
struct LayerValues {
  std::map<std::string, double> values;
  std::vector<std::string> probed;
  std::vector<std::string> bases;  // the base of each ratio metric
  bool probing = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Returns false when `name` already had a value.
  bool set(const std::string& name, double v) {
    if (values.count(name) != 0) return false;
    values[name] = v;
    if (probing) probed.push_back(name);
    return true;
  }
  /// Sets a ratio metric and records its base.
  void setRatio(const std::string& name, double num, double den,
                const std::string& what) {
    if (!set(name, num / den)) return;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s = %s = %.6f / %.6f", name.c_str(),
                  what.c_str(), num, den);
    bases.push_back(buf);
  }
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void add(const PassCount& c) {
    attempted += c.attempted;
    failed += c.attempted - c.good;
  }
};

std::uint64_t counterValue(const char* name) {
  return jepo::obs::Registry::global().counter(name).value();
}

struct CacheCounters {
  std::uint64_t hits = counterValue("jepod.cache.hits");
  std::uint64_t misses = counterValue("jepod.cache.misses");
  std::uint64_t evictions = counterValue("jepod.cache.evictions");
};

void setCacheValues(LayerValues& out, const CacheCounters& before) {
  const CacheCounters after;
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  out.set("jepod.cache_hit_rate",
          hits + misses > 0 ? hits / (hits + misses) : 0.0);
  out.set("jepod.cache_evictions",
          static_cast<double>(after.evictions - before.evictions));
}

/// Median latency of `lines` sent by `clients` closed-loop clients at
/// once (each takes every clients-th line), in milliseconds.
double contendedP50(LiveDaemon& live, const std::vector<std::string>& lines,
                    int clients) {
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<jp::Client>> extra;
  for (int c = 0; c < clients; ++c) {
    jp::Client* client = &live.client();
    if (c > 0) {
      extra.push_back(std::make_unique<jp::Client>());
      extra.back()->connect(live.socketPath());
      client = extra.back().get();
    }
    threads.emplace_back([&lines, &lat, client, c, clients] {
      for (std::size_t i = static_cast<std::size_t>(c); i < lines.size();
           i += static_cast<std::size_t>(clients)) {
        timedRoundTrip(*client, lines[i], &lat[static_cast<std::size_t>(c)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  return median(std::move(all));
}

/// Replays items 0..n-1 through `one(i, layers, traced)`. With `overhead`
/// each item runs twice, untraced and traced, alternating which goes
/// first, so warm-up and drift cancel out of tracing_overhead (traced ÷
/// untraced replay time). Only traced replays feed `L`.
template <typename One>
void replayInterleaved(std::size_t n, bool overhead, Layers& L,
                       LayerValues& out, One one) {
  Layers untraced;
  double plainSeconds = 0.0;
  double tracedSeconds = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool tracedFirst = i % 2 == 1;
    for (int round = 0; round < (overhead ? 2 : 1); ++round) {
      const bool traced = !overhead || (round == 0) == tracedFirst;
      setLayerSpans(traced);
      const Clock::time_point t0 = Clock::now();
      one(i, traced ? L : untraced, traced);
      (traced ? tracedSeconds : plainSeconds) += secondsSince(t0);
    }
  }
  setLayerSpans(false);
  if (overhead) {
    out.setRatio("tracing_overhead", tracedSeconds, plainSeconds,
                  "traced s / untraced s of the replay");
  }
}

/// Socket round trip minus Daemon::runJobForTest for the same requests:
/// the median difference in microseconds. `direct` and `wire` are the
/// same jobs; they differ only where a cold workload needs each to be new
/// to the cache.
double transportUs(LiveDaemon& live, const std::vector<jp::JobRequest>& direct,
                   const std::vector<jp::JobRequest>& wire) {
  std::vector<double> differences;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const std::string line = jp::renderRequest(wire[i]);
    double runJob = 0.0;
    double roundTrip = 0.0;
    // Alternate which goes first so neither warms the other's caches.
    for (int round = 0; round < 2; ++round) {
      const Clock::time_point t0 = Clock::now();
      if ((round == 0) == (i % 2 == 0)) {
        live.daemon().runJobForTest(direct[i]);
        runJob = secondsSince(t0);
      } else {
        live.client().roundTrip(line);
        roundTrip = secondsSince(t0);
      }
    }
    differences.push_back((roundTrip - runJob) * 1e6);
  }
  return median(std::move(differences));
}

/// Per-job counts summed over a replay.
struct ReplayTotals {
  std::uint64_t steps = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t changes = 0;
  std::uint64_t optimizeJobs = 0;
};

// ---- profile-hot layers ---------------------------------------------------

/// One replayed profile job through every layer it can reach.
void replayHotJob(const jp::JobRequest& req, std::uint64_t expected,
                  LiveDaemon& live, Layers& L, LayerValues& out,
                  ReplayTotals& totals) {
  const std::string line = jp::renderRequest(req);
  const jp::JobRequest decoded =
      L.time("jepod.decode", [&] { return jp::parseRequest(line); });
  const jepo::jlang::Program program = L.time("jlang.parse", [&] {
    return jepo::jlang::Parser::parseProgram("<jepod>", decoded.source);
  });
  L.time("jlang.resolve", [&] { jepo::jlang::ensureResolved(program); });
  L.time("jlang.print", [&] {
    std::size_t n = 0;
    for (const auto& unit : program.units) {
      n += jepo::jlang::printUnit(unit).size();
    }
    return n;
  });
  const std::string viaDaemon = L.time(
      "jepod.run_job", [&] { return live.daemon().runJobForTest(decoded); });

  jepo::core::Profiler profiler;
  profiler.setSeed(decoded.seed);
  const std::uint64_t steps0 = counterValue("vm.steps");
  const std::uint64_t records0 = counterValue("instrumenter.records");
  L.time("jepo.profile", [&] {
    profiler.profile(program, decoded.mainClass, decoded.maxSteps);
  });
  totals.steps += counterValue("vm.steps") - steps0;
  totals.records += counterValue("instrumenter.records") - records0;
  const jp::ProfileResult result{profiler.programOutput(),
                                 profiler.records()};
  const std::string rendered = L.time("jepod.render", [&] {
    return jp::renderProfileResponse(decoded, true, result);
  });
  totals.bytes += rendered.size();
  L.time("jepo.view",
         [&] { return jepo::core::renderProfilerView(profiler.records()); });
  out.check(fnv1a(resultPayload(viaDaemon)) == expected &&
            fnv1a(resultPayload(rendered)) == expected);

  L.time("jepo.suggest", [&] {
    return jepo::core::SuggestionEngine().analyzeProgram(program);
  });
  const jepo::core::OptimizeResult optimized =
      L.time("jepo.optimize",
             [&] { return jepo::core::Optimizer().optimize(program); });
  totals.changes += optimized.changes.size();
  ++totals.optimizeJobs;

  const jepo::jbc::CompiledProgram compiled =
      L.time("jbc.compile", [&] { return jepo::jbc::compile(program); });
  const std::string bcvmOutput = L.time("jbc.exec", [&] {
    jepo::energy::SimMachine machine;
    jepo::jbc::BytecodeVm vm(compiled, machine);
    jepo::jvm::Instrumenter inst(machine);
    vm.setHooks(&inst);
    vm.setMaxSteps(decoded.maxSteps);
    vm.runMain(decoded.mainClass);
    return vm.output();
  });
  out.check(bcvmOutput == profiler.programOutput());
}

/// Set-up, one untraced pass, the replay, transport and contention, for
/// the first `maxJobs` jobs of the profile-hot pass.
void hotLayers(const Args& args, const Oracles& oracles, std::size_t maxJobs,
               bool overhead, LayerValues& out) {
  CpuPin pin;
  HotInputs in;
  std::unique_ptr<LiveDaemon> live;
  std::vector<jp::JobRequest> reqs;
  std::vector<std::string> lines;
  std::vector<std::uint64_t> expected;
  {
    LayerSpan phase("phase.setup", kAlways);
    in = makeHotInputs(args.seed);
    in.jobs.resize(std::min(maxJobs, in.jobs.size()));
    for (std::size_t i = 0; i < in.jobs.size(); ++i) {
      reqs.push_back(hotRequest(in, in.jobs[i], i));
      lines.push_back(jp::renderRequest(reqs.back()));
      expected.push_back(
          oracles.profilePayload.at(in.programs[in.jobs[i].program].name));
    }
    live = std::make_unique<LiveDaemon>(args.workDir);
    // Warm-up: each distinct program once, so every later job hits.
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (seen.insert(in.jobs[i].program).second) {
        live->client().roundTrip(lines[i]);
      }
    }
  }
  {
    LayerSpan phase("phase.pass", kAlways);
    const CacheCounters before;
    out.add(hotPass(live->client(), lines, expected, nullptr));
    setCacheValues(out, before);
  }
  {
    LayerSpan phase("phase.replay", kAlways);
    Layers L;
    ReplayTotals totals;
    ReplayTotals untraced;
    replayInterleaved(reqs.size(), overhead, L, out,
                      [&](std::size_t i, Layers& layers, bool traced) {
      replayHotJob(reqs[i], expected[i], *live, layers, out,
                   traced ? totals : untraced);
    });
    const auto n = static_cast<double>(std::max<std::size_t>(reqs.size(), 1));
    out.set("jvm.steps_per_job", static_cast<double>(totals.steps) / n);
    out.set("jvm.records_per_job", static_cast<double>(totals.records) / n);
    out.set("jepod.response_bytes", static_cast<double>(totals.bytes) / n);
    out.set("jepo.changes_per_job", static_cast<double>(totals.changes) / n);
    for (const char* layer :
         {"jepod.decode", "jepod.run_job", "jepod.render", "jlang.parse",
          "jlang.resolve", "jlang.print", "jepo.profile", "jepo.view",
          "jepo.suggest", "jepo.optimize", "jbc.compile", "jbc.exec"}) {
      out.set(std::string(layer) + "_us", L.meanUs(layer));
    }
  }
  {
    LayerSpan phase("phase.transport", kAlways);
    std::vector<jp::JobRequest> sample;
    for (std::size_t i = 0; i < reqs.size(); i += 4) sample.push_back(reqs[i]);
    out.set("jepod.transport_us", transportUs(*live, sample, sample));
  }
  {
    // Two clients need two CPUs to contend on.
    pin.release();
    LayerSpan phase("phase.contention", kAlways);
    const double one = contendedP50(*live, lines, 1);
    const double two = contendedP50(*live, lines, 2);
    out.setRatio("jepod.contention_ratio", two, one,
                 "p50 ms at 2 clients / p50 ms at 1 client");
  }
  LayerSpan phase("phase.teardown", kAlways);
  live.reset();
}

// ---- analyze-cold layers --------------------------------------------------

/// Replay every kColdReplayStride-th job of the pass: the full pass through
/// every layer twice (untraced and traced) would take longer than the
/// measured window.
constexpr std::size_t kColdReplayStride = 4;

void replayColdJob(const ColdInputs& in, const ColdJob& job, std::size_t i,
                   const std::string& tag, const Oracles& oracles,
                   LiveDaemon& live, Layers& L, LayerValues& out,
                   ReplayTotals& totals) {
  const std::string line = jp::renderRequest(coldRequest(in, job, i, tag));
  const jp::JobRequest decoded =
      L.time("jepod.decode", [&] { return jp::parseRequest(line); });
  const jepo::jlang::Program program = L.time("jlang.parse", [&] {
    return jepo::jlang::Parser::parseProgram("<jepod>", decoded.source);
  });
  L.time("jlang.resolve", [&] { jepo::jlang::ensureResolved(program); });
  const std::string viaDaemon = L.time(
      "jepod.run_job", [&] { return live.daemon().runJobForTest(decoded); });

  std::string rendered;
  if (job.suggest) {
    const std::string view = L.time("jepo.suggest", [&] {
      return jepo::core::renderOptimizerView(
          jepo::core::SuggestionEngine().analyzeProgram(program));
    });
    rendered = L.time("jepod.render", [&] {
      return jp::renderSuggestResponse(decoded, false, view);
    });
    const auto it = oracles.suggestPayload.find(in.suggestUnits[job.unit].name);
    out.check(it != oracles.suggestPayload.end() &&
              fnv1a(resultPayload(viaDaemon)) == it->second &&
              fnv1a(resultPayload(rendered)) == it->second);
  } else {
    const jepo::core::OptimizeResult optimized = L.time(
        "jepo.optimize",
        [&] { return jepo::core::Optimizer().optimize(program); });
    totals.changes += optimized.changes.size();
    ++totals.optimizeJobs;
    std::vector<jp::OptimizeChange> list;
    for (const auto& c : optimized.changes) {
      list.push_back({c.className, c.line, c.description});
    }
    const std::string source = L.time("jlang.print", [&] {
      std::string s;
      for (const auto& unit : optimized.program.units) {
        s += jepo::jlang::printUnit(unit);
      }
      return s;
    });
    rendered = L.time("jepod.render", [&] {
      return jp::renderOptimizeResponse(decoded, false, list, source);
    });
    out.check(!resultPayload(viaDaemon).empty() &&
              resultPayload(viaDaemon) == resultPayload(rendered));
  }
  totals.bytes += rendered.size();
}

void coldLayers(const Args& args, const Oracles& oracles, LayerValues& out) {
  CpuPin pin;
  ColdInputs in;
  std::unique_ptr<LiveDaemon> live;
  {
    LayerSpan phase("phase.setup", kAlways);
    in = makeColdInputs(args.seed);
    live = std::make_unique<LiveDaemon>(args.workDir);
  }
  {
    LayerSpan phase("phase.pass", kAlways);
    const CacheCounters before;
    out.add(coldPass(live->client(), in, "pass", oracles, nullptr));
    setCacheValues(out, before);
  }
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < in.jobs.size(); i += kColdReplayStride) {
    picks.push_back(i);
  }
  {
    LayerSpan phase("phase.replay", kAlways);
    Layers L;
    ReplayTotals totals;
    ReplayTotals untraced;
    replayInterleaved(picks.size(), true, L, out,
                      [&](std::size_t p, Layers& layers, bool traced) {
      const std::size_t i = picks[p];
      replayColdJob(in, in.jobs[i], i,
                    traced ? "replay traced" : "replay untraced", oracles,
                    *live, layers, out, traced ? totals : untraced);
    });
    out.set("jepod.response_bytes", static_cast<double>(totals.bytes) /
                                        static_cast<double>(picks.size()));
    const auto optimizeJobs =
        std::max<std::uint64_t>(totals.optimizeJobs, 1);
    out.set("jepo.changes_per_job", static_cast<double>(totals.changes) /
                                        static_cast<double>(optimizeJobs));
    for (const char* layer :
         {"jepod.decode", "jepod.run_job", "jepod.render", "jlang.parse",
          "jlang.resolve", "jlang.print", "jepo.suggest", "jepo.optimize"}) {
      out.set(std::string(layer) + "_us", L.meanUs(layer));
    }
  }
  {
    LayerSpan phase("phase.transport", kAlways);
    std::vector<jp::JobRequest> direct, wire;
    for (std::size_t i = 0; i < picks.size(); i += 4) {
      direct.push_back(coldRequest(in, in.jobs[picks[i]], i, "transport a"));
      wire.push_back(coldRequest(in, in.jobs[picks[i]], i, "transport b"));
    }
    out.set("jepod.transport_us", transportUs(*live, direct, wire));
  }
  {
    pin.release();
    LayerSpan phase("phase.contention", kAlways);
    const auto tagged = [&](const std::string& tag) {
      std::vector<std::string> lines;
      for (const std::size_t i : picks) {
        lines.push_back(
            jp::renderRequest(coldRequest(in, in.jobs[i], i, tag)));
      }
      return lines;
    };
    const double one = contendedP50(*live, tagged("contention 1"), 1);
    const double two = contendedP50(*live, tagged("contention 2"), 2);
    out.setRatio("jepod.contention_ratio", two, one,
                 "p50 ms at 2 clients / p50 ms at 1 client");
  }
  LayerSpan phase("phase.teardown", kAlways);
  live.reset();
}

// ---- table4 layers --------------------------------------------------------

/// One parallel experiment (the base of parallel efficiency and the
/// counters), then prep and every row replayed serially. Rows are checked
/// against `reference` when it is non-null, else serial rows against the
/// parallel ones (they are bit-identical at any thread count).
void experimentLayers(const jepo::experiments::WekaExperimentConfig& cfg,
                      const std::vector<std::string>* reference,
                      bool overhead, LayerValues& out) {
  namespace ex = jepo::experiments;
  std::vector<std::string> parallelRows;
  double experimentSeconds = 0.0;
  {
    LayerSpan phase("phase.pass", kAlways);
    const std::uint64_t perf0 = counterValue("perf.measurements");
    const std::uint64_t pool0 = counterValue("pool.tasks");
    const Clock::time_point t0 = Clock::now();
    const auto rows = ex::runWekaExperiment(cfg);
    experimentSeconds = secondsSince(t0);
    out.set("perf.measurements",
            static_cast<double>(counterValue("perf.measurements") - perf0));
    out.set("support.pool_tasks",
            static_cast<double>(counterValue("pool.tasks") - pool0));
    int tukey = 0;
    for (const auto& row : rows) {
      tukey += row.tukeyRemeasurements;
      parallelRows.push_back(renderTable4Row(row));
    }
    out.set("stats.tukey_remeasurements", tukey);
  }
  ex::WekaExperimentConfig serial = cfg;
  serial.parallel.threads = 1;
  const std::vector<std::string>& expected =
      reference != nullptr ? *reference : parallelRows;
  LayerSpan phase("phase.replay", kAlways);
  Layers L;
  // Items 0-9 prepare each classifier, items 10-19 run its row.
  const int kinds = jepo::ml::kClassifierKindCount;
  replayInterleaved(static_cast<std::size_t>(2 * kinds), overhead, L, out,
                    [&](std::size_t item, Layers& layers, bool) {
    const int k = static_cast<int>(item) % kinds;
    const auto kind = static_cast<jepo::ml::ClassifierKind>(k);
    if (static_cast<int>(item) < kinds) {
      layers.time("experiments.prep",
                  [&] { return ex::detail::prepClassifier(kind, serial); });
      return;
    }
    const ex::ClassifierResult row =
        layers.time("experiments.row." + classifierToken(k),
                    [&] { return ex::runClassifierExperiment(kind, serial); });
    out.check(static_cast<std::size_t>(k) < expected.size() &&
              renderTable4Row(row) == expected[static_cast<std::size_t>(k)]);
  });
  out.set("experiments.prep_s", L.totalSeconds("experiments.prep"));
  double rowSum = 0.0;
  for (int k = 0; k < jepo::ml::kClassifierKindCount; ++k) {
    const double s = L.totalSeconds("experiments.row." + classifierToken(k));
    rowSum += s;
    out.set("experiments.row_s." + classifierToken(k), s);
  }
  const double workers = static_cast<double>(cfg.parallel.resolvedThreads());
  out.setRatio("experiments.parallel_efficiency", rowSum,
               workers * experimentSeconds,
               "sum of serial row_s / (" +
                   std::to_string(cfg.parallel.resolvedThreads()) +
                   " workers x parallel experiment_s)");
}

// ---- span accounting ------------------------------------------------------

struct SelfTimes {
  std::map<std::string, double> byName;  // seconds
  double sum = 0.0;
  double rootSeconds = 0.0;
  std::size_t spans = 0;
};

/// Self time of each span recorded on the thread that recorded `root`:
/// its duration minus the part its child spans cover.
SelfTimes selfTimes(const std::vector<jepo::obs::SpanEvent>& events,
                    const std::string& root) {
  SelfTimes out;
  std::uint32_t tid = 0;
  bool found = false;
  for (const auto& e : events) {
    if (e.name == root) {
      tid = e.tid;
      out.rootSeconds = e.durUs * 1e-6;
      found = true;
    }
  }
  if (!found) return out;
  std::vector<const jepo::obs::SpanEvent*> mine;
  for (const auto& e : events) {
    if (e.tid == tid) mine.push_back(&e);
  }
  // Parents before children: by start, then outermost first.
  std::stable_sort(mine.begin(), mine.end(), [](const auto* a, const auto* b) {
    return a->startUs != b->startUs ? a->startUs < b->startUs
                                    : a->depth < b->depth;
  });
  std::vector<double> childUs(mine.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    while (!stack.empty() && mine[stack.back()]->depth >= mine[i]->depth) {
      stack.pop_back();
    }
    if (!stack.empty()) childUs[stack.back()] += mine[i]->durUs;
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const double self = (mine[i]->durUs - childUs[i]) * 1e-6;
    out.byName[mine[i]->name] += self;
    out.sum += self;
  }
  out.spans = mine.size();
  return out;
}

/// Runs `body` as the traced run: root span, Chrome trace written under
/// the work directory, span self times reconciled with the wall time,
/// and every per-layer metric emitted.
template <typename Body>
RunResult tracedRun(const Args& args, Body body) {
  jepo::obs::TraceCollector::setCapacityPerThread(std::size_t{1} << 20);
  jepo::obs::TraceCollector::clear();
  LayerValues values;
  const Clock::time_point t0 = Clock::now();
  {
    LayerSpan root("perfbench.traced_run", kAlways);
    body(values);
  }
  const double wall = secondsSince(t0);

  RunResult r;
  const auto events = jepo::obs::TraceCollector::events();
  const std::uint64_t dropped = jepo::obs::TraceCollector::dropped();
  const std::string tracePath =
      args.workDir + "/perfbench-trace-" + args.workload + ".json";
  const bool written = jepo::obs::TraceWriter::writeFile(
      tracePath, events, jepo::obs::Registry::global().snapshot(), dropped);
  const SelfTimes self = selfTimes(events, "perfbench.traced_run");
  // What the spans do not cover: time outside the root span, and the
  // root's own self time (span bookkeeping between phases).
  const auto rootSelf = self.byName.find("perfbench.traced_run");
  const double unattributed =
      rootSelf == self.byName.end() ? 0.0 : rootSelf->second;
  const bool reconciled =
      dropped == 0 && std::abs(wall - self.sum) <= 0.01 * wall;
  r.notes.push_back("trace: " + tracePath + (written ? "" : " (not written)") +
                    " spans=" + std::to_string(self.spans) +
                    " dropped=" + std::to_string(dropped));
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "span self times: sum=%.6f s wall=%.6f s root_self=%.6f s "
                "outside_root=%.6f s %s",
                self.sum, wall, unattributed, wall - self.rootSeconds,
                reconciled ? "reconciled" : "NOT reconciled");
  r.notes.push_back(buf);
  for (const auto& [name, seconds] : self.byName) {
    std::snprintf(buf, sizeof buf, "self %-32s %10.6f s", name.c_str(),
                  seconds);
    r.notes.push_back(buf);
  }
  for (const std::string& base : values.bases) r.notes.push_back(base);
  if (!values.probed.empty()) {
    std::string note = "measured on probe inputs:";
    for (const std::string& name : values.probed) note += " " + name;
    r.notes.push_back(note);
  }

  bool complete = true;
  for (const auto& [name, unit] : layerMetricUnits()) {
    const auto it = values.values.find(name);
    if (it == values.values.end()) {
      complete = false;
      r.notes.push_back("missing layer metric " + name);
      continue;
    }
    r.metrics.push_back({name, it->second, unit});
  }
  r.attempted = std::max<std::uint64_t>(values.attempted, 1);
  r.failed = values.failed;
  r.correct = values.failed == 0 && values.attempted > 0 && complete &&
              reconciled;
  return r;
}

/// The jepod probe: the first jobs of the profile-hot pass.
constexpr std::size_t kHotProbeJobs = 64;

}  // namespace

RunResult traceProfileHot(const Args& args, const Oracles& oracles) {
  return tracedRun(args, [&](LayerValues& v) {
    hotLayers(args, oracles, kHotJobsPerPass, /*overhead=*/true, v);
    LayerSpan phase("phase.probe", kAlways);
    v.probing = true;
    experimentLayers(table4ProbeConfig(), nullptr, false, v);
  });
}

RunResult traceAnalyzeCold(const Args& args, const Oracles& oracles) {
  return tracedRun(args, [&](LayerValues& v) {
    coldLayers(args, oracles, v);
    LayerSpan phase("phase.probe", kAlways);
    v.probing = true;
    hotLayers(args, oracles, kHotProbeJobs, false, v);
    experimentLayers(table4ProbeConfig(), nullptr, false, v);
  });
}

RunResult traceTable4(const Args& args, const Oracles& oracles) {
  return tracedRun(args, [&](LayerValues& v) {
    experimentLayers(table4Config(), &oracles.table4Rows, true, v);
    LayerSpan phase("phase.probe", kAlways);
    v.probing = true;
    hotLayers(args, oracles, kHotProbeJobs, false, v);
  });
}

}  // namespace perfbench
