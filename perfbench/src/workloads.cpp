#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "experiments/interval_report.hpp"
#include "inputs.hpp"
#include "jepo/views.hpp"
#include "support/json_writer.hpp"

namespace perfbench {

namespace jp = jepo::jepod;

namespace {

/// Set-ups per run; the median is setup_s. The jepod workloads rebuild
/// their inputs and restart the daemon each time. analyze-cold's set-up
/// is long enough (about 2 s) that three give a steady median.
constexpr int kSetupRepeats = 9;
constexpr int kColdSetupRepeats = 3;

std::atomic<int> gSocketOrdinal{0};

/// The measured window: whole passes over the workload's fixed job list.
/// The pass count is --seconds divided by the workload's nominal pass
/// time (on a 4-core x86 VM), so every run of a workload does the same
/// fixed work whatever the host's speed; a time-based count mixed runs
/// with different numbers of (slower, later) passes.
struct PassLoop {
  std::vector<double> latMs;
  std::vector<double> passWall;
  std::vector<double> passCpu;
  std::uint64_t attempted = 0;
  std::uint64_t good = 0;

  void add(const PassCount& c) {
    attempted += c.attempted;
    good += c.good;
  }
};

template <typename RunPass>
PassLoop measurePasses(int seconds, double nominalPassSeconds,
                       RunPass runPass) {
  PassLoop loop;
  const int passes = std::max(
      1, static_cast<int>(std::lround(seconds / nominalPassSeconds)));
  for (int pass = 0; pass < passes; ++pass) {
    const Clock::time_point t0 = Clock::now();
    const double c0 = cpuSeconds();
    runPass(pass, loop);
    loop.passWall.push_back(secondsSince(t0));
    loop.passCpu.push_back(cpuSeconds() - c0);
  }
  return loop;
}

RunResult endToEnd(PassLoop loop, const std::vector<double>& setupSeconds) {
  RunResult r;
  r.attempted = loop.attempted;
  r.failed = loop.attempted - loop.good;
  r.correct = r.failed == 0;
  const double wall =
      std::accumulate(loop.passWall.begin(), loop.passWall.end(), 0.0);
  const std::size_t n = loop.latMs.size();
  const double p50 = percentile(loop.latMs, 0.50);
  const double p99 = percentile(loop.latMs, 0.99);
  const auto beyond = static_cast<std::size_t>(
      loop.latMs.end() -
      std::upper_bound(loop.latMs.begin(), loop.latMs.end(), p99));
  r.metrics = {
      {"jobs_per_s", static_cast<double>(loop.good) / wall, "1/s"},
      {"latency_p50_ms", p50, "ms"},
      {"latency_p99_ms", p99, "ms"},
      {"experiment_s", wall, "s"},
      {"cpu_s",
       std::accumulate(loop.passCpu.begin(), loop.passCpu.end(), 0.0), "s"},
      {"setup_s", median(setupSeconds), "s"},
      {"ok_rate",
       static_cast<double>(loop.good) / static_cast<double>(loop.attempted),
       "ratio"},
      {"peak_rss_mb", peakRssMb(), "MiB"},
  };
  std::string walls;
  for (const double w : loop.passWall) {
    walls += (walls.empty() ? "" : ",") + std::to_string(w);
  }
  r.notes.push_back("pass_walls_s=" + walls);
  r.notes.push_back("passes=" + std::to_string(loop.passWall.size()) +
                    " latency_samples=" + std::to_string(n) +
                    " beyond_p99=" + std::to_string(beyond));
  return r;
}

/// Runs `setup` `repeats` times, keeping the last state; returns the
/// set-up durations. Earlier states are torn down before the next set-up
/// starts, outside its timing.
template <typename State, typename Setup>
std::vector<double> repeatSetup(int repeats, std::unique_ptr<State>& state,
                                Setup setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    state = setup();
    seconds.push_back(secondsSince(t0));
  }
  return seconds;
}

// ---- profile-hot ----------------------------------------------------------

struct HotState {
  HotInputs in;
  std::vector<std::string> lines;        // rendered requests, one pass
  std::vector<std::uint64_t> expected;   // payload digest per job
  std::unique_ptr<LiveDaemon> live;
};

std::unique_ptr<HotState> setupHot(const Args& args, const Oracles& oracles) {
  auto s = std::make_unique<HotState>();
  s->in = makeHotInputs(args.seed);
  for (std::size_t i = 0; i < s->in.jobs.size(); ++i) {
    const HotJob& job = s->in.jobs[i];
    s->lines.push_back(jp::renderRequest(hotRequest(s->in, job, i)));
    s->expected.push_back(
        oracles.profilePayload.at(s->in.programs[job.program].name));
  }
  s->live = std::make_unique<LiveDaemon>(args.workDir);
  // Warm-up: every distinct source once, so every measured job hits.
  for (std::size_t p = 0; p < s->in.programs.size(); ++p) {
    timedRoundTrip(s->live->client(),
                   jp::renderRequest(hotRequest(s->in, {p, 0}, p)), nullptr);
  }
  return s;
}

// ---- analyze-cold ---------------------------------------------------------

struct ColdState {
  ColdInputs in;
  std::unique_ptr<LiveDaemon> live;
};

std::unique_ptr<ColdState> setupCold(const Args& args) {
  auto s = std::make_unique<ColdState>();
  s->in = makeColdInputs(args.seed);
  s->live = std::make_unique<LiveDaemon>(args.workDir);
  // Warm-up on units outside the measured set: both commands, once each.
  for (std::size_t u = 0; u < s->in.warmupUnits.size(); ++u) {
    for (const char* command : {"optimize", "suggest"}) {
      jp::JobRequest req;
      req.id = "w" + std::to_string(u);
      req.command = command;
      req.source = s->in.warmupUnits[u].source;
      timedRoundTrip(s->live->client(), jp::renderRequest(req), nullptr);
    }
  }
  return s;
}

}  // namespace

LiveDaemon::LiveDaemon(const std::string& workDir) {
  std::filesystem::create_directories(workDir);
  socketPath_ = workDir + "/pb" + std::to_string(::getpid()) + "_" +
                std::to_string(gSocketOrdinal.fetch_add(1)) + ".sock";
  jp::DaemonConfig cfg;
  cfg.socketPath = socketPath_;
  cfg.threads = kDaemonThreads;
  daemon_ = std::make_unique<jp::Daemon>(cfg);
  daemon_->start();
  client_.connect(socketPath_);
}

LiveDaemon::~LiveDaemon() {
  client_.close();
  daemon_->stop();
}

int countChanges(std::string_view line) {
  int n = 0;
  for (std::size_t at = line.find("{\"className\":");
       at != std::string_view::npos;
       at = line.find("{\"className\":", at + 1)) {
    ++n;
  }
  return n;
}

std::string timedRoundTrip(jp::Client& client, const std::string& line,
                           std::vector<double>* latMs) {
  const Clock::time_point t0 = Clock::now();
  std::string response = client.roundTrip(line);
  if (latMs != nullptr) latMs->push_back(secondsSince(t0) * 1e3);
  return response;
}

PassCount hotPass(jp::Client& client, const std::vector<std::string>& lines,
                  const std::vector<std::uint64_t>& expected,
                  std::vector<double>* latMs) {
  PassCount c;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string resp = timedRoundTrip(client, lines[i], latMs);
    ++c.attempted;
    if (fnv1a(resultPayload(resp)) == expected[i]) ++c.good;
  }
  return c;
}

PassCount coldPass(jp::Client& client, const ColdInputs& in,
                   const std::string& tag, const Oracles& oracles,
                   std::vector<double>* latMs) {
  PassCount c;
  std::array<int, 10> changes{};
  std::array<std::uint64_t, 10> okOptimize{};
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    const ColdJob& job = in.jobs[i];
    const std::string resp = timedRoundTrip(
        client, jp::renderRequest(coldRequest(in, job, i, tag)), latMs);
    ++c.attempted;
    if (job.suggest) {
      const auto it =
          oracles.suggestPayload.find(in.suggestUnits[job.unit].name);
      if (it != oracles.suggestPayload.end() &&
          fnv1a(resultPayload(resp)) == it->second) {
        ++c.good;
      }
      continue;
    }
    if (resp.find("\"ok\":true") == std::string::npos) continue;
    const auto k =
        static_cast<std::size_t>(in.optimizeUnits[job.unit].classifier);
    changes[k] += countChanges(resp);
    ++okOptimize[k];
  }
  // A classifier whose change total misses Table IV fails all its jobs.
  for (std::size_t k = 0; k < changes.size(); ++k) {
    if (changes[k] == oracles.changes[k]) c.good += okOptimize[k];
  }
  return c;
}

RunResult runProfileHot(const Args& args, const Oracles& oracles) {
  CpuPin pin;
  std::unique_ptr<HotState> s;
  const std::vector<double> setup =
      repeatSetup(kSetupRepeats, s,
                  [&] { return setupHot(args, oracles); });
  PassLoop loop = measurePasses(args.seconds, 1.0, [&](int pass, PassLoop& l) {
    pin.rotate(pass);
    l.add(hotPass(s->live->client(), s->lines, s->expected, &l.latMs));
  });
  return endToEnd(std::move(loop), setup);
}

RunResult runAnalyzeCold(const Args& args, const Oracles& oracles) {
  CpuPin pin;
  std::unique_ptr<ColdState> s;
  const std::vector<double> setup =
      repeatSetup(kColdSetupRepeats, s, [&] { return setupCold(args); });
  PassLoop loop = measurePasses(args.seconds, 4.5, [&](int pass, PassLoop& l) {
    pin.rotate(pass);
    l.add(coldPass(s->live->client(), s->in, "pass " + std::to_string(pass),
                   oracles, &l.latMs));
  });
  return endToEnd(std::move(loop), setup);
}

RunResult runTable4(const Args& args, const Oracles& oracles) {
  const jepo::experiments::WekaExperimentConfig cfg = table4Config();
  // Set-up: a reduced experiment warms code, allocator and thread pool.
  struct Warm {};
  std::unique_ptr<Warm> warm;
  const std::vector<double> setup = repeatSetup(kSetupRepeats, warm, [&] {
    jepo::experiments::runWekaExperiment(table4ProbeConfig());
    return std::make_unique<Warm>();
  });
  PassLoop loop = measurePasses(args.seconds, 6.5, [&](int, PassLoop& l) {
    const Clock::time_point t0 = Clock::now();
    const auto rows = jepo::experiments::runWekaExperiment(cfg);
    l.latMs.push_back(secondsSince(t0) * 1e3);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      ++l.attempted;
      if (k < oracles.table4Rows.size() &&
          renderTable4Row(rows[k]) == oracles.table4Rows[k]) {
        ++l.good;
      }
    }
  });
  RunResult r = endToEnd(std::move(loop), setup);
  r.notes.push_back(
      "table4: a job is a classifier row; a latency sample is one whole "
      "Table IV run, one per pass");
  return r;
}

bool freezeOracles(const std::string& dir) {
  Oracles o;
  bool ok = true;
  jp::DaemonConfig cfg;
  cfg.cacheBytes = 0;
  jp::Daemon daemon(cfg);

  const std::vector<SourceProgram> programs = hotPrograms();
  for (std::size_t p = 0; p < programs.size(); ++p) {
    HotInputs one;
    one.programs = programs;
    const std::string a =
        daemon.runJobForTest(hotRequest(one, {p, 0}, p));
    const std::string b =
        daemon.runJobForTest(hotRequest(one, {p, 987654}, p));
    if (resultPayload(a).empty() || resultPayload(a) != resultPayload(b)) {
      std::fprintf(stderr, "freeze: %s payload is not seed-independent\n",
                   programs[p].name.c_str());
      ok = false;
    }
    const jp::Response parsed = jp::parseResponse(a);
    o.profilePayload[programs[p].name] = fnv1a(resultPayload(a));
    o.profileCliView[programs[p].name] =
        fnv1a(jepo::core::renderProfilerView(parsed.profile.records) +
              "\nprogram output:\n" + parsed.profile.stdoutText);
  }

  ColdInputs cold;
  cold.suggestUnits = corpusUnits(kSuggestCorpusSeed, kSuggestCorpusScale);
  for (std::size_t u = 0; u < cold.suggestUnits.size(); ++u) {
    const std::string resp =
        daemon.runJobForTest(coldRequest(cold, {true, u}, u, ""));
    o.suggestPayload[cold.suggestUnits[u].name] = fnv1a(resultPayload(resp));
  }
  cold.optimizeUnits = corpusUnits(kOptimizeCorpusSeed, 1.0);
  for (std::size_t u = 0; u < cold.optimizeUnits.size(); ++u) {
    const std::string resp =
        daemon.runJobForTest(coldRequest(cold, {false, u}, u, ""));
    o.changes[static_cast<std::size_t>(cold.optimizeUnits[u].classifier)] +=
        countChanges(resp);
  }
  for (int k = 0; k < 10; ++k) {
    const int paper = jepo::experiments::paperTable4Row(
                          static_cast<jepo::ml::ClassifierKind>(k))
                          .changes;
    if (o.changes[static_cast<std::size_t>(k)] != paper) {
      std::fprintf(stderr, "freeze: %s changes %d, Table IV says %d\n",
                   classifierToken(k).c_str(),
                   o.changes[static_cast<std::size_t>(k)], paper);
      ok = false;
    }
  }

  for (const auto& row : jepo::experiments::runWekaExperiment(table4Config())) {
    o.table4Rows.push_back(renderTable4Row(row));
  }
  if (ok) writeOracles(dir, o);
  return ok;
}

void emitSources(const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::ofstream manifest(dir + "/manifest.txt");
  for (const SourceProgram& p : hotPrograms()) {
    std::ofstream(dir + "/" + p.name + ".mjava") << p.source;
    manifest << p.name << ' ' << (p.mainClass.empty() ? "-" : p.mainClass)
             << '\n';
  }
}

}  // namespace perfbench
