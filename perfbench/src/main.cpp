// perfbench_driver — one workload, one run, one result line.
//
//   perfbench_driver --workload profile-hot|analyze-cold|table4 --seed N
//                    --seconds S --trace 0|1 [--oracles DIR] [--work-dir DIR]
//   perfbench_driver --freeze DIR        regenerate the reference files
//   perfbench_driver --emit-sources DIR  write the profile-hot programs
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced replay. The host probe (fixed loops, util.hpp) is
// timed before and after the run and printed on its own line, before the
// result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload profile-hot|analyze-cold|"
               "table4 --seed N --seconds S --trace 0|1 [--oracles DIR] "
               "[--work-dir DIR]\n"
               "       perfbench_driver --freeze DIR | --emit-sources DIR\n",
               why);
  return 2;
}

bool parseUnsigned(const std::string& s, unsigned long long* out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string freezeDir;
  std::string emitDir;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parseUnsigned(value, &n)) return usage("bad --seed");
      args.seed = n;
      haveSeed = true;
    } else if (flag == "--seconds") {
      if (!parseUnsigned(value, &n) || n < 1 || n > 600) {
        return usage("bad --seconds");
      }
      args.seconds = static_cast<int>(n);
      haveSeconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      args.trace = value == "1";
      haveTrace = true;
    } else if (flag == "--oracles") {
      args.oracleDir = value;
    } else if (flag == "--work-dir") {
      args.workDir = value;
    } else if (flag == "--freeze") {
      freezeDir = value;
    } else if (flag == "--emit-sources") {
      emitDir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  try {
    if (!freezeDir.empty()) return freezeOracles(freezeDir) ? 0 : 1;
    if (!emitDir.empty()) {
      emitSources(emitDir);
      return 0;
    }
    if (!haveSeed || !haveSeconds || !haveTrace) {
      return usage("--seed, --seconds and --trace are required");
    }
    using Runner = RunResult (*)(const Args&, const Oracles&);
    Runner run = nullptr;
    if (args.workload == "profile-hot") {
      run = args.trace ? traceProfileHot : runProfileHot;
    } else if (args.workload == "analyze-cold") {
      run = args.trace ? traceAnalyzeCold : runAnalyzeCold;
    } else if (args.workload == "table4") {
      run = args.trace ? traceTable4 : runTable4;
    } else {
      return usage("unknown --workload");
    }
    const Oracles oracles = loadOracles(args.oracleDir);
    const HostProbe before = hostProbe();
    const RunResult r = run(args, oracles);
    const HostProbe after = hostProbe();
    for (const std::string& note : r.notes) {
      std::printf("perfbench: %s\n", note.c_str());
    }
    std::printf(
        "host_probe_ms: before alu=%.3f mem=%.3f after alu=%.3f mem=%.3f\n",
        before.aluMs, before.memMs, after.aluMs, after.memMs);
    printResult(r.correct, r.attempted, r.failed, r.metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
