// Shared utilities for the bench binaries: a strict --key=value flag
// parser, the paper-vs-measured table header every reproduction bench
// prints, runOnVm — how the benches execute MiniJava outside the
// profiler — and BenchReport, the common machine-readable artifact
// ({bench, config, rows[], wallMs, counters{}}) every bench emits with
// --json=<path> for CI's smoke-bench step.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "energy/machine.hpp"
#include "fault/fault.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jlang/ast.hpp"
#include "jvm/engine.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "support/json_writer.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace jepo::bench {

/// Parses flags of the form --name=value (bare --name means "true").
///
/// Every bench declares its flag vocabulary up front; anything outside it
/// — a typo like --intances, a flag from a different bench, a stray
/// positional argument — prints the valid set and exits with status 2, so
/// a CI invocation can never silently run with a misspelled knob at its
/// default value. "help", "json", "runs", "trace" and "fault-plan" are
/// accepted by every bench (CI runs them all uniformly with
/// --runs=1 --json=...; chaos runs add --fault-plan=<spec>).
class Flags {
 public:
  Flags(int argc, char** argv, std::vector<std::string> known = {}) {
    for (const char* common : {"help", "json", "runs", "trace",
                               "fault-plan"}) {
      if (std::find(known.begin(), known.end(), common) == known.end()) {
        known.emplace_back(common);
      }
    }
    std::sort(known.begin(), known.end());
    bool bad = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (startsWith(arg, "--")) {
        const auto eq = arg.find('=');
        const std::string name =
            eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
        if (std::binary_search(known.begin(), known.end(), name)) {
          if (eq == std::string::npos) {
            values_.emplace_back(name, "true");
          } else {
            values_.emplace_back(name, arg.substr(eq + 1));
          }
          continue;
        }
      }
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      bad = true;
    }
    if (bad || getBool("help")) {
      std::FILE* out = bad ? stderr : stdout;
      std::fprintf(out, "valid flags:");
      for (const auto& k : known) std::fprintf(out, " --%s", k.c_str());
      std::fprintf(out, "\n");
      std::exit(bad ? 2 : 0);
    }
  }

  std::string get(const std::string& name, const std::string& def) const {
    for (const auto& [k, v] : values_) {
      if (k == name) return v;
    }
    return def;
  }

  long getInt(const std::string& name, long def) const {
    const std::string v = get(name, "");
    return v.empty() ? def : std::strtol(v.c_str(), nullptr, 10);
  }

  double getDouble(const std::string& name, double def) const {
    const std::string v = get(name, "");
    return v.empty() ? def : std::strtod(v.c_str(), nullptr);
  }

  bool getBool(const std::string& name, bool def = false) const {
    const std::string v = get(name, "");
    return v.empty() ? def : v == "true" || v == "1";
  }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

/// Resolve --fault-plan=<spec> (see fault::parseFaultPlan for the syntax:
/// a preset like "transient" or "chaos", optionally with ':'-separated
/// key=value overrides). Returns nullopt when the flag is absent or the
/// spec is inactive ("none"); a malformed spec prints the parse error and
/// exits 2, matching the strict-flag philosophy above.
inline std::optional<fault::FaultSpec> faultSpecFromFlags(
    const Flags& flags) {
  const std::string text = flags.get("fault-plan", "");
  if (text.empty()) return std::nullopt;
  try {
    fault::FaultSpec spec = fault::parseFaultPlan(text);
    if (!spec.active()) return std::nullopt;
    return spec;
  } catch (const Error& e) {
    std::fprintf(stderr, "--fault-plan: %s\n", e.what());
    std::exit(2);
  }
}

/// Compile `program` and run its main on the bytecode VM — the engine every
/// profile job runs on — charging `machine`, with optional method hooks
/// (an Instrumenter, say). Returns what the program printed.
inline std::string runOnVm(const jlang::Program& program,
                           energy::SimMachine& machine,
                           std::uint64_t maxSteps,
                           jvm::MethodHooks* hooks = nullptr) {
  const jbc::CompiledProgram compiled = jbc::compile(program);
  jbc::BytecodeVm vm(compiled, machine);
  vm.setHooks(hooks);
  vm.setMaxSteps(maxSteps);
  vm.runMain();
  return vm.output();
}

inline void printHeader(const std::string& title) {
  std::printf("==================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==================================================\n");
}

/// The CPU model of the host, from /proc/cpuinfo's first "model name"
/// line (read-only); "unknown" where the file or the line is absent.
inline std::string hostCpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (!f) return "unknown";
  std::string model = "unknown";
  char line[512];
  while (std::fgets(line, sizeof line, f)) {
    const std::string text = line;
    if (!startsWith(text, "model name")) continue;
    const auto colon = text.find(':');
    if (colon != std::string::npos) {
      model = std::string(trim(text.substr(colon + 1)));
    }
    break;
  }
  std::fclose(f);
  return model;
}

/// The compiler that built this binary, as "<id> <major.minor.patch>".
inline std::string compilerId() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

/// The machine-readable side of a bench run. Construct it right after
/// Flags (it starts the wall clock and arms tracing from JEPO_TRACE /
/// --trace), record config knobs and result rows while the bench prints
/// its human-readable table, and `return report.finish();` from main.
///
/// finish() writes the common schema
///   {"bench": ..., "host": {...}, "config": {...}, "rows": [{...}, ...],
///    "wallMs": ..., "counters": {...}}
/// where "host" fingerprints the machine and build the numbers came from
/// (cpuModel, cores, compiler, buildType): timings from different hosts
/// are not comparable, and the fingerprint says which host a report is.
/// to the --json path (validated in CI by scripts/check_bench_json.py) and
/// dumps the Chrome trace if one was requested.
class BenchReport {
 public:
  BenchReport(std::string bench, const Flags& flags)
      : bench_(std::move(bench)),
        jsonPath_(flags.get("json", "")),
        start_(std::chrono::steady_clock::now()) {
    obs::initFromEnv();
    const std::string trace = flags.get("trace", "");
    if (!trace.empty()) obs::setTracePath(trace);
  }

  void config(const std::string& key, JsonValue v) {
    config_.emplace_back(key, std::move(v));
  }

  using Row = std::vector<std::pair<std::string, JsonValue>>;
  void addRow(Row row) { rows_.push_back(std::move(row)); }

  /// Returns main's exit status: 0, or 1 if a requested report could not
  /// be written.
  int finish() {
    const double wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    int status = 0;
    if (!jsonPath_.empty() && !writeJson(wallMs)) status = 1;
    obs::writeTraceIfRequested();
    return status;
  }

 private:
  bool writeJson(double wallMs) const {
    JsonWriter w;
    w.beginObject();
    w.kv("bench", bench_);
    w.key("host");
    w.beginObject();
    w.kv("cpuModel", hostCpuModel());
    w.kv("cores", std::max(1u, std::thread::hardware_concurrency()));
    w.kv("compiler", compilerId());
    w.kv("buildType", std::string(JEPO_BUILD_TYPE));
    w.endObject();
    w.key("config");
    w.beginObject();
    for (const auto& [k, v] : config_) w.kv(k, v);
    w.endObject();
    w.key("rows");
    w.beginArray();
    for (const auto& row : rows_) {
      w.beginObject();
      for (const auto& [k, v] : row) w.kv(k, v);
      w.endObject();
    }
    w.endArray();
    w.kv("wallMs", wallMs);
    w.key("counters");
    w.beginObject();
    for (const auto& [name, value] :
         obs::Registry::global().snapshot().counters) {
      w.kv(name, value);
    }
    w.endObject();
    w.endObject();

    std::FILE* f = std::fopen(jsonPath_.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", jsonPath_.c_str());
      return false;
    }
    const std::string& doc = w.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
  }

  std::string bench_;
  std::string jsonPath_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, JsonValue>> config_;
  std::vector<Row> rows_;
};

}  // namespace jepo::bench
