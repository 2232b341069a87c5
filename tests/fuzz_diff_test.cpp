// Cross-engine differential fuzzer: seeded random MiniJava programs over
// the whole language (tests/support/progen.cpp) run on both the tree
// interpreter — the oracle — and the bytecode VM, which must agree exactly
// on
//
//   - printed output (byte-for-byte),
//   - the instrumented record stream: every record's method, truncation
//     flag, and the bit patterns of its seconds and joules (the hooks
//     sample the meter, so this pins the charges between every pair of
//     hook events, not just the totals),
//   - the per-op energy-meter counts, and the simulated joules of a
//     hook-free run.
//
// Each program then reruns per engine
//   - under a tiny heap limit that forces mark-compact collections (the
//     observables must stay bit-identical to the unlimited run — GC is
//     host-time only), and
//   - under a step budget drawn from the seed in [1, total tree steps]:
//     both engines must stop at the same point, with identical output,
//     truncated records, meter counts and error text.
//
// Environment knobs:
//   JEPO_FUZZ_RUNS=N   number of generated programs (default 200)
//   JEPO_FUZZ_SEED=N   base seed for the derived stream (default below)
//   JEPO_FUZZ_ONLY=N   replay exactly one derived seed (as printed by a
//                      failure) and dump its source; a step-budget
//                      failure prints the budget, replayable with
//                      JEPO_FUZZ_MAX_STEPS=N alongside it
#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>
#include <string>

#include "energy/machine.hpp"
#include "energy/op.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jlang/parser.hpp"
#include "jvm/instrumenter.hpp"
#include "jvm/interpreter.hpp"
#include "obs/registry.hpp"
#include "support/rng.hpp"
#include "tests/support/progen.hpp"

namespace {

using namespace jepo;

constexpr std::uint64_t kDefaultBaseSeed = 0x6a65706f2d667aULL;  // "jepo-fz"
constexpr int kDefaultRuns = 200;
constexpr std::size_t kFuzzHeapLimit = 48;
constexpr std::uint64_t kMaxSteps = 20'000'000;

/// Strict u64 parse for seed knobs: decimal or 0x-prefixed hex, the exact
/// inverse of replayBanner's `JEPO_FUZZ_ONLY=0x%llx`. Rejects what
/// strtoull would quietly accept-or-mangle — leading signs/whitespace
/// (strtoull *negates* "-1" into 2^64-1), trailing junk, and out-of-range
/// values (strtoull saturates to ULLONG_MAX with only errno to show for
/// it) — so a replayed seed either round-trips bit-exactly or fails.
bool parseU64(const char* v, std::uint64_t* out) {
  if (v == nullptr || *v == '\0') return false;
  if (!std::isdigit(static_cast<unsigned char>(v[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 0);
  if (end == v || *end != '\0' || errno == ERANGE) return false;
  *out = n;
  return true;
}

std::uint64_t envU64(const char* name, std::uint64_t fallback, bool* set) {
  if (set != nullptr) *set = false;
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::uint64_t n = 0;
  if (!parseU64(v, &n)) {
    // A mangled replay seed must fail loudly: silently falling back here
    // would fuzz 200 fresh seeds instead of replaying the one requested.
    ADD_FAILURE() << name << "='" << v
                  << "' is not a valid u64 (decimal or 0x hex)";
    return fallback;
  }
  if (set != nullptr) *set = true;
  return n;
}

struct RecordObs {
  std::string method;
  bool truncated = false;
  std::uint64_t secondsBits = 0;
  std::uint64_t pkgBits = 0;
  std::uint64_t coreBits = 0;
  std::uint64_t dramBits = 0;
  bool operator==(const RecordObs&) const = default;
};

struct RunResult {
  std::string out;
  std::uint64_t pkgBits = 0;
  std::uint64_t coreBits = 0;
  std::uint64_t dramBits = 0;
  std::uint64_t secondsBits = 0;
  std::vector<RecordObs> records;
  energy::OpArray<std::uint64_t> counts{};
  std::uint64_t steps = 0;  // completed runs only (the vm.steps flush)
  std::uint64_t collections = 0;
  std::string error;  // non-empty when the run threw

  bool sameObservables(const RunResult& o) const {
    return error == o.error && out == o.out && pkgBits == o.pkgBits &&
           coreBits == o.coreBits && dramBits == o.dramBits &&
           secondsBits == o.secondsBits && records == o.records &&
           counts == o.counts;
  }
};

std::uint64_t doubleBits(double d) {
  std::uint64_t u = 0;
  static_assert(sizeof u == sizeof d);
  std::memcpy(&u, &d, sizeof u);
  return u;
}

std::uint64_t stepsCounter() {
  return obs::Registry::global().counter("vm.steps").value();
}

struct RunOptions {
  std::size_t heapLimit = 0;
  std::uint64_t maxSteps = kMaxSteps;
  // false skips the instrumenter: the machine then prices all counts in one
  // terminal sync, making the joules a pure function of the op counts.
  bool withHooks = true;
};

/// Run `engine` (Interpreter or BytecodeVm) to completion or abort and
/// collect every observable, the aborted run's truncated records included.
template <typename Engine>
RunResult runEngine(Engine& engine, energy::SimMachine& machine,
                    const RunOptions& opts) {
  RunResult r;
  jvm::Instrumenter inst(machine);
  engine.setHeapLimit(opts.heapLimit);
  if (opts.withHooks) engine.setHooks(&inst);
  engine.setMaxSteps(opts.maxSteps);
  const std::uint64_t steps0 = stepsCounter();
  try {
    engine.runMain();
    r.steps = stepsCounter() - steps0;
  } catch (const jvm::Thrown& t) {
    r.error = jvm::UncaughtException(t, engine.heap()).what();
  } catch (const std::exception& e) {
    r.error = e.what();
    inst.unwindAbortedFrames();
  }
  const energy::MachineSample s = machine.sample();
  r.out = engine.output();
  r.pkgBits = doubleBits(s.packageJoules);
  r.coreBits = doubleBits(s.coreJoules);
  r.dramBits = doubleBits(s.dramJoules);
  r.secondsBits = doubleBits(s.seconds);
  for (const auto& rec : inst.records()) {
    r.records.push_back(RecordObs{rec.method, rec.truncated,
                                  doubleBits(rec.seconds),
                                  doubleBits(rec.packageJoules),
                                  doubleBits(rec.coreJoules),
                                  doubleBits(rec.dramJoules)});
  }
  r.counts = machine.meter().counts();
  r.collections = engine.gc().collections();
  return r;
}

RunResult runTree(const testgen::GeneratedProgram& p,
                  const RunOptions& opts = {}) {
  try {
    const jlang::Program prog = jlang::Parser::parseProgram(p.name, p.source);
    energy::SimMachine machine;
    jvm::Interpreter interp(prog, machine);
    return runEngine(interp, machine, opts);
  } catch (const std::exception& e) {
    RunResult r;
    r.error = std::string("setup: ") + e.what();
    return r;
  }
}

RunResult runBcvm(const testgen::GeneratedProgram& p,
                  const RunOptions& opts = {}) {
  try {
    const jlang::Program prog = jlang::Parser::parseProgram(p.name, p.source);
    const jbc::CompiledProgram compiled = jbc::compile(prog);
    energy::SimMachine machine;
    jbc::BytecodeVm vm(compiled, machine);
    return runEngine(vm, machine, opts);
  } catch (const std::exception& e) {
    RunResult r;
    r.error = std::string("setup: ") + e.what();
    return r;
  }
}

std::string describe(const RunResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "pkg=%016llx core=%016llx dram=%016llx sec=%016llx out=%zuB",
                static_cast<unsigned long long>(r.pkgBits),
                static_cast<unsigned long long>(r.coreBits),
                static_cast<unsigned long long>(r.dramBits),
                static_cast<unsigned long long>(r.secondsBits),
                r.out.size());
  std::string s = buf;
  if (!r.error.empty()) s += " error='" + r.error + "'";
  s += " records=[";
  for (const auto& rec : r.records) {
    s += rec.method + (rec.truncated ? "(t) " : " ");
  }
  s += "]";
  return s;
}

std::string countDiff(const RunResult& tree, const RunResult& bcvm) {
  std::string diff;
  for (std::size_t i = 0; i < energy::kOpCount; ++i) {
    if (tree.counts[i] == bcvm.counts[i]) continue;
    diff += "  " + std::string(energy::opName(static_cast<energy::Op>(i))) +
            ": tree " + std::to_string(tree.counts[i]) + " bcvm " +
            std::to_string(bcvm.counts[i]) + "\n";
  }
  return diff;
}

std::string replayBanner(std::uint64_t seed,
                         const testgen::GeneratedProgram& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "replay: JEPO_FUZZ_ONLY=0x%llx ./fuzz_diff_test",
                static_cast<unsigned long long>(seed));
  return std::string(buf) + "\n---- generated program " + p.name +
         " ----\n" + p.source + "----\n";
}

/// Full observable comparison of one tree/bcvm pair; `what` names the run.
bool expectSameRun(const RunResult& tree, const RunResult& bcvm,
                   const std::string& what, std::uint64_t seed,
                   const testgen::GeneratedProgram& p) {
  if (tree.sameObservables(bcvm)) return true;
  ADD_FAILURE() << what << ": engines disagree\n  tree " << describe(tree)
                << "\n  bcvm " << describe(bcvm) << "\n"
                << (tree.out != bcvm.out
                        ? "  stdout tree:\n" + tree.out + "  stdout bcvm:\n" +
                              bcvm.out
                        : std::string())
                << countDiff(tree, bcvm) << replayBanner(seed, p);
  return false;
}

/// The step budget a seed's rerun aborts at: drawn in [1, total steps],
/// or JEPO_FUZZ_MAX_STEPS when replaying one.
std::uint64_t budgetFor(std::uint64_t seed, std::uint64_t totalSteps) {
  bool set = false;
  const std::uint64_t forced = envU64("JEPO_FUZZ_MAX_STEPS", 0, &set);
  if (set) return forced;
  Rng rng(deriveSeed(seed, 0x5745ULL));
  return 1 + rng.nextBelow(totalSteps);
}

// Checks one derived seed; returns false on any divergence so the caller
// can cap the failure spam. `*clean` reports whether the program ran to
// completion on the oracle.
bool checkSeed(std::uint64_t seed, bool* clean = nullptr) {
  const testgen::GeneratedProgram p = testgen::generateProgram(seed);
  const RunResult tree = runTree(p);
  const RunResult bcvm = runBcvm(p);

  if (tree.error.rfind("setup: ", 0) == 0) {
    ADD_FAILURE() << "generated program does not compile: " << tree.error
                  << "\n" << replayBanner(seed, p);
    return false;
  }
  if (!expectSameRun(tree, bcvm, "full run", seed, p)) return false;
  // A run the oracle itself aborts (e.g. the tree's return register
  // clobbered by a constructor inside a finally, which the VM reproduces)
  // has been compared in full above; the reruns need a completed run.
  if (clean != nullptr) *clean = tree.error.empty();
  if (!tree.error.empty()) return true;
  if (tree.steps != bcvm.steps) {
    ADD_FAILURE() << "engines disagree on steps: tree " << tree.steps
                  << " bcvm " << bcvm.steps << "\n" << replayBanner(seed, p);
    return false;
  }
  bool ok = true;
  RunOptions bare;
  bare.withHooks = false;
  ok &= expectSameRun(runTree(p, bare), runBcvm(p, bare), "hook-free run",
                      seed, p);

  // GC must be invisible: rerun each engine under a heap limit small enough
  // to force collections and require bit-identical observables.
  RunOptions gc;
  gc.heapLimit = kFuzzHeapLimit;
  const RunResult treeGc = runTree(p, gc);
  const RunResult bcvmGc = runBcvm(p, gc);
  if (!treeGc.sameObservables(tree)) {
    ADD_FAILURE() << "tree engine diverged under heap limit "
                  << kFuzzHeapLimit << "\n  unlimited " << describe(tree)
                  << "\n  limited   " << describe(treeGc) << "\n"
                  << replayBanner(seed, p);
    ok = false;
  }
  if (!bcvmGc.sameObservables(bcvm)) {
    ADD_FAILURE() << "bytecode engine diverged under heap limit "
                  << kFuzzHeapLimit << "\n  unlimited " << describe(bcvm)
                  << "\n  limited   " << describe(bcvmGc) << "\n"
                  << replayBanner(seed, p);
    ok = false;
  }
  // The churn loop every program ends with must actually trigger the
  // collector, or the bit-identity check above proves nothing.
  EXPECT_GT(treeGc.collections, 0u) << replayBanner(seed, p);
  EXPECT_GT(bcvmGc.collections, 0u) << replayBanner(seed, p);

  // A step budget that runs out somewhere inside the program: both engines
  // stop at the same tree step, with the same meter, records and text.
  RunOptions limited;
  limited.maxSteps = budgetFor(seed, tree.steps);
  ok &= expectSameRun(runTree(p, limited), runBcvm(p, limited),
                      "step budget " + std::to_string(limited.maxSteps) +
                          " (replay with JEPO_FUZZ_MAX_STEPS=" +
                          std::to_string(limited.maxSteps) + ")",
                      seed, p);
  return ok;
}

TEST(FuzzDiff, ReplaySeedEnvRoundTrips) {
  // A seed printed by replayBanner ("JEPO_FUZZ_ONLY=0x%llx") must come back
  // bit-exact through envU64, including the high bit. Use a scratch variable
  // so a real JEPO_FUZZ_ONLY in the environment can't interfere.
  constexpr const char* kVar = "JEPO_FUZZ_ONLY_ROUNDTRIP_TEST";
  const std::uint64_t seeds[] = {0, 1, kDefaultBaseSeed,
                                 deriveSeed(kDefaultBaseSeed, 7),
                                 0xFFFFFFFFFFFFFFFFULL};
  for (const std::uint64_t seed : seeds) {
    char banner[32];
    std::snprintf(banner, sizeof banner, "0x%llx",
                  static_cast<unsigned long long>(seed));
    ASSERT_EQ(::setenv(kVar, banner, 1), 0);
    bool set = false;
    EXPECT_EQ(envU64(kVar, 42, &set), seed) << banner;
    EXPECT_TRUE(set) << banner;

    // The decimal spelling a user might type by hand round-trips too.
    std::snprintf(banner, sizeof banner, "%llu",
                  static_cast<unsigned long long>(seed));
    ASSERT_EQ(::setenv(kVar, banner, 1), 0);
    set = false;
    EXPECT_EQ(envU64(kVar, 42, &set), seed) << banner;
    EXPECT_TRUE(set) << banner;
  }
  ASSERT_EQ(::unsetenv(kVar), 0);

  // Unset / empty use the fallback without claiming the knob was set.
  bool set = true;
  EXPECT_EQ(envU64(kVar, 42, &set), 42u);
  EXPECT_FALSE(set);
  ASSERT_EQ(::setenv(kVar, "", 1), 0);
  set = true;
  EXPECT_EQ(envU64(kVar, 42, &set), 42u);
  EXPECT_FALSE(set);
  ASSERT_EQ(::unsetenv(kVar), 0);

  // Mangled spellings are rejected outright rather than quietly wrapped,
  // saturated, or truncated into fuzzing some other seed.
  std::uint64_t out = 0;
  EXPECT_FALSE(parseU64(nullptr, &out));
  EXPECT_FALSE(parseU64("", &out));
  EXPECT_FALSE(parseU64("0x", &out));
  EXPECT_FALSE(parseU64("0xfz", &out));
  EXPECT_FALSE(parseU64("123junk", &out));
  EXPECT_FALSE(parseU64("-1", &out));                    // strtoull would wrap
  EXPECT_FALSE(parseU64("+1", &out));
  EXPECT_FALSE(parseU64(" 1", &out));
  EXPECT_FALSE(parseU64("18446744073709551616", &out));  // 2^64 saturates
  EXPECT_FALSE(parseU64("0x10000000000000000", &out));
}

TEST(FuzzDiff, GeneratorIsDeterministic) {
  const testgen::GeneratedProgram a = testgen::generateProgram(1234);
  const testgen::GeneratedProgram b = testgen::generateProgram(1234);
  const testgen::GeneratedProgram c = testgen::generateProgram(1235);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.name, b.name);
  EXPECT_NE(a.source, c.source);
}

TEST(FuzzDiff, EnginesAgreeOnGeneratedPrograms) {
  bool onlySet = false;
  const std::uint64_t only = envU64("JEPO_FUZZ_ONLY", 0, &onlySet);
  if (onlySet) {
    const testgen::GeneratedProgram p = testgen::generateProgram(only);
    std::fputs(replayBanner(only, p).c_str(), stderr);
    EXPECT_TRUE(checkSeed(only));
    return;
  }

  const std::uint64_t base =
      envU64("JEPO_FUZZ_SEED", kDefaultBaseSeed, nullptr);
  const int runs = static_cast<int>(envU64(
      "JEPO_FUZZ_RUNS", static_cast<std::uint64_t>(kDefaultRuns), nullptr));
  int failures = 0;
  int cleanRuns = 0;
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t seed = deriveSeed(base, static_cast<std::uint64_t>(i));
    bool clean = false;
    if (!checkSeed(seed, &clean)) ++failures;
    if (clean) ++cleanRuns;
    ASSERT_LT(failures, 3) << "stopping after repeated divergence — replay "
                              "individual seeds with JEPO_FUZZ_ONLY";
  }
  // Most programs must run to completion, or the GC and step-budget
  // reruns silently stop covering the generated language.
  EXPECT_GE(cleanRuns, runs * 3 / 4)
      << "only " << cleanRuns << " of " << runs << " programs completed";
}

}  // namespace
