// Tiered instrumentation (jvm/tier.hpp): spec grammar, gate arithmetic,
// sampled-run determinism (rerun, thread count, engine), full-tier
// bit-identity with the untiered path, hot-tier cold-tail attribution,
// and abort reconciliation (an open unsampled frame unwinds to a counter
// decrement, never a bogus truncated record).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "energy/machine.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jepo/profiler.hpp"
#include "jlang/parser.hpp"
#include "jvm/instrumenter.hpp"
#include "jvm/interpreter.hpp"
#include "jvm/tier.hpp"
#include "support/error.hpp"

namespace jepo {
namespace {

// A hot method (200 calls), a trivial getter (200 calls — bcvm fuses it,
// so the tier gate's peek/enter split is exercised on the inline path), a
// rare method (1 call), and main.
constexpr const char* kSource = R"(
package tier.demo;

class Worker {
  int acc;

  int id() {
    return 7;
  }

  int mix(int x) {
    int v = 0;
    for (int i = 0; i < 400; i++) {
      v = v + (x * 31 + i) % 64;
    }
    return v;
  }

  int rare(int x) {
    int v = 0;
    for (int i = 0; i < 50; i++) {
      v = v + (x + i) % 7;
    }
    return v;
  }
}

class Main {
  static void main(String[] args) {
    Worker w = new Worker();
    int total = 0;
    for (int i = 0; i < 200; i++) {
      total = (total + w.mix(i) + w.id()) % 100000;
    }
    total = (total + w.rare(3)) % 100000;
    System.out.println("total=" + total);
  }
}
)";

jlang::Program parse() {
  return jlang::Parser::parseProgram("TierDemo.mjava", kSource);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-exact record-stream equality — the replay/thread-count contract.
void expectIdenticalRecords(const std::vector<jvm::MethodRecord>& a,
                            const std::vector<jvm::MethodRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].method, b[i].method) << "record " << i;
    EXPECT_EQ(bits(a[i].seconds), bits(b[i].seconds)) << "record " << i;
    EXPECT_EQ(bits(a[i].packageJoules), bits(b[i].packageJoules))
        << "record " << i;
    EXPECT_EQ(bits(a[i].coreJoules), bits(b[i].coreJoules)) << "record " << i;
    EXPECT_EQ(bits(a[i].dramJoules), bits(b[i].dramJoules)) << "record " << i;
    EXPECT_EQ(a[i].truncated, b[i].truncated) << "record " << i;
    EXPECT_EQ(a[i].tier, b[i].tier) << "record " << i;
    EXPECT_EQ(bits(a[i].samplingRate), bits(b[i].samplingRate))
        << "record " << i;
  }
}

struct ProfileResult {
  std::vector<jvm::MethodRecord> records;
  std::vector<core::MethodTotals> totals;
  std::string output;
};

ProfileResult runProfile(const jvm::TierSpec& spec, std::uint64_t seed) {
  core::Profiler profiler;
  profiler.setSeed(seed);
  profiler.setTier(spec);
  profiler.profile(parse(), {}, 50'000'000);
  return {profiler.records(), profiler.totals(), profiler.programOutput()};
}

// ------------------------------------------------------------ spec grammar

TEST(TierSpec, ParseDescribeRoundTrip) {
  for (const char* text : {"full", "sampled:1", "sampled:64", "hot:0",
                           "hot:500"}) {
    const jvm::TierSpec spec = jvm::parseTierSpec(text);
    EXPECT_EQ(spec.describe(), text);
    EXPECT_EQ(jvm::parseTierSpec(spec.describe()), spec);
  }
  EXPECT_EQ(jvm::parseTierSpec("full").tier, jvm::InstrTier::kFull);
  EXPECT_EQ(jvm::parseTierSpec("sampled:16").sampleEvery, 16u);
  EXPECT_EQ(jvm::parseTierSpec("hot:3").hotThreshold, 3u);
}

TEST(TierSpec, RejectsMalformedSpecs) {
  for (const char* text : {"", "bogus", "sampled", "sampled:", "sampled:0",
                           "sampled:-4", "sampled:abc", "hot", "hot:",
                           "hot:9999999999999999999999", "full:2",
                           "SAMPLED:4", "sampled:4 "}) {
    EXPECT_THROW(jvm::parseTierSpec(text), Error) << text;
  }
  try {
    jvm::parseTierSpec("nope");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad tier spec 'nope'"),
              std::string::npos);
  }
}

// --------------------------------------------------------- gate arithmetic

TEST(TierGate, SampledCountsAndAnchorsFirstInvocation) {
  const std::string name = "X.m";
  const jvm::MethodRef m{3, &name};
  jvm::TierGate gate(jvm::parseTierSpec("sampled:4"), /*seed=*/9);

  EXPECT_TRUE(gate.enter(m)) << "first invocation is always instrumented";

  std::uint64_t instrumented = 1;
  for (int i = 1; i < 16; ++i) {
    const bool admit = gate.enter(m);
    if (admit) {
      ++instrumented;
    } else {
      gate.exitUnsampled(m);
    }
  }
  const auto stats = gate.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].invocations, 16u);
  EXPECT_EQ(stats[0].instrumented, instrumented);
  // 1/4 residue sampling plus the ordinal-0 anchor.
  EXPECT_GE(instrumented, 4u);
  EXPECT_LE(instrumented, 5u);
  EXPECT_DOUBLE_EQ(gate.effectiveRate(m),
                   static_cast<double>(instrumented) / 16.0);
}

TEST(TierGate, ReconcileAbortedDropsOpenUnsampledEntries) {
  const std::string name = "X.m";
  const jvm::MethodRef m{0, &name};
  jvm::TierGate gate(jvm::parseTierSpec("sampled:100"), /*seed=*/1);

  ASSERT_TRUE(gate.enter(m));  // ordinal 0: instrumented, stays open
  for (int i = 0; i < 5; ++i) ASSERT_FALSE(gate.enter(m));
  gate.exitUnsampled(m);
  gate.exitUnsampled(m);  // 2 of the 5 unsampled invocations completed

  // Abort: 3 unsampled invocations are still open. They never completed
  // and have no record, so they leave the population entirely.
  gate.reconcileAborted();
  auto stats = gate.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].invocations, 3u);  // 1 instrumented + 2 completed
  EXPECT_EQ(stats[0].instrumented, 1u);
  EXPECT_DOUBLE_EQ(gate.effectiveRate(m), 1.0 / 3.0);

  // Idempotent: a second reconcile changes nothing.
  gate.reconcileAborted();
  stats = gate.stats();
  EXPECT_EQ(stats[0].invocations, 3u);
  EXPECT_EQ(stats[0].instrumented, 1u);
}

TEST(TierGate, HotPromotesAtThreshold) {
  const std::string name = "X.m";
  const jvm::MethodRef m{1, &name};
  jvm::TierGate gate(jvm::parseTierSpec("hot:3"), /*seed=*/0);
  EXPECT_FALSE(gate.enter(m));
  gate.exitUnsampled(m);
  EXPECT_FALSE(gate.enter(m));
  gate.exitUnsampled(m);
  EXPECT_FALSE(gate.enter(m));
  gate.exitUnsampled(m);
  EXPECT_TRUE(gate.enter(m)) << "promoted after hotThreshold entries";
  EXPECT_TRUE(gate.enter(m));
}

// ------------------------------------------------------------- determinism

TEST(TierProfile, FullTierIsBitIdenticalToUntiered) {
  core::Profiler untiered;
  untiered.profile(parse(), {}, 50'000'000);

  const ProfileResult full = runProfile(jvm::parseTierSpec("full"), 2020);
  expectIdenticalRecords(untiered.records(), full.records);
  EXPECT_EQ(untiered.programOutput(), full.output);
  for (const auto& r : full.records) {
    EXPECT_EQ(r.tier, jvm::InstrTier::kFull);
    EXPECT_EQ(r.samplingRate, 1.0);
  }
}

TEST(TierProfile, SampledRerunIsBitIdentical) {
  const jvm::TierSpec spec = jvm::parseTierSpec("sampled:4");
  const ProfileResult a = runProfile(spec, 7);
  const ProfileResult b = runProfile(spec, 7);
  expectIdenticalRecords(a.records, b.records);
  EXPECT_EQ(a.output, b.output);
  EXPECT_LT(a.records.size(), 602u) << "sampling must drop records";
  for (const auto& r : a.records) {
    EXPECT_EQ(r.tier, jvm::InstrTier::kSampled);
    EXPECT_GT(r.samplingRate, 0.0);
    EXPECT_LE(r.samplingRate, 1.0);
  }
}

TEST(TierProfile, SampledSeedSelectsDifferentInvocations) {
  const jvm::TierSpec spec = jvm::parseTierSpec("sampled:8");
  const ProfileResult a = runProfile(spec, 1);
  const ProfileResult b = runProfile(spec, 2);
  // Same program, same rate — but which ordinals are measured is a
  // function of the seed (phases differ for at least one method in
  // practice; energy bits of the record streams then differ).
  bool anyDifference = a.records.size() != b.records.size();
  for (std::size_t i = 0; !anyDifference && i < a.records.size(); ++i) {
    anyDifference = bits(a.records[i].packageJoules) !=
                    bits(b.records[i].packageJoules);
  }
  EXPECT_TRUE(anyDifference);
}

TEST(TierProfile, SampledIsDeterministicAcrossThreadCounts) {
  const jvm::TierSpec spec = jvm::parseTierSpec("sampled:4");
  const ProfileResult serial = runProfile(spec, 2020);

  for (const std::size_t threadCount : {4u, 8u}) {
    std::vector<ProfileResult> results(threadCount);
    std::vector<std::thread> threads;
    threads.reserve(threadCount);
    for (std::size_t t = 0; t < threadCount; ++t) {
      threads.emplace_back(
          [&results, t, &spec] { results[t] = runProfile(spec, 2020); });
    }
    for (auto& th : threads) th.join();
    for (const auto& r : results) {
      expectIdenticalRecords(serial.records, r.records);
      EXPECT_EQ(serial.output, r.output);
    }
  }
}

// ------------------------------------------------- extrapolated attribution

TEST(TierProfile, SampledTotalsExtrapolateToTruePopulation) {
  const ProfileResult full = runProfile(jvm::parseTierSpec("full"), 2020);
  const ProfileResult sampled =
      runProfile(jvm::parseTierSpec("sampled:4"), 2020);

  for (const auto& t : sampled.totals) {
    EXPECT_GT(t.executions, 0u);
    EXPECT_GE(t.executions, t.instrumentedExecutions);
    EXPECT_GT(t.samplingRate, 0.0);
    EXPECT_LE(t.samplingRate, 1.0);
    // The true invocation counts come from the gate, not the records.
    for (const auto& ft : full.totals) {
      if (ft.method == t.method) {
        EXPECT_EQ(ft.executions, t.executions) << t.method;
      }
    }
    if (t.method == "Worker.mix") {
      // 200 invocations, ~50 instrumented: the extrapolated energy must
      // land near the full-tier truth (constant per-call work).
      for (const auto& ft : full.totals) {
        if (ft.method != t.method) continue;
        EXPECT_NEAR(t.packageJoules, ft.packageJoules,
                    ft.packageJoules * 0.05)
            << "count-weighted extrapolation off by > 5%";
      }
    }
  }
}

TEST(TierProfile, HotTierDemotesColdTailToCounts) {
  const ProfileResult hot = runProfile(jvm::parseTierSpec("hot:50"), 2020);
  // Records only from promoted methods (mix/id past 50 entries).
  for (const auto& r : hot.records) {
    EXPECT_TRUE(r.method == "Worker.mix" || r.method == "Worker.id")
        << r.method;
    EXPECT_EQ(r.tier, jvm::InstrTier::kHot);
  }
  bool sawRare = false;
  bool sawMain = false;
  for (const auto& t : hot.totals) {
    if (t.method == "Worker.rare") {
      sawRare = true;
      EXPECT_EQ(t.executions, 1u);
      EXPECT_EQ(t.instrumentedExecutions, 0u);
      EXPECT_EQ(t.packageJoules, 0.0) << "cold tail is counts-only";
    }
    if (t.method == "Main.main") {
      sawMain = true;
      EXPECT_EQ(t.instrumentedExecutions, 0u);
    }
    if (t.method == "Worker.mix") {
      EXPECT_EQ(t.executions, 200u);
      EXPECT_EQ(t.instrumentedExecutions, 150u) << "promoted at entry 50";
    }
  }
  EXPECT_TRUE(sawRare);
  EXPECT_TRUE(sawMain);
}

// ------------------------------------------------------ abort reconciliation

// Satellite regression: a VM abort while *unsampled* invocations are open
// must not fabricate truncated records for them — they unwind to counter
// decrements, and every record still corresponds to one instrumented
// invocation.
TEST(TierProfile, AbortedRunReconcilesUnsampledFrames) {
  const jlang::Program program = parse();
  energy::SimMachine machine;
  jvm::Interpreter interp(program, machine);
  jvm::Instrumenter inst(machine);
  inst.setTier(jvm::parseTierSpec("sampled:8"), /*seed=*/2020);
  interp.setHooks(&inst);
  interp.setMaxSteps(2'000);  // aborts mid-loop, frames still open
  EXPECT_THROW(interp.runMain(), Error);
  inst.unwindAbortedFrames();
  inst.finalizeSampling();

  std::uint64_t instrumented = 0;
  for (const auto& s : inst.tierStats()) {
    EXPECT_GE(s.invocations, s.instrumented);
    instrumented += s.instrumented;
  }
  // The defining invariant: records (truncated included) == instrumented
  // population. A bogus record for an unsampled open frame breaks this.
  EXPECT_EQ(inst.records().size(), instrumented);
  for (const auto& r : inst.records()) {
    EXPECT_GT(r.samplingRate, 0.0);
    EXPECT_LE(r.samplingRate, 1.0);
  }

  // And the profiler-level path (abort rethrown, state retained) agrees.
  core::Profiler profiler;
  profiler.setSeed(2020);
  profiler.setTier(jvm::parseTierSpec("sampled:8"));
  EXPECT_THROW(profiler.profile(program, {}, 2'000), Error);
  std::uint64_t profInstrumented = 0;
  for (const auto& s : profiler.tierStats()) {
    profInstrumented += s.instrumented;
  }
  EXPECT_EQ(profiler.records().size(), profInstrumented);
}

// ----------------------------------------------------------- bytecode VM

struct BcvmRun {
  std::vector<jvm::MethodRecord> records;
  std::vector<jvm::TierGate::MethodStat> stats;
  std::string output;
};

BcvmRun runBcvm(const jvm::TierSpec& spec, std::uint64_t seed) {
  const jlang::Program program = parse();
  const jbc::CompiledProgram compiled = jbc::compile(program);
  energy::SimMachine machine;
  jbc::BytecodeVm vm(compiled, machine);
  jvm::Instrumenter inst(machine);
  inst.setTier(spec, seed);
  vm.setHooks(&inst);
  vm.setMaxSteps(50'000'000);
  vm.runMain();
  inst.finalizeSampling();
  return {inst.records(), inst.tierStats(), vm.output()};
}

TEST(TierBcvm, SampledRerunIsBitIdentical) {
  const jvm::TierSpec spec = jvm::parseTierSpec("sampled:4");
  const BcvmRun a = runBcvm(spec, 2020);
  const BcvmRun b = runBcvm(spec, 2020);
  expectIdenticalRecords(a.records, b.records);
  EXPECT_EQ(a.output, b.output);
}

// The fused trivial-call path (Worker.id never builds a frame when its
// entry goes unsampled) must still count every invocation — population
// counts agree with the tree engine for every source-level method.
TEST(TierBcvm, PopulationCountsMatchTreeEngine) {
  const jvm::TierSpec spec = jvm::parseTierSpec("sampled:4");

  const jlang::Program program = parse();
  energy::SimMachine machine;
  jvm::Interpreter interp(program, machine);
  jvm::Instrumenter inst(machine);
  inst.setTier(spec, 2020);
  interp.setHooks(&inst);
  interp.runMain();
  inst.finalizeSampling();

  const BcvmRun bcvm = runBcvm(spec, 2020);

  auto countOf = [](const std::vector<jvm::TierGate::MethodStat>& stats,
                    const std::string& method) -> std::uint64_t {
    for (const auto& s : stats) {
      if (s.method == method) return s.invocations;
    }
    return 0;
  };
  for (const char* method :
       {"Worker.id", "Worker.mix", "Worker.rare", "Main.main"}) {
    EXPECT_EQ(countOf(inst.tierStats(), method), countOf(bcvm.stats, method))
        << method;
  }
  EXPECT_EQ(countOf(bcvm.stats, "Worker.id"), 200u);
}

}  // namespace
}  // namespace jepo
