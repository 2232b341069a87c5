// Exception tables, step accounting and GC rooting vs. the peephole fuser.
//
// The fuser (compiler.cpp) rewrites instruction runs into superinstructions
// and remaps every pc-valued operand *and* every ExceptionEntry{start, end,
// handler}, and superinstructions take their constituents' steps at step
// points inside their handlers. Getting a pc or a step point wrong is
// invisible on the happy path — it only shows when a throw lands inside a
// rewritten region or a step budget runs out inside one. These tests pin
// exactly that:
//
//   - every handler range stays within bounds after fusion, and fusion
//     demonstrably fired inside try-covered code;
//   - a throw from *inside a superinstruction* (the division in
//     kLoadLoadBinaryStore) is caught by the right handler with the same
//     locals the unfused and tree engines see;
//   - fused, unfused and tree runs of the same program are observably
//     bit-identical (stdout, simulated joules and seconds), and so is the
//     smallest step budget that lets a program finish.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "energy/machine.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jlang/parser.hpp"
#include "jvm/interpreter.hpp"
#include "support/error.hpp"

namespace jepo::jbc {
namespace {

using jlang::Parser;
using jlang::Program;

struct Observables {
  std::string out;
  std::uint64_t pkgBits = 0;
  std::uint64_t secondsBits = 0;
};

std::uint64_t doubleBits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

Observables runVm(const CompiledProgram& compiled) {
  energy::SimMachine machine;
  BytecodeVm vm(compiled, machine);
  vm.setMaxSteps(100'000'000);
  vm.runMain();
  return {vm.output(), doubleBits(machine.sample().packageJoules),
          doubleBits(machine.sample().seconds)};
}

Observables runTree(const Program& prog) {
  energy::SimMachine machine;
  jvm::Interpreter interp(prog, machine);
  interp.setMaxSteps(100'000'000);
  interp.runMain();
  return {interp.output(), doubleBits(machine.sample().packageJoules),
          doubleBits(machine.sample().seconds)};
}

CompiledProgram compileWith(const Program& prog, bool fuse) {
  CompileOptions opts;
  opts.fuseSuperinstructions = fuse;
  return compile(prog, opts);
}

const Chunk& mainChunk(const CompiledProgram& p) {
  for (const auto& [name, cls] : p.classes) {
    const auto it = cls.methods.find("main");
    if (cls.hasMain && it != cls.methods.end()) return it->second;
  }
  ADD_FAILURE() << "no main chunk";
  static const Chunk empty;
  return empty;
}

bool containsOp(const Chunk& c, Op op) {
  for (const Instr& in : c.code) {
    if (in.op == op) return true;
  }
  return false;
}

// A throw that must surface from *inside* a superinstruction: `x = x / k;`
// fuses into kLoadLoadBinaryStore, whose division throws when k = d - i
// hits 0, before the store and the `i++` statement after it run. The
// catch prints i and x, so a fuser that ran later statements early (or a
// mis-remapped handler range) changes output.
const char* const kThrowInFusedPair = R"(
class Main {
  static void main(String[] args) {
    int i = 0;
    short x = 1000;
    int d = 3;
    int k = 0;
    try {
      while (i < 8) {
        k = d - i;
        x = x / k;
        i++;
      }
      System.out.println("unreachable");
    } catch (ArithmeticException e) {
      System.out.println("caught i=" + i + " x=" + x);
    }
    System.out.println("after " + i + ":" + x + ":" + d);
  }
}
)";

// A counted loop (its header fused into kCmpLoopHead) inside a try block,
// with a throw *after* it: the fused header's exit jump must not disturb
// the surrounding handler range.
const char* const kLoopInsideTry = R"(
class Main {
  static void main(String[] args) {
    int acc = 0;
    try {
      for (int i = 0; i < 1000; i++) acc += i & 7;
      acc = acc / (acc - 3500);
    } catch (ArithmeticException e) {
      System.out.println("acc=" + acc);
    }
  }
}
)";

// A method with its own try/catch, called repeatedly: the throw only
// happens on a later execution of the same fused body.
const char* const kThrowOnLaterCall = R"(
class H {
  static int f(int i) {
    try {
      return 100 / (3 - i);
    } catch (ArithmeticException e) {
      return 0 - 1;
    }
  }
}
class Main {
  static void main(String[] args) {
    for (int i = 0; i < 6; i++) System.out.println(H.f(i));
  }
}
)";

// Nested try/finally around a fusable loop: finally inlining multiplies the
// copies the fuser must remap consistently.
const char* const kFinallyAroundLoop = R"(
class Main {
  static void main(String[] args) {
    int sum = 0;
    int i = 0;
    try {
      while (i < 50) {
        sum += i;
        i++;
      }
      int boom = 1 / (i - 50);
      System.out.println("unreachable " + boom);
    } catch (ArithmeticException e) {
      System.out.println("caught sum=" + sum);
    } finally {
      System.out.println("finally sum=" + sum);
    }
  }
}
)";

class FusionAgreementTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FusionAgreementTest, FusedUnfusedAndTreeAgreeBitExact) {
  const Program prog = Parser::parseProgram("fusion.mjava", GetParam());
  const Observables fused = runVm(compileWith(prog, true));
  const Observables unfused = runVm(compileWith(prog, false));
  const Observables tree = runTree(prog);

  EXPECT_EQ(fused.out, unfused.out);
  EXPECT_EQ(fused.pkgBits, unfused.pkgBits) << "fusion shifted joules";
  EXPECT_EQ(fused.secondsBits, unfused.secondsBits)
      << "fusion shifted simulated time";
  // One charging semantics: the bytecode reproduces the tree's charges,
  // throw and catch paths included.
  EXPECT_EQ(tree.out, fused.out);
  EXPECT_EQ(tree.pkgBits, fused.pkgBits) << "engines disagree on joules";
  EXPECT_EQ(tree.secondsBits, fused.secondsBits);
}

INSTANTIATE_TEST_SUITE_P(ExceptionShapes, FusionAgreementTest,
                         ::testing::Values(kThrowInFusedPair, kLoopInsideTry,
                                           kThrowOnLaterCall,
                                           kFinallyAroundLoop));

TEST(FusionExceptionTable, ThrowInsideFusedPairIsCaughtWithExactLocals) {
  const Program prog = Parser::parseProgram("fusion.mjava", kThrowInFusedPair);
  const CompiledProgram fused = compileWith(prog, true);

  // The division really is inside a superinstruction — otherwise this test
  // would silently stop covering a throw from inside one.
  ASSERT_TRUE(containsOp(mainChunk(fused), Op::kLoadLoadBinaryStore))
      << disassemble(mainChunk(fused), fused);

  // d - i: 3, 2, 1 divide fine (i reaches 3), then k hits 0 and the fused
  // division throws before `i++` runs: i stays 3, x stays its i=2 value
  // 1000/3/2/1 = 166.
  const Observables got = runVm(fused);
  EXPECT_EQ(got.out, "caught i=3 x=166\nafter 3:166:3\n");
}

TEST(FusionExceptionTable, CountedLoopInsideTryKeepsHandlerRange) {
  const Program prog = Parser::parseProgram("fusion.mjava", kLoopInsideTry);
  const CompiledProgram fused = compileWith(prog, true);
  ASSERT_TRUE(containsOp(mainChunk(fused), Op::kCmpLoopHead))
      << disassemble(mainChunk(fused), fused);
  // sum of (i & 7) over 125 full 0..7 cycles = 125 * 28 = 3500, so the
  // divisor is 0 and the handler range around the fused loop must fire.
  EXPECT_EQ(runVm(fused).out, "acc=3500\n");
}

TEST(FusionExceptionTable, ThrowOnLaterCallFindsHandler) {
  const Program prog =
      Parser::parseProgram("fusion.mjava", kThrowOnLaterCall);
  // 100/3, 100/2, 100/1, then 3-i hits 0 on the fourth call,
  // then negative divisors on the remaining calls.
  EXPECT_EQ(runVm(compileWith(prog, true)).out,
            "33\n50\n100\n-1\n-100\n-50\n");
}

// Structural bound check over every chunk of every program above: after
// fusion each handler's [start, end) and handler pc index real
// instructions, end > start, and fusion actually shrank the fused chunks
// it fired in (so the remap was exercised, not vacuous).
TEST(FusionExceptionTable, HandlerRangesStayInBoundsAcrossFusion) {
  const char* const sources[] = {kThrowInFusedPair, kLoopInsideTry,
                                 kThrowOnLaterCall, kFinallyAroundLoop};
  for (const char* src : sources) {
    const Program prog = Parser::parseProgram("fusion.mjava", src);
    const CompiledProgram fused = compileWith(prog, true);
    const CompiledProgram unfused = compileWith(prog, false);
    bool sawHandlers = false;
    bool sawShrink = false;
    for (const auto& [name, cls] : fused.classes) {
      for (const auto& [mname, chunk] : cls.methods) {
        const std::int32_t n = static_cast<std::int32_t>(chunk.code.size());
        for (const ExceptionEntry& h : chunk.handlers) {
          sawHandlers = true;
          EXPECT_GE(h.start, 0) << chunk.qualifiedName;
          EXPECT_LT(h.start, h.end) << chunk.qualifiedName;
          EXPECT_LE(h.end, n) << chunk.qualifiedName;
          EXPECT_GE(h.handler, 0) << chunk.qualifiedName;
          EXPECT_LT(h.handler, n) << chunk.qualifiedName;
        }
        const Chunk& before = unfused.findClass(name)->methods.at(mname);
        EXPECT_LE(chunk.code.size(), before.code.size())
            << chunk.qualifiedName;
        if (chunk.code.size() < before.code.size()) sawShrink = true;
      }
    }
    EXPECT_TRUE(sawHandlers) << src;
    EXPECT_TRUE(sawShrink) << src;
  }
}

// Loop-heavy program whose loop headers fuse into kCmpLoopHead, exercised
// across many loop *exits* and with step budgets that run out inside
// superinstructions.
const char* const kManyLoopExits = R"(
class Main {
  static void main(String[] args) {
    int total = 0;
    for (int j = 0; j < 20; j++) {
      int acc = 0;
      for (int i = 0; i < 5; i++) acc += i & 7;
      int k = 0;
      while (k < j) { total += k; k++; }
      total += acc;
    }
    System.out.println(total);
  }
}
)";

bool completesWithin(const CompiledProgram& p, std::uint64_t maxSteps) {
  energy::SimMachine machine;
  BytecodeVm vm(p, machine);
  vm.setMaxSteps(maxSteps);
  try {
    vm.runMain();
  } catch (const VmError&) {
    return false;
  }
  return true;
}

bool treeCompletesWithin(const Program& prog, std::uint64_t maxSteps) {
  energy::SimMachine machine;
  jvm::Interpreter interp(prog, machine);
  interp.setMaxSteps(maxSteps);
  try {
    interp.runMain();
  } catch (const VmError&) {
    return false;
  }
  return true;
}

template <typename Fn>
std::uint64_t minimalMaxSteps(Fn completes) {
  std::uint64_t lo = 1;
  std::uint64_t hi = std::uint64_t{1} << 22;
  EXPECT_TRUE(completes(hi)) << "search upper bound too small";
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (completes(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Superinstructions take their constituents' steps at the tree's step
// points, so the smallest budget that lets the program finish must be the
// tree's, fused or not — and a budget that runs out must leave the meter
// exactly where the tree's does.
TEST(FusionStepAccounting, MinimalStepBudgetMatchesUnfusedAcrossLoopExits) {
  const Program prog = Parser::parseProgram("fusion.mjava", kManyLoopExits);
  const CompiledProgram fused = compileWith(prog, true);
  const CompiledProgram unfused = compileWith(prog, false);
  const Chunk& main = mainChunk(fused);
  ASSERT_TRUE(containsOp(main, Op::kCmpLoopHead)) << disassemble(main, fused);
  ASSERT_TRUE(containsOp(main, Op::kIncLocalJump))
      << disassemble(main, fused);
  const std::uint64_t treeMin = minimalMaxSteps(
      [&](std::uint64_t n) { return treeCompletesWithin(prog, n); });
  EXPECT_EQ(minimalMaxSteps(
                [&](std::uint64_t n) { return completesWithin(fused, n); }),
            treeMin);
  EXPECT_EQ(minimalMaxSteps(
                [&](std::uint64_t n) { return completesWithin(unfused, n); }),
            treeMin);
  for (const std::uint64_t budget : {treeMin / 3, treeMin / 2, treeMin - 1}) {
    energy::SimMachine tm;
    jvm::Interpreter interp(prog, tm);
    interp.setMaxSteps(budget);
    EXPECT_THROW(interp.runMain(), VmError);
    energy::SimMachine vmMachine;
    BytecodeVm vm(fused, vmMachine);
    vm.setMaxSteps(budget);
    EXPECT_THROW(vm.runMain(), VmError);
    EXPECT_EQ(doubleBits(vmMachine.sample().packageJoules),
              doubleBits(tm.sample().packageJoules))
        << "abort at budget " << budget;
  }
}

// Constant churn feeding call sites whose argument loads fuse: the
// argument span sits on the caller stack, rooted under the frame.top
// recorded at the call's dispatch, while the callee runs safepoints. A
// compaction there must remap the span (including the receiver ref) in
// place; a stale receiver ref here reads a moved/wrong heap object.
const char* const kFusedCallChurn = R"(
class Box {
  int v;
  Box(int x) { v = x; }
  int tag(int unused) { return v; }
}
class Main {
  static int mix(int a, int b) { return a + b; }
  static void main(String[] args) {
    Box keep = new Box(41);
    int total = 0;
    int i = 0;
    while (i < 300) {
      Box junk = new Box(i);
      int a = junk.tag(i);
      int b = keep.tag(i);
      int c = mix(a, b);
      total = total + c + i;
      i++;
    }
    System.out.println(total + ":" + keep.tag(0));
  }
}
)";

TEST(FusionGcRooting, FusedCallArgSpansSurviveCompaction) {
  const Program prog = Parser::parseProgram("fusion.mjava", kFusedCallChurn);
  const CompiledProgram fused = compileWith(prog, true);
  const Chunk& main = mainChunk(fused);
  ASSERT_TRUE(containsOp(main, Op::kLoadLoad)) << disassemble(main, fused);
  ASSERT_TRUE(containsOp(main, Op::kInvokeVirtual))
      << disassemble(main, fused);

  const Observables unlimited = runVm(fused);

  energy::SimMachine machine;
  BytecodeVm vm(fused, machine);
  vm.setMaxSteps(100'000'000);
  vm.setHeapLimit(24);
  vm.runMain();

  EXPECT_GE(vm.gc().collections(), 3u);
  // Per iteration: a = i, b = 41, c = i + 41, total += c + i, so
  // total = 2 * (299 * 300 / 2) + 300 * 41.
  EXPECT_EQ(vm.output(), "102000:41\n");
  EXPECT_EQ(vm.output(), unlimited.out);
  EXPECT_EQ(doubleBits(machine.sample().packageJoules), unlimited.pkgBits);
  EXPECT_EQ(doubleBits(machine.sample().seconds), unlimited.secondsBits);
}

}  // namespace
}  // namespace jepo::jbc
