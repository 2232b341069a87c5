// google-benchmark micro suite for the MiniJava toolchain: lexing, parsing,
// printing, interpretation throughput, suggestion analysis and the
// optimizer — the costs a JEPO user pays per keystroke / per run.
#include <benchmark/benchmark.h>

#include "bench_micro.hpp"
#include "demo_project.hpp"
#include "energy/machine.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jepo/engine.hpp"
#include "jepo/optimizer.hpp"
#include "jlang/lexer.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jvm/gc.hpp"
#include "jvm/interpreter.hpp"

namespace {

using namespace jepo;

std::string arithmeticLoopSource(long n) {
  return "class Main { static void main(String[] args) {\n"
         "int acc = 0;\n"
         "for (int i = 0; i < " + std::to_string(n) + "; i++) acc += i & 7;\n"
         "System.out.println(acc);\n} }";
}

const char* const kMethodCallsSource = R"(
    class Main {
      static int add(int a, int b) { return a + b; }
      static void main(String[] args) {
        int acc = 0;
        for (int i = 0; i < 2000; i++) acc = add(acc, i);
        System.out.println(acc);
      }
    }
  )";

// Instance fields + virtual calls + construction: the shapes the resolved
// engines accelerate with flat layouts and monomorphic inline caches.
const char* const kObjectsAndCallsSource = R"(
    class Counter {
      int value;
      int step;
      Counter(int step) { this.step = step; }
      int bump() { value = value + step; return value; }
    }
    class Main {
      static void main(String[] args) {
        Counter c = new Counter(3);
        int acc = 0;
        for (int i = 0; i < 1000; i++) acc = acc + c.bump();
        System.out.println(acc);
      }
    }
  )";

void BM_Lex(benchmark::State& state) {
  const std::string src = bench::kDemoProjectSource;
  for (auto _ : state) {
    jlang::Lexer lexer(src);
    benchmark::DoNotOptimize(lexer.tokenize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  const std::string src = bench::kDemoProjectSource;
  for (auto _ : state) {
    jlang::Parser parser("demo.mjava", src);
    benchmark::DoNotOptimize(parser.parseUnit());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_Parse);

void BM_Print(benchmark::State& state) {
  const auto unit =
      jlang::Parser("demo.mjava", bench::kDemoProjectSource).parseUnit();
  for (auto _ : state) {
    benchmark::DoNotOptimize(jlang::printUnit(unit));
  }
}
BENCHMARK(BM_Print);

void BM_InterpretArithmeticLoop(benchmark::State& state) {
  const long n = state.range(0);
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", arithmeticLoopSource(n));
  for (auto _ : state) {
    energy::SimMachine machine;
    jvm::Interpreter interp(prog, machine);
    interp.runMain();
    benchmark::DoNotOptimize(machine.sample().packageJoules);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_InterpretArithmeticLoop)->Arg(1000)->Arg(10000);

void BM_BcvmArithmeticLoop(benchmark::State& state) {
  const long n = state.range(0);
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", arithmeticLoopSource(n));
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  for (auto _ : state) {
    energy::SimMachine machine;
    jbc::BytecodeVm vm(compiled, machine);
    vm.runMain();
    benchmark::DoNotOptimize(machine.sample().packageJoules);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_BcvmArithmeticLoop)->Arg(1000)->Arg(10000);

void BM_InterpretMethodCalls(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kMethodCallsSource);
  for (auto _ : state) {
    energy::SimMachine machine;
    jvm::Interpreter interp(prog, machine);
    interp.runMain();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_InterpretMethodCalls);

void BM_BcvmMethodCalls(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kMethodCallsSource);
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  for (auto _ : state) {
    energy::SimMachine machine;
    jbc::BytecodeVm vm(compiled, machine);
    vm.runMain();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_BcvmMethodCalls);

void BM_InterpretObjectsAndCalls(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kObjectsAndCallsSource);
  for (auto _ : state) {
    energy::SimMachine machine;
    jvm::Interpreter interp(prog, machine);
    interp.runMain();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_InterpretObjectsAndCalls);

void BM_BcvmObjectsAndCalls(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kObjectsAndCallsSource);
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  for (auto _ : state) {
    energy::SimMachine machine;
    jbc::BytecodeVm vm(compiled, machine);
    vm.runMain();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_BcvmObjectsAndCalls);

// Allocation churn under a heap limit: 2000 iterations × (object + array)
// per run, collected by the mark-compact GC every ~1024 live objects. The
// interesting number is the per-iteration cost staying flat — a grow-forever
// heap would scale with total allocations, not live bytes.
const char* const kHeapChurnSource = R"(
    class Node {
      int a;
      int b;
      Node(int x) { a = x; b = x * 2 + 1; }
      int sum() { return a + b; }
    }
    class Main {
      static void main(String[] args) {
        Node keep = new Node(7);
        int chk = 0;
        for (int i = 0; i < 2000; i++) {
          Node n = new Node(i);
          int[] buf = new int[16];
          buf[i % 16] = n.sum();
          chk = chk + buf[i % 16] + keep.a;
        }
        System.out.println(chk);
      }
    }
  )";

void BM_InterpretHeapChurn(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kHeapChurnSource);
  for (auto _ : state) {
    energy::SimMachine machine;
    jvm::Interpreter interp(prog, machine);
    interp.setHeapLimit(1024);
    interp.runMain();
    benchmark::DoNotOptimize(interp.gc().collections());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_InterpretHeapChurn);

void BM_BcvmHeapChurn(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kHeapChurnSource);
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  for (auto _ : state) {
    energy::SimMachine machine;
    jbc::BytecodeVm vm(compiled, machine);
    vm.setHeapLimit(1024);
    vm.runMain();
    benchmark::DoNotOptimize(vm.gc().collections());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_BcvmHeapChurn);

void BM_SuggestionEngine(benchmark::State& state) {
  const auto unit =
      jlang::Parser("demo.mjava", bench::kDemoProjectSource).parseUnit();
  core::SuggestionEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.analyzeUnit(unit));
  }
}
BENCHMARK(BM_SuggestionEngine);

void BM_Optimizer(benchmark::State& state) {
  const jlang::Program prog = jlang::Parser::parseProgram(
      "demo.mjava", bench::kDemoProjectSource);
  core::Optimizer optimizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.optimize(prog));
  }
}
BENCHMARK(BM_Optimizer);

// The per-charge cost every engine pays at each metered operation. The
// memory clobber inside the loop forces each charge's counter update to
// happen (a sink after the loop let the whole loop fold away).
void BM_MeterChargeOverhead(benchmark::State& state) {
  energy::SimMachine machine;
  for (auto _ : state) {
    machine.charge(energy::Op::kIntAlu, 1);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(machine.meter().totalOps());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MeterChargeOverhead);

}  // namespace

int main(int argc, char** argv) {
  // Derived engine-pair rows: for every BM_Interpret<X> with a BM_Bcvm<X>
  // sibling, record the tree-interpreter / bytecode-VM wall-time ratio.
  const auto enginePairs = [](jepo::bench::BenchReport& report,
                              const std::vector<jepo::bench::CapturedRun>&
                                  runs) {
    const std::string treePrefix = "BM_Interpret";
    const std::string bcvmPrefix = "BM_Bcvm";
    bool first = true;
    for (const auto& tree : runs) {
      if (tree.name.compare(0, treePrefix.size(), treePrefix) != 0) continue;
      const std::string suffix = tree.name.substr(treePrefix.size());
      for (const auto& bcvm : runs) {
        if (bcvm.name != bcvmPrefix + suffix ||
            bcvm.realSecondsPerIter <= 0.0) {
          continue;
        }
        const double ratio = tree.realSecondsPerIter / bcvm.realSecondsPerIter;
        report.addRow({{"name", "EnginePair/" + suffix},
                       {"treeSecondsPerIter", tree.realSecondsPerIter},
                       {"bcvmSecondsPerIter", bcvm.realSecondsPerIter},
                       {"speedupBcvmOverTree", ratio}});
        if (first) {
          std::printf("\n-- tree interpreter vs bytecode VM --\n");
          first = false;
        }
        std::printf("%-36s tree=%.3e bcvm=%.3e bcvm speedup=%.2fx\n",
                    suffix.c_str(), tree.realSecondsPerIter,
                    bcvm.realSecondsPerIter, ratio);
        break;
      }
    }
  };
  return jepo::bench::microMain("bench_vm_micro", argc, argv,
                                "bench/baselines/vm_micro_seed.txt",
                                enginePairs);
}
