// Ablation: execution-engine choice (DESIGN.md §6, item 3). Runs the demo
// pipeline and a set of kernels, instrumented, on both engines — the
// tree-walking interpreter (the oracle) and the bytecode VM that serves
// every profile job — and reports host-side interpretation time. It is
// also a gate: the engines share one charging semantics, so output,
// simulated joules and the full instrumented record stream must be
// identical; the bench exits nonzero on any difference.
#include <chrono>
#include <cstring>

#include "bench_common.hpp"
#include "demo_project.hpp"

#include "energy/machine.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jlang/parser.hpp"
#include "jvm/instrumenter.hpp"
#include "jvm/interpreter.hpp"

namespace {

using namespace jepo;

struct EngineResult {
  std::string output;
  double simulatedJoules = 0.0;
  /// Bit patterns of every record's method name, flags and energy
  /// columns, plus the run's package/core/dram joules and seconds.
  std::string observables;
  std::size_t records = 0;
  double hostMicros = 0.0;
};

void appendBits(std::string& out, double d) {
  char buf[sizeof d];
  std::memcpy(buf, &d, sizeof d);
  out.append(buf, sizeof d);
}

template <typename Engine>
EngineResult runInstrumented(Engine& engine, energy::SimMachine& machine,
                             std::chrono::steady_clock::time_point t0) {
  jvm::Instrumenter inst(machine);
  engine.setHooks(&inst);
  engine.setMaxSteps(500'000'000);
  engine.runMain();
  const auto t1 = std::chrono::steady_clock::now();
  EngineResult r;
  r.hostMicros = std::chrono::duration<double, std::micro>(t1 - t0).count();
  r.output = engine.output();
  const energy::MachineSample s = machine.sample();
  r.simulatedJoules = s.packageJoules;
  for (const double d : {s.packageJoules, s.coreJoules, s.dramJoules,
                         s.seconds}) {
    appendBits(r.observables, d);
  }
  for (const auto& rec : inst.records()) {
    r.observables += rec.method;
    r.observables += rec.truncated ? 'T' : 'F';
    for (const double d : {rec.seconds, rec.packageJoules, rec.coreJoules,
                           rec.dramJoules}) {
      appendBits(r.observables, d);
    }
  }
  r.records = inst.records().size();
  return r;
}

EngineResult runTree(const jlang::Program& prog) {
  const auto t0 = std::chrono::steady_clock::now();
  energy::SimMachine machine;
  jvm::Interpreter interp(prog, machine);
  return runInstrumented(interp, machine, t0);
}

EngineResult runBytecode(const jlang::Program& prog) {
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  const auto t0 = std::chrono::steady_clock::now();
  energy::SimMachine machine;
  jbc::BytecodeVm vm(compiled, machine);
  return runInstrumented(vm, machine, t0);
}

std::string wrapMain(const std::string& body) {
  return "class Main { static void main(String[] args) {\n" + body +
         "\n} }";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  bench::BenchReport report("bench_ablation_engine", flags);
  bench::printHeader(
      "Ablation — tree-walking interpreter vs bytecode VM (one charging "
      "semantics; instrumented runs must be identical)");

  struct Case {
    const char* label;
    std::string source;
  };
  const Case cases[] = {
      {"demo edge pipeline", bench::kDemoProjectSource},
      {"arithmetic loop (100k)",
       wrapMain("int acc = 0;\n"
                "for (int i = 0; i < 100000; i++) acc += i & 15;\n"
                "System.out.println(acc);")},
      {"method calls (20k)",
       "class Main {\n"
       "  static int add(int a, int b) { return a + b; }\n"
       "  static void main(String[] args) {\n"
       "    int acc = 0;\n"
       "    for (int i = 0; i < 20000; i++) acc = add(acc, i);\n"
       "    System.out.println(acc);\n"
       "  }\n"
       "}"},
      {"string building (2k)",
       wrapMain("StringBuilder sb = new StringBuilder();\n"
                "for (int i = 0; i < 2000; i++) sb.append('x');\n"
                "System.out.println(sb.length());")},
      {"matrix sweep (200x200)",
       wrapMain("int[][] m = new int[200][200];\n"
                "int acc = 0;\n"
                "for (int i = 0; i < 200; i++)\n"
                "  for (int j = 0; j < 200; j++)\n"
                "    acc += m[i][j];\n"
                "System.out.println(acc);")},
      {"ternary + short-circuit + try (5k)",
       wrapMain("int acc = 0;\n"
                "for (int i = 0; i < 5000; i++) {\n"
                "  acc += (i % 3 == 0 || i % 5 == 0) ? i : -1;\n"
                "  try { if (i % 7 == 0 && i > 0) throw new "
                "IllegalStateException(\"x\"); }\n"
                "  catch (RuntimeException e) { acc++; }\n"
                "  finally { acc--; }\n"
                "}\n"
                "System.out.println(acc);")},
  };

  TextTable table({"Workload", "Records", "Identical", "Host time tree",
                   "Host time bytecode", "Speedup"},
                  {Align::kLeft, Align::kRight, Align::kLeft, Align::kRight,
                   Align::kRight, Align::kRight});
  int mismatches = 0;
  for (const Case& c : cases) {
    const jlang::Program prog =
        jlang::Parser::parseProgram("case.mjava", c.source);
    const EngineResult tree = runTree(prog);
    const EngineResult bytecode = runBytecode(prog);
    const bool identical = tree.output == bytecode.output &&
                           tree.observables == bytecode.observables;
    if (!identical) ++mismatches;
    table.addRow({c.label, std::to_string(bytecode.records),
                  identical ? "yes" : "NO",
                  fixed(tree.hostMicros, 0) + " us",
                  fixed(bytecode.hostMicros, 0) + " us",
                  fixed(tree.hostMicros / bytecode.hostMicros, 2) + "x"});
    report.addRow({{"workload", c.label},
                   {"identical", identical},
                   {"records", static_cast<double>(bytecode.records)},
                   {"treeJoules", tree.simulatedJoules},
                   {"bytecodeJoules", bytecode.simulatedJoules},
                   {"treeHostMicros", tree.hostMicros},
                   {"bytecodeHostMicros", bytecode.hostMicros}});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\nBoth engines charge the same cost model at the same points, so\n"
      "output, joules and every instrumented record match bit for bit; the\n"
      "host columns compare raw interpretation overhead.");
  const int status = report.finish();
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "bench_ablation_engine: %d workload(s) differ between "
                 "engines\n",
                 mismatches);
    return 1;
  }
  return status;
}
