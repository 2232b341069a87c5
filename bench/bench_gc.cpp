// GC pause/throughput bench: runs the churn workload on the bytecode VM
// across a sweep of heap limits (0 = never collect, then progressively
// tighter) and reports wall time per run, collection counts, reclamation
// totals and pause statistics in the common BenchReport schema.
//
// The headline claims this pins down:
//   - the collector's cost is host-time only (simulated joules identical
//     across every row — asserted here, not just in tests);
//   - tighter limits trade more, shorter collections for a smaller
//     resident heap, with per-run wall time staying in the same decade.
//
// Flags: --iters=N   churn loop iterations    (default 20000)
//        --runs=N    timed repetitions/row    (default 3)
// plus the common --json/--trace/--fault-plan set.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "energy/machine.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jlang/parser.hpp"
#include "jvm/gc.hpp"

namespace {

using namespace jepo;

std::string churnSource(long iters) {
  return R"(
class Node {
  int a;
  int b;
  Node next;
  Node(int x) { a = x; b = x * 2 + 1; next = null; }
  int sum() { return a + b; }
}
class Main {
  static void main(String[] args) {
    Node keep = new Node(7);
    int chk = 0;
    for (int i = 0; i < )" + std::to_string(iters) + R"(; i++) {
      Node n = new Node(i);
      int[] buf = new int[16];
      buf[i % 16] = n.sum();
      if (i % 97 == 0) { n.next = keep; keep = n; }
      chk = chk + buf[i % 16];
    }
    System.out.println(chk);
  }
}
)";
}

struct GcRun {
  double seconds = 0.0;
  double simJoules = 0.0;
  std::uint64_t collections = 0;
  std::uint64_t objectsReclaimed = 0;
  std::uint64_t bytesReclaimed = 0;
  std::uint64_t totalPauseNs = 0;
  std::uint64_t maxPauseNs = 0;
  std::size_t liveAtExit = 0;
};

GcRun runBcvm(const jbc::CompiledProgram& compiled, std::size_t heapLimit) {
  energy::SimMachine machine;
  jbc::BytecodeVm vm(compiled, machine);
  vm.setHeapLimit(heapLimit);
  vm.setMaxSteps(500'000'000);
  GcRun r;
  const auto t0 = std::chrono::steady_clock::now();
  vm.runMain();
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  r.simJoules = machine.sample().packageJoules;
  r.collections = vm.gc().collections();
  r.objectsReclaimed = vm.gc().objectsReclaimed();
  r.bytesReclaimed = vm.gc().bytesReclaimed();
  r.totalPauseNs = vm.gc().totalPauseNs();
  r.maxPauseNs = vm.gc().maxPauseNs();
  r.liveAtExit = vm.heap().size();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"iters"});
  bench::BenchReport report("bench_gc", flags);

  const long iters = flags.getInt("iters", 20000);
  const long runs = flags.getInt("runs", 3);
  report.config("iters", iters);
  report.config("runs", runs);

  const jlang::Program prog =
      jlang::Parser::parseProgram("churn.mjava", churnSource(iters));
  const jbc::CompiledProgram compiled = jbc::compile(prog);

  const std::size_t limits[] = {0, 4096, 1024, 256};

  bench::printHeader("bench_gc — mark-compact pause/throughput");
  std::printf("%-9s %12s %6s %12s %12s %12s %10s\n", "limit", "sec/run",
              "gcs", "objsFreed", "pauseNsTot", "pauseNsMax", "liveAtExit");

  int status = 0;
  double unlimitedJoules = 0.0;
  for (const std::size_t limit : limits) {
    // Best-of-N wall time; the GC statistics are identical across
    // repetitions because collection points are deterministic.
    GcRun best;
    for (long r = 0; r < runs; ++r) {
      const GcRun run = runBcvm(compiled, limit);
      if (r == 0 || run.seconds < best.seconds) best = run;
    }
    if (limit == 0) {
      unlimitedJoules = best.simJoules;
    } else if (best.simJoules != unlimitedJoules) {
      // The collector's core contract, enforced even in the bench.
      std::fprintf(stderr, "simulated joules changed under heap limit %zu\n",
                   limit);
      status = 1;
    }
    std::printf("%-9zu %12.3e %6llu %12llu %12llu %12llu %10zu\n", limit,
                best.seconds,
                static_cast<unsigned long long>(best.collections),
                static_cast<unsigned long long>(best.objectsReclaimed),
                static_cast<unsigned long long>(best.totalPauseNs),
                static_cast<unsigned long long>(best.maxPauseNs),
                best.liveAtExit);
    report.addRow({{"name", "bcvm/limit=" + std::to_string(limit)},
                   {"realSecondsPerIter", best.seconds},
                   {"simPackageJoules", best.simJoules},
                   {"collections", static_cast<long long>(best.collections)},
                   {"objectsReclaimed",
                    static_cast<long long>(best.objectsReclaimed)},
                   {"bytesReclaimed",
                    static_cast<long long>(best.bytesReclaimed)},
                   {"gcPauseNsTotal",
                    static_cast<long long>(best.totalPauseNs)},
                   {"gcPauseNsMax", static_cast<long long>(best.maxPauseNs)},
                   {"liveObjectsAtExit",
                    static_cast<long long>(best.liveAtExit)}});
  }

  const int reportStatus = report.finish();
  return status != 0 ? status : reportStatus;
}
