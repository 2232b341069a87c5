// Shared helpers of the benchmark: clocks, resource usage, digests,
// percentiles, the result line, and the host-speed probe.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (user + system, every thread) in seconds.
double cpuSeconds();

/// Peak resident set size of the process in MiB.
double peakRssMb();

/// FNV-1a 64 over the bytes.
std::uint64_t fnv1a(std::string_view bytes);
std::string hex64(std::uint64_t v);

/// The bytes of a jepod response line from its "result" value on: the
/// payload a job's correctness is judged by (id and cached flag excluded).
/// Empty when the line carries no result (an error response).
std::string_view resultPayload(std::string_view responseLine);

/// Nearest-rank percentile, q in [0, 1]. Sorts `v` in place.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Fixed loops, timed in a child process, reported before and after each
/// run so that drift in the host's speed between runs shows next to the
/// metrics: `aluMs` a register-only loop, `memMs` a dependent walk through
/// 32 MiB, which slows with the cache and memory contention that also
/// slows the workloads (on a shared VM host it moves far more than
/// `aluMs`). Zero when the child could not run.
struct HostProbe {
  double aluMs = 0.0;
  double memMs = 0.0;
};
HostProbe hostProbe();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The last stdout line of a run: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics);

/// Confines the whole process (every existing thread, and the threads
/// they create) to one CPU, until release() or destruction restores the
/// original mask. It starts on the first allowed CPU; rotate(k) moves to
/// the k-th (modulo their number).
///
/// The jepod workloads keep one job in flight. On one CPU each hand-off
/// between the client, reader and worker threads is a context switch
/// instead of a cross-CPU wake-up, whose latency depends on the host
/// rather than the program. Rotating between passes spreads a run evenly
/// over the CPUs, so one CPU's slow phase (on a virtual machine, a busy
/// neighbour on the same core) weighs the same in every run.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin() { release(); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  void rotate(int k);
  void release();

 private:
  void pinTo(int cpu);

  std::vector<unsigned char> original_;  // a cpu_set_t, kept opaque here
  std::vector<int> allowed_;
  bool pinned_ = false;
};

/// Records one obs span from the benchmark's own code around a layer
/// call, when layer spans are on or `always`. Span recording is switched
/// on only for the begin, so the spans the program itself would open (the
/// interpreter opens one per method invocation) stay off and the trace
/// holds the benchmark's spans only.
class LayerSpan {
 public:
  explicit LayerSpan(std::string_view name, bool always = false);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  bool armed_ = false;
};

/// Turns LayerSpan recording on or off for the whole process.
void setLayerSpans(bool on);

}  // namespace perfbench
