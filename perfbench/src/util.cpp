#include "util.hpp"

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "support/json_writer.hpp"

namespace perfbench {

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string_view resultPayload(std::string_view line) {
  constexpr std::string_view kKey = "\"result\":";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos) return {};
  return line.substr(at + kKey.size());
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

namespace {

/// Where the probe's memory walk ends; written so the walk is not dropped.
volatile std::uint32_t gProbeSink = 0;

/// The probe loops. Runs in a child process that allocates with mmap, not
/// malloc: the child of a process that may have other threads must not
/// take a lock one of them held at fork.
HostProbe measureProbe() {
  constexpr std::size_t kSlots = std::size_t{8} << 20;  // 32 MiB of uint32
  const std::size_t bytes = kSlots * sizeof(std::uint32_t);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return {};
  auto* next = static_cast<std::uint32_t*>(mem);
  // One random cycle through every slot (Sattolo's algorithm).
  for (std::size_t i = 0; i < kSlots; ++i) {
    next[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  const auto step = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  };
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    step();
    std::swap(next[i], next[x % i]);
  }
  HostProbe probe;
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 50'000'000; ++i) step();
  probe.aluMs = secondsSince(t0) * 1e3;
  t0 = Clock::now();
  std::uint32_t at = static_cast<std::uint32_t>(x % kSlots);
  for (int i = 0; i < 1'000'000; ++i) at = next[at];
  probe.memMs = secondsSince(t0) * 1e3;
  gProbeSink = at;
  munmap(mem, bytes);
  return probe;
}

}  // namespace

HostProbe hostProbe() {
  // A child process, so the probe's 32 MiB never counts in peak_rss_mb.
  int fds[2];
  if (pipe(fds) != 0) return {};
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const HostProbe probe = measureProbe();
    const ssize_t n = write(fds[1], &probe, sizeof probe);
    _exit(n == static_cast<ssize_t>(sizeof probe) ? 0 : 1);
  }
  close(fds[1]);
  HostProbe probe;
  if (pid > 0) {
    const ssize_t n = read(fds[0], &probe, sizeof probe);
    if (n != static_cast<ssize_t>(sizeof probe)) probe = {};
    waitpid(pid, nullptr, 0);
  }
  close(fds[0]);
  return probe;
}

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  jepo::JsonWriter w;
  w.beginObject();
  w.kv("correct", correct);
  w.kv("attempted", attempted);
  w.kv("failed", failed);
  w.key("metrics");
  w.beginObject();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.beginObject();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

namespace {

bool gLayerSpans = false;

/// Applies `mask` to every thread of the process.
void setProcessAffinity(const cpu_set_t& mask) {
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = static_cast<pid_t>(
        std::stol(entry.path().filename().string()));
    sched_setaffinity(tid, sizeof mask, &mask);
  }
}

}  // namespace

CpuPin::CpuPin() {
  cpu_set_t original;
  CPU_ZERO(&original);
  if (sched_getaffinity(0, sizeof original, &original) != 0) {
    return;  // leave placement to the scheduler
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original)) allowed_.push_back(cpu);
  }
  if (allowed_.empty()) return;
  original_.resize(sizeof original);
  std::memcpy(original_.data(), &original, sizeof original);
  rotate(0);
}

void CpuPin::rotate(int k) {
  if (allowed_.empty()) return;
  pinTo(allowed_[static_cast<std::size_t>(k) % allowed_.size()]);
}

void CpuPin::pinTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  setProcessAffinity(one);
  pinned_ = true;
}

void CpuPin::release() {
  if (!pinned_) return;
  cpu_set_t original;
  std::memcpy(&original, original_.data(), sizeof original);
  setProcessAffinity(original);
  pinned_ = false;
}

void setLayerSpans(bool on) { gLayerSpans = on; }

LayerSpan::LayerSpan(std::string_view name, bool always) {
  if (!gLayerSpans && !always) return;
  jepo::obs::setEnabled(true);
  jepo::obs::beginSpan(name);
  jepo::obs::setEnabled(false);
  armed_ = true;
}

LayerSpan::~LayerSpan() {
  if (armed_) jepo::obs::endSpan();
}

}  // namespace perfbench
