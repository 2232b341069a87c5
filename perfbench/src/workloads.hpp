// The three workloads, untraced (end-to-end metrics) and traced
// (per-layer metrics), plus the shared live-daemon fixture.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "jepod/client.hpp"
#include "jepod/daemon.hpp"
#include "oracles.hpp"
#include "util.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string oracleDir = "perfbench/oracles";
  /// Scratch space inside the checkout: sockets and the Chrome trace.
  std::string workDir = ".bench_build";
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Context printed before the result line (sample counts, the layers a
  /// traced run measured on probe inputs, span bookkeeping).
  std::vector<std::string> notes;
};

/// Daemon worker threads in every jepod workload.
inline constexpr std::size_t kDaemonThreads = 2;

/// An in-process jepod::Daemon on a private socket under the work
/// directory, with one connected jepod::Client.
class LiveDaemon {
 public:
  explicit LiveDaemon(const std::string& workDir);
  ~LiveDaemon();
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  jepo::jepod::Daemon& daemon() { return *daemon_; }
  jepo::jepod::Client& client() { return client_; }
  const std::string& socketPath() const { return socketPath_; }

 private:
  std::string socketPath_;
  std::unique_ptr<jepo::jepod::Daemon> daemon_;
  jepo::jepod::Client client_;
};

/// Changes listed in an optimize response.
int countChanges(std::string_view responseLine);

/// One closed-loop round trip of a rendered request over `client`;
/// returns the response line and adds the latency in milliseconds (request
/// sent to response line received) to `latMs` when non-null.
std::string timedRoundTrip(jepo::jepod::Client& client,
                           const std::string& requestLine,
                           std::vector<double>* latMs);

struct ColdInputs;

/// Jobs sent in a pass, and how many matched their reference.
struct PassCount {
  std::uint64_t attempted = 0;
  std::uint64_t good = 0;
};

/// One profile-hot pass: `lines` are the rendered requests, `expected`
/// their payload digests.
PassCount hotPass(jepo::jepod::Client& client,
                  const std::vector<std::string>& lines,
                  const std::vector<std::uint64_t>& expected,
                  std::vector<double>* latMs);

/// One analyze-cold pass over every job, each source tagged with `tag`.
PassCount coldPass(jepo::jepod::Client& client, const ColdInputs& in,
                   const std::string& tag, const Oracles& oracles,
                   std::vector<double>* latMs);

RunResult runProfileHot(const Args& args, const Oracles& oracles);
RunResult runAnalyzeCold(const Args& args, const Oracles& oracles);
RunResult runTable4(const Args& args, const Oracles& oracles);

RunResult traceProfileHot(const Args& args, const Oracles& oracles);
RunResult traceAnalyzeCold(const Args& args, const Oracles& oracles);
RunResult traceTable4(const Args& args, const Oracles& oracles);

/// Regenerate every reference file into `dir`. Returns false (after
/// printing why) when the program disagrees with the paper's Changes
/// column or a profile payload depends on the job seed.
bool freezeOracles(const std::string& dir);

/// Write the profile-hot programs as <name>.mjava plus a manifest, for the
/// one-off cross-check against jepo_cli.
void emitSources(const std::string& dir);

}  // namespace perfbench
