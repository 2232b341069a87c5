// jepod — the multi-tenant profiling daemon.
//
// A long-running service that turns the one-shot jepo_cli pipeline
// (parse -> suggest/instrument -> measure) into jobs over a local
// Unix-domain socket. The substrate is exactly the pieces earlier PRs
// built: jobs are scheduled on the PR 1 ThreadPool, each job runs on a
// fresh SimMachine/Interpreter that shares no mutable state with its
// neighbours (PR 4), its heap is bounded per-job via --heap-limit (PR 5),
// and its fault/RNG streams derive from the per-job seed — so a job's
// result is bit-identical to the equivalent jepo_cli invocation no matter
// how many tenants the daemon is serving concurrently.
//
// Admission control: `maxQueue` bounds jobs admitted (queued + running).
// Past it, requests get a typed "queue-full" response carrying
// retryAfterMs instead of unbounded queueing — load sheds at the edge,
// deterministically, rather than by OOM. On drain (SIGTERM in the jepod
// binary, requestDrain() in-process) the daemon stops accepting
// connections, rejects new jobs with "shutting-down", completes and
// flushes every in-flight job, then tears down.
//
// Observability: per-tenant request/error counters and a latency
// histogram (jepod.tenant.<name>.*), global admission/cache counters
// (jepod.jobs.*, jepod.cache.*) — all through the PR 2 registry, so
// bench_jepod and CI read them from the standard counters section.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fault/transport.hpp"
#include "jepod/program_cache.hpp"
#include "jepod/protocol.hpp"
#include "support/cancel.hpp"
#include "support/thread_pool.hpp"

namespace jepo::jepod {

struct DaemonConfig {
  std::string socketPath;
  /// Worker threads executing jobs (0 = one per hardware core).
  std::size_t threads = 0;
  /// Max jobs admitted at once — queued plus running (0 = unbounded).
  std::size_t maxQueue = 0;
  /// Program-cache byte budget in source bytes (0 = unbounded).
  std::size_t cacheBytes = 8u << 20;
  /// The retry hint a queue-full reject carries. Deterministic: a fixed
  /// config value, not a load estimate, so rejection responses are
  /// byte-stable for tests.
  int retryAfterMs = 10;
  /// Longest accepted request line; longer input is a bad-request (the
  /// connection survives). Bounds per-connection buffering.
  std::size_t maxLineBytes = 8u << 20;
  /// Reap a connection that has been silent this long with no job in
  /// flight and no response written (half-open peers, slow-loris
  /// trickles). 0 disables reaping — a client legitimately waiting on a
  /// slow job is never reaped, because its in-flight count is nonzero.
  int idleTimeoutMs = 0;
  /// Seeded transport-fault injection on every accepted connection (chaos
  /// testing; see fault/transport.hpp). Each connection's FaultyStream is
  /// deterministic in (spec.seed, accept ordinal). Inactive by default:
  /// the clean path reads and writes the raw fd exactly as before.
  fault::TransportFaultSpec transportFaults;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig cfg);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind the socket and start accepting. Throws Error when the path is
  /// unbindable. A stale socket file from a dead daemon is replaced.
  void start();

  /// Begin graceful shutdown: stop accepting connections and admitting
  /// jobs (new requests get "shutting-down"). Safe from any thread and
  /// from a signal-watcher; idempotent.
  void requestDrain();

  /// Block until a drain has been requested (by requestDrain() from any
  /// thread, or a SignalDrain) and every admitted job has completed and
  /// written its response; then close connections, join threads and
  /// remove the socket file. Idempotent.
  void waitDrained();

  /// requestDrain() + waitDrained().
  void stop();

  bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  const DaemonConfig& config() const noexcept { return cfg_; }

  /// Executes one job against the cache exactly as a socket request
  /// would, returning the response line. Exposed for tests and for
  /// bit-identity replay tooling; bypasses admission control.
  std::string runJobForTest(const JobRequest& req) { return runJob(req); }

  /// Connections currently registered (accepted and not yet reaped).
  /// Exposed so tests can prove disconnected clients are reclaimed while
  /// the daemon keeps running, not only at drain.
  std::size_t openConnectionCount() const;

 private:
  struct Connection {
    Connection(int fd, std::unique_ptr<fault::ByteStream> stream)
        : fd(fd), stream(std::move(stream)) {}
    ~Connection();
    int fd;
    /// All I/O goes through the stream seam (an FdStream, or a
    /// FaultyStream wrapping it under an active transport-fault plan).
    std::unique_ptr<fault::ByteStream> stream;
    /// Jobs admitted for this connection and not yet responded — the
    /// idle-reaper's "is anyone actually waiting on us" check.
    std::atomic<int> inflight{0};
    /// steady_clock time of the last response written: a client that was
    /// just answered is not idle, whatever its last request's age.
    std::atomic<std::int64_t> lastWriteNs{0};
    std::mutex writeMu;  // workers and the reader interleave responses
  };

  /// Per-admitted-job cancellation state, registered until the response is
  /// written. The watchdog arms `token` on deadline expiry; the reader
  /// arms it when the submitting connection dies. `cancelledAt` is written
  /// before the token fires (release/acquire via the token), so the job
  /// thread can compute cancel latency after catching CancelledError.
  struct JobContext {
    CancelToken token;
    const Connection* conn = nullptr;
    bool hasDeadline = false;
    std::chrono::steady_clock::time_point deadline{};
    std::chrono::steady_clock::time_point cancelledAt{};
  };

  void acceptLoop();
  void connectionLoop(std::shared_ptr<Connection> conn);
  /// The read loop proper; connectionLoop wraps it with reapConnection.
  void readLoop(const std::shared_ptr<Connection>& conn);
  /// Drop `conn` from the live registry and move its (still-running)
  /// thread handle to doneThreads_ for a later join. No-op if waitDrained
  /// already claimed them.
  void reapConnection(const Connection* conn);
  /// Parse, admit and dispatch one request line; writes rejects inline.
  void handleLine(const std::string& line,
                  const std::shared_ptr<Connection>& conn);
  std::string runJob(const JobRequest& req) { return runJob(req, nullptr); }
  /// ctx (nullable) carries the job's cancel token; a fired token maps to
  /// the typed deadline-exceeded / cancelled responses.
  std::string runJob(const JobRequest& req, JobContext* ctx);
  /// The deadline watchdog: sleeps until the earliest live deadline, arms
  /// expired jobs' tokens. One thread for the whole daemon.
  void watchdogLoop();
  /// Arm every live job submitted by `conn` with a disconnect cancel.
  void cancelJobsForConnection(const Connection* conn);
  /// Drop a completed job from the live registry.
  void finishJobContext(const std::shared_ptr<JobContext>& ctx);
  std::shared_ptr<const CachedProgram> compileCached(const JobRequest& req,
                                                     bool* cached);
  static void writeLine(const std::shared_ptr<Connection>& conn,
                        const std::string& line);
  void finishJob();

  obs::Counter& tenantCounter(const std::string& tenant, const char* what);
  obs::Histogram& tenantLatency(const std::string& tenant);

  DaemonConfig cfg_;
  ProgramCache cache_;
  std::unique_ptr<ThreadPool> pool_;

  // Atomic: requestDrain() (a signal-watcher thread) shuts it down while
  // waitDrained() (the caller's thread) closes and clears it.
  std::atomic<int> listenFd_{-1};
  std::thread acceptThread_;
  std::atomic<bool> draining_{false};
  bool started_ = false;
  std::mutex stopMu_;     // serializes waitDrained callers
  bool drained_ = false;  // guarded by stopMu_

  // Admission state. draining_ is also checked under this mutex so a
  // request can never slip past a drain that waitDrained() has observed.
  std::mutex admissionMu_;
  std::condition_variable idleCv_;
  std::size_t pending_ = 0;  // admitted (queued + running) jobs

  // Live-job registry for the watchdog and disconnect cancellation.
  // Jobs register at admission (so a deadline counts queue time) and
  // deregister after their response is written.
  std::mutex jobsMu_;
  std::condition_variable watchdogCv_;
  std::vector<std::shared_ptr<JobContext>> liveJobs_;
  bool watchdogStop_ = false;  // guarded by jobsMu_
  std::thread watchdogThread_;

  // Connection registry. A connection's reader thread reaps its own entry
  // on exit (closing the fd once in-flight jobs release their refs) and
  // parks its thread handle in doneThreads_, which acceptLoop joins before
  // each accept — so a long-running daemon serving short-lived clients
  // holds only live connections, not an unbounded graveyard of fds and
  // unjoined threads. waitDrained claims whatever remains of both.
  mutable std::mutex connsMu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::unordered_map<const Connection*, std::thread> connThreads_;
  std::vector<std::thread> doneThreads_;

  // Global instruments (resolved once; see obs registry contract).
  obs::Counter* admitted_;
  obs::Counter* completed_;
  obs::Counter* rejectedFull_;
  obs::Counter* rejectedDraining_;
  obs::Counter* badRequests_;
  obs::Counter* connections_;
  obs::Counter* cancelDeadline_;
  obs::Counter* cancelDisconnect_;
  obs::Counter* idleReaped_;
  obs::Gauge* inflight_;
  obs::Histogram* latencyUs_;
  obs::Histogram* cancelLatencyUs_;

  std::uint64_t acceptOrdinal_ = 0;  // accept-loop only; fault stream ids
};

/// Install SIGTERM/SIGINT handlers that trigger `daemon.requestDrain()`
/// through a self-pipe (async-signal-safe: the handler only write()s).
/// The watcher thread lives until the object is destroyed; destroying it
/// restores the previous handlers. One instance per process.
class SignalDrain {
 public:
  explicit SignalDrain(Daemon& daemon);
  ~SignalDrain();

  SignalDrain(const SignalDrain&) = delete;
  SignalDrain& operator=(const SignalDrain&) = delete;

  /// True once a signal has been delivered and the drain was requested.
  bool triggered() const noexcept {
    return triggered_.load(std::memory_order_relaxed);
  }

 private:
  Daemon* daemon_;
  int pipeFds_[2] = {-1, -1};
  std::thread watcher_;
  std::atomic<bool> triggered_{false};
};

}  // namespace jepo::jepod
