#include "jepod/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "fault/fault.hpp"
#include "jepo/engine.hpp"
#include "jepo/optimizer.hpp"
#include "jepo/profiler.hpp"
#include "jepo/views.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jlang/resolve.hpp"
#include "jvm/engine.hpp"
#include "support/json_reader.hpp"

namespace jepo::jepod {

namespace {

/// Tenant names come off the wire; clamp them to a bounded, registry-safe
/// alphabet so a hostile client cannot mint unbounded or unprintable
/// instrument names.
std::string sanitizeTenant(const std::string& tenant) {
  std::string out;
  const std::size_t n = std::min<std::size_t>(tenant.size(), 48);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = tenant[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  return out.empty() ? "default" : out;
}

/// Best-effort id recovery for error responses: the request failed
/// validation, but if it was at least JSON we can still echo its id so
/// the client can correlate the reject.
std::string recoverId(const std::string& line) {
  try {
    return json::parseJson(line).stringOr("id", "");
  } catch (const Error&) {
    return "";
  }
}

}  // namespace

Daemon::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Daemon::Daemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)), cache_(cfg_.cacheBytes) {
  obs::Registry& reg = obs::Registry::global();
  admitted_ = &reg.counter("jepod.jobs.admitted");
  completed_ = &reg.counter("jepod.jobs.completed");
  rejectedFull_ = &reg.counter("jepod.jobs.rejected.queuefull");
  rejectedDraining_ = &reg.counter("jepod.jobs.rejected.draining");
  badRequests_ = &reg.counter("jepod.requests.bad");
  connections_ = &reg.counter("jepod.connections");
  cancelDeadline_ = &reg.counter("jepod.cancel.deadline");
  cancelDisconnect_ = &reg.counter("jepod.cancel.disconnect");
  idleReaped_ = &reg.counter("jepod.connections.idleReaped");
  inflight_ = &reg.gauge("jepod.jobs.inflight");
  latencyUs_ = &reg.histogram("jepod.job.latencyUs");
  cancelLatencyUs_ = &reg.histogram("jepod.cancel.latencyUs");
}

Daemon::~Daemon() {
  try {
    stop();
  } catch (...) {
    // Destructor teardown must not throw.
  }
}

void Daemon::start() {
  JEPO_REQUIRE(!started_, "Daemon::start called twice");
  JEPO_REQUIRE(!cfg_.socketPath.empty(), "DaemonConfig.socketPath is empty");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  JEPO_REQUIRE(cfg_.socketPath.size() < sizeof(addr.sun_path),
               "socket path too long for AF_UNIX");
  std::memcpy(addr.sun_path, cfg_.socketPath.c_str(),
              cfg_.socketPath.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw Error("jepod: socket(): " + std::string(std::strerror(errno)));
  }
  // A stale socket file from a dead daemon would make bind fail forever;
  // replace it. (A *live* daemon would still be reachable through its own
  // open fd — single-daemon-per-path is the operator's contract.)
  ::unlink(cfg_.socketPath.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw Error("jepod: bind(" + cfg_.socketPath + "): " + err);
  }
  if (::listen(fd, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(cfg_.socketPath.c_str());
    throw Error("jepod: listen(): " + err);
  }
  listenFd_.store(fd, std::memory_order_relaxed);

  pool_ = std::make_unique<ThreadPool>(cfg_.threads, /*maxQueue=*/0);
  started_ = true;
  watchdogThread_ = std::thread([this] { watchdogLoop(); });
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

void Daemon::requestDrain() {
  {
    std::lock_guard lock(admissionMu_);
    if (draining_.load(std::memory_order_relaxed)) return;
    draining_.store(true, std::memory_order_relaxed);
  }
  idleCv_.notify_all();
  const int fd = listenFd_.load(std::memory_order_relaxed);
  if (fd >= 0) {
    // Unblocks accept() (returns EINVAL on Linux); the fd itself is
    // closed in waitDrained after the accept thread has exited.
    ::shutdown(fd, SHUT_RDWR);
  }
}

void Daemon::waitDrained() {
  std::lock_guard stopLock(stopMu_);
  if (!started_ || drained_) return;

  // 1. Block until a drain has been requested (the jepod binary parks
  //    here until SignalDrain fires) AND every admitted job has completed
  //    and written its response.
  {
    std::unique_lock lock(admissionMu_);
    idleCv_.wait(lock, [this] {
      return draining_.load(std::memory_order_relaxed) && pending_ == 0;
    });
  }
  // 2. No new connections (accept already unblocked by requestDrain).
  if (acceptThread_.joinable()) acceptThread_.join();
  const int listenFd = listenFd_.exchange(-1, std::memory_order_relaxed);
  if (listenFd >= 0) ::close(listenFd);
  // 3. Unblock readers still waiting on idle clients; join them. Their
  //    pending work is only "shutting-down" rejects, which have all been
  //    written inline before this point or will fail harmlessly.
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(connsMu_);
    conns.swap(conns_);
    for (auto& [key, thread] : connThreads_) threads.push_back(std::move(thread));
    connThreads_.clear();
    for (auto& thread : doneThreads_) threads.push_back(std::move(thread));
    doneThreads_.clear();
  }
  for (const auto& c : conns) ::shutdown(c->fd, SHUT_RDWR);
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  conns.clear();
  // 4. Stop the watchdog: every admitted job has completed, so there is
  //    nothing left to cancel.
  {
    std::lock_guard lock(jobsMu_);
    watchdogStop_ = true;
  }
  watchdogCv_.notify_all();
  if (watchdogThread_.joinable()) watchdogThread_.join();
  // 5. The pool is idle (pending_ == 0); destroy it and remove the socket.
  pool_.reset();
  ::unlink(cfg_.socketPath.c_str());
  drained_ = true;
}

void Daemon::stop() {
  if (!started_) return;
  requestDrain();
  waitDrained();
}

void Daemon::acceptLoop() {
  for (;;) {
    const int fd = ::accept4(listenFd_.load(std::memory_order_relaxed),
                             nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EINVAL after shutdown(), or a fatal accept error
    }
    if (draining_.load(std::memory_order_relaxed)) {
      ::close(fd);
      continue;
    }
    connections_->add();
    // The stream seam: raw fd I/O, or seeded chaos when a transport fault
    // plan is active. The accept ordinal keys this connection's fault
    // schedule, so a soak replays identically run to run.
    std::unique_ptr<fault::ByteStream> stream =
        std::make_unique<fault::FdStream>(fd);
    if (cfg_.transportFaults.active()) {
      stream = std::make_unique<fault::FaultyStream>(
          std::move(stream),
          fault::TransportFaultPlan(cfg_.transportFaults, acceptOrdinal_));
    }
    ++acceptOrdinal_;
    auto conn = std::make_shared<Connection>(fd, std::move(stream));
    std::vector<std::thread> finished;
    {
      std::lock_guard lock(connsMu_);
      finished.swap(doneThreads_);
      conns_.push_back(conn);
      const Connection* key = conn.get();
      // Constructed under connsMu_: the new thread's reapConnection blocks
      // on this mutex, so its handle is registered before it can look.
      connThreads_.emplace(
          key, std::thread([this, conn = std::move(conn)]() mutable {
            connectionLoop(std::move(conn));
          }));
    }
    // Join outside the lock; these threads have already run their cleanup.
    for (auto& t : finished) t.join();
  }
}

void Daemon::connectionLoop(std::shared_ptr<Connection> conn) {
  readLoop(conn);
  // The submitter is gone: nobody will read the responses, so stop
  // burning workers on its in-flight jobs.
  cancelJobsForConnection(conn.get());
  reapConnection(conn.get());
  // `conn` drops here; once in-flight jobs release their captured refs the
  // Connection destructor closes the fd.
}

void Daemon::reapConnection(const Connection* conn) {
  std::lock_guard lock(connsMu_);
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->get() == conn) {
      conns_.erase(it);
      break;
    }
  }
  const auto it = connThreads_.find(conn);
  if (it != connThreads_.end()) {
    // Can't join ourselves; park the handle for acceptLoop/waitDrained.
    doneThreads_.push_back(std::move(it->second));
    connThreads_.erase(it);
  }
}

std::size_t Daemon::openConnectionCount() const {
  std::lock_guard lock(connsMu_);
  return conns_.size();
}

void Daemon::readLoop(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    // Drain complete lines before reading more.
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) handleLine(line, conn);
    }
    if (start > 0) buffer.erase(0, start);

    if (buffer.size() > cfg_.maxLineBytes) {
      badRequests_->add();
      writeLine(conn, renderErrorResponse(
                          "", ErrorCode::kBadRequest,
                          "request line exceeds " +
                              std::to_string(cfg_.maxLineBytes) + " bytes"));
      return;
    }
    if (cfg_.idleTimeoutMs > 0) {
      // Idle reaping: wait for readability so a half-open peer (or a
      // slow-loris trickling a partial line) can be cut loose. A client
      // with jobs in flight is *waiting*, not idle — never reap it.
      bool readable = false;
      while (!readable) {
        pollfd pfd{};
        pfd.fd = conn->fd;
        pfd.events = POLLIN;
        const int pr = ::poll(&pfd, 1, cfg_.idleTimeoutMs);
        if (pr > 0) {
          readable = true;
        } else if (pr < 0) {
          if (errno == EINTR) continue;
          return;
        } else if (conn->inflight.load(std::memory_order_acquire) == 0 &&
                   std::chrono::steady_clock::now().time_since_epoch() -
                           std::chrono::nanoseconds(conn->lastWriteNs.load(
                               std::memory_order_acquire)) >=
                       std::chrono::milliseconds(cfg_.idleTimeoutMs)) {
          idleReaped_->add();
          return;
        }
      }
    }
    const long n = conn->stream->read(chunk, sizeof chunk);
    if (n <= 0) return;  // EOF, client reset, or drain shutdown
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

void Daemon::handleLine(const std::string& line,
                        const std::shared_ptr<Connection>& conn) {
  JobRequest req;
  try {
    req = parseRequest(line);
  } catch (const ProtocolError& e) {
    badRequests_->add();
    writeLine(conn, renderErrorResponse(recoverId(line), e.code(), e.what()));
    return;
  }

  tenantCounter(req.tenant, "requests").add();

  // Admission: the draining check and the queue-bound check share one
  // critical section with pending_ bookkeeping, so a drain observed by
  // waitDrained() can never race a late admission, and a queue-full
  // decision is an exact function of admitted-but-uncompleted jobs. Only
  // the decision happens under the lock — the reject is written after
  // release, because writeLine blocks in send() when a client stops
  // reading, and a stalled client must wedge its own connection only,
  // never every worker and reader parked on admissionMu_.
  enum class Verdict { kAdmit, kDraining, kQueueFull };
  Verdict verdict = Verdict::kAdmit;
  std::size_t pendingSeen = 0;
  {
    std::lock_guard lock(admissionMu_);
    if (draining_.load(std::memory_order_relaxed)) {
      verdict = Verdict::kDraining;
    } else if (cfg_.maxQueue > 0 && pending_ >= cfg_.maxQueue) {
      verdict = Verdict::kQueueFull;
      pendingSeen = pending_;
    } else {
      ++pending_;
      inflight_->set(static_cast<std::int64_t>(pending_));
    }
  }
  if (verdict == Verdict::kDraining) {
    rejectedDraining_->add();
    tenantCounter(req.tenant, "rejected").add();
    writeLine(conn,
              renderErrorResponse(req.id, ErrorCode::kShuttingDown,
                                  "daemon is draining; resubmit elsewhere",
                                  cfg_.retryAfterMs));
    return;
  }
  if (verdict == Verdict::kQueueFull) {
    rejectedFull_->add();
    tenantCounter(req.tenant, "rejected").add();
    writeLine(conn,
              renderErrorResponse(
                  req.id, ErrorCode::kQueueFull,
                  "job queue is full (" + std::to_string(pendingSeen) + "/" +
                      std::to_string(cfg_.maxQueue) + " jobs in flight)",
                  cfg_.retryAfterMs));
    return;
  }
  admitted_->add();

  const auto admittedAt = std::chrono::steady_clock::now();
  // Register the job for cancellation before it can run: the deadline is
  // measured from admission (queue time counts — a queued job whose
  // deadline lapses is cancelled by its very first poll), and a client
  // disconnect must find every job it submitted.
  auto ctx = std::make_shared<JobContext>();
  ctx->conn = conn.get();
  if (req.deadlineMs > 0) {
    ctx->hasDeadline = true;
    ctx->deadline = admittedAt + std::chrono::milliseconds(req.deadlineMs);
  }
  conn->inflight.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard lock(jobsMu_);
    liveJobs_.push_back(ctx);
  }
  if (ctx->hasDeadline) watchdogCv_.notify_all();

  pool_->submit([this, req = std::move(req), conn, ctx, admittedAt]() mutable {
    const std::string response = runJob(req, ctx.get());
    // Account the job before its response goes out, so a client that has
    // its answer also sees its latency sample.
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - admittedAt)
                        .count();
    latencyUs_->record(static_cast<std::uint64_t>(us));
    tenantLatency(req.tenant).record(static_cast<std::uint64_t>(us));
    completed_->add();
    writeLine(conn, response);
    finishJobContext(ctx);
    conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
    finishJob();
  });
}

void Daemon::watchdogLoop() {
  std::unique_lock lock(jobsMu_);
  for (;;) {
    if (watchdogStop_) return;
    auto next = std::chrono::steady_clock::time_point::max();
    for (const auto& job : liveJobs_) {
      if (job->hasDeadline && !job->token.cancelled() &&
          job->deadline < next) {
        next = job->deadline;
      }
    }
    if (next == std::chrono::steady_clock::time_point::max()) {
      watchdogCv_.wait(lock);
    } else {
      watchdogCv_.wait_until(lock, next);
    }
    if (watchdogStop_) return;
    const auto now = std::chrono::steady_clock::now();
    for (const auto& job : liveJobs_) {
      if (job->hasDeadline && !job->token.cancelled() &&
          job->deadline <= now) {
        // cancelledAt is published by the token's release store; the job
        // thread reads it only after observing the token fired.
        job->cancelledAt = now;
        job->token.cancel(CancelReason::kDeadline);
        cancelDeadline_->add();
      }
    }
  }
}

void Daemon::cancelJobsForConnection(const Connection* conn) {
  std::lock_guard lock(jobsMu_);
  const auto now = std::chrono::steady_clock::now();
  for (const auto& job : liveJobs_) {
    if (job->conn == conn && !job->token.cancelled()) {
      job->cancelledAt = now;
      job->token.cancel(CancelReason::kDisconnect);
      cancelDisconnect_->add();
    }
  }
}

void Daemon::finishJobContext(const std::shared_ptr<JobContext>& ctx) {
  std::lock_guard lock(jobsMu_);
  for (auto it = liveJobs_.begin(); it != liveJobs_.end(); ++it) {
    if (it->get() == ctx.get()) {
      liveJobs_.erase(it);
      return;
    }
  }
}

void Daemon::finishJob() {
  std::lock_guard lock(admissionMu_);
  --pending_;
  inflight_->set(static_cast<std::int64_t>(pending_));
  if (pending_ == 0) idleCv_.notify_all();
}

std::shared_ptr<const CachedProgram> Daemon::compileCached(
    const JobRequest& req, bool* cached) {
  const std::uint64_t hash = sourceHash(req.source);
  if (auto hit = cache_.get(hash, req.source)) {
    *cached = true;
    return hit;
  }
  *cached = false;
  auto entry = std::make_shared<CachedProgram>();
  try {
    entry->program = jlang::Parser::parseProgram("<jepod>", req.source);
  } catch (const Error& e) {
    throw ProtocolError(ErrorCode::kParseError, e.what());
  }
  entry->source = req.source;
  entry->hash = hash;
  entry->bytes = req.source.size();
  // Compile-once: resolve here so cache hits skip parse AND resolution.
  jlang::ensureResolved(entry->program);
  return cache_.put(std::move(entry));
}

std::string Daemon::runJob(const JobRequest& req, JobContext* ctx) {
  bool cached = false;
  try {
    const auto compiled = compileCached(req, &cached);
    const jlang::Program& program = compiled->program;

    if (req.command == "suggest") {
      core::SuggestionEngine engine;
      return renderSuggestResponse(
          req, cached,
          core::renderOptimizerView(engine.analyzeProgram(program)));
    }
    if (req.command == "optimize") {
      const core::OptimizeResult result = core::Optimizer().optimize(program);
      std::vector<OptimizeChange> changes;
      changes.reserve(result.changes.size());
      for (const auto& c : result.changes) {
        changes.push_back({c.className, c.line, c.description});
      }
      std::string source;
      for (const auto& unit : result.program.units) {
        source += jlang::printUnit(unit);
      }
      return renderOptimizeResponse(req, cached, changes, source);
    }

    // profile — per-job isolation: fresh Profiler/SimMachine/BytecodeVm,
    // explicit heap limit (the daemon's environment must never leak into
    // a tenant's result), fault/RNG streams derived from the job seed.
    core::Profiler profiler;
    profiler.setHeapLimit(static_cast<std::size_t>(req.heapLimit));
    profiler.setSeed(req.seed);
    if (ctx != nullptr) profiler.setCancelToken(&ctx->token);
    if (!req.faultPlan.empty()) {
      try {
        profiler.setFaultSpec(fault::parseFaultPlan(req.faultPlan));
      } catch (const Error& e) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            std::string("faultPlan: ") + e.what());
      }
    }
    jvm::TierSpec tierSpec;
    if (!req.tier.empty()) {
      try {
        tierSpec = jvm::parseTierSpec(req.tier);
      } catch (const Error& e) {
        // parseRequest validates the spec at the trust boundary; this
        // guards programmatic JobRequest construction (tests, embedding).
        throw ProtocolError(ErrorCode::kBadRequest,
                            std::string("tier: ") + e.what());
      }
      profiler.setTier(tierSpec);
    }
    // Which tier each tenant's profile jobs actually run — the capacity-
    // planning signal for tiered sampling (global + per-tenant).
    obs::Registry::global()
        .counter(std::string("jepod.tier.") + jvm::tierName(tierSpec.tier))
        .add();
    tenantCounter(req.tenant,
                  (std::string("tier.") + jvm::tierName(tierSpec.tier))
                      .c_str())
        .add();
    // The cache entry's bytecode: compiled by the first profile job for
    // this source, shared read-only by every later one.
    profiler.profile(compiled->bytecode(), req.mainClass, req.maxSteps);
    ProfileResult result;
    result.stdoutText = profiler.programOutput();
    result.records = profiler.records();
    return renderProfileResponse(req, cached, result);
  } catch (const ProtocolError& e) {
    tenantCounter(req.tenant, "errors").add();
    return renderErrorResponse(req.id, e.code(), e.what());
  } catch (const CancelledError& e) {
    // The watchdog or the reader armed this job's token mid-run (or
    // before it started). Record how long the cancel took to land —
    // poll-to-unwind latency, the number that proves the fused fast path
    // doesn't starve cancellation — and answer with the typed code. The
    // messages depend only on the request, never on timing, so responses
    // stay byte-stable.
    tenantCounter(req.tenant, "cancelled").add();
    if (ctx != nullptr) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - ctx->cancelledAt)
                          .count();
      cancelLatencyUs_->record(static_cast<std::uint64_t>(us < 0 ? 0 : us));
    }
    if (e.reason() == CancelReason::kDeadline) {
      return renderErrorResponse(
          req.id, ErrorCode::kDeadlineExceeded,
          "deadline exceeded (deadlineMs=" + std::to_string(req.deadlineMs) +
              ")");
    }
    return renderErrorResponse(req.id, ErrorCode::kCancelled,
                               "job cancelled: client disconnected");
  } catch (const jvm::UncaughtException& e) {
    // A MiniJava exception escaped main (Profiler names its class).
    tenantCounter(req.tenant, "errors").add();
    return renderErrorResponse(req.id, ErrorCode::kUncaughtException,
                               e.what());
  } catch (const Error& e) {
    // VM aborts (step limit, runtime error) and main-class ambiguity.
    tenantCounter(req.tenant, "errors").add();
    return renderErrorResponse(req.id, ErrorCode::kRuntimeError, e.what());
  } catch (const std::exception& e) {
    tenantCounter(req.tenant, "errors").add();
    return renderErrorResponse(req.id, ErrorCode::kInternal, e.what());
  } catch (...) {
    // Last resort: whatever escaped, the job still gets exactly one
    // response and its admission slot back.
    tenantCounter(req.tenant, "errors").add();
    return renderErrorResponse(req.id, ErrorCode::kInternal,
                               "internal error: unknown exception");
  }
}

void Daemon::writeLine(const std::shared_ptr<Connection>& conn,
                       const std::string& line) {
  std::lock_guard lock(conn->writeMu);
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const long n =
        conn->stream->write(framed.data() + sent, framed.size() - sent);
    if (n <= 0) return;  // client went away; its loss
    sent += static_cast<std::size_t>(n);
  }
  conn->lastWriteNs.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_release);
}

obs::Counter& Daemon::tenantCounter(const std::string& tenant,
                                    const char* what) {
  return obs::Registry::global().counter("jepod.tenant." +
                                         sanitizeTenant(tenant) + "." + what);
}

obs::Histogram& Daemon::tenantLatency(const std::string& tenant) {
  return obs::Registry::global().histogram(
      "jepod.tenant." + sanitizeTenant(tenant) + ".latencyUs");
}

// ---------------------------------------------------------------------------
// SignalDrain

namespace {
// The write end of the self-pipe, visible to the async handler. -1 when no
// SignalDrain is live.
std::atomic<int> gSignalPipeFd{-1};

void drainSignalHandler(int) {
  const int fd = gSignalPipeFd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

struct sigaction gPrevTerm;
struct sigaction gPrevInt;
}  // namespace

SignalDrain::SignalDrain(Daemon& daemon) : daemon_(&daemon) {
  JEPO_REQUIRE(::pipe(pipeFds_) == 0, "SignalDrain: pipe() failed");
  gSignalPipeFd.store(pipeFds_[1], std::memory_order_relaxed);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = drainSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, &gPrevTerm);
  ::sigaction(SIGINT, &sa, &gPrevInt);

  watcher_ = std::thread([this] {
    char byte;
    for (;;) {
      const ssize_t n = ::read(pipeFds_[0], &byte, 1);
      if (n > 0) {
        triggered_.store(true, std::memory_order_relaxed);
        daemon_->requestDrain();
        continue;  // keep draining further signals until teardown
      }
      if (n == 0) return;  // write end closed: destructor
      if (errno != EINTR) return;
    }
  });
}

SignalDrain::~SignalDrain() {
  ::sigaction(SIGTERM, &gPrevTerm, nullptr);
  ::sigaction(SIGINT, &gPrevInt, nullptr);
  gSignalPipeFd.store(-1, std::memory_order_relaxed);
  ::close(pipeFds_[1]);  // watcher's read() returns 0
  if (watcher_.joinable()) watcher_.join();
  ::close(pipeFds_[0]);
}

}  // namespace jepo::jepod
