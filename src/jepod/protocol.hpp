// The jepod wire protocol: newline-delimited JSON over a Unix socket.
//
// One request line in, one response line out, correlated by the caller's
// "id" (responses to pipelined requests arrive in *completion* order, so
// the id is the only correlation). Every message carries the schema
// version ("v": 1); the daemon rejects other versions with a typed error
// instead of guessing.
//
// Request (profile — suggest/optimize take the same envelope):
//   {"v":1, "id":"job-1", "tenant":"edge-a", "command":"profile",
//    "source":"class Main { ... }", "mainClass":"", "seed":42,
//    "heapLimit":0, "maxSteps":500000000, "faultPlan":""}
//
// Success response:
//   {"v":1, "id":"job-1", "ok":true, "cached":false, "result":{...}}
//
// Error response (code from ErrorCode below; queue-full and
// shutting-down rejects additionally carry "retryAfterMs"):
//   {"v":1, "id":"job-1", "ok":false,
//    "error":{"code":"queue-full", "message":"..."}, "retryAfterMs":10}
//
// Determinism contract: the "result" payload of a profile job is a pure
// function of (source, mainClass, seed, heapLimit, maxSteps, faultPlan,
// tier) — bit-identical to the same program run through jepo_cli profile
// with the same flags, whether the daemon compiled the source fresh or
// served it from the program cache.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jvm/instrumenter.hpp"
#include "support/error.hpp"

namespace jepo::jepod {

inline constexpr int kProtocolVersion = 1;

/// Default runaway-program guard, matching jepo_cli profile.
inline constexpr std::uint64_t kDefaultMaxSteps = 500'000'000;

/// Typed error taxonomy. String values are wire-stable: clients switch on
/// them, tests pin them.
enum class ErrorCode {
  kBadJson,       // request line is not valid JSON
  kBadRequest,    // valid JSON but not a valid request (missing/mistyped
                  // fields, unsupported version)
  kUnknownCommand,
  kParseError,    // MiniJava source failed to parse
  kRuntimeError,  // the profiled program aborted (VM error, step limit)
  kUncaughtException,  // a MiniJava exception escaped main
  kQueueFull,     // admission control rejected the job; retry later
  kShuttingDown,  // daemon is draining; no new jobs
  kDeadlineExceeded,  // the job's deadlineMs elapsed before it finished
  kCancelled,     // the job was cancelled (e.g. its client disconnected)
  kInternal,
};

std::string_view errorCodeName(ErrorCode code) noexcept;

/// A protocol-level failure that maps directly to an error response.
class ProtocolError : public Error {
 public:
  ProtocolError(ErrorCode code, const std::string& message)
      : Error(message), code_(code) {}
  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// A parsed, validated request.
struct JobRequest {
  std::string id;          // caller's correlation token (echoed verbatim)
  std::string tenant;      // per-tenant accounting bucket ("" -> "default")
  std::string command;     // profile | suggest | optimize
  std::string source;      // MiniJava source text
  std::string mainClass;   // "" = the unique main class
  std::uint64_t seed = 0;
  std::uint64_t heapLimit = 0;   // objects before mark-compact; 0 = never
  std::uint64_t maxSteps = kDefaultMaxSteps;
  std::string faultPlan;   // --fault-plan spec; "" = clean MSR path
  /// Server-side deadline in milliseconds; 0 = none. Measured from
  /// admission (so a job stuck in the queue counts against it). On expiry
  /// the daemon cancels the job cooperatively and responds with a typed
  /// "deadline-exceeded" error. Wall-clock scheduling only — a job that
  /// finishes in time is bit-identical with or without a deadline.
  std::uint64_t deadlineMs = 0;
  /// Instrumentation tier spec for profile jobs: "" or "full" (every
  /// invocation instrumented — the pre-tier wire behaviour), "sampled:N"
  /// or "hot:T" (jvm/tier.hpp). Validated at parse time; rendered only
  /// when non-default, so pre-tier request bytes are unchanged. Part of
  /// the determinism contract: (source, mainClass, seed, heapLimit,
  /// maxSteps, faultPlan, tier) fully determine the result payload,
  /// byte-identical to jepo_cli profile with --tier.
  std::string tier;
};

/// Parse one request line. Throws ProtocolError(kBadJson) on malformed
/// JSON and ProtocolError(kBadRequest/kUnknownCommand) on schema
/// violations — the daemon renders both as typed responses, never crashes.
JobRequest parseRequest(const std::string& line);

/// Result payload of a profile job (the Profiler's observables, verbatim).
struct ProfileResult {
  std::string stdoutText;
  std::vector<jvm::MethodRecord> records;
};

// --- response rendering (single line, no trailing newline) ---------------

std::string renderProfileResponse(const JobRequest& req, bool cached,
                                  const ProfileResult& result);
std::string renderSuggestResponse(const JobRequest& req, bool cached,
                                  const std::string& view);
struct OptimizeChange {
  std::string className;
  int line = 0;
  std::string description;
};
std::string renderOptimizeResponse(const JobRequest& req, bool cached,
                                   const std::vector<OptimizeChange>& changes,
                                   const std::string& rewrittenSource);
/// retryAfterMs < 0 omits the field (only load-shedding rejects carry it).
std::string renderErrorResponse(const std::string& id, ErrorCode code,
                                const std::string& message,
                                int retryAfterMs = -1);

// --- client-side response view -------------------------------------------

/// A decoded response, as jepod_client / bench_jepod consume it. The raw
/// line is retained so bit-identity tests can compare payloads textually.
struct Response {
  bool ok = false;
  bool cached = false;
  std::string id;
  std::string errorCode;     // "" when ok
  std::string errorMessage;  // "" when ok
  int retryAfterMs = -1;     // -1 when absent
  ProfileResult profile;     // filled for profile responses
  std::string view;          // filled for suggest responses
  std::string rewrittenSource;  // filled for optimize responses
  std::string raw;
};

/// Parse a response line (throws Error on malformed/unversioned lines —
/// a daemon bug, not a user input path).
Response parseResponse(const std::string& line);

/// Render a request as a wire line (no trailing newline).
std::string renderRequest(const JobRequest& req);

}  // namespace jepo::jepod
