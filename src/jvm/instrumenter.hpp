// Method-granularity energy instrumentation.
//
// JEPO injects bytecode (via Javassist) that reads the RAPL MSRs and a
// timestamp at the start and end of every method, then dumps one record per
// execution into result.txt. The Instrumenter is that injected code: it
// hooks method entry/exit, reads the energy-status registers through
// RaplReader (the wraparound-correct path), and emits one MethodRecord per
// execution — nested and recursive calls measure inclusively, exactly like
// JEPO's injected reads.
//
// Robustness: every register read goes through the reader's bounded retry,
// and each MethodRecord carries a MeasurementQuality — a domain that is
// permanently absent degrades that record's column to 0 J (kDegraded), a
// read whose retry budget is exhausted marks the record kInvalid, and
// absorbed transient errors mark it kRetried. The device-override
// constructor lets chaos tests interpose a fault::FaultyMsrDevice between
// the machine and the instrumenter.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "energy/machine.hpp"
#include "jvm/engine.hpp"
#include "jvm/tier.hpp"
#include "rapl/quality.hpp"
#include "rapl/rapl.hpp"

namespace jepo::jvm {

/// One method execution, as JEPO stores it in result.txt.
struct MethodRecord {
  std::string method;      // Class.method
  double seconds = 0.0;    // execution time
  double packageJoules = 0.0;
  double coreJoules = 0.0;
  double dramJoules = 0.0;
  /// The method never exited: the VM aborted (step limit, runtime error)
  /// while it was still on the stack, and the record measures only up to
  /// the abort point.
  bool truncated = false;
  /// Trust tag for the energy columns (the seconds column is always
  /// trustworthy — it comes from the machine clock, not the MSRs).
  rapl::MeasurementQuality quality = rapl::MeasurementQuality::kOk;
  /// Transient read errors absorbed producing this record.
  int readRetries = 0;
  /// Instrumentation tier this record was captured under. kFull records
  /// measure every invocation; kSampled/kHot records represent
  /// 1/samplingRate invocations each (count-weighted extrapolation).
  InstrTier tier = InstrTier::kFull;
  /// Effective per-method sampling rate — instrumented / total invocations
  /// of this record's method, stamped by finalizeSampling(). 1.0 under
  /// full instrumentation.
  double samplingRate = 1.0;
};

class Instrumenter final : public MethodHooks {
 public:
  explicit Instrumenter(energy::SimMachine& machine);

  /// Read the MSRs through `device` instead of the machine's own register
  /// file — the seam chaos tests use to inject faults into the profiling
  /// path. `device` must outlive the instrumenter.
  Instrumenter(energy::SimMachine& machine, const rapl::MsrDevice& device);

  void onEnter(const MethodRef& method) override;
  /// Balance check compares the interned method id (two integer/pointer
  /// compares); the qualified name is only rendered if the check fails.
  void onExit(const MethodRef& method) override;
  TierGate* tierGate() noexcept override { return gate_.get(); }

  /// Select the instrumentation tier for the next run. A non-full spec
  /// installs a TierGate seeded with `seed` — which invocations are
  /// measured is then a pure function of (seed, interned method id,
  /// invocation ordinal). Must be called before the run and before
  /// Interpreter/BytecodeVm::setHooks (the engines hoist the gate
  /// pointer there). A kFull spec uninstalls the gate: the dispatch and
  /// records are bit-identical to the untiered seed behaviour.
  void setTier(const TierSpec& spec, std::uint64_t seed = 0);
  const TierSpec& tierSpec() const noexcept { return tierSpec_; }

  /// Stamp every record with its method's effective sampling rate and
  /// expose population counts. Call once after the run (and after
  /// unwindAbortedFrames on an aborted run). Idempotent; a no-op under
  /// full instrumentation.
  void finalizeSampling();

  /// Per-method population counts from the gate (empty under full
  /// instrumentation): total invocations vs instrumented invocations —
  /// the scaling weights for count-weighted extrapolation.
  std::vector<TierGate::MethodStat> tierStats() const {
    return gate_ != nullptr ? gate_->stats()
                            : std::vector<TierGate::MethodStat>{};
  }

  /// One record per completed method execution, in completion order.
  const std::vector<MethodRecord>& records() const noexcept {
    return records_;
  }

  /// Frames whose onExit never fired (the interpreter aborted mid-method).
  bool hasOpenFrames() const noexcept { return !stack_.empty(); }

  /// Unwind every open frame into a `truncated` record, innermost first
  /// (matching completion order: the deepest call "ends" first as the VM
  /// dies). Call after catching a VM abort; afterwards the instrumenter is
  /// balanced again and safe to reuse. Without this, stale frames would
  /// trip the "unbalanced method hooks" check on the next run and the
  /// partially-executed methods would vanish from the result file.
  ///
  /// Under a sampling tier only *instrumented* open frames exist here —
  /// an open invocation whose entry was unsampled has no armed MSR
  /// snapshot and produces no record; it unwinds to a population-counter
  /// decrement in the gate (TierGate::reconcileAborted), keeping the
  /// effective sampling rates honest.
  void unwindAbortedFrames();

  void clear();

 private:
  /// Snapshot of one domain's counter at method entry. A failed arm read
  /// is remembered (rather than thrown) so the frame can still complete
  /// with a degraded/invalid record.
  struct ArmSample {
    std::uint32_t raw = 0;
    bool ok = false;
    rapl::MeasurementQuality failQuality = rapl::MeasurementQuality::kOk;
  };

  ArmSample armDomain(rapl::Domain d, int* retries) const;
  MethodRecord closeFrame(bool truncated);

  struct OpenFrame {
    // Interned id + stable name pointer: opening a frame copies no string;
    // the record's name is materialized once, when the frame closes.
    MethodRef method;
    double startSeconds = 0.0;
    ArmSample pkg;
    ArmSample core;
    ArmSample dram;
    int retries = 0;
  };

  energy::SimMachine* machine_;
  rapl::RaplReader reader_;
  std::vector<OpenFrame> stack_;
  std::vector<MethodRecord> records_;
  // Interned method id of each record, parallel to records_ — the key
  // finalizeSampling() uses to look up per-method effective rates.
  std::vector<std::uint32_t> recordIds_;
  TierSpec tierSpec_;
  std::unique_ptr<TierGate> gate_;
};

}  // namespace jepo::jvm
