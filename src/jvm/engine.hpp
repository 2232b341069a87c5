// The engine-neutral execution interface: what both MiniJava engines (the
// bytecode VM that serves every profile job, and the tree interpreter the
// tests keep as its oracle) raise and call out to — a Java exception in
// flight, the typed form of one that escaped main, and the method hooks
// the Instrumenter implements.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "jlang/ast.hpp"
#include "jvm/heap.hpp"
#include "jvm/value.hpp"
#include "support/error.hpp"

namespace jepo::jvm {

/// A Java exception in flight (propagated as a C++ exception).
struct Thrown {
  Value exception;  // ref to a heap object whose className names the type
};

/// A MiniJava exception that escaped main, described while its heap is
/// still alive ("uncaught exception <Class>: <message>"). Profile jobs
/// surface it as a typed error; unlike Thrown it is a std::exception, so
/// every catch ladder sees it.
class UncaughtException : public VmError {
 public:
  UncaughtException(const Thrown& thrown, const Heap& heap);
  const std::string& className() const noexcept { return className_; }

 private:
  UncaughtException(std::string className, const std::string& message)
      : VmError(message), className_(std::move(className)) {}
  static UncaughtException describe(const Thrown& thrown, const Heap& heap);

  std::string className_;
};

/// Identity of an executing method as the hooks see it: the interned
/// program-wide method id plus a pointer into the resolution's stable
/// id -> qualified-name table. Comparing two refs is two integer/pointer
/// compares; the name is only ever *read*, never rebuilt, on the hot path.
struct MethodRef {
  std::uint32_t id = jlang::kNoName;
  const std::string* qualifiedName = nullptr;

  const std::string& name() const { return *qualifiedName; }
  bool operator==(const MethodRef& o) const noexcept {
    return id == o.id && qualifiedName == o.qualifiedName;
  }
};

class TierGate;

/// Method entry/exit callbacks — the seam where the Instrumenter injects
/// the RAPL-reading profiler (the analog of JEPO's Javassist bytecode).
class MethodHooks {
 public:
  virtual ~MethodHooks() = default;
  virtual void onEnter(const MethodRef& method) = 0;
  virtual void onExit(const MethodRef& method) = 0;

  /// Sampling gate for tiered instrumentation (jvm/tier.hpp), or nullptr
  /// for full instrumentation. Engines hoist this once at setHooks time
  /// and branch on the pointer per call — never a virtual call on the
  /// unsampled path. nullptr keeps the seed-exact full-instrumentation
  /// dispatch.
  virtual TierGate* tierGate() noexcept { return nullptr; }
};

}  // namespace jepo::jvm
