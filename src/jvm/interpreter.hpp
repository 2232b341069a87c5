// Tree-walking interpreter for MiniJava with energy accounting.
//
// Every evaluated node charges the SimMachine's meter with the Ops of
// DESIGN.md's taxonomy — this is how "running the refactored WEKA and
// re-measuring with RAPL" is reproduced: the VM literally executes both
// versions and the energy difference is read back through the simulated
// MSRs. A row-cache on 2-D array access makes column-major traversal
// expensive *emergently* rather than by pattern-matching the source.
//
// The interpreter consumes the resolution substrate (jlang/resolve.hpp):
// frames are flat slot arrays, statics live in one program-wide vector,
// object fields are layout offsets, and call/field sites dispatch through
// monomorphic inline caches. The charge sequence, printed output and
// error strings are bit-identical to the pre-resolution engine — only
// host time changes (tests/differential_test.cpp holds the goldens).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "energy/machine.hpp"
#include "jlang/ast.hpp"
#include "jlang/resolve.hpp"
#include "jvm/builtins.hpp"
#include "jvm/engine.hpp"
#include "jvm/gc.hpp"
#include "jvm/heap.hpp"
#include "jvm/value.hpp"
#include "support/cancel.hpp"

namespace jepo::jvm {

class Interpreter {
 public:
  Interpreter(const jlang::Program& program, energy::SimMachine& machine);
  /// The interpreter keeps a pointer to the program; a temporary would
  /// dangle before the first run.
  Interpreter(jlang::Program&&, energy::SimMachine&) = delete;

  /// Install (or clear, with nullptr) method hooks. Not owned. The hooks'
  /// tier gate is hoisted here so per-call tier checks are one pointer
  /// test, not a virtual call.
  void setHooks(MethodHooks* hooks) {
    hooks_ = hooks;
    tier_ = hooks != nullptr ? hooks->tierGate() : nullptr;
  }

  /// Abort with VmError once this many statements/expressions have executed
  /// (runaway-loop guard for tests). 0 disables the limit.
  void setMaxSteps(std::uint64_t maxSteps) { maxSteps_ = maxSteps; }

  /// Install (or clear, with nullptr) a cooperative cancel token, polled at
  /// the per-step boundary step() already owns. A fired token unwinds with
  /// CancelledError through the same abort path as the step limit, so
  /// partially-executed methods flush as truncated records. Host-time-only:
  /// a token that never fires leaves every observable bit-identical.
  void setCancelToken(const CancelToken* token) { cancel_ = token; }

  /// Run `static void main(String[] args)`. If mainClass is empty the
  /// program must contain exactly one main class (JEPO prompts the user
  /// otherwise; the API surfaces that as an error listing the candidates).
  Value runMain(std::string_view mainClass = {});

  /// Call a static method directly (test/bench entry point).
  Value callStatic(std::string_view className, std::string_view methodName,
                   std::vector<Value> args);

  /// Everything println'd so far.
  const std::string& output() const noexcept { return out_; }

  Heap& heap() noexcept { return heap_; }
  energy::SimMachine& machine() noexcept { return *machine_; }

  /// Heap-object limit that arms the mark-compact collector (0 = never
  /// collect, the seed behaviour). Defaults to env JEPO_HEAP_LIMIT.
  void setHeapLimit(std::size_t objects) { gc_.setLimit(objects); }
  Gc& gc() noexcept { return gc_; }

  /// Allocate a VM string (for building argument lists in tests).
  Value makeString(std::string s) {
    return Value::ofRef(heap_.allocString(std::move(s)));
  }

  /// Human-readable rendering used by println and by tests.
  std::string display(const Value& v) const { return builtins_.display(v); }

 private:
  struct Frame {
    const jlang::ClassDecl* cls = nullptr;
    Value thisValue;  // null for static frames
    // Flat slot array: params at 0..n-1, then every declared local in
    // resolution order (MethodDecl::numSlots total).
    std::vector<Value> locals;
  };

  /// Monomorphic inline cache at one instance-call site.
  struct CallCache {
    std::int32_t classId = -1;
    const jlang::ClassDecl* cls = nullptr;
    const jlang::MethodDecl* method = nullptr;
  };

  /// Monomorphic inline cache at one instance-field site.
  struct FieldCache {
    const jlang::ClassLayout* layout = nullptr;
    std::int32_t offset = -1;
  };

  enum class Flow { kNormal, kBreak, kContinue, kReturn };

  // Statement execution.
  Flow execStmt(const jlang::Stmt& s);
  Flow execBlock(const jlang::Stmt& s);

  // Expression evaluation.
  Value eval(const jlang::Expr& e);
  Value evalBinary(const jlang::Expr& e);
  Value evalUnary(const jlang::Expr& e);
  Value evalAssign(const jlang::Expr& e);
  Value evalTernary(const jlang::Expr& e);
  Value evalCall(const jlang::Expr& e);
  Value evalNew(const jlang::Expr& e);
  Value evalNewArray(const jlang::Expr& e);
  Value evalCast(const jlang::Expr& e);
  Value evalVarRef(const jlang::Expr& e);
  Value evalFieldAccess(const jlang::Expr& e);
  Value evalArrayIndex(const jlang::Expr& e);

  // Lvalue stores (shared by assignment and ++/--).
  void storeTo(const jlang::Expr& target, Value v);

  // Arithmetic with Java promotion rules + energy charging.
  Value arith(jlang::BinOp op, Value a, Value b, int line);
  Value compare(jlang::BinOp op, Value a, Value b);
  Value unboxIfNeeded(Value v);

  // Method machinery.
  Value invoke(const jlang::ClassDecl& cls, const jlang::MethodDecl& m,
               Value thisValue, std::vector<Value> args);
  Value construct(const std::string& className, std::vector<Value> args,
                  int line);
  Value constructResolved(const jlang::ResolvedClass& rc,
                          std::vector<Value> args);

  // Class initialization: by resolved id (hot) or by name (entry points,
  // unresolved fallbacks — a no-op for names that resolve to no class).
  void ensureClassInit(const std::string& className);
  void ensureClassInitById(std::int32_t classId);

  /// Seed-order static lookup: initialize the class, then resolve the
  /// field to its global slot. nullptr when the class has no such static.
  Value* findStaticByName(const std::string& className,
                          const std::string& field);
  /// Global-slot static access after classId-init (slot < 0: the resolver
  /// proved the field missing — init still ran, as it would have).
  Value* staticAt(std::int32_t classId, std::int32_t slot);

  std::vector<Value> evalArgs(const jlang::Expr& call);

  // Exceptions raised by the VM itself (NPE, /0, bounds).
  [[noreturn]] void throwJava(const std::string& className,
                              const std::string& message);

  // Array row-cache (column-traversal penalty; see DESIGN.md §5.1).
  void chargeRowLoad(Ref array, std::int64_t index, bool loadedRowIsArray);

  // Value coercions.
  Value coerceToKind(Value v, ValKind k, int line);
  static ValKind kindOfType(const jlang::TypeRef& t);

  void step();
  void charge(energy::Op op, std::uint64_t n = 1) {
    machine_->charge(op, n);
  }

  // Precise GC roots: frames (this + locals), the in-flight return value,
  // static slots and the lazy literal pool. Temporaries live across
  // safepoints register through Gc scoped guards at their use sites.
  void scanGcRoots(Gc::RootWalker& w);

  const std::string& stringAt(Ref r) const;

  const jlang::Program* program_;
  std::shared_ptr<const jlang::Resolution> resolution_;
  energy::SimMachine* machine_;
  Heap heap_;
  std::string out_;  // declared before builtins_, which holds a reference
  BuiltinLibrary builtins_;
  MethodHooks* hooks_ = nullptr;
  TierGate* tier_ = nullptr;  // hoisted from hooks_->tierGate()

  std::deque<Frame> frames_;
  Value returnValue_;

  // Flat execution state, all indexed by resolver-assigned ids. Engine-
  // owned (not stored on the shared Resolution) so concurrent interpreters
  // over one Program never share mutable state.
  std::vector<Value> statics_;              // global static slots
  std::vector<char> classInitDone_;         // by classId
  std::vector<Ref> literalPool_;            // by strId (lazy, kNullRef)
  std::vector<std::vector<Value>> objectTemplates_;  // default fields
  std::vector<CallCache> callCaches_;       // by Expr::cacheSlot
  std::vector<FieldCache> fieldCaches_;     // by Expr::cacheSlot

  std::uint64_t steps_ = 0;
  std::uint64_t maxSteps_ = 0;
  const CancelToken* cancel_ = nullptr;

  // Row cache for the 2-D locality model.
  Ref lastRowArray_ = 0xFFFFFFFF;
  std::int64_t lastRowIndex_ = -1;

  // Declared after every root container it scans; collects only at the
  // execStmt safepoint.
  Gc gc_;

  static constexpr Ref kNullRef = 0xFFFFFFFF;
  static constexpr std::size_t kMaxFrames = 512;
};

}  // namespace jepo::jvm
