#include "jbc/bcvm.hpp"

#include <type_traits>

#include "jvm/ops.hpp"
#include "jvm/tier.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

// Dispatch strategy. Computed goto ("labels as values", a GNU extension
// GCC and Clang both support) keeps one indirect branch per opcode handler,
// so the host branch predictor learns per-opcode successor patterns instead
// of sharing one mispredicting switch branch. -DJEPO_NO_COMPUTED_GOTO (or a
// different compiler) selects a portable switch loop over the exact same
// handler bodies; both paths are built in CI.
#if !defined(JEPO_NO_COMPUTED_GOTO) && (defined(__GNUC__) || defined(__clang__))
#define JEPO_COMPUTED_GOTO 1
#endif

namespace jepo::jbc {

using jvm::BuiltinLibrary;
using jvm::HeapObject;
using jvm::ObjKind;
using jvm::Ref;
using jvm::Thrown;
using jvm::ValKind;
using jvm::Value;

namespace {

/// Adds one VM run's step and heap-allocation deltas to the global obs
/// counters, in the tree's units and at the tree's points (once per
/// completed entry-point call).
void flushVmCounters(std::uint64_t stepsDelta, std::size_t heapDelta) {
  static obs::Counter& steps = obs::Registry::global().counter("vm.steps");
  static obs::Counter& heapObjects =
      obs::Registry::global().counter("vm.heap.objects");
  steps.add(stepsDelta);
  heapObjects.add(heapDelta);
}

#if defined(__GNUC__) || defined(__clang__)
#define JEPO_FORCE_INLINE __attribute__((always_inline)) inline
#define JEPO_LAMBDA_INLINE __attribute__((always_inline))
#else
#define JEPO_FORCE_INLINE inline
#define JEPO_LAMBDA_INLINE
#endif

/// int×int binary fast path, bit-exact with applyBinary (ops.cpp): for two
/// kInt operands unboxIfNeeded is the identity and charges nothing, there
/// is no sub-int widening charge, the promoted kind is kInt, and the string
/// / reference-equality / boolean special cases never apply. Operators it
/// does not cover (none reach it today) fall back to applyBinary.
JEPO_FORCE_INLINE Value intBinary(jlang::BinOp op, const Value& a,
                                  const Value& b, jvm::Heap& heap,
                                  BuiltinLibrary& lib,
                                  energy::SimMachine& machine, int line) {
  const std::int64_t x = a.asInt();
  const std::int64_t y = b.asInt();
  bool cmp = false;
  std::int64_t r = 0;
  switch (op) {
    case jlang::BinOp::kLt: cmp = x < y; goto compared;
    case jlang::BinOp::kGt: cmp = x > y; goto compared;
    case jlang::BinOp::kLe: cmp = x <= y; goto compared;
    case jlang::BinOp::kGe: cmp = x >= y; goto compared;
    case jlang::BinOp::kEq: cmp = x == y; goto compared;
    case jlang::BinOp::kNe: cmp = x != y; goto compared;
    case jlang::BinOp::kAdd:
      machine.charge(energy::Op::kIntAlu);
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) +
                                    static_cast<std::uint64_t>(y));
      break;
    case jlang::BinOp::kSub:
      machine.charge(energy::Op::kIntAlu);
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) -
                                    static_cast<std::uint64_t>(y));
      break;
    case jlang::BinOp::kMul:
      machine.charge(energy::Op::kIntAlu);
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) *
                                    static_cast<std::uint64_t>(y));
      break;
    case jlang::BinOp::kDiv:
      machine.charge(energy::Op::kIntDiv);  // charged before the zero check,
      if (y == 0) lib.throwJava("ArithmeticException", "/ by zero");
      r = x / y;                            // exactly as arith() does
      break;
    case jlang::BinOp::kMod:
      machine.charge(energy::Op::kIntMod);
      if (y == 0) lib.throwJava("ArithmeticException", "% by zero");
      r = x % y;
      break;
    case jlang::BinOp::kBitAnd:
      machine.charge(energy::Op::kIntAlu);
      r = x & y;
      break;
    case jlang::BinOp::kBitOr:
      machine.charge(energy::Op::kIntAlu);
      r = x | y;
      break;
    case jlang::BinOp::kBitXor:
      machine.charge(energy::Op::kIntAlu);
      r = x ^ y;
      break;
    case jlang::BinOp::kShl:
      machine.charge(energy::Op::kIntAlu);
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) << (y & 31));
      break;
    case jlang::BinOp::kShr:
      machine.charge(energy::Op::kIntAlu);
      r = x >> (y & 31);
      break;
    default:
      return jvm::applyBinary(op, a, b, heap, lib, machine, line);
  }
  // wrapToKind(r, kInt) inlined: sign-extended int32 truncation.
  return Value::ofInt(static_cast<std::int64_t>(static_cast<std::int32_t>(r)));
compared:
  machine.charge(energy::Op::kIntAlu);
  return Value::ofBool(cmp);
}

/// coerceToKind with its identity head (same kind, or a kRef target)
/// inlined at the call site. Bit-exact: these are the first two lines of
/// jvm::coerceToKind, which charge nothing.
JEPO_FORCE_INLINE Value coerceInline(const Value& v, ValKind k,
                                     BuiltinLibrary& lib, int line) {
  if (v.kind == k || k == ValKind::kRef) return v;
  return jvm::coerceToKind(v, k, lib, line);
}

/// Decrements the frame depth on every exit path.
struct DepthGuard {
  std::size_t* depth;
  ~DepthGuard() { --*depth; }
};

#if defined(__GNUC__) || defined(__clang__)
#define JEPO_COLD __attribute__((noinline, cold))
#else
#define JEPO_COLD
#endif

template <typename Piece>
void appendPiece(std::string& message, const Piece& piece) {
  if constexpr (std::is_integral_v<Piece>) {
    message += std::to_string(piece);
  } else {
    message += piece;
  }
}

template <typename... Pieces>
std::string concat(const Pieces&... pieces) {
  std::string message;
  (appendPiece(message, pieces), ...);
  return message;
}

// Error raisers for the dispatch loop's cold paths. Building messages out
// of line keeps their temporaries out of run()'s frame, which recurses
// once per MiniJava call.
template <typename... Pieces>
[[noreturn]] JEPO_COLD void raiseVmError(const Pieces&... pieces) {
  throw VmError(concat(pieces...));
}

template <typename... Pieces>
[[noreturn]] JEPO_COLD void raiseJava(BuiltinLibrary& lib, const char* cls,
                                      const Pieces&... pieces) {
  lib.throwJava(cls, concat(pieces...));
}

}  // namespace

BytecodeVm::BytecodeVm(const CompiledProgram& program,
                       energy::SimMachine& machine)
    : program_(&program),
      resolution_(program.resolution),
      machine_(&machine),
      builtins_(heap_, machine, out_,
                [this](const std::string& name) {
                  return resolution_->classIdOf(name) >= 0;
                }),
      gc_(heap_, [this](jvm::Gc::RootWalker& w) { scanGcRoots(w); }) {
  gc_.setLimit(jvm::Gc::limitFromEnv());
  gc_.setPostCompact([this] {
    // A recycled Ref must not resurrect a stale row-cache hit: remap the
    // cached row if it survived, otherwise invalidate the cache.
    if (lastRowArray_ != kNullRef) lastRowArray_ = gc_.remap(lastRowArray_);
  });
  JEPO_REQUIRE(resolution_ != nullptr,
               "CompiledProgram carries no resolution (use jbc::compile)");
  const jlang::Resolution& res = *resolution_;
  statics_.assign(static_cast<std::size_t>(res.staticCount), Value::null());
  classInitDone_.assign(res.classes.size(), 0);
  literalPool_.assign(res.stringLiterals.size(), kNullRef);
  callCaches_.assign(static_cast<std::size_t>(res.numCallCaches),
                     CallCacheEntry{});
  fieldCaches_.assign(static_cast<std::size_t>(res.numFieldCaches),
                      FieldCacheEntry{});
  classById_.assign(res.classes.size(), nullptr);
  methodChunks_.resize(res.classes.size());
  staticDefaults_.resize(res.classes.size());
  objectTemplates_.resize(res.classes.size());
  ctorById_.assign(res.classes.size(), nullptr);
  for (std::size_t i = 0; i < program.names.size(); ++i) {
    if (program.names[i] == "length") {
      lengthName_ = static_cast<std::int32_t>(i);
      break;
    }
  }
  for (std::size_t id = 0; id < res.classes.size(); ++id) {
    const jlang::ResolvedClass& rc = res.classes[id];
    // Shadowed duplicate class names never execute (findClass returns the
    // first); leave their rows empty.
    if (res.classIdOf(rc.layout.className) != static_cast<std::int32_t>(id)) {
      continue;
    }
    const CompiledClass* cls = program.findClass(rc.layout.className);
    if (cls == nullptr) continue;
    classById_[id] = cls;
    auto& chunks = methodChunks_[id];
    chunks.reserve(rc.methods.size());
    for (const auto& rm : rc.methods) {
      const auto it = cls->methods.find(rm.decl->name);
      chunks.push_back(it == cls->methods.end() ? nullptr : &it->second);
    }
    if (rc.ctor != nullptr) {
      const auto it = cls->methods.find(rc.ctor->name);
      if (it != cls->methods.end()) ctorById_[id] = &it->second;
    }
    for (const CompiledField& f : cls->fields) {
      if (f.isStatic) {
        const int idx = rc.staticIndexOf(f.name);
        if (idx >= 0) {
          staticDefaults_[id].emplace_back(rc.staticSlots[idx], f.kind);
        }
      }
    }
    for (const jlang::TypeRef& t : rc.layout.fieldTypes) {
      objectTemplates_[id].push_back(
          jvm::Heap::defaultValue(jvm::kindOfType(t)));
    }
  }
}

void BytecodeVm::throwStepLimit() const {
  throw VmError("step limit exceeded (" + std::to_string(maxSteps_) +
                "): possible runaway loop");
}

void BytecodeVm::throwCancelled() const {
  throw CancelledError(cancel_->reason());
}

void BytecodeVm::chargeRowLoad(Ref array, std::int64_t index,
                               bool rowIsArray) {
  if (!rowIsArray) {
    charge(energy::Op::kArrayAccess);
    return;
  }
  // Loading a row object of a 2-D array: consecutive hits on the same row
  // stay in the row cache; column-major traversal misses every time.
  if (array == lastRowArray_ && index == lastRowIndex_) {
    charge(energy::Op::kArrayAccess);
  } else {
    charge(energy::Op::kArrayRowLoad);
  }
  lastRowArray_ = array;
  lastRowIndex_ = index;
}

void BytecodeVm::ensureClassInit(const std::string& className) {
  ensureClassInitById(resolution_->classIdOf(className));
}

void BytecodeVm::ensureClassInitById(std::int32_t classId) {
  if (classId < 0) return;
  const auto idx = static_cast<std::size_t>(classId);
  if (classInitDone_[idx] != 0) return;
  classInitDone_[idx] = 1;  // marked before <clinit>: recursion guard
  const CompiledClass* cls = classById_[idx];
  if (cls == nullptr) return;
  for (const auto& [slot, kind] : staticDefaults_[idx]) {
    statics_[static_cast<std::size_t>(slot)] = jvm::Heap::defaultValue(kind);
  }
  if (!cls->clinit.code.empty()) {
    runInitializers(*cls, cls->clinit, Value::null());
  }
}

jvm::Value* BytecodeVm::findStaticByName(const std::string& className,
                                         const std::string& fieldName) {
  // Seed order: initialization (and its charges) happens before the
  // lookup can fail.
  const std::int32_t id = resolution_->classIdOf(className);
  ensureClassInitById(id);
  if (id < 0) return nullptr;
  const jlang::ResolvedClass& rc =
      resolution_->classes[static_cast<std::size_t>(id)];
  const int idx = rc.staticIndexOf(fieldName);
  if (idx < 0) return nullptr;
  return &statics_[static_cast<std::size_t>(rc.staticSlots[idx])];
}

jvm::Value BytecodeVm::allocArray(const std::vector<std::int64_t>& dims,
                                  std::size_t level, ValKind leafKind) {
  const bool innermost = level + 1 == dims.size();
  const ValKind ek = innermost ? leafKind : ValKind::kRef;
  const auto n = static_cast<std::size_t>(dims[level]);
  charge(energy::Op::kAllocObject);
  charge(energy::Op::kAllocArrayPerElem, n);
  const Ref r = heap_.allocArray(n, ek);
  if (!innermost) {
    for (std::size_t i = 0; i < n; ++i) {
      const Value child = allocArray(dims, level + 1, leafKind);
      heap_.get(r).elems[i] = child;
    }
  }
  return Value::ofRef(r);
}

jvm::Value BytecodeVm::construct(const std::string& className,
                                 std::vector<Value>& args, int line) {
  // Builtin constructors (StringBuilder, String, undeclared exception-style
  // classes) win, as in the tree.
  Value builtinResult;
  if (builtins_.construct(className, args, &builtinResult)) {
    return builtinResult;
  }
  const std::int32_t id = resolution_->classIdOf(className);
  if (id < 0 || classById_[static_cast<std::size_t>(id)] == nullptr) {
    throw VmError("unknown class " + className + " at line " +
                  std::to_string(line));
  }
  return constructById(id, args.data(), args.size());
}

jvm::Value BytecodeVm::constructById(std::int32_t classId, const Value* args,
                                     std::size_t argc) {
  const auto idx = static_cast<std::size_t>(classId);
  const CompiledClass& cls = *classById_[idx];
  const jlang::ResolvedClass& rc = resolution_->classes[idx];
  charge(energy::Op::kAllocObject);
  // Callers keep args in rooted storage across the <clinit>, initializer
  // and constructor safepoints; the fresh object is only reachable through
  // `r` until the constructor returns it.
  ensureClassInitById(classId);
  Ref r = heap_.allocObject(cls.name, rc.layout);
  jvm::Gc::ScopedRef rootR(gc_, r);
  heap_.get(r).fields = objectTemplates_[idx];
  if (!cls.initFields.code.empty()) {
    runInitializers(cls, cls.initFields, Value::ofRef(r));
  }
  if (rc.ctor != nullptr) {
    invoke(cls, *ctorById_[idx], Value::ofRef(r), args, argc);
  } else if (argc != 0) {
    throw VmError("class " + cls.name + " has no constructor taking args");
  }
  return Value::ofRef(r);
}

BytecodeVm::Frame& BytecodeVm::acquireFrame(const Chunk& chunk) {
  if (frameDepth_ >= framePool_.size()) {
    framePool_.push_back(std::make_unique<Frame>());
  }
  Frame& f = *framePool_[frameDepth_];
  const auto nSlots = static_cast<std::size_t>(chunk.numSlots);
  // +1: a safety margin over the dataflow bound.
  const auto nStack = static_cast<std::size_t>(chunk.maxStack) + 1;
  if (f.slots.size() < nSlots) f.slots.resize(nSlots);
  if (f.stack.size() < nStack) f.stack.resize(nStack);
  std::fill(f.slots.data(), f.slots.data() + nSlots, Value());
  f.liveSlots = nSlots;
  f.top = 0;
  return f;
}

jvm::Value BytecodeVm::invoke(const CompiledClass& cls, const Chunk& chunk,
                              Value thisV, const Value* args,
                              std::size_t argc) {
  if (frameDepth_ >= kMaxFrames) {
    throwJava("StackOverflowError", chunk.qualifiedName);
  }
  if (argc != chunk.paramKinds.size()) {
    throw VmError("wrong argument count for " + chunk.qualifiedName);
  }
  Frame& frame = acquireFrame(chunk);
  frame.thisV = thisV;
  // Parameter slots are filled below, after onEnter (the tree's order);
  // until then the arguments stay rooted in the caller's storage, and no
  // safepoint can run in between.
  ++frameDepth_;
  DepthGuard depth{&frameDepth_};

  const jvm::MethodRef ref{chunk.methodId,
                           &resolution_->methodNames[chunk.methodId]};
  // Tier dispatch: a branch on the hoisted gate pointer. No gate (full
  // instrumentation) takes the seed-exact path; an unsampled entry pays
  // the gate's counter increment and skips both hook calls.
  enum : std::uint8_t { kOff, kOn, kCounted } hookMode = kOff;
  if (hooks_ != nullptr) {
    hookMode = (tier_ == nullptr || tier_->enter(ref)) ? kOn : kCounted;
  }
  if (hookMode == kOn) hooks_->onEnter(ref);
  const bool tracing = obs::enabled();
  if (tracing) obs::beginSpan(*ref.qualifiedName);

  // Hook contract (as in the tree): onExit runs for normal returns and for
  // Java exceptions unwinding through the method; a VM abort (step limit,
  // cancel, runtime error) leaves the hook's frame open for
  // Instrumenter::unwindAbortedFrames to flush as a truncated record.
  try {
    Value* const slots = frame.slots.data();
    for (std::size_t i = 0; i < argc; ++i) {
      const Value v = coerceInline(args[i], chunk.paramKinds[i], builtins_,
                                   chunk.line);
      charge(energy::Op::kLocalAccess);
      slots[i] = v;
    }
    retVal_ = Value::null();
    run(cls, chunk, frame);
    charge(energy::Op::kReturn);
  } catch (const Thrown&) {
    if (hookMode == kOn) {
      hooks_->onExit(ref);
    } else if (hookMode == kCounted) {
      tier_->exitUnsampled(ref);
    }
    if (tracing) obs::endSpan();
    throw;
  } catch (...) {
    if (tracing) obs::endSpan();
    throw;
  }
  const Value out = retVal_;
  if (hookMode == kOn) {
    hooks_->onExit(ref);
  } else if (hookMode == kCounted) {
    tier_->exitUnsampled(ref);
  }
  if (tracing) obs::endSpan();
  return out;
}

void BytecodeVm::runInitializers(const CompiledClass& cls, const Chunk& chunk,
                                 Value thisV) {
  Frame& frame = acquireFrame(chunk);
  frame.thisV = thisV;
  ++frameDepth_;
  DepthGuard depth{&frameDepth_};
  run(cls, chunk, frame);
}

// The handlers below own vectors or scoped GC roots, so they run out of
// line: every RAII object is destroyed before the handler dispatches onward
// (computed goto skips destructors), and run()'s own frame — one per
// MiniJava call — stays small. Their operands stay on the caller's stack.

jvm::Value BytecodeVm::newArray(const Instr& in, const Value* dimValues) {
  std::vector<std::int64_t> dims(static_cast<std::size_t>(in.a));
  for (std::size_t i = 0; i < dims.size(); ++i) dims[i] = dimValues[i].asInt();
  return allocArray(dims, 0, static_cast<ValKind>(in.b));
}

jvm::Value BytecodeVm::newDynamic(const Instr& in, const Value* args) {
  std::vector<Value> argv(args, args + in.b);
  jvm::Gc::ScopedVector rootArgs(gc_, argv);
  return construct(program_->names[static_cast<std::size_t>(in.a)], argv,
                   in.line);
}

jvm::Value BytecodeVm::callBuiltin(const Instr& in, const Value* args) {
  std::vector<Value> argv(args, args + in.c);
  const std::string& cls = program_->names[static_cast<std::size_t>(in.a)];
  const std::string& method = program_->names[static_cast<std::size_t>(in.b)];
  Value result;
  if (!builtins_.staticCall(cls, method, argv, &result)) {
    raiseVmError("unknown method ", cls, ".", method, " at line ", in.line);
  }
  return result;
}

jvm::Value BytecodeVm::invokeVirtualSlow(const Instr& in,
                                         const Value& receiver,
                                         const Value* args) {
  const std::string& method = program_->names[static_cast<std::size_t>(in.a)];
  std::vector<Value> argv(args, args + in.b);
  Value result;
  if (builtins_.instanceCall(receiver, method, argv, &result)) return result;
  const HeapObject& obj = heap_.get(receiver.asRef());
  if (obj.kind != ObjKind::kObject) raiseVmError("method call on non-object");
  const std::int32_t id = resolution_->classIdOf(obj.className);
  if (id < 0 || classById_[static_cast<std::size_t>(id)] == nullptr) {
    raiseVmError("method call on unknown class ", obj.className);
  }
  const jlang::ResolvedClass& rc =
      resolution_->classes[static_cast<std::size_t>(id)];
  const jlang::ResolvedMethod* rm = rc.findMethod(method);
  if (rm == nullptr) {
    raiseVmError("unknown method ", obj.className, ".", method, " at line ",
                 in.line);
  }
  jvm::Gc::ScopedVector rootArgs(gc_, argv);
  Value recv = receiver;
  jvm::Gc::ScopedValue rootRecv(gc_, recv);
  charge(energy::Op::kCall);
  return invoke(*classById_[static_cast<std::size_t>(id)],
                *methodChunks_[static_cast<std::size_t>(id)]
                              [static_cast<std::size_t>(
                                  rc.methodOrdinal(rm->decl))],
                recv, argv.data(), argv.size());
}

void BytecodeVm::run(const CompiledClass& cls, const Chunk& chunk,
                     Frame& frame) {
  const auto& names = program_->names;
  const auto name = [&](std::int32_t idx) -> const std::string& {
    return names[static_cast<std::size_t>(idx)];
  };

  const Instr* const codeBase = chunk.code.data();
  const Instr* ip = codeBase;
  Value* const slots = frame.slots.data();
  Value* const stackBase = frame.stack.data();
  Value* sp = stackBase;

  const auto pop = [&]() -> Value {
    JEPO_ASSERT(sp > stackBase);
    return *--sp;
  };
  const auto binary = [&](jlang::BinOp op, const Value& a, const Value& b,
                          int line) JEPO_LAMBDA_INLINE -> Value {
    if (a.kind == ValKind::kInt && b.kind == ValKind::kInt) [[likely]] {
      return intBinary(op, a, b, heap_, builtins_, *machine_, line);
    }
    return jvm::applyBinary(op, a, b, heap_, builtins_, *machine_, line);
  };
  // The tree's storeTo(local): charge, then narrow to the local's current
  // kind when both values are numeric.
  const auto storeLocal = [&](std::int32_t slot, Value v, int line)
                              JEPO_LAMBDA_INLINE {
    Value& local = slots[static_cast<std::size_t>(slot)];
    charge(energy::Op::kLocalAccess);
    if (local.isNumeric() && v.isNumeric()) {
      v = coerceInline(v, local.kind, builtins_, line);
    }
    local = v;
  };
  const auto incDec = [&](std::int32_t op, const Value& old, int line)
                          JEPO_LAMBDA_INLINE -> Value {
    const Value r =
        binary(static_cast<jlang::BinOp>(op), old, Value::ofInt(1), line);
    return coerceInline(r, old.kind, builtins_, line);
  };
  // Resolved program-class call: the arguments are a span on this frame's
  // stack (rooted under frame.top), replaced by the result.
  const auto call = [&](const CompiledClass& target, const Chunk& callee,
                        Value self, std::int32_t argc) {
    charge(energy::Op::kCall);
    const Value result = invoke(target, callee, self, sp - argc,
                                static_cast<std::size_t>(argc));
    sp -= argc;
    *sp++ = result;
  };

  // Step accounting (code.hpp): every step point that takes steps checks
  // the limit and polls the cancel token — the tree's step() — so an abort
  // lands between the same two charges as on the tree. Step points taking
  // no steps cost one test.
  const std::uint64_t maxStepsHoisted = maxStepsEff_;
  const CancelToken* const cancelTok = cancel_;
  const bool gcArmed = gc_.limit() != 0;

#define VM_STEPS(count)                                               \
  do {                                                                \
    const std::uint32_t vmSteps = (count);                            \
    if (vmSteps != 0) {                                               \
      steps_ += vmSteps;                                              \
      if (steps_ > maxStepsHoisted) throwStepLimit();                 \
      if (cancelTok != nullptr && cancelTok->cancelled()) {           \
        throwCancelled();                                             \
      }                                                               \
    }                                                                 \
  } while (0)

// Per-dispatch prologue: the instruction's entry steps, then the GC
// safepoint with the operand-stack height recorded for the root scan — the
// engine's only safepoint, so no builtin, operator helper or allocation
// path can ever collect.
#define VM_TOP()                                                      \
  do {                                                                \
    VM_STEPS(ip->n);                                                  \
    if (gcArmed) {                                                    \
      frame.top = static_cast<std::size_t>(sp - stackBase);           \
      gc_.safepoint();                                                \
    }                                                                 \
  } while (0)

#ifdef JEPO_COMPUTED_GOTO
#define VM_CASE(op) L_##op:
#define VM_DISPATCH()                                                \
  do {                                                               \
    VM_TOP();                                                        \
    goto* kLabels[static_cast<std::size_t>(ip->op)];                 \
  } while (0)
#else
#define VM_CASE(op) case Op::op:
#define VM_DISPATCH() goto jepoDispatchTop
#endif
#define VM_NEXT()                                                    \
  do {                                                               \
    ++ip;                                                            \
    VM_DISPATCH();                                                   \
  } while (0)
#define VM_JUMP(target)                                              \
  do {                                                               \
    ip = codeBase + (target);                                        \
    VM_DISPATCH();                                                   \
  } while (0)

#ifdef JEPO_COMPUTED_GOTO
  // Must list every Op in exact enum order (dispatch indexes by opcode).
  static const void* const kLabels[] = {
      &&L_kStep, &&L_kCharge,
      &&L_kConstInt, &&L_kConstLong, &&L_kConstFloat, &&L_kConstDouble,
      &&L_kConstStr, &&L_kConstChar, &&L_kConstBool, &&L_kConstNull,
      &&L_kPushDefault, &&L_kPushBool,
      &&L_kLoad, &&L_kLoadThis, &&L_kStoreLocal, &&L_kDeclLocal,
      &&L_kGetThisField, &&L_kPutThisField,
      &&L_kGetStatic, &&L_kPutStatic, &&L_kGetStaticSite, &&L_kPutStaticSite,
      &&L_kInitStatic, &&L_kInitField,
      &&L_kGetField, &&L_kPutField, &&L_kNullCheck,
      &&L_kArrayGet, &&L_kArraySet, &&L_kCheckDim, &&L_kNewArray,
      &&L_kNew, &&L_kNewDyn,
      &&L_kBinary, &&L_kIncDec, &&L_kNeg, &&L_kNot, &&L_kBitNot, &&L_kCast,
      &&L_kToBool,
      &&L_kJump, &&L_kJumpIfFalse, &&L_kShortCircuit, &&L_kSwitchSel,
      &&L_kCaseEq, &&L_kPopJump,
      &&L_kClassInit, &&L_kPrint, &&L_kCallBuiltin, &&L_kInvokeStatic,
      &&L_kInvokeSelf, &&L_kInvokeVirtual,
      &&L_kReturnValue, &&L_kReturnVoid, &&L_kSetRet, &&L_kRet, &&L_kEscape,
      &&L_kPop, &&L_kDup, &&L_kThrow, &&L_kRethrow, &&L_kThrowVm,
      &&L_kLoadLoad, &&L_kLoadBinary, &&L_kConstBinary, &&L_kLoadLoadBinary,
      &&L_kLoadConstBinary, &&L_kStoreLocalPop, &&L_kIncLocal,
      &&L_kBinaryJumpIfFalse, &&L_kLoadBinaryStore, &&L_kBinaryStore,
      &&L_kLoadLoadBinaryStore, &&L_kLoadConstBinaryStore,
      &&L_kIncLocalJump, &&L_kStoreLocalPopJump, &&L_kCmpLoopHead,
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                    static_cast<std::size_t>(Op::kCmpLoopHead) + 1,
                "label table must cover every opcode");
#endif

  for (;;) {
    try {
#ifdef JEPO_COMPUTED_GOTO
      VM_DISPATCH();
#else
    jepoDispatchTop:
      VM_TOP();
      switch (ip->op) {
#endif

      VM_CASE(kStep) { VM_NEXT(); }
      VM_CASE(kCharge) {
        charge(static_cast<energy::Op>(ip->a));
        VM_NEXT();
      }

      VM_CASE(kConstInt) {
        charge(energy::Op::kConstLoad);
        *sp++ = Value::ofInt(
            program_->intPool[static_cast<std::size_t>(ip->a)]);
        VM_NEXT();
      }
      VM_CASE(kConstLong) {
        charge(energy::Op::kConstLoad);
        *sp++ = Value::ofLong(
            program_->intPool[static_cast<std::size_t>(ip->a)]);
        VM_NEXT();
      }
      VM_CASE(kConstFloat) {
        charge(ip->b != 0 ? energy::Op::kConstLoadPlainDecimal
                          : energy::Op::kConstLoad);
        *sp++ = Value::ofFloat(
            program_->numPool[static_cast<std::size_t>(ip->a)]);
        VM_NEXT();
      }
      VM_CASE(kConstDouble) {
        charge(ip->b != 0 ? energy::Op::kConstLoadPlainDecimal
                          : energy::Op::kConstLoad);
        *sp++ = Value::ofDouble(
            program_->numPool[static_cast<std::size_t>(ip->a)]);
        VM_NEXT();
      }
      VM_CASE(kConstStr) {
        charge(energy::Op::kConstLoad);
        // Content-deduplicated by the resolver and allocated lazily, so
        // the first-evaluation heap order matches the tree's.
        Ref& pooled = literalPool_[static_cast<std::size_t>(ip->a)];
        if (pooled == kNullRef) {
          pooled = heap_.allocString(
              resolution_->stringLiterals[static_cast<std::size_t>(ip->a)]);
        }
        *sp++ = Value::ofRef(pooled);
        VM_NEXT();
      }
      VM_CASE(kConstChar) {
        charge(energy::Op::kConstLoad);
        *sp++ = Value::ofChar(ip->a);
        VM_NEXT();
      }
      VM_CASE(kConstBool) {
        charge(energy::Op::kConstLoad);
        *sp++ = Value::ofBool(ip->a != 0);
        VM_NEXT();
      }
      VM_CASE(kConstNull) {
        charge(energy::Op::kConstLoad);
        *sp++ = Value::null();
        VM_NEXT();
      }
      VM_CASE(kPushDefault) {
        *sp++ = jvm::Heap::defaultValue(static_cast<ValKind>(ip->a));
        VM_NEXT();
      }
      VM_CASE(kPushBool) {
        *sp++ = Value::ofBool(ip->a != 0);
        VM_NEXT();
      }

      VM_CASE(kLoad) {
        charge(energy::Op::kLocalAccess);
        *sp++ = slots[static_cast<std::size_t>(ip->a)];
        VM_NEXT();
      }
      VM_CASE(kLoadThis) {
        charge(energy::Op::kLocalAccess);
        *sp++ = frame.thisV;
        VM_NEXT();
      }
      VM_CASE(kStoreLocal) {
        storeLocal(ip->a, pop(), ip->line);
        VM_NEXT();
      }
      VM_CASE(kDeclLocal) {
        Value v = jvm::coerceToKind(pop(), static_cast<ValKind>(ip->b),
                                    builtins_, ip->line);
        // Declaring a wrapper-class variable with a primitive initializer
        // is autoboxing.
        if (ip->c >= 0 && v.isNumeric()) v = builtins_.box(name(ip->c), v);
        charge(energy::Op::kLocalAccess);
        slots[static_cast<std::size_t>(ip->a)] = v;
        VM_NEXT();
      }

      VM_CASE(kGetThisField) {
        if (frame.thisV.isRef()) {
          charge(energy::Op::kFieldAccess);
          *sp++ = heap_.get(frame.thisV.asRef())
                      .fields[static_cast<std::size_t>(ip->a)];
          VM_NEXT();
        }
        // Null `this` (an instance method invoked through the static call
        // shape): the tree falls back to a same-named static, then fails.
        if (Value* st = findStaticByName(cls.name, name(ip->c))) {
          charge(energy::Op::kStaticAccess);
          *sp++ = *st;
          VM_NEXT();
        }
        raiseVmError("undefined name '", name(ip->c), "' at line ", ip->line);
      }
      VM_CASE(kPutThisField) {
        if (frame.thisV.isRef()) {
          Value v = pop();
          Value& field = heap_.get(frame.thisV.asRef())
                             .fields[static_cast<std::size_t>(ip->a)];
          charge(energy::Op::kFieldAccess);
          if (field.isNumeric() && v.isNumeric()) {
            v = coerceInline(v, field.kind, builtins_, ip->line);
          }
          field = v;
          VM_NEXT();
        }
        if (Value* st = findStaticByName(cls.name, name(ip->c))) {
          Value v = pop();  // read after <clinit>: compaction remaps it
          charge(energy::Op::kStaticAccess);
          if (st->isNumeric() && v.isNumeric()) {
            v = coerceInline(v, st->kind, builtins_, ip->line);
          }
          *st = v;
          VM_NEXT();
        }
        raiseVmError("assignment to undefined name '", name(ip->c),
                     "' at line ", ip->line);
      }

      VM_CASE(kGetStatic) {
        ensureClassInitById(ip->b);
        charge(energy::Op::kStaticAccess);
        *sp++ = statics_[static_cast<std::size_t>(ip->a)];
        VM_NEXT();
      }
      VM_CASE(kPutStatic) {
        ensureClassInitById(ip->b);
        Value v = pop();  // read after <clinit>: compaction remaps it
        Value& st = statics_[static_cast<std::size_t>(ip->a)];
        charge(energy::Op::kStaticAccess);
        if (st.isNumeric() && v.isNumeric()) {
          v = coerceInline(v, st.kind, builtins_, ip->line);
        }
        st = v;
        VM_NEXT();
      }
      VM_CASE(kGetStaticSite) {
        const StaticSite& site =
            program_->staticSites[static_cast<std::size_t>(ip->a)];
        if (site.builtin) {
          Value v;
          if (builtins_.staticField(site.className, site.fieldName, &v)) {
            *sp++ = v;
            VM_NEXT();
          }
        }
        // Initialization-before-failure: a missing field on a known class
        // still runs the class's static initializers (and their charges).
        ensureClassInitById(site.classId);
        if (site.slot < 0) {
          raiseVmError("unknown static field ", site.className, ".",
                       site.fieldName, " at line ", ip->line);
        }
        charge(energy::Op::kStaticAccess);
        *sp++ = statics_[static_cast<std::size_t>(site.slot)];
        VM_NEXT();
      }
      VM_CASE(kPutStaticSite) {
        const StaticSite& site =
            program_->staticSites[static_cast<std::size_t>(ip->a)];
        ensureClassInitById(site.classId);
        if (site.slot < 0) {
          raiseVmError("unknown static field ", site.className, ".",
                       site.fieldName);
        }
        Value v = pop();
        Value& st = statics_[static_cast<std::size_t>(site.slot)];
        charge(energy::Op::kStaticAccess);
        if (st.isNumeric() && v.isNumeric()) {
          v = coerceInline(v, st.kind, builtins_, ip->line);
        }
        st = v;
        VM_NEXT();
      }
      VM_CASE(kInitStatic) {
        Value v = jvm::coerceToKind(pop(), static_cast<ValKind>(ip->b),
                                    builtins_, ip->line);
        if (ip->c >= 0 && v.isNumeric()) v = builtins_.box(name(ip->c), v);
        charge(energy::Op::kStaticAccess);
        statics_[static_cast<std::size_t>(ip->a)] = v;
        VM_NEXT();
      }
      VM_CASE(kInitField) {
        const Value v = jvm::coerceToKind(pop(), static_cast<ValKind>(ip->b),
                                          builtins_, ip->line);
        charge(energy::Op::kFieldAccess);
        heap_.get(frame.thisV.asRef())
            .fields[static_cast<std::size_t>(ip->a)] = v;
        VM_NEXT();
      }

      VM_CASE(kGetField) {
        const Value obj = pop();
        if (obj.isNull()) {
          raiseJava(builtins_, "NullPointerException", "field '",
                    name(ip->a), "' on null at line ", ip->line);
        }
        HeapObject& ho = heap_.get(obj.asRef());
        if (ip->a == lengthName_) {
          if (ho.kind == ObjKind::kArray) {
            charge(energy::Op::kFieldAccess);
            *sp++ = Value::ofInt(static_cast<std::int64_t>(ho.elems.size()));
            VM_NEXT();
          }
          if (ho.kind == ObjKind::kString || ho.kind == ObjKind::kBuilder) {
            raiseVmError("use length() on strings, at line ", ip->line);
          }
        }
        if (ho.kind == ObjKind::kObject && ho.layout != nullptr &&
            ip->b >= 0) {
          FieldCacheEntry& fc = fieldCaches_[static_cast<std::size_t>(ip->b)];
          std::int32_t offset;
          if (fc.layout == ho.layout) {
            offset = fc.offset;
          } else {
            offset = ho.layout->indexOfName(name(ip->a));
            if (offset >= 0) fc = {ho.layout, offset};
          }
          if (offset >= 0) {
            charge(energy::Op::kFieldAccess);
            *sp++ = ho.fields[static_cast<std::size_t>(offset)];
            VM_NEXT();
          }
        }
        raiseVmError("unknown field '", name(ip->a), "' at line ", ip->line);
      }
      VM_CASE(kPutField) {
        const Value obj = pop();
        Value v = pop();
        if (obj.isNull()) {
          raiseJava(builtins_, "NullPointerException",
                    "store to field of null");
        }
        HeapObject& ho = heap_.get(obj.asRef());
        if (ho.kind != ObjKind::kObject) {
          raiseVmError("field store on non-object");
        }
        std::int32_t offset = -1;
        if (ho.layout != nullptr && ip->b >= 0) {
          FieldCacheEntry& fc = fieldCaches_[static_cast<std::size_t>(ip->b)];
          if (fc.layout == ho.layout) {
            offset = fc.offset;
          } else {
            offset = ho.layout->indexOfName(name(ip->a));
            if (offset >= 0) fc = {ho.layout, offset};
          }
        }
        if (offset < 0) raiseVmError("unknown field '", name(ip->a), "'");
        Value& field = ho.fields[static_cast<std::size_t>(offset)];
        charge(energy::Op::kFieldAccess);
        if (field.isNumeric() && v.isNumeric()) {
          v = coerceInline(v, field.kind, builtins_, ip->line);
        }
        field = v;
        VM_NEXT();
      }
      VM_CASE(kNullCheck) {
        if (sp[-1].isNull()) {
          switch (static_cast<NullCheck>(ip->a)) {
            case NullCheck::kArrayLoad:
              raiseJava(builtins_, "NullPointerException",
                        "array access on null at line ", ip->line);
            case NullCheck::kArrayStore:
              raiseJava(builtins_, "NullPointerException",
                        "store to null array");
            case NullCheck::kCall:
              raiseJava(builtins_, "NullPointerException", "call '",
                        name(ip->b), "' on null at line ", ip->line);
          }
        }
        VM_NEXT();
      }

      VM_CASE(kArrayGet) {
        const std::int64_t idx = pop().asInt();
        const Value arr = pop();
        HeapObject& ho = heap_.get(arr.asRef());
        if (ho.kind != ObjKind::kArray) raiseVmError("indexing a non-array");
        if (idx < 0 || static_cast<std::size_t>(idx) >= ho.elems.size()) {
          raiseJava(builtins_, "ArrayIndexOutOfBoundsException", "index ",
                    idx, " length ", ho.elems.size(), " at line ", ip->line);
        }
        const Value v = ho.elems[static_cast<std::size_t>(idx)];
        const bool rowIsArray =
            v.isRef() && heap_.get(v.asRef()).kind == ObjKind::kArray;
        chargeRowLoad(arr.asRef(), idx, rowIsArray);
        *sp++ = v;
        VM_NEXT();
      }
      VM_CASE(kArraySet) {
        const std::int64_t idx = pop().asInt();
        const Value arr = pop();
        Value v = pop();
        HeapObject& ho = heap_.get(arr.asRef());
        if (ho.kind != ObjKind::kArray) raiseVmError("indexing a non-array");
        if (idx < 0 || static_cast<std::size_t>(idx) >= ho.elems.size()) {
          raiseJava(builtins_, "ArrayIndexOutOfBoundsException",
                    "store index ", idx, " length ", ho.elems.size());
        }
        charge(energy::Op::kArrayAccess);
        if (v.isNumeric() && ho.elemKind != ValKind::kRef &&
            ho.elemKind != ValKind::kNull) {
          v = coerceInline(v, ho.elemKind, builtins_, ip->line);
        }
        ho.elems[static_cast<std::size_t>(idx)] = v;
        VM_NEXT();
      }
      VM_CASE(kCheckDim) {
        const std::int64_t d = sp[-1].asInt();
        if (d < 0) raiseJava(builtins_, "NegativeArraySizeException", d);
        VM_NEXT();
      }
      VM_CASE(kNewArray) {
        sp -= ip->a;
        const Value arr = newArray(*ip, sp);
        *sp++ = arr;
        VM_NEXT();
      }

      VM_CASE(kNew) {
        const std::int32_t argc = ip->b;
        const Value result = constructById(ip->a, sp - argc,
                                           static_cast<std::size_t>(argc));
        sp -= argc;
        *sp++ = result;
        VM_NEXT();
      }
      VM_CASE(kNewDyn) {
        // The arguments stay on this frame's stack, rooted under frame.top,
        // while the constructor runs.
        const Value obj = newDynamic(*ip, sp - ip->b);
        sp -= ip->b;
        *sp++ = obj;
        VM_NEXT();
      }

      VM_CASE(kBinary) {
        const Value b = pop();
        const Value a = sp[-1];
        Value r = binary(static_cast<jlang::BinOp>(ip->a), a, b, ip->line);
        if (ip->b != 0 && r.isNumeric() && a.isNumeric()) {
          r = coerceInline(r, a.kind, builtins_, ip->line);  // compound
        }
        sp[-1] = r;
        VM_NEXT();
      }
      VM_CASE(kIncDec) {
        sp[-1] = incDec(ip->a, sp[-1], ip->line);
        VM_NEXT();
      }
      VM_CASE(kNeg) {
        sp[-1] = jvm::applyUnaryNeg(sp[-1], builtins_, *machine_);
        VM_NEXT();
      }
      VM_CASE(kNot) {
        sp[-1] = jvm::applyUnaryNot(sp[-1], *machine_);
        VM_NEXT();
      }
      VM_CASE(kBitNot) {
        sp[-1] = jvm::applyUnaryBitNot(sp[-1], builtins_, *machine_);
        VM_NEXT();
      }
      VM_CASE(kCast) {
        const auto k = static_cast<ValKind>(ip->a);
        switch (k) {
          case ValKind::kLong: charge(energy::Op::kLongAlu); break;
          case ValKind::kFloat: charge(energy::Op::kFloatAlu); break;
          case ValKind::kDouble: charge(energy::Op::kDoubleAlu); break;
          case ValKind::kByte:
          case ValKind::kShort:
            charge(energy::Op::kByteShortAlu);
            break;
          default: charge(energy::Op::kIntAlu); break;
        }
        sp[-1] = jvm::coerceToKind(sp[-1], k, builtins_, ip->line);
        VM_NEXT();
      }
      VM_CASE(kToBool) {
        sp[-1] = Value::ofBool(sp[-1].asBool());
        VM_NEXT();
      }

      VM_CASE(kJump) { VM_JUMP(ip->a); }
      VM_CASE(kJumpIfFalse) {
        if (!pop().asBool()) VM_JUMP(ip->a);
        VM_NEXT();
      }
      VM_CASE(kShortCircuit) {
        const bool v = pop().asBool();
        const bool isOr = ip->b != 0;
        if (v == isOr) {
          *sp++ = Value::ofBool(isOr);
          VM_JUMP(ip->a);
        }
        VM_NEXT();
      }
      VM_CASE(kSwitchSel) {
        (void)sp[-1].asInt();  // the tree converts the selector up front
        VM_NEXT();
      }
      VM_CASE(kCaseEq) {
        charge(energy::Op::kIntAlu);
        if (sp[-1].asInt() ==
            program_->intPool[static_cast<std::size_t>(ip->b)]) {
          --sp;
          VM_JUMP(ip->a);
        }
        VM_NEXT();
      }
      VM_CASE(kPopJump) {
        --sp;
        VM_JUMP(ip->a);
      }

      VM_CASE(kClassInit) {
        ensureClassInitById(ip->a);
        VM_NEXT();
      }
      VM_CASE(kPrint) {
        if (ip->b != 0) {
          const Value v = pop();
          builtins_.print(&v, ip->a != 0);
        } else {
          builtins_.print(nullptr, ip->a != 0);
        }
        *sp++ = Value::null();  // expression result, popped next
        VM_NEXT();
      }
      VM_CASE(kCallBuiltin) {
        const Value result = callBuiltin(*ip, sp - ip->c);
        sp -= ip->c;
        *sp++ = result;
        VM_NEXT();
      }
      VM_CASE(kInvokeStatic) {
        const auto classIdx = static_cast<std::size_t>(ip->a);
        call(*classById_[classIdx],
             *methodChunks_[classIdx][static_cast<std::size_t>(ip->b)],
             Value::null(), ip->c);
        VM_NEXT();
      }
      VM_CASE(kInvokeSelf) {
        const Chunk& callee =
            *methodChunks_[static_cast<std::size_t>(cls.classId)]
                          [static_cast<std::size_t>(ip->a)];
        call(cls, callee, callee.isStatic ? Value::null() : frame.thisV,
             ip->b);
        VM_NEXT();
      }
      VM_CASE(kInvokeVirtual) {
        const std::int32_t argc = ip->b;
        const Value receiver = sp[-(argc + 1)];  // null-checked already
        // Fast path: a program-class object dispatches through the inline
        // cache (the builtin probe declines such receivers, uncharged).
        if (receiver.isRef()) {
          const HeapObject& obj = heap_.get(receiver.asRef());
          if (obj.kind == ObjKind::kObject && obj.layout != nullptr &&
              obj.layout->classId >= 0) {
            CallCacheEntry& cc =
                callCaches_[static_cast<std::size_t>(ip->c)];
            if (cc.classId != obj.layout->classId) {
              const std::int32_t id = obj.layout->classId;
              const jlang::ResolvedClass& rc =
                  resolution_->classes[static_cast<std::size_t>(id)];
              const jlang::ResolvedMethod* rm = rc.findMethod(name(ip->a));
              if (rm == nullptr) {
                raiseVmError("unknown method ", obj.className, ".",
                             name(ip->a), " at line ", ip->line);
              }
              cc = {id, classById_[static_cast<std::size_t>(id)],
                    methodChunks_[static_cast<std::size_t>(id)]
                                 [static_cast<std::size_t>(
                                     rc.methodOrdinal(rm->decl))]};
            }
            call(*cc.cls, *cc.chunk, receiver, argc);
            sp[-2] = sp[-1];  // drop the receiver under the result
            --sp;
            VM_NEXT();
          }
        }
        const Value result = invokeVirtualSlow(*ip, receiver, sp - argc);
        sp -= argc + 1;
        *sp++ = result;
        VM_NEXT();
      }

      VM_CASE(kReturnValue) {
        retVal_ = pop();
        return;
      }
      VM_CASE(kReturnVoid) {
        retVal_ = Value::null();
        return;
      }
      VM_CASE(kSetRet) {
        retVal_ = ip->b != 0 ? Value::null() : pop();
        VM_NEXT();
      }
      VM_CASE(kRet) { return; }
      VM_CASE(kEscape) {
        charge(energy::Op::kReturn);
        raiseVmError(name(ip->a));
      }
      VM_CASE(kPop) {
        --sp;
        VM_NEXT();
      }
      VM_CASE(kDup) {
        sp[0] = sp[-1];
        ++sp;
        VM_NEXT();
      }
      VM_CASE(kThrow) {
        const Value v = pop();
        if (v.isNull()) {
          raiseJava(builtins_, "NullPointerException", "throw null");
        }
        charge(energy::Op::kThrow);
        throw Thrown{v};
      }
      VM_CASE(kRethrow) {
        throw Thrown{slots[static_cast<std::size_t>(ip->a)]};
      }
      VM_CASE(kThrowVm) { raiseVmError(name(ip->a)); }

      // --- Superinstructions: each replays its constituents' charges in
      // order, taking later constituents' steps at their step points.

      VM_CASE(kLoadLoad) {
        charge(energy::Op::kLocalAccess);
        *sp++ = slots[static_cast<std::size_t>(ip->a)];
        VM_STEPS(ip->n2);
        charge(energy::Op::kLocalAccess);
        *sp++ = slots[static_cast<std::size_t>(ip->b)];
        VM_NEXT();
      }
      VM_CASE(kLoadBinary) {
        charge(energy::Op::kLocalAccess);
        const Value b = slots[static_cast<std::size_t>(ip->a)];
        sp[-1] = binary(static_cast<jlang::BinOp>(ip->b), sp[-1], b,
                        ip->line);
        VM_NEXT();
      }
      VM_CASE(kConstBinary) {
        charge(energy::Op::kConstLoad);
        const Value b =
            Value::ofInt(program_->intPool[static_cast<std::size_t>(ip->a)]);
        sp[-1] = binary(static_cast<jlang::BinOp>(ip->b), sp[-1], b,
                        ip->line);
        VM_NEXT();
      }
      VM_CASE(kLoadLoadBinary) {
        charge(energy::Op::kLocalAccess);
        VM_STEPS(ip->n2);
        charge(energy::Op::kLocalAccess);
        *sp++ = binary(static_cast<jlang::BinOp>(ip->c),
                       slots[static_cast<std::size_t>(ip->a)],
                       slots[static_cast<std::size_t>(ip->b)], ip->line);
        VM_NEXT();
      }
      VM_CASE(kLoadConstBinary) {
        charge(energy::Op::kLocalAccess);
        VM_STEPS(ip->n2);
        charge(energy::Op::kConstLoad);
        *sp++ = binary(
            static_cast<jlang::BinOp>(ip->c),
            slots[static_cast<std::size_t>(ip->a)],
            Value::ofInt(program_->intPool[static_cast<std::size_t>(ip->b)]),
            ip->line);
        VM_NEXT();
      }
      VM_CASE(kStoreLocalPop) {
        storeLocal(ip->a, pop(), ip->line);
        VM_NEXT();
      }
      VM_CASE(kIncLocal) {
        charge(energy::Op::kLocalAccess);
        const Value r =
            incDec(ip->b, slots[static_cast<std::size_t>(ip->a)], ip->line);
        storeLocal(ip->a, r, ip->line);
        VM_NEXT();
      }
      VM_CASE(kBinaryJumpIfFalse) {
        const Value b = pop();
        const Value a = pop();
        if (!binary(static_cast<jlang::BinOp>(ip->b), a, b, ip->line)
                 .asBool()) {
          VM_JUMP(ip->a);
        }
        VM_NEXT();
      }
      VM_CASE(kLoadBinaryStore) {
        charge(energy::Op::kLocalAccess);
        const Value b = slots[static_cast<std::size_t>(ip->a)];
        const Value a = pop();
        storeLocal(ip->c, binary(static_cast<jlang::BinOp>(ip->f), a, b,
                                 ip->line),
                   ip->line);
        VM_NEXT();
      }
      VM_CASE(kBinaryStore) {
        const Value b = pop();
        const Value a = pop();
        storeLocal(ip->a, binary(static_cast<jlang::BinOp>(ip->f), a, b,
                                 ip->line),
                   ip->line);
        VM_NEXT();
      }
      VM_CASE(kLoadLoadBinaryStore) {
        charge(energy::Op::kLocalAccess);
        VM_STEPS(ip->n2);
        charge(energy::Op::kLocalAccess);
        storeLocal(ip->c,
                   binary(static_cast<jlang::BinOp>(ip->f),
                          slots[static_cast<std::size_t>(ip->a)],
                          slots[static_cast<std::size_t>(ip->b)], ip->line),
                   ip->line);
        VM_NEXT();
      }
      VM_CASE(kLoadConstBinaryStore) {
        charge(energy::Op::kLocalAccess);
        VM_STEPS(ip->n2);
        charge(energy::Op::kConstLoad);
        storeLocal(ip->c,
                   binary(static_cast<jlang::BinOp>(ip->f),
                          slots[static_cast<std::size_t>(ip->a)],
                          Value::ofInt(program_->intPool[
                              static_cast<std::size_t>(ip->b)]),
                          ip->line),
                   ip->line);
        VM_NEXT();
      }
      VM_CASE(kIncLocalJump) {
        charge(energy::Op::kLocalAccess);
        const Value r =
            incDec(ip->c, slots[static_cast<std::size_t>(ip->b)], ip->line);
        storeLocal(ip->b, r, ip->line);
        VM_JUMP(ip->a);
      }
      VM_CASE(kStoreLocalPopJump) {
        storeLocal(ip->b, pop(), ip->line);
        VM_JUMP(ip->a);
      }
      VM_CASE(kCmpLoopHead) {
        const auto bb = static_cast<std::uint32_t>(ip->b);
        charge(energy::Op::kBranch);
        VM_STEPS(ip->n2);
        charge(energy::Op::kLocalAccess);
        VM_STEPS(ip->n3);
        Value rhs;
        if ((ip->f & 1) != 0) {
          charge(energy::Op::kConstLoad);
          rhs = Value::ofInt(
              program_->intPool[static_cast<std::size_t>(ip->c)]);
        } else {
          charge(energy::Op::kLocalAccess);
          rhs = slots[static_cast<std::size_t>(ip->c)];
        }
        if (!binary(static_cast<jlang::BinOp>(bb >> 24),
                    slots[bb & 0xFFFFFFu], rhs, ip->line)
                 .asBool()) {
          VM_JUMP(ip->a);
        }
        if ((ip->f & 2) != 0) charge(energy::Op::kLoopIter);
        VM_NEXT();
      }

#ifndef JEPO_COMPUTED_GOTO
      }
      JEPO_ASSERT(false);  // every opcode's case transfers control
#endif
    } catch (const Thrown& thrown) {
      // Exception table search, in declaration order. `ip` still addresses
      // the throwing instruction, and a fused run never straddles a
      // handler boundary.
      const auto pc = static_cast<std::size_t>(ip - codeBase);
      const std::string& thrownClass =
          heap_.get(thrown.exception.asRef()).className;
      const ExceptionEntry* match = nullptr;
      for (const auto& h : chunk.handlers) {
        if (pc < static_cast<std::size_t>(h.start) ||
            pc >= static_cast<std::size_t>(h.end)) {
          continue;
        }
        if (h.classNameIdx < 0) {  // catch-all (finally)
          match = &h;
          break;
        }
        const std::string& handlerClass = name(h.classNameIdx);
        if (handlerClass == thrownClass || handlerClass == "Exception" ||
            (handlerClass == "RuntimeException" &&
             BuiltinLibrary::looksLikeExceptionClass(thrownClass))) {
          match = &h;
          break;
        }
      }
      if (match == nullptr) throw;
      if (match->classNameIdx >= 0) charge(energy::Op::kCatch);
      sp = stackBase;
      slots[static_cast<std::size_t>(match->slot)] = thrown.exception;
      ip = codeBase + match->handler;
    }
  }

#undef VM_STEPS
#undef VM_TOP
#undef VM_CASE
#undef VM_DISPATCH
#undef VM_NEXT
#undef VM_JUMP
}

jvm::Value BytecodeVm::runMain(std::string_view mainClass) {
  // Candidates in declaration order, as Program::mainClasses lists them.
  std::vector<const jlang::ClassDecl*> mains;
  for (const auto& rc : resolution_->classes) {
    const jlang::MethodDecl* m = rc.decl->findMethod("main");
    if (m != nullptr && m->isStatic) mains.push_back(rc.decl);
  }
  const jlang::ClassDecl* target = nullptr;
  if (mainClass.empty()) {
    if (mains.empty()) throw VmError("no class declares static void main");
    if (mains.size() > 1) {
      std::string names;
      for (const auto* c : mains) names += " " + c->name;
      throw VmError("multiple main classes; pick one of:" + names);
    }
    target = mains.front();
  } else {
    for (const auto* c : mains) {
      if (c->name == mainClass) target = c;
    }
    if (target == nullptr) {
      throw VmError("no main method in class " + std::string(mainClass));
    }
  }
  const CompiledClass& cls = *program_->findClass(target->name);
  ensureClassInit(target->name);
  const std::uint64_t steps0 = steps_;
  const std::uint64_t heap0 = heap_.allocCount();
  const Value argsArr = Value::ofRef(heap_.allocArray(0, ValKind::kRef));
  const Value out =
      invoke(cls, cls.methods.at("main"), Value::null(), &argsArr, 1);
  flushVmCounters(steps_ - steps0, heap_.allocCount() - heap0);
  return out;
}

jvm::Value BytecodeVm::callStatic(std::string_view className,
                                  std::string_view methodName,
                                  std::vector<Value> args) {
  const CompiledClass* cls = program_->findClass(std::string(className));
  JEPO_REQUIRE(cls != nullptr, "unknown class " + std::string(className));
  const auto it = cls->methods.find(std::string(methodName));
  JEPO_REQUIRE(it != cls->methods.end(),
               "unknown method " + std::string(methodName));
  JEPO_REQUIRE(it->second.isStatic, "method is not static");
  jvm::Gc::ScopedVector rootArgs(gc_, args);  // live across <clinit>
  ensureClassInit(cls->name);
  const std::uint64_t steps0 = steps_;
  const std::uint64_t heap0 = heap_.allocCount();
  const Value out =
      invoke(*cls, it->second, Value::null(), args.data(), args.size());
  flushVmCounters(steps_ - steps0, heap_.allocCount() - heap0);
  return out;
}

void BytecodeVm::scanGcRoots(jvm::Gc::RootWalker& w) {
  for (Value& v : statics_) w.visit(v);
  // Interned literals are roots: re-evaluating a literal must keep
  // returning the same Ref (the walker skips unfilled kNullRef entries).
  for (Ref& r : literalPool_) w.visit(r);
  w.visit(retVal_);
  for (std::size_t i = 0; i < frameDepth_ && i < framePool_.size(); ++i) {
    Frame& f = *framePool_[i];
    w.visit(f.thisV);
    for (std::size_t s = 0; s < f.liveSlots; ++s) w.visit(f.slots[s]);
    for (std::size_t s = 0; s < f.top; ++s) w.visit(f.stack[s]);
  }
}

}  // namespace jepo::jbc
