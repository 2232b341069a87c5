#include "jvm/interpreter.hpp"

#include <cmath>
#include <cstdio>

#include "jvm/ops.hpp"
#include "jvm/tier.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "support/strings.hpp"

namespace jepo::jvm {

using jlang::AssignOp;
using jlang::BinOp;
using jlang::CallKind;
using jlang::ClassDecl;
using jlang::Expr;
using jlang::ExprKind;
using jlang::MethodDecl;
using jlang::NameRef;
using jlang::Prim;
using jlang::ResolvedClass;
using jlang::ResolvedMethod;
using jlang::Stmt;
using jlang::StmtKind;
using jlang::TypeRef;
using jlang::UnOp;
using energy::Op;

namespace {

/// Adds one VM run's step and heap-allocation deltas to the global obs
/// counters. Coarse (once per entry-point call), so it is not gated on
/// obs::enabled() — bench --json reports always see the totals.
void flushVmCounters(std::uint64_t stepsDelta, std::size_t heapDelta) {
  static obs::Counter& steps =
      obs::Registry::global().counter("vm.steps");
  static obs::Counter& heapObjects =
      obs::Registry::global().counter("vm.heap.objects");
  steps.add(stepsDelta);
  heapObjects.add(heapDelta);
}

}  // namespace

std::string_view valKindName(ValKind k) noexcept {
  switch (k) {
    case ValKind::kNull: return "null";
    case ValKind::kBool: return "boolean";
    case ValKind::kByte: return "byte";
    case ValKind::kShort: return "short";
    case ValKind::kInt: return "int";
    case ValKind::kLong: return "long";
    case ValKind::kChar: return "char";
    case ValKind::kFloat: return "float";
    case ValKind::kDouble: return "double";
    case ValKind::kRef: return "reference";
  }
  return "?";
}

Interpreter::Interpreter(const jlang::Program& program,
                         energy::SimMachine& machine)
    : program_(&program),
      resolution_(jlang::ensureResolved(program)),
      machine_(&machine),
      builtins_(heap_, machine, out_, [this](const std::string& name) {
        return program_->findClass(name) != nullptr;
      }),
      gc_(heap_, [this](Gc::RootWalker& w) { scanGcRoots(w); }) {
  gc_.setLimit(Gc::limitFromEnv());
  gc_.setPostCompact([this] {
    // A recycled Ref must not resurrect a stale row-cache hit: remap the
    // cached row if it survived, otherwise invalidate the cache.
    if (lastRowArray_ != kNullRef) lastRowArray_ = gc_.remap(lastRowArray_);
  });
  statics_.assign(static_cast<std::size_t>(resolution_->staticCount),
                  Value::null());
  classInitDone_.assign(resolution_->classes.size(), 0);
  literalPool_.assign(resolution_->stringLiterals.size(), kNullRef);
  callCaches_.assign(static_cast<std::size_t>(resolution_->numCallCaches),
                     CallCache{});
  fieldCaches_.assign(static_cast<std::size_t>(resolution_->numFieldCaches),
                      FieldCache{});
  // Per-class default-field template: one copy per construct() instead of
  // one map insert per field.
  objectTemplates_.resize(resolution_->classes.size());
  for (std::size_t i = 0; i < resolution_->classes.size(); ++i) {
    const jlang::ClassLayout& layout = resolution_->classes[i].layout;
    auto& tmpl = objectTemplates_[i];
    tmpl.reserve(layout.fieldTypes.size());
    for (const TypeRef& t : layout.fieldTypes) {
      tmpl.push_back(Heap::defaultValue(kindOfType(t)));
    }
  }
}

void Interpreter::step() {
  ++steps_;
  if (maxSteps_ != 0 && steps_ > maxSteps_) {
    throw VmError("step limit exceeded (" + std::to_string(maxSteps_) +
                  "): possible runaway loop");
  }
  // Cooperative cancellation: one predictable branch when no token is
  // installed; a fired token unwinds exactly like the step limit above.
  if (cancel_ != nullptr && cancel_->cancelled()) {
    throw CancelledError(cancel_->reason());
  }
}

const std::string& Interpreter::stringAt(Ref r) const {
  const HeapObject& o = heap_.get(r);
  JEPO_REQUIRE(o.kind == ObjKind::kString || o.kind == ObjKind::kBuilder,
               "reference is not a string");
  return o.text;
}

ValKind Interpreter::kindOfType(const TypeRef& t) {
  return ::jepo::jvm::kindOfType(t);
}

// ---------------------------------------------------------------------------
// Entry points

Value Interpreter::runMain(std::string_view mainClass) {
  const auto mains = program_->mainClasses();
  const ClassDecl* target = nullptr;
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
  const MethodDecl* m = target->findMethod("main");
  ensureClassInit(target->name);
  const std::uint64_t steps0 = steps_;
  const std::uint64_t heap0 = heap_.allocCount();
  const Ref argsArr = heap_.allocArray(0, ValKind::kRef);
  const Value out =
      invoke(*target, *m, Value::null(), {Value::ofRef(argsArr)});
  flushVmCounters(steps_ - steps0, heap_.allocCount() - heap0);
  return out;
}

Value Interpreter::callStatic(std::string_view className,
                              std::string_view methodName,
                              std::vector<Value> args) {
  const ClassDecl* cls = program_->findClass(className);
  JEPO_REQUIRE(cls != nullptr, "unknown class " + std::string(className));
  const MethodDecl* m = cls->findMethod(methodName);
  JEPO_REQUIRE(m != nullptr, "unknown method " + std::string(methodName));
  JEPO_REQUIRE(m->isStatic, "method is not static");
  Gc::ScopedVector rootArgs(gc_, args);  // live across <clinit> safepoints
  ensureClassInit(cls->name);
  const std::uint64_t steps0 = steps_;
  const std::uint64_t heap0 = heap_.allocCount();
  const Value out = invoke(*cls, *m, Value::null(), std::move(args));
  flushVmCounters(steps_ - steps0, heap_.allocCount() - heap0);
  return out;
}

// ---------------------------------------------------------------------------
// Classes and statics

void Interpreter::ensureClassInit(const std::string& className) {
  // Names that resolve to no program class (builtins, typos) have no
  // statics and no <clinit>; initialization is a no-op for them.
  ensureClassInitById(resolution_->classIdOf(className));
}

void Interpreter::ensureClassInitById(std::int32_t classId) {
  if (classId < 0 || classInitDone_[static_cast<std::size_t>(classId)]) {
    return;
  }
  // Mark first: a <clinit> that (indirectly) re-enters its own class sees
  // the in-progress state, exactly like the seed's set insert.
  classInitDone_[static_cast<std::size_t>(classId)] = 1;
  const ResolvedClass& rc =
      resolution_->classes[static_cast<std::size_t>(classId)];
  const ClassDecl* cls = rc.decl;
  // Default-initialize all static fields first (so initializers can refer
  // to earlier ones), then run initializers in declaration order.
  for (const auto& f : cls->fields) {
    if (!f.isStatic) continue;
    statics_[static_cast<std::size_t>(f.slot)] =
        Heap::defaultValue(kindOfType(f.type));
  }
  Frame frame;
  frame.cls = cls;
  frames_.push_back(std::move(frame));
  struct PopGuard {
    std::deque<Frame>* frames;
    ~PopGuard() { frames->pop_back(); }
  } guard{&frames_};
  for (const auto& f : cls->fields) {
    if (!f.isStatic || !f.init) continue;
    Value v = eval(*f.init);
    v = coerceToKind(v, kindOfType(f.type), f.line);
    if (jlang::isWrapperClassName(f.type.className) && v.isNumeric()) {
      v = builtins_.box(f.type.className, v);
    }
    charge(Op::kStaticAccess);
    statics_[static_cast<std::size_t>(f.slot)] = v;
  }
}

Value* Interpreter::staticAt(std::int32_t classId, std::int32_t slot) {
  ensureClassInitById(classId);
  if (slot < 0) return nullptr;
  return &statics_[static_cast<std::size_t>(slot)];
}

Value* Interpreter::findStaticByName(const std::string& className,
                                     const std::string& field) {
  // Seed order: initialization (and its charges) happens before the
  // lookup can fail.
  const std::int32_t classId = resolution_->classIdOf(className);
  ensureClassInitById(classId);
  if (classId < 0) return nullptr;
  const ResolvedClass& rc =
      resolution_->classes[static_cast<std::size_t>(classId)];
  const int i = rc.staticIndexOf(field);
  if (i < 0) return nullptr;
  return &statics_[static_cast<std::size_t>(
      rc.staticSlots[static_cast<std::size_t>(i)])];
}

// ---------------------------------------------------------------------------
// Invocation

Value Interpreter::invoke(const ClassDecl& cls, const MethodDecl& m,
                          Value thisValue, std::vector<Value> args) {
  if (frames_.size() >= kMaxFrames) {
    throwJava("StackOverflowError", cls.name + "." + m.name);
  }
  if (args.size() != m.params.size()) {
    throw VmError("wrong argument count for " + cls.name + "." + m.name);
  }

  Frame frame;
  frame.cls = &cls;
  frame.thisValue = thisValue;
  frame.locals.resize(static_cast<std::size_t>(m.numSlots));
  frames_.push_back(std::move(frame));

  // The qualified name is pre-built by the resolution pass; the hot path
  // never concatenates strings.
  const std::string& qualified = resolution_->methodNames[m.methodId];
  const MethodRef ref{m.methodId, &qualified};
  // Tier dispatch: a branch on the hoisted gate pointer. No gate (full
  // instrumentation) takes the seed-exact path; an unsampled entry pays
  // the gate's counter increment and skips the hook call entirely.
  enum class HookMode : std::uint8_t { kOff, kOn, kCounted };
  HookMode hookMode = HookMode::kOff;
  if (hooks_ != nullptr) {
    hookMode = (tier_ == nullptr || tier_->enter(ref)) ? HookMode::kOn
                                                       : HookMode::kCounted;
  }
  if (hookMode == HookMode::kOn) hooks_->onEnter(ref);
  // Method span at the same enter/exit seam the RAPL injection uses. The
  // enabled() decision is captured once so a mid-call toggle stays
  // balanced. Unlike the hook epilogue below, the span IS closed on a VM
  // abort (the C++ unwind runs this frame's catch), recording the method
  // as it ran until the abort point.
  const bool tracing = obs::enabled();
  if (tracing) obs::beginSpan(qualified);

  // Hook contract: the injected epilogue (onExit) runs for normal returns
  // and for Java exceptions unwinding through the method — exactly the
  // paths where JEPO's injected finally-block bytecode would execute. A VM
  // abort (step limit, VM runtime error) kills the machine mid-method: the
  // epilogue never runs, so the hook's frame is deliberately left open for
  // Instrumenter::unwindAbortedFrames to flush as truncated records.
  try {
    Frame& f = frames_.back();
    for (std::size_t i = 0; i < args.size(); ++i) {
      Value v = coerceToKind(args[i], kindOfType(m.params[i].type),
                             m.line);
      charge(Op::kLocalAccess);
      f.locals[i] = v;
    }

    returnValue_ = Value::null();
    const Flow flow = execStmt(*m.body);
    charge(Op::kReturn);
    if (flow == Flow::kBreak || flow == Flow::kContinue) {
      throw VmError("break/continue escaped method " + qualified);
    }
  } catch (const Thrown&) {
    if (hookMode == HookMode::kOn) {
      hooks_->onExit(ref);
    } else if (hookMode == HookMode::kCounted) {
      tier_->exitUnsampled(ref);
    }
    if (tracing) obs::endSpan();
    frames_.pop_back();
    throw;
  } catch (...) {
    // VM abort: like the hook epilogue, the gate's exit accounting is
    // deliberately skipped — TierGate::reconcileAborted squares the
    // counters when the instrumenter unwinds.
    if (tracing) obs::endSpan();
    frames_.pop_back();
    throw;
  }
  const Value out = returnValue_;
  if (hookMode == HookMode::kOn) {
    hooks_->onExit(ref);
  } else if (hookMode == HookMode::kCounted) {
    tier_->exitUnsampled(ref);
  }
  if (tracing) obs::endSpan();
  frames_.pop_back();
  return out;
}

Value Interpreter::construct(const std::string& className,
                             std::vector<Value> args, int line) {
  // Builtin constructors: StringBuilder, String, and undeclared
  // exception-style classes (as in Java, they come from the library).
  Value builtinResult;
  if (builtins_.construct(className, args, &builtinResult)) {
    return builtinResult;
  }

  const std::int32_t classId = resolution_->classIdOf(className);
  if (classId < 0) {
    throw VmError("unknown class " + className + " at line " +
                  std::to_string(line));
  }
  return constructResolved(
      resolution_->classes[static_cast<std::size_t>(classId)],
      std::move(args));
}

Value Interpreter::constructResolved(const ResolvedClass& rc,
                                     std::vector<Value> args) {
  const ClassDecl* cls = rc.decl;
  charge(Op::kAllocObject);
  // args live across <clinit>, field-initializer and constructor
  // safepoints; the fresh object is only reachable through `r` until the
  // constructor returns it.
  Gc::ScopedVector rootArgs(gc_, args);
  ensureClassInitById(rc.layout.classId);
  Ref r = heap_.allocObject(cls->name, rc.layout);
  Gc::ScopedRef rootR(gc_, r);
  // Default field values, then initializers in declaration order.
  heap_.get(r).fields =
      objectTemplates_[static_cast<std::size_t>(rc.layout.classId)];
  Frame frame;
  frame.cls = cls;
  frame.thisValue = Value::ofRef(r);
  frames_.push_back(std::move(frame));
  {
    struct PopGuard {
      std::deque<Frame>* frames;
      ~PopGuard() { frames->pop_back(); }
    } guard{&frames_};
    for (const auto& f : cls->fields) {
      if (f.isStatic || !f.init) continue;
      Value v = eval(*f.init);
      v = coerceToKind(v, kindOfType(f.type), f.line);
      charge(Op::kFieldAccess);
      heap_.get(r).fields[static_cast<std::size_t>(f.slot)] = v;
    }
  }
  // Constructor: a method named like the class.
  if (rc.ctor != nullptr) {
    invoke(*cls, *rc.ctor, Value::ofRef(r), std::move(args));
  } else if (!args.empty()) {
    throw VmError("class " + cls->name + " has no constructor taking args");
  }
  return Value::ofRef(r);
}

// ---------------------------------------------------------------------------
// Exceptions

void Interpreter::throwJava(const std::string& className,
                            const std::string& message) {
  builtins_.throwJava(className, message);
}

// ---------------------------------------------------------------------------
// Statements

Interpreter::Flow Interpreter::execBlock(const Stmt& s) {
  JEPO_ASSERT(s.kind == StmtKind::kBlock);
  for (const auto& st : s.body) {
    const Flow flow = execStmt(*st);
    if (flow != Flow::kNormal) return flow;
  }
  return Flow::kNormal;
}

Interpreter::Flow Interpreter::execStmt(const Stmt& s) {
  step();
  // The engine's only GC safepoint: statement granularity means no
  // builtin, operator helper or allocation path can ever collect, so
  // those may hold raw heap references freely.
  gc_.safepoint();
  switch (s.kind) {
    case StmtKind::kBlock:
      return execBlock(s);

    case StmtKind::kVarDecl: {
      Value v = s.init ? eval(*s.init)
                       : Heap::defaultValue(kindOfType(s.declType));
      v = coerceToKind(v, kindOfType(s.declType), s.line);
      // Declaring a wrapper-class variable with a primitive initializer is
      // autoboxing (Table I: Integer is the cheapest wrapper).
      if (jlang::isWrapperClassName(s.declType.className) && v.isNumeric()) {
        v = builtins_.box(s.declType.className, v);
      }
      charge(Op::kLocalAccess);
      frames_.back().locals[static_cast<std::size_t>(s.declSlot)] = v;
      return Flow::kNormal;
    }

    case StmtKind::kExprStmt:
      eval(*s.expr);
      return Flow::kNormal;

    case StmtKind::kIf: {
      charge(Op::kBranch);
      if (eval(*s.cond).asBool()) return execStmt(*s.thenStmt);
      if (s.elseStmt) return execStmt(*s.elseStmt);
      return Flow::kNormal;
    }

    case StmtKind::kWhile: {
      for (;;) {
        charge(Op::kBranch);
        if (!eval(*s.cond).asBool()) return Flow::kNormal;
        charge(Op::kLoopIter);
        const Flow flow = execStmt(*s.thenStmt);
        if (flow == Flow::kBreak) return Flow::kNormal;
        if (flow == Flow::kReturn) return flow;
      }
    }

    case StmtKind::kFor: {
      for (const auto& init : s.body) execStmt(*init);
      for (;;) {
        if (s.cond) {
          charge(Op::kBranch);
          if (!eval(*s.cond).asBool()) return Flow::kNormal;
        }
        charge(Op::kLoopIter);
        const Flow flow = execStmt(*s.thenStmt);
        if (flow == Flow::kBreak) return Flow::kNormal;
        if (flow == Flow::kReturn) return flow;
        for (const auto& u : s.update) eval(*u);
      }
    }

    case StmtKind::kReturn:
      returnValue_ = s.expr ? eval(*s.expr) : Value::null();
      return Flow::kReturn;

    case StmtKind::kThrow: {
      Value v = eval(*s.expr);
      if (v.isNull()) throwJava("NullPointerException", "throw null");
      charge(Op::kThrow);
      throw Thrown{v};
    }

    case StmtKind::kTry: {
      charge(Op::kTryEnter);
      Flow flow = Flow::kNormal;
      bool rethrow = false;
      Thrown pending{Value::null()};
      // The pending exception survives the finally block's safepoints.
      Gc::ScopedValue rootPending(gc_, pending.exception);
      try {
        flow = execStmt(*s.tryBlock);
      } catch (const Thrown& thrown) {
        const std::string& thrownClass =
            heap_.get(thrown.exception.asRef()).className;
        const jlang::CatchClause* match = nullptr;
        for (const auto& clause : s.catches) {
          if (clause.exceptionClass == thrownClass ||
              clause.exceptionClass == "Exception" ||
              (clause.exceptionClass == "RuntimeException" &&
               jlang::looksLikeExceptionClass(thrownClass))) {
            match = &clause;
            break;
          }
        }
        if (match == nullptr) {
          rethrow = true;
          pending = thrown;
        } else {
          charge(Op::kCatch);
          frames_.back().locals[static_cast<std::size_t>(match->slot)] =
              thrown.exception;
          flow = execStmt(*match->body);
        }
      }
      if (s.finallyBlock) {
        const Flow finallyFlow = execStmt(*s.finallyBlock);
        // An abrupt finally wins over the pending completion (JLS 14.20.2).
        if (finallyFlow != Flow::kNormal) return finallyFlow;
      }
      if (rethrow) throw pending;
      return flow;
    }

    case StmtKind::kSwitch: {
      charge(Op::kBranch);
      const std::int64_t selector = eval(*s.cond).asInt();
      // Locate the matching case (or default).
      std::size_t start = s.cases.size();
      for (std::size_t i = 0; i < s.cases.size(); ++i) {
        if (s.cases[i].isDefault) continue;
        charge(Op::kIntAlu);
        if (s.cases[i].value == selector) {
          start = i;
          break;
        }
      }
      if (start == s.cases.size()) {
        for (std::size_t i = 0; i < s.cases.size(); ++i) {
          if (s.cases[i].isDefault) {
            start = i;
            break;
          }
        }
      }
      // Fall through from the match until break/return.
      for (std::size_t i = start; i < s.cases.size(); ++i) {
        for (const auto& st : s.cases[i].body) {
          const Flow flow = execStmt(*st);
          if (flow == Flow::kBreak) return Flow::kNormal;
          if (flow != Flow::kNormal) return flow;
        }
      }
      return Flow::kNormal;
    }

    case StmtKind::kBreak: return Flow::kBreak;
    case StmtKind::kContinue: return Flow::kContinue;
  }
  throw Error("unhandled statement kind");
}

// ---------------------------------------------------------------------------
// Expressions

Value Interpreter::eval(const Expr& e) {
  step();
  switch (e.kind) {
    case ExprKind::kIntLit:
      charge(Op::kConstLoad);
      return Value::ofInt(e.intValue);
    case ExprKind::kLongLit:
      charge(Op::kConstLoad);
      return Value::ofLong(e.intValue);
    case ExprKind::kFloatLit:
      charge(e.scientific ? Op::kConstLoad : Op::kConstLoadPlainDecimal);
      return Value::ofFloat(e.floatValue);
    case ExprKind::kDoubleLit:
      charge(e.scientific ? Op::kConstLoad : Op::kConstLoadPlainDecimal);
      return Value::ofDouble(e.floatValue);
    case ExprKind::kCharLit:
      charge(Op::kConstLoad);
      return Value::ofChar(e.intValue);
    case ExprKind::kBoolLit:
      charge(Op::kConstLoad);
      return Value::ofBool(e.intValue != 0);
    case ExprKind::kStringLit: {
      charge(Op::kConstLoad);
      // Literals are content-deduplicated by the resolver; the pool entry
      // is allocated lazily so the first-evaluation heap order matches the
      // seed's content-keyed intern map.
      JEPO_ASSERT(e.strId >= 0);
      Ref& pooled = literalPool_[static_cast<std::size_t>(e.strId)];
      if (pooled == kNullRef) {
        pooled = heap_.allocString(
            resolution_->stringLiterals[static_cast<std::size_t>(e.strId)]);
      }
      return Value::ofRef(pooled);
    }
    case ExprKind::kNullLit:
      charge(Op::kConstLoad);
      return Value::null();
    case ExprKind::kVarRef: return evalVarRef(e);
    case ExprKind::kFieldAccess: return evalFieldAccess(e);
    case ExprKind::kArrayIndex: return evalArrayIndex(e);
    case ExprKind::kBinary: return evalBinary(e);
    case ExprKind::kUnary: return evalUnary(e);
    case ExprKind::kAssign: return evalAssign(e);
    case ExprKind::kTernary: return evalTernary(e);
    case ExprKind::kCall: return evalCall(e);
    case ExprKind::kNew: return evalNew(e);
    case ExprKind::kNewArray: return evalNewArray(e);
    case ExprKind::kCast: return evalCast(e);
  }
  throw Error("unhandled expression kind");
}

Value Interpreter::evalVarRef(const Expr& e) {
  switch (e.nameRef) {
    case NameRef::kThis:
      charge(Op::kLocalAccess);
      return frames_.back().thisValue;

    case NameRef::kLocal:
      charge(Op::kLocalAccess);
      return frames_.back().locals[static_cast<std::size_t>(e.slot)];

    case NameRef::kThisField: {
      const Frame& frame = frames_.back();
      if (frame.thisValue.isRef()) {
        charge(Op::kFieldAccess);
        return heap_.get(frame.thisValue.asRef())
            .fields[static_cast<std::size_t>(e.slot)];
      }
      // Null `this` (an instance method invoked through the static call
      // shape): the seed falls back to a static of the same name, then
      // fails.
      if (frame.cls != nullptr) {
        if (Value* st = findStaticByName(frame.cls->name, e.strValue)) {
          charge(Op::kStaticAccess);
          return *st;
        }
      }
      break;
    }

    case NameRef::kStaticSlot: {
      Value* st = staticAt(e.classId, e.slot);
      JEPO_ASSERT(st != nullptr);
      charge(Op::kStaticAccess);
      return *st;
    }

    default:
      break;
  }
  throw VmError("undefined name '" + e.strValue + "' at line " +
                std::to_string(e.line));
}

Value Interpreter::evalFieldAccess(const Expr& e) {
  // Class.staticField
  if (e.nameRef == NameRef::kBuiltinStatic ||
      e.nameRef == NameRef::kStaticSlot) {
    if (e.nameRef == NameRef::kBuiltinStatic) {
      Value builtin;
      if (builtins_.staticField(e.a->strValue, e.strValue, &builtin)) {
        return builtin;
      }
    }
    // Initialization-before-failure: a missing field on a known class
    // still runs the class's static initializers (and their charges).
    if (Value* st = staticAt(e.classId, e.slot)) {
      charge(Op::kStaticAccess);
      return *st;
    }
    throw VmError("unknown static field " + e.a->strValue + "." + e.strValue +
                  " at line " + std::to_string(e.line));
  }

  Value obj = eval(*e.a);
  if (obj.isNull()) {
    throwJava("NullPointerException",
              "field '" + e.strValue + "' on null at line " +
                  std::to_string(e.line));
  }
  HeapObject& ho = heap_.get(obj.asRef());
  if (ho.kind == ObjKind::kArray && e.strValue == "length") {
    charge(Op::kFieldAccess);
    return Value::ofInt(static_cast<std::int64_t>(ho.elems.size()));
  }
  if ((ho.kind == ObjKind::kString || ho.kind == ObjKind::kBuilder) &&
      e.strValue == "length") {
    // length is a method on String; guide users with a precise error.
    throw VmError("use length() on strings, at line " +
                  std::to_string(e.line));
  }
  if (ho.kind == ObjKind::kObject && ho.layout != nullptr &&
      e.cacheSlot >= 0) {
    FieldCache& cache = fieldCaches_[static_cast<std::size_t>(e.cacheSlot)];
    std::int32_t offset;
    if (cache.layout == ho.layout) {
      offset = cache.offset;
    } else {
      offset = ho.layout->indexOfName(e.strValue);
      if (offset >= 0) {
        cache.layout = ho.layout;
        cache.offset = offset;
      }
    }
    if (offset >= 0) {
      charge(Op::kFieldAccess);
      return ho.fields[static_cast<std::size_t>(offset)];
    }
  }
  throw VmError("unknown field '" + e.strValue + "' at line " +
                std::to_string(e.line));
}

void Interpreter::chargeRowLoad(Ref array, std::int64_t index,
                                bool loadedRowIsArray) {
  if (!loadedRowIsArray) {
    charge(Op::kArrayAccess);
    return;
  }
  // Loading a row object of a 2-D array: consecutive hits on the same row
  // stay in the row cache; column-major traversal misses every time.
  if (array == lastRowArray_ && index == lastRowIndex_) {
    charge(Op::kArrayAccess);
  } else {
    charge(Op::kArrayRowLoad);
  }
  lastRowArray_ = array;
  lastRowIndex_ = index;
}

Value Interpreter::evalArrayIndex(const Expr& e) {
  Value arr = eval(*e.a);
  if (arr.isNull()) {
    throwJava("NullPointerException",
              "array access on null at line " + std::to_string(e.line));
  }
  Gc::ScopedValue rootArr(gc_, arr);  // across the subscript's safepoints
  const std::int64_t idx = eval(*e.b).asInt();
  HeapObject& ho = heap_.get(arr.asRef());
  if (ho.kind != ObjKind::kArray) throw VmError("indexing a non-array");
  if (idx < 0 || static_cast<std::size_t>(idx) >= ho.elems.size()) {
    throwJava("ArrayIndexOutOfBoundsException",
              "index " + std::to_string(idx) + " length " +
                  std::to_string(ho.elems.size()) + " at line " +
                  std::to_string(e.line));
  }
  const Value v = ho.elems[static_cast<std::size_t>(idx)];
  const bool rowIsArray =
      v.isRef() && heap_.get(v.asRef()).kind == ObjKind::kArray;
  chargeRowLoad(arr.asRef(), idx, rowIsArray);
  return v;
}

Value Interpreter::unboxIfNeeded(Value v) { return builtins_.unboxIfNeeded(v); }

Value Interpreter::arith(BinOp op, Value a, Value b, int line) {
  return applyBinary(op, a, b, heap_, builtins_, *machine_, line);
}

Value Interpreter::compare(BinOp op, Value a, Value b) {
  return applyBinary(op, a, b, heap_, builtins_, *machine_, 0);
}


Value Interpreter::evalBinary(const Expr& e) {
  const BinOp op = e.binOp;
  if (op == BinOp::kAndAnd || op == BinOp::kOrOr) {
    charge(Op::kBranch);
    const bool lhs = eval(*e.a).asBool();
    if (op == BinOp::kAndAnd && !lhs) return Value::ofBool(false);
    if (op == BinOp::kOrOr && lhs) return Value::ofBool(true);
    return Value::ofBool(eval(*e.b).asBool());
  }
  Value a = eval(*e.a);
  Gc::ScopedValue rootA(gc_, a);  // live across the rhs's safepoints
  Value b = eval(*e.b);
  return applyBinary(op, a, b, heap_, builtins_, *machine_, e.line);
}


Value Interpreter::evalUnary(const Expr& e) {
  switch (e.unOp) {
    case UnOp::kNeg:
      return applyUnaryNeg(eval(*e.a), builtins_, *machine_);
    case UnOp::kNot:
      return applyUnaryNot(eval(*e.a), *machine_);
    case UnOp::kBitNot:
      return applyUnaryBitNot(eval(*e.a), builtins_, *machine_);
    case UnOp::kPreInc:
    case UnOp::kPreDec:
    case UnOp::kPostInc:
    case UnOp::kPostDec: {
      const bool inc = e.unOp == UnOp::kPreInc || e.unOp == UnOp::kPostInc;
      const bool pre = e.unOp == UnOp::kPreInc || e.unOp == UnOp::kPreDec;
      Value oldV = eval(*e.a);
      Value one = Value::ofInt(1);
      Value newV = arith(inc ? BinOp::kAdd : BinOp::kSub, oldV, one, e.line);
      newV = coerceToKind(newV, oldV.kind, e.line);
      // Both copies outlive storeTo, whose static-fallback path can reach
      // a <clinit> safepoint.
      Gc::ScopedValue rootOld(gc_, oldV);
      Gc::ScopedValue rootNew(gc_, newV);
      storeTo(*e.a, newV);
      return pre ? newV : oldV;
    }
  }
  throw Error("unhandled unary operator");
}

Value Interpreter::evalAssign(const Expr& e) {
  Value v;
  Gc::ScopedValue rootV(gc_, v);  // survives storeTo; returned afterwards
  if (e.assignOp == AssignOp::kSet) {
    v = eval(*e.b);
  } else {
    Value current = eval(*e.a);
    Gc::ScopedValue rootCurrent(gc_, current);
    const Value rhs = eval(*e.b);
    BinOp op;
    switch (e.assignOp) {
      case AssignOp::kAdd: op = BinOp::kAdd; break;
      case AssignOp::kSub: op = BinOp::kSub; break;
      case AssignOp::kMul: op = BinOp::kMul; break;
      case AssignOp::kDiv: op = BinOp::kDiv; break;
      case AssignOp::kMod: op = BinOp::kMod; break;
      default: throw Error("bad compound assignment");
    }
    v = applyBinary(op, current, rhs, heap_, builtins_, *machine_, e.line);
    if (v.isNumeric() && current.isNumeric()) {
      v = coerceToKind(v, current.kind, e.line);  // compound assigns narrow
    }
  }
  storeTo(*e.a, v);
  return v;
}

void Interpreter::storeTo(const Expr& target, Value v) {
  // Several branches reach safepoints (static <clinit>, array subscript
  // evaluation) before v lands in rooted storage.
  Gc::ScopedValue rootV(gc_, v);
  switch (target.kind) {
    case ExprKind::kVarRef: {
      switch (target.nameRef) {
        case NameRef::kLocal: {
          Value& local =
              frames_.back().locals[static_cast<std::size_t>(target.slot)];
          charge(Op::kLocalAccess);
          if (local.isNumeric() && v.isNumeric()) {
            v = coerceToKind(v, local.kind, target.line);
          }
          local = v;
          return;
        }
        case NameRef::kThisField: {
          Frame& frame = frames_.back();
          if (frame.thisValue.isRef()) {
            Value& field = heap_.get(frame.thisValue.asRef())
                               .fields[static_cast<std::size_t>(target.slot)];
            charge(Op::kFieldAccess);
            if (field.isNumeric() && v.isNumeric()) {
              v = coerceToKind(v, field.kind, target.line);
            }
            field = v;
            return;
          }
          // Null `this`: fall back to a same-named static, then fail.
          if (frame.cls != nullptr) {
            if (Value* st =
                    findStaticByName(frame.cls->name, target.strValue)) {
              charge(Op::kStaticAccess);
              if (st->isNumeric() && v.isNumeric()) {
                v = coerceToKind(v, st->kind, target.line);
              }
              *st = v;
              return;
            }
          }
          break;
        }
        case NameRef::kStaticSlot: {
          Value* st = staticAt(target.classId, target.slot);
          JEPO_ASSERT(st != nullptr);
          charge(Op::kStaticAccess);
          if (st->isNumeric() && v.isNumeric()) {
            v = coerceToKind(v, st->kind, target.line);
          }
          *st = v;
          return;
        }
        default:  // kThis and unresolved names are not assignable
          break;
      }
      throw VmError("assignment to undefined name '" + target.strValue +
                    "' at line " + std::to_string(target.line));
    }

    case ExprKind::kFieldAccess: {
      // Class.staticField = v — unlike reads, stores never consult the
      // builtin registry (builtin constants are not assignable).
      if (target.nameRef == NameRef::kBuiltinStatic ||
          target.nameRef == NameRef::kStaticSlot) {
        if (Value* st = staticAt(target.classId, target.slot)) {
          charge(Op::kStaticAccess);
          if (st->isNumeric() && v.isNumeric()) {
            v = coerceToKind(v, st->kind, target.line);
          }
          *st = v;
          return;
        }
        throw VmError("unknown static field " + target.a->strValue + "." +
                      target.strValue);
      }
      Value obj = eval(*target.a);
      if (obj.isNull()) {
        throwJava("NullPointerException", "store to field of null");
      }
      HeapObject& ho = heap_.get(obj.asRef());
      if (ho.kind != ObjKind::kObject) {
        throw VmError("field store on non-object");
      }
      std::int32_t offset = -1;
      if (ho.layout != nullptr && target.cacheSlot >= 0) {
        FieldCache& cache =
            fieldCaches_[static_cast<std::size_t>(target.cacheSlot)];
        if (cache.layout == ho.layout) {
          offset = cache.offset;
        } else {
          offset = ho.layout->indexOfName(target.strValue);
          if (offset >= 0) {
            cache.layout = ho.layout;
            cache.offset = offset;
          }
        }
      }
      if (offset < 0) {
        throw VmError("unknown field '" + target.strValue + "'");
      }
      Value& field = ho.fields[static_cast<std::size_t>(offset)];
      charge(Op::kFieldAccess);
      if (field.isNumeric() && v.isNumeric()) {
        v = coerceToKind(v, field.kind, target.line);
      }
      field = v;
      return;
    }

    case ExprKind::kArrayIndex: {
      Value arr = eval(*target.a);
      if (arr.isNull()) {
        throwJava("NullPointerException", "store to null array");
      }
      Gc::ScopedValue rootArr(gc_, arr);  // across the subscript's safepoints
      const std::int64_t idx = eval(*target.b).asInt();
      HeapObject& ho = heap_.get(arr.asRef());
      if (ho.kind != ObjKind::kArray) throw VmError("indexing a non-array");
      if (idx < 0 || static_cast<std::size_t>(idx) >= ho.elems.size()) {
        throwJava("ArrayIndexOutOfBoundsException",
                  "store index " + std::to_string(idx) + " length " +
                      std::to_string(ho.elems.size()));
      }
      charge(Op::kArrayAccess);
      if (v.isNumeric() && ho.elemKind != ValKind::kRef &&
          ho.elemKind != ValKind::kNull) {
        v = coerceToKind(v, ho.elemKind, target.line);
      }
      ho.elems[static_cast<std::size_t>(idx)] = v;
      return;
    }

    default:
      throw VmError("invalid assignment target at line " +
                    std::to_string(target.line));
  }
}

Value Interpreter::evalTernary(const Expr& e) {
  charge(Op::kTernary);
  return eval(*e.a).asBool() ? eval(*e.b) : eval(*e.c);
}

Value Interpreter::evalNew(const Expr& e) {
  std::vector<Value> args;
  args.reserve(e.args.size());
  Gc::ScopedVector rootArgs(gc_, args);
  for (const auto& a : e.args) args.push_back(eval(*a));
  if (e.callKind == CallKind::kConstruct) {
    // Pre-resolved user class: the builtin-constructor probe is skipped
    // (it rejects every non-builtin program-class name).
    return constructResolved(
        resolution_->classes[static_cast<std::size_t>(e.classId)],
        std::move(args));
  }
  return construct(e.strValue, std::move(args), e.line);
}

Value Interpreter::evalNewArray(const Expr& e) {
  std::vector<std::int64_t> dims;
  dims.reserve(e.args.size());
  for (const auto& d : e.args) {
    const std::int64_t n = eval(*d).asInt();
    if (n < 0) throwJava("NegativeArraySizeException", std::to_string(n));
    dims.push_back(n);
  }
  JEPO_REQUIRE(!dims.empty(), "array allocation needs a dimension");

  const ValKind leafKind = kindOfType(e.type);
  // Recursive allocation: outer levels hold refs, the innermost holds the
  // element kind.
  auto alloc = [&](auto&& self, std::size_t level) -> Ref {
    const bool innermost = level + 1 == dims.size();
    const ValKind ek = innermost && e.type.arrayDims == 0 ? leafKind
                                                          : ValKind::kRef;
    const auto n = static_cast<std::size_t>(dims[level]);
    charge(Op::kAllocObject);
    charge(Op::kAllocArrayPerElem, n);
    const Ref r = heap_.allocArray(n, ek);
    if (!innermost) {
      for (std::size_t i = 0; i < n; ++i) {
        const Ref child = self(self, level + 1);
        heap_.get(r).elems[i] = Value::ofRef(child);
      }
    }
    return r;
  };
  return Value::ofRef(alloc(alloc, 0));
}

Value Interpreter::coerceToKind(Value v, ValKind k, int line) {
  return ::jepo::jvm::coerceToKind(v, k, builtins_, line);
}

Value Interpreter::evalCast(const Expr& e) {
  Value v = eval(*e.a);
  if (e.type.prim == Prim::kClass || e.type.arrayDims > 0) {
    return v;  // reference casts are identity in MiniJava
  }
  const ValKind k = kindOfType(e.type);
  switch (k) {
    case ValKind::kLong: charge(Op::kLongAlu); break;
    case ValKind::kFloat: charge(Op::kFloatAlu); break;
    case ValKind::kDouble: charge(Op::kDoubleAlu); break;
    case ValKind::kByte:
    case ValKind::kShort: charge(Op::kByteShortAlu); break;
    default: charge(Op::kIntAlu); break;
  }
  return coerceToKind(v, k, e.line);
}


// ---------------------------------------------------------------------------
// Calls

std::vector<Value> Interpreter::evalArgs(const Expr& call) {
  std::vector<Value> args;
  args.reserve(call.args.size());
  // Earlier arguments stay rooted while later ones evaluate. Callers need
  // no further rooting: no safepoint sits between this returning and the
  // invoke target copying the values into its (rooted) frame.
  Gc::ScopedVector rootArgs(gc_, args);
  for (const auto& a : call.args) args.push_back(eval(*a));
  return args;
}

Value Interpreter::evalCall(const Expr& e) {
  switch (e.callKind) {
    case CallKind::kPrint: {
      if (e.args.empty()) {
        builtins_.print(nullptr, e.slot == 1);
      } else {
        const Value v = eval(*e.args.at(0));
        builtins_.print(&v, e.slot == 1);
      }
      return Value::null();
    }

    case CallKind::kBuiltinStatic: {
      std::vector<Value> args = evalArgs(e);
      Value result;
      if (builtins_.staticCall(e.a->strValue, e.strValue, args, &result)) {
        return result;
      }
      throw VmError("unknown method " + e.a->strValue + "." + e.strValue +
                    " at line " + std::to_string(e.line));
    }

    case CallKind::kStaticMethod: {
      ensureClassInitById(e.classId);
      std::vector<Value> args = evalArgs(e);
      charge(Op::kCall);
      return invoke(*e.targetClass, *e.targetMethod, Value::null(),
                    std::move(args));
    }

    case CallKind::kStaticMissing:
      // Resolution proved the method missing; the seed fails before
      // evaluating arguments or initializing the class.
      throw VmError("unknown method " + e.a->strValue + "." + e.strValue +
                    " at line " + std::to_string(e.line));

    case CallKind::kSelfMethod: {
      std::vector<Value> args = evalArgs(e);
      charge(Op::kCall);
      const Frame& frame = frames_.back();
      const Value self =
          e.targetMethod->isStatic ? Value::null() : frame.thisValue;
      return invoke(*e.targetClass, *e.targetMethod, self, std::move(args));
    }

    case CallKind::kSelfMissing:
      throw VmError("unknown method " + e.strValue + " at line " +
                    std::to_string(e.line));

    case CallKind::kInstanceCached: {
      Value receiver = eval(*e.a);
      if (receiver.isNull()) {
        throwJava("NullPointerException",
                  "call '" + e.strValue + "' on null at line " +
                      std::to_string(e.line));
      }
      Gc::ScopedValue rootReceiver(gc_, receiver);  // across argument evals
      std::vector<Value> args = evalArgs(e);
      // Fast path: a program-class object dispatches through the inline
      // cache. The builtin-method probe is skipped — it returns false for
      // every program-class receiver without charging anything.
      if (receiver.isRef()) {
        const HeapObject& obj = heap_.get(receiver.asRef());
        if (obj.kind == ObjKind::kObject && obj.layout != nullptr &&
            obj.layout->classId >= 0) {
          CallCache& cache =
              callCaches_[static_cast<std::size_t>(e.cacheSlot)];
          if (cache.classId != obj.layout->classId) {
            const ResolvedClass& rc =
                resolution_
                    ->classes[static_cast<std::size_t>(obj.layout->classId)];
            const ResolvedMethod* rm = rc.findMethod(e.strValue);
            if (rm == nullptr) {
              throw VmError("unknown method " + obj.className + "." +
                            e.strValue + " at line " +
                            std::to_string(e.line));
            }
            cache.classId = obj.layout->classId;
            cache.cls = rc.decl;
            cache.method = rm->decl;
          }
          charge(Op::kCall);
          return invoke(*cache.cls, *cache.method, receiver,
                        std::move(args));
        }
      }
      // Slow path (strings, builders, boxed values, foreign exception
      // objects, non-reference receivers): the seed sequence, verbatim.
      Value builtinResult;
      if (builtins_.instanceCall(receiver, e.strValue, args,
                                 &builtinResult)) {
        return builtinResult;
      }
      const HeapObject& obj = heap_.get(receiver.asRef());
      if (obj.kind != ObjKind::kObject) {
        throw VmError("method call on non-object");
      }
      const std::int32_t classId = resolution_->classIdOf(obj.className);
      if (classId < 0) {
        throw VmError("method call on unknown class " + obj.className);
      }
      const ResolvedClass& rc =
          resolution_->classes[static_cast<std::size_t>(classId)];
      const ResolvedMethod* rm = rc.findMethod(e.strValue);
      if (rm == nullptr) {
        throw VmError("unknown method " + obj.className + "." + e.strValue +
                      " at line " + std::to_string(e.line));
      }
      charge(Op::kCall);
      return invoke(*rc.decl, *rm->decl, receiver, std::move(args));
    }

    default:
      // Every call is classified by the resolver; an unresolved call here
      // means the program bypassed ensureResolved().
      throw VmError("unresolved call '" + e.strValue + "' at line " +
                    std::to_string(e.line));
  }
}

// ---------------------------------------------------------------------------
// GC roots

void Interpreter::scanGcRoots(Gc::RootWalker& w) {
  for (Frame& f : frames_) {
    w.visit(f.thisValue);
    for (Value& v : f.locals) w.visit(v);
  }
  w.visit(returnValue_);
  for (Value& v : statics_) w.visit(v);
  // Interned literals are roots: re-evaluating a literal must keep
  // returning the same Ref (the walker skips unfilled kNullRef entries).
  for (Ref& r : literalPool_) w.visit(r);
}

}  // namespace jepo::jvm
