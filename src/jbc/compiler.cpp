#include "jbc/compiler.hpp"

#include <limits>
#include <unordered_map>

#include "energy/op.hpp"
#include "jlang/resolve.hpp"
#include "jvm/ops.hpp"

namespace jepo::jbc {

using jlang::AssignOp;
using jlang::BinOp;
using jlang::CallKind;
using jlang::ClassDecl;
using jlang::Expr;
using jlang::ExprKind;
using jlang::MethodDecl;
using jlang::NameRef;
using jlang::Prim;
using jlang::Program;
using jlang::Stmt;
using jlang::StmtKind;
using jlang::UnOp;
using jvm::ValKind;

namespace {

class ProgramCompiler;

/// Compiles one method body (or one class's field initializers) into a
/// Chunk, mirroring Interpreter::execStmt / eval node by node.
class MethodCompiler {
 public:
  MethodCompiler(ProgramCompiler& owner, const ClassDecl& cls);

  Chunk compileMethod(const MethodDecl& m);
  Chunk compileFieldInits(bool staticFields);

 private:
  // ------------------------------------------------------------ emission
  /// Emit one instruction carrying every step taken since the previous
  /// one (the tree steps on node entry, before the node's charges).
  int emit(Op op, std::int32_t a = 0, std::int32_t b = 0, std::int32_t c = 0,
           int line = 0) {
    while (pending_ > std::numeric_limits<std::uint16_t>::max()) {
      Instr s{Op::kStep};
      s.n = std::numeric_limits<std::uint16_t>::max();
      chunk_.code.push_back(s);
      pending_ -= std::numeric_limits<std::uint16_t>::max();
    }
    Instr in{op};
    in.n = static_cast<std::uint16_t>(pending_);
    in.a = a;
    in.b = b;
    in.c = c;
    in.line = line;
    pending_ = 0;
    chunk_.code.push_back(in);
    return static_cast<int>(chunk_.code.size() - 1);
  }
  void charge(energy::Op op) { emit(Op::kCharge, static_cast<int>(op)); }
  /// A jump target: pending steps belong to the code before it, never to
  /// every path that reaches it.
  int label() {
    if (pending_ > 0) emit(Op::kStep);
    return static_cast<int>(chunk_.code.size());
  }
  void patch(int at, int target) {
    chunk_.code[static_cast<std::size_t>(at)].a = target;
  }
  int newTemp() { return chunk_.numSlots++; }
  /// Index of `s` in the program's name pool (names, messages).
  int name(const std::string& s);

  // ------------------------------------------------------------ statements
  void stmt(const Stmt& s);
  void compileTry(const Stmt& s);
  void compileSwitch(const Stmt& s);
  void compileReturn(const Stmt& s);
  void compileJump(const Stmt& s, bool isBreak);
  /// Inline the finally blocks of the tries being left, innermost first,
  /// down to (excluding) try depth `downTo`.
  void emitFinallyCopies(std::size_t downTo);

  // ----------------------------------------------------------- expressions
  void expr(const Expr& e);
  void compileVarRef(const Expr& e);
  void compileCall(const Expr& e);
  /// Store the value on top of the stack into `target` (Interpreter::
  /// storeTo: re-evaluates the target's subexpressions).
  void storeTo(const Expr& target);
  int staticSite(const Expr& e, const std::string& className);

  ProgramCompiler& owner_;
  const ClassDecl& cls_;
  Chunk chunk_;
  int pending_ = 0;

  struct TryContext {
    const Stmt* finallyBlock = nullptr;
    /// pc ranges of finally copies run after leaving this try (abrupt
    /// exits from inside it): excluded from its handler ranges.
    std::vector<std::pair<int, int>> gaps;
  };
  std::vector<TryContext> tries_;

  struct LoopContext {
    std::vector<int> breakJumps;
    std::vector<int> continueJumps;
    bool isLoop = true;         // false for switch (breakable only)
    std::size_t tryDepth = 0;   // tries_ live at loop entry
  };
  std::vector<LoopContext> loops_;
};

class ProgramCompiler {
 public:
  explicit ProgramCompiler(const Program& program) : program_(program) {}

  CompiledProgram run();

  int nameIdx(const std::string& s) {
    const auto it = nameIndex_.find(s);
    if (it != nameIndex_.end()) return it->second;
    out_.names.push_back(s);
    const int idx = static_cast<int>(out_.names.size() - 1);
    nameIndex_.emplace(s, idx);
    return idx;
  }
  int intIdx(std::int64_t v) {
    out_.intPool.push_back(v);
    return static_cast<int>(out_.intPool.size() - 1);
  }
  int numIdx(double v) {
    out_.numPool.push_back(v);
    return static_cast<int>(out_.numPool.size() - 1);
  }
  int siteIdx(StaticSite site) {
    out_.staticSites.push_back(std::move(site));
    return static_cast<int>(out_.staticSites.size() - 1);
  }
  const jlang::Resolution& res() const { return *res_; }

 private:
  const Program& program_;
  CompiledProgram out_;
  std::unordered_map<std::string, int> nameIndex_;
  std::shared_ptr<const jlang::Resolution> res_;
};

// ---------------------------------------------------------------------------

MethodCompiler::MethodCompiler(ProgramCompiler& owner, const ClassDecl& cls)
    : owner_(owner), cls_(cls) {}

int MethodCompiler::name(const std::string& s) { return owner_.nameIdx(s); }

Chunk MethodCompiler::compileMethod(const MethodDecl& m) {
  chunk_ = Chunk{};
  chunk_.qualifiedName = cls_.name + "." + m.name;
  chunk_.methodId = m.methodId;
  chunk_.isStatic = m.isStatic;
  chunk_.line = m.line;
  for (const auto& p : m.params) {
    chunk_.paramKinds.push_back(jvm::kindOfType(p.type));
  }
  chunk_.numSlots = m.numSlots;
  if (m.body) stmt(*m.body);
  emit(Op::kRet, 0, 0, 0, m.line);
  return std::move(chunk_);
}

Chunk MethodCompiler::compileFieldInits(bool staticFields) {
  const jlang::ResolvedClass& rc =
      owner_.res().classes[static_cast<std::size_t>(cls_.classId)];
  chunk_ = Chunk{};
  chunk_.qualifiedName =
      cls_.name + (staticFields ? ".<clinit>" : ".<initfields>");
  chunk_.methodId = staticFields ? rc.clinitId : rc.initFieldsId;
  chunk_.isStatic = staticFields;
  chunk_.line = cls_.line;
  bool any = false;
  for (const auto& f : cls_.fields) {
    if (f.isStatic != staticFields || !f.init) continue;
    any = true;
    expr(*f.init);
    const ValKind k = jvm::kindOfType(f.type);
    if (staticFields) {
      emit(Op::kInitStatic, f.slot, static_cast<int>(k),
           jlang::isWrapperClassName(f.type.className)
               ? name(f.type.className)
               : -1,
           f.line);
    } else {
      emit(Op::kInitField, f.slot, static_cast<int>(k), 0, f.line);
    }
  }
  if (any) emit(Op::kRet);
  return std::move(chunk_);
}

// ----------------------------------------------------------------- stmts

void MethodCompiler::stmt(const Stmt& s) {
  ++pending_;  // execStmt's step
  switch (s.kind) {
    case StmtKind::kBlock:
      for (const auto& st : s.body) stmt(*st);
      return;

    case StmtKind::kVarDecl: {
      const ValKind k = jvm::kindOfType(s.declType);
      if (s.init) {
        expr(*s.init);
      } else {
        emit(Op::kPushDefault, static_cast<int>(k), 0, 0, s.line);
      }
      emit(Op::kDeclLocal, s.declSlot, static_cast<int>(k),
           jlang::isWrapperClassName(s.declType.className)
               ? name(s.declType.className)
               : -1,
           s.line);
      return;
    }

    case StmtKind::kExprStmt:
      expr(*s.expr);
      emit(Op::kPop, 0, 0, 0, s.line);
      return;

    case StmtKind::kIf: {
      charge(energy::Op::kBranch);
      expr(*s.cond);
      const int jumpElse = emit(Op::kJumpIfFalse, 0, 0, 0, s.line);
      stmt(*s.thenStmt);
      if (s.elseStmt) {
        const int jumpEnd = emit(Op::kJump);
        patch(jumpElse, label());
        stmt(*s.elseStmt);
        patch(jumpEnd, label());
      } else {
        patch(jumpElse, label());
      }
      return;
    }

    case StmtKind::kWhile: {
      const int head = label();
      charge(energy::Op::kBranch);
      expr(*s.cond);
      const int exitJump = emit(Op::kJumpIfFalse, 0, 0, 0, s.line);
      charge(energy::Op::kLoopIter);
      loops_.push_back(LoopContext{{}, {}, true, tries_.size()});
      stmt(*s.thenStmt);
      LoopContext ctx = std::move(loops_.back());
      loops_.pop_back();
      for (int j : ctx.continueJumps) patch(j, head);
      emit(Op::kJump, head);
      const int exit = label();
      patch(exitJump, exit);
      for (int j : ctx.breakJumps) patch(j, exit);
      return;
    }

    case StmtKind::kFor: {
      for (const auto& init : s.body) stmt(*init);
      const int head = label();
      int exitJump = -1;
      if (s.cond) {
        charge(energy::Op::kBranch);
        expr(*s.cond);
        exitJump = emit(Op::kJumpIfFalse, 0, 0, 0, s.line);
      }
      charge(energy::Op::kLoopIter);
      loops_.push_back(LoopContext{{}, {}, true, tries_.size()});
      stmt(*s.thenStmt);
      LoopContext ctx = std::move(loops_.back());
      loops_.pop_back();
      const int update = label();
      for (int j : ctx.continueJumps) patch(j, update);
      for (const auto& u : s.update) {
        expr(*u);
        emit(Op::kPop);
      }
      emit(Op::kJump, head);
      const int exit = label();
      if (exitJump >= 0) patch(exitJump, exit);
      for (int j : ctx.breakJumps) patch(j, exit);
      return;
    }

    case StmtKind::kReturn: compileReturn(s); return;

    case StmtKind::kThrow:
      expr(*s.expr);
      emit(Op::kThrow, 0, 0, 0, s.line);
      return;

    case StmtKind::kTry: compileTry(s); return;
    case StmtKind::kSwitch: compileSwitch(s); return;
    case StmtKind::kBreak: compileJump(s, /*isBreak=*/true); return;
    case StmtKind::kContinue: compileJump(s, /*isBreak=*/false); return;
  }
  throw Error("unhandled statement kind in compiler");
}

void MethodCompiler::compileReturn(const Stmt& s) {
  bool crossesFinally = false;
  for (const auto& t : tries_) crossesFinally |= t.finallyBlock != nullptr;
  if (!crossesFinally) {
    if (s.expr) {
      expr(*s.expr);
      emit(Op::kReturnValue, 0, 0, 0, s.line);
    } else {
      emit(Op::kReturnVoid, 0, 0, 0, s.line);
    }
    return;
  }
  // The value waits in a temporary, uncharged, while the finally blocks
  // run (calls inside them overwrite the return register; an abrupt
  // finally wins), then becomes the register as the method returns.
  const int pending = newTemp();
  if (s.expr) {
    expr(*s.expr);
    emit(Op::kSetRet, pending, 0, 0, s.line);
  } else {
    emit(Op::kSetRet, pending, 1, 0, s.line);
  }
  emitFinallyCopies(0);
  emit(Op::kRet, pending, 1, 0, s.line);
}

void MethodCompiler::compileJump(const Stmt& s, bool isBreak) {
  LoopContext* target = nullptr;
  for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
    if (isBreak || it->isLoop) {
      target = &*it;
      break;
    }
  }
  if (target == nullptr) {
    // The flow propagates out of the method body (running finallys on
    // the way); invoke then charges kReturn and raises the tree's error.
    emitFinallyCopies(0);
    emit(Op::kEscape,
         name("break/continue escaped method " + chunk_.qualifiedName), 0, 0,
         s.line);
    return;
  }
  const auto idx = static_cast<std::size_t>(target - loops_.data());
  emitFinallyCopies(target->tryDepth);  // restores loops_ before returning
  const int j = emit(Op::kJump, 0, 0, 0, s.line);
  LoopContext& ctx = loops_[idx];
  (isBreak ? ctx.breakJumps : ctx.continueJumps).push_back(j);
}

void MethodCompiler::emitFinallyCopies(std::size_t downTo) {
  for (std::size_t i = tries_.size(); i > downTo; --i) {
    const Stmt* fin = tries_[i - 1].finallyBlock;
    if (fin == nullptr) continue;
    // The copy runs outside tries [i-1, top) and outside the loops inside
    // them: its own return/break/continue see only the enclosing context.
    std::vector<TryContext> savedTries(tries_.begin() +
                                           static_cast<std::ptrdiff_t>(i - 1),
                                       tries_.end());
    tries_.resize(i - 1);
    std::vector<LoopContext> savedLoops;
    while (!loops_.empty() && loops_.back().tryDepth >= i) {
      savedLoops.insert(savedLoops.begin(), std::move(loops_.back()));
      loops_.pop_back();
    }
    const int start = label();
    stmt(*fin);
    const int end = label();
    for (auto& l : savedLoops) loops_.push_back(std::move(l));
    for (auto& t : savedTries) {
      t.gaps.emplace_back(start, end);
      tries_.push_back(std::move(t));
    }
  }
}

void MethodCompiler::compileTry(const Stmt& s) {
  charge(energy::Op::kTryEnter);
  const Stmt* finallyBlock = s.finallyBlock.get();
  tries_.push_back(TryContext{finallyBlock, {}});
  const int tryStart = label();
  stmt(*s.tryBlock);
  const int tryEnd = label();
  TryContext ctx = std::move(tries_.back());
  tries_.pop_back();

  // Handler ranges: the try body minus the finally copies inlined into it.
  std::vector<std::pair<int, int>> ranges;
  {
    int from = tryStart;
    for (const auto& [gs, ge] : ctx.gaps) {
      if (gs > from) ranges.emplace_back(from, gs);
      from = ge;
    }
    if (tryEnd > from) ranges.emplace_back(from, tryEnd);
  }

  std::vector<int> endJumps;
  if (finallyBlock != nullptr) stmt(*finallyBlock);
  endJumps.push_back(emit(Op::kJump));

  std::vector<ExceptionEntry> entries;
  for (const auto& clause : s.catches) {
    const int handler = label();
    for (const auto& [rs, re] : ranges) {
      entries.push_back(
          ExceptionEntry{rs, re, handler, name(clause.exceptionClass),
                         clause.slot});
    }
    // An abrupt exit from the catch body still runs this try's finally;
    // an exception thrown by it does not (the tree's catch runs outside
    // its try/finally frame).
    tries_.push_back(TryContext{finallyBlock, {}});
    stmt(*clause.body);
    tries_.pop_back();
    if (finallyBlock != nullptr) stmt(*finallyBlock);
    endJumps.push_back(emit(Op::kJump));
  }
  if (finallyBlock != nullptr) {
    const int temp = newTemp();
    const int handler = label();
    for (const auto& [rs, re] : ranges) {
      entries.push_back(ExceptionEntry{rs, re, handler, -1, temp});
    }
    stmt(*finallyBlock);
    emit(Op::kRethrow, temp);
  }
  for (auto& e : entries) chunk_.handlers.push_back(e);
  const int end = label();
  for (int j : endJumps) patch(j, end);
}

void MethodCompiler::compileSwitch(const Stmt& s) {
  charge(energy::Op::kBranch);
  expr(*s.cond);
  emit(Op::kSwitchSel, 0, 0, 0, s.line);
  std::vector<int> caseJumps(s.cases.size(), -1);
  int defaultIdx = -1;
  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    if (s.cases[i].isDefault) {
      if (defaultIdx < 0) defaultIdx = static_cast<int>(i);
      continue;
    }
    caseJumps[i] =
        emit(Op::kCaseEq, 0, owner_.intIdx(s.cases[i].value), 0, s.line);
  }
  const int noMatch = emit(Op::kPopJump);

  loops_.push_back(LoopContext{{}, {}, false, tries_.size()});
  std::vector<int> bodyStart(s.cases.size(), 0);
  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    bodyStart[i] = label();
    for (const auto& st : s.cases[i].body) stmt(*st);
  }
  LoopContext ctx = std::move(loops_.back());
  loops_.pop_back();
  const int end = label();
  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    if (caseJumps[i] >= 0) patch(caseJumps[i], bodyStart[i]);
  }
  patch(noMatch,
        defaultIdx >= 0 ? bodyStart[static_cast<std::size_t>(defaultIdx)]
                        : end);
  for (int j : ctx.breakJumps) patch(j, end);
}

// ----------------------------------------------------------------- exprs

int MethodCompiler::staticSite(const Expr& e, const std::string& className) {
  return owner_.siteIdx(StaticSite{className, e.strValue, e.classId, e.slot,
                                   e.nameRef == NameRef::kBuiltinStatic});
}

void MethodCompiler::compileVarRef(const Expr& e) {
  switch (e.nameRef) {
    case NameRef::kThis:
      emit(Op::kLoadThis, 0, 0, 0, e.line);
      return;
    case NameRef::kLocal:
      emit(Op::kLoad, e.slot, 0, 0, e.line);
      return;
    case NameRef::kThisField:
      emit(Op::kGetThisField, e.slot, 0, name(e.strValue), e.line);
      return;
    case NameRef::kStaticSlot:
      emit(Op::kGetStatic, e.slot, e.classId, 0, e.line);
      return;
    default:
      emit(Op::kThrowVm,
           name("undefined name '" + e.strValue + "' at line " +
                std::to_string(e.line)),
           0, 0, e.line);
      return;
  }
}

void MethodCompiler::storeTo(const Expr& target) {
  switch (target.kind) {
    case ExprKind::kVarRef:
      switch (target.nameRef) {
        case NameRef::kLocal:
          emit(Op::kStoreLocal, target.slot, 0, 0, target.line);
          return;
        case NameRef::kThisField:
          emit(Op::kPutThisField, target.slot, 0, name(target.strValue),
               target.line);
          return;
        case NameRef::kStaticSlot:
          emit(Op::kPutStatic, target.slot, target.classId, 0, target.line);
          return;
        default:
          emit(Op::kThrowVm,
               name("assignment to undefined name '" + target.strValue +
                    "' at line " + std::to_string(target.line)),
               0, 0, target.line);
          return;
      }
    case ExprKind::kFieldAccess:
      if (target.nameRef == NameRef::kBuiltinStatic ||
          target.nameRef == NameRef::kStaticSlot) {
        // Stores never consult the builtin table.
        if (target.nameRef == NameRef::kStaticSlot && target.slot >= 0) {
          emit(Op::kPutStatic, target.slot, target.classId, 0, target.line);
        } else {
          emit(Op::kPutStaticSite, staticSite(target, target.a->strValue), 0,
               0, target.line);
        }
        return;
      }
      expr(*target.a);
      emit(Op::kPutField, name(target.strValue), target.cacheSlot, 0,
           target.line);
      return;
    case ExprKind::kArrayIndex:
      expr(*target.a);
      emit(Op::kNullCheck, static_cast<int>(NullCheck::kArrayStore), 0, 0,
           target.line);
      expr(*target.b);
      emit(Op::kArraySet, 0, 0, 0, target.line);
      return;
    default:
      emit(Op::kThrowVm,
           name("invalid assignment target at line " +
                std::to_string(target.line)),
           0, 0, target.line);
      return;
  }
}

void MethodCompiler::compileCall(const Expr& e) {
  const std::string at = " at line " + std::to_string(e.line);
  const auto args = [&] {
    for (const auto& a : e.args) expr(*a);
  };
  const int argc = static_cast<int>(e.args.size());
  switch (e.callKind) {
    case CallKind::kPrint:
      if (e.args.empty()) {
        emit(Op::kPrint, e.slot == 1 ? 1 : 0, 0, 0, e.line);
      } else {
        expr(*e.args.at(0));
        emit(Op::kPrint, e.slot == 1 ? 1 : 0, 1, 0, e.line);
      }
      return;
    case CallKind::kBuiltinStatic:
      args();
      emit(Op::kCallBuiltin, name(e.a->strValue), name(e.strValue), argc,
           e.line);
      return;
    case CallKind::kStaticMethod: {
      const jlang::ResolvedClass& rc =
          owner_.res().classes[static_cast<std::size_t>(e.classId)];
      emit(Op::kClassInit, e.classId, 0, 0, e.line);
      args();
      emit(Op::kInvokeStatic, e.classId, rc.methodOrdinal(e.targetMethod),
           argc, e.line);
      return;
    }
    case CallKind::kStaticMissing:
      emit(Op::kThrowVm,
           name("unknown method " + e.a->strValue + "." + e.strValue + at),
           0, 0, e.line);
      return;
    case CallKind::kSelfMethod: {
      const jlang::ResolvedClass& rc =
          owner_.res().classes[static_cast<std::size_t>(cls_.classId)];
      args();
      emit(Op::kInvokeSelf, rc.methodOrdinal(e.targetMethod), argc, 0,
           e.line);
      return;
    }
    case CallKind::kSelfMissing:
      emit(Op::kThrowVm, name("unknown method " + e.strValue + at), 0, 0,
           e.line);
      return;
    case CallKind::kInstanceCached:
      expr(*e.a);
      emit(Op::kNullCheck, static_cast<int>(NullCheck::kCall),
           name(e.strValue), 0, e.line);
      args();
      emit(Op::kInvokeVirtual, name(e.strValue), argc, e.cacheSlot, e.line);
      return;
    default:
      emit(Op::kThrowVm, name("unresolved call '" + e.strValue + "'" + at),
           0, 0, e.line);
      return;
  }
}

void MethodCompiler::expr(const Expr& e) {
  ++pending_;  // eval's step
  switch (e.kind) {
    case ExprKind::kIntLit:
      emit(Op::kConstInt, owner_.intIdx(e.intValue), 0, 0, e.line);
      return;
    case ExprKind::kLongLit:
      emit(Op::kConstLong, owner_.intIdx(e.intValue), 0, 0, e.line);
      return;
    case ExprKind::kFloatLit:
      emit(Op::kConstFloat, owner_.numIdx(e.floatValue), e.scientific ? 0 : 1,
           0, e.line);
      return;
    case ExprKind::kDoubleLit:
      emit(Op::kConstDouble, owner_.numIdx(e.floatValue),
           e.scientific ? 0 : 1, 0, e.line);
      return;
    case ExprKind::kCharLit:
      emit(Op::kConstChar, static_cast<int>(e.intValue), 0, 0, e.line);
      return;
    case ExprKind::kStringLit:
      emit(Op::kConstStr, e.strId, 0, 0, e.line);
      return;
    case ExprKind::kBoolLit:
      emit(Op::kConstBool, e.intValue != 0 ? 1 : 0, 0, 0, e.line);
      return;
    case ExprKind::kNullLit:
      emit(Op::kConstNull, 0, 0, 0, e.line);
      return;
    case ExprKind::kVarRef: compileVarRef(e); return;
    case ExprKind::kFieldAccess:
      if (e.nameRef == NameRef::kBuiltinStatic ||
          e.nameRef == NameRef::kStaticSlot) {
        if (e.nameRef == NameRef::kStaticSlot && e.slot >= 0) {
          emit(Op::kGetStatic, e.slot, e.classId, 0, e.line);
        } else {
          emit(Op::kGetStaticSite, staticSite(e, e.a->strValue), 0, 0,
               e.line);
        }
        return;
      }
      expr(*e.a);
      emit(Op::kGetField, name(e.strValue), e.cacheSlot, 0, e.line);
      return;
    case ExprKind::kArrayIndex:
      expr(*e.a);
      emit(Op::kNullCheck, static_cast<int>(NullCheck::kArrayLoad), 0, 0,
           e.line);
      expr(*e.b);
      emit(Op::kArrayGet, 0, 0, 0, e.line);
      return;
    case ExprKind::kBinary: {
      if (e.binOp == BinOp::kAndAnd || e.binOp == BinOp::kOrOr) {
        charge(energy::Op::kBranch);
        expr(*e.a);
        const int j = emit(Op::kShortCircuit, 0,
                           e.binOp == BinOp::kOrOr ? 1 : 0, 0, e.line);
        expr(*e.b);
        emit(Op::kToBool, 0, 0, 0, e.line);
        patch(j, label());
        return;
      }
      expr(*e.a);
      expr(*e.b);
      emit(Op::kBinary, static_cast<int>(e.binOp), 0, 0, e.line);
      return;
    }
    case ExprKind::kUnary:
      switch (e.unOp) {
        case UnOp::kNeg:
          expr(*e.a);
          emit(Op::kNeg, 0, 0, 0, e.line);
          return;
        case UnOp::kNot:
          expr(*e.a);
          emit(Op::kNot, 0, 0, 0, e.line);
          return;
        case UnOp::kBitNot:
          expr(*e.a);
          emit(Op::kBitNot, 0, 0, 0, e.line);
          return;
        default: {
          const bool inc =
              e.unOp == UnOp::kPreInc || e.unOp == UnOp::kPostInc;
          const bool pre =
              e.unOp == UnOp::kPreInc || e.unOp == UnOp::kPreDec;
          expr(*e.a);
          if (!pre) emit(Op::kDup);
          emit(Op::kIncDec, static_cast<int>(inc ? BinOp::kAdd : BinOp::kSub),
               0, 0, e.line);
          if (pre) emit(Op::kDup);
          storeTo(*e.a);
          return;
        }
      }
    case ExprKind::kAssign: {
      if (e.assignOp == AssignOp::kSet) {
        expr(*e.b);
      } else {
        BinOp op;
        switch (e.assignOp) {
          case AssignOp::kAdd: op = BinOp::kAdd; break;
          case AssignOp::kSub: op = BinOp::kSub; break;
          case AssignOp::kMul: op = BinOp::kMul; break;
          case AssignOp::kDiv: op = BinOp::kDiv; break;
          case AssignOp::kMod: op = BinOp::kMod; break;
          default: throw Error("bad compound assignment");
        }
        expr(*e.a);
        expr(*e.b);
        emit(Op::kBinary, static_cast<int>(op), 1, 0, e.line);
      }
      emit(Op::kDup);  // the assignment's value, before store coercion
      storeTo(*e.a);
      return;
    }
    case ExprKind::kTernary: {
      charge(energy::Op::kTernary);
      expr(*e.a);
      const int jumpElse = emit(Op::kJumpIfFalse, 0, 0, 0, e.line);
      expr(*e.b);
      const int jumpEnd = emit(Op::kJump);
      patch(jumpElse, label());
      expr(*e.c);
      patch(jumpEnd, label());
      return;
    }
    case ExprKind::kCall: compileCall(e); return;
    case ExprKind::kNew:
      for (const auto& a : e.args) expr(*a);
      if (e.callKind == CallKind::kConstruct) {
        emit(Op::kNew, e.classId, static_cast<int>(e.args.size()), 0, e.line);
      } else {
        emit(Op::kNewDyn, name(e.strValue), static_cast<int>(e.args.size()),
             0, e.line);
      }
      return;
    case ExprKind::kNewArray: {
      for (const auto& d : e.args) {
        expr(*d);
        emit(Op::kCheckDim, 0, 0, 0, e.line);
      }
      const ValKind leaf =
          e.type.arrayDims == 0 ? jvm::kindOfType(e.type) : ValKind::kRef;
      emit(Op::kNewArray, static_cast<int>(e.args.size()),
           static_cast<int>(leaf), 0, e.line);
      return;
    }
    case ExprKind::kCast:
      expr(*e.a);
      if (e.type.prim != Prim::kClass && e.type.arrayDims == 0) {
        emit(Op::kCast, static_cast<int>(jvm::kindOfType(e.type)), 0, 0,
             e.line);
      }
      return;
  }
  throw Error("unhandled expression kind in compiler");
}

// ------------------------------------------------------------ post passes
//
// Everything below runs on finished chunks: a max-stack dataflow over the
// unfused code, then the superinstruction peephole.

bool isJump(Op op) {
  switch (op) {
    case Op::kJump: case Op::kJumpIfFalse: case Op::kShortCircuit:
    case Op::kCaseEq: case Op::kPopJump: case Op::kBinaryJumpIfFalse:
    case Op::kCmpLoopHead: case Op::kIncLocalJump:
    case Op::kStoreLocalPopJump:
      return true;
    default:
      return false;
  }
}

bool isTerminator(Op op) {
  switch (op) {
    case Op::kJump: case Op::kPopJump: case Op::kReturnValue:
    case Op::kReturnVoid: case Op::kRet: case Op::kEscape: case Op::kThrow:
    case Op::kRethrow: case Op::kThrowVm:
      return true;
    default:
      return false;
  }
}

/// Operand-stack effect on the fall-through edge (pushes - pops).
int stackEffect(const Instr& in) {
  switch (in.op) {
    case Op::kConstInt: case Op::kConstLong: case Op::kConstFloat:
    case Op::kConstDouble: case Op::kConstStr: case Op::kConstChar:
    case Op::kConstBool: case Op::kConstNull: case Op::kPushDefault:
    case Op::kPushBool: case Op::kLoad: case Op::kLoadThis:
    case Op::kGetThisField: case Op::kGetStatic: case Op::kGetStaticSite:
    case Op::kDup:
      return 1;
    case Op::kStoreLocal: case Op::kDeclLocal: case Op::kPutThisField:
    case Op::kPutStatic: case Op::kPutStaticSite: case Op::kInitStatic:
    case Op::kInitField: case Op::kPop: case Op::kJumpIfFalse:
    case Op::kBinary: case Op::kArrayGet: case Op::kShortCircuit:
    case Op::kReturnValue: case Op::kThrow: case Op::kPopJump:
      return -1;
    case Op::kSetRet:
      return in.b != 0 ? 0 : -1;
    case Op::kPutField:
      return -2;
    case Op::kArraySet:
      return -3;
    case Op::kNewArray:
      return 1 - in.a;
    case Op::kNew: case Op::kNewDyn: case Op::kInvokeSelf:
      return 1 - in.b;
    case Op::kCallBuiltin: case Op::kInvokeStatic:
      return 1 - in.c;
    case Op::kInvokeVirtual:
      return -in.b;  // argc args + receiver popped, result pushed
    case Op::kPrint:
      return in.b != 0 ? 0 : 1;  // pops the argument if present, pushes null
    default:
      return 0;
  }
}

/// Operand-stack effect on the taken edge of a jump.
int jumpEffect(const Instr& in) {
  switch (in.op) {
    case Op::kJumpIfFalse: case Op::kCaseEq: case Op::kPopJump:
      return -1;
    default:  // kJump; kShortCircuit pops its operand and pushes a result
      return 0;
  }
}

void computeMaxStack(Chunk& chunk) {
  const auto size = chunk.code.size();
  std::vector<int> depthAt(size, -1);
  std::vector<std::size_t> work;
  int maxDepth = 0;
  const auto enqueue = [&](std::size_t pc, int depth) {
    if (pc >= size || depthAt[pc] >= depth) return;
    depthAt[pc] = depth;
    if (depth > maxDepth) maxDepth = depth;
    work.push_back(pc);
  };
  if (size > 0) enqueue(0, 0);
  // Handler entry: stack cleared, the exception stored to a slot.
  for (const auto& h : chunk.handlers) {
    enqueue(static_cast<std::size_t>(h.handler), 0);
  }
  while (!work.empty()) {
    const std::size_t pc = work.back();
    work.pop_back();
    const Instr& in = chunk.code[pc];
    const int before = depthAt[pc];
    const int after = before + stackEffect(in);
    if (after > maxDepth) maxDepth = after;
    if (isJump(in.op)) {
      enqueue(static_cast<std::size_t>(in.a), before + jumpEffect(in));
    }
    if (!isTerminator(in.op)) enqueue(pc + 1, after);
  }
  chunk.maxStack = maxDepth;
}

// ------------------------------------------------------------------ fusion

bool isCharge(const Instr& in, energy::Op op) {
  return in.op == Op::kCharge && in.a == static_cast<int>(op);
}

/// Try to fuse the run starting at `pc`; returns its length (1 = none).
/// A candidate run fuses only when no interior pc is a barrier (jump
/// target or handler boundary) and every constituent that takes steps is
/// the first one or one of the op's step points (Instr::n2 / n3).
std::size_t matchSuper(const std::vector<Instr>& c, std::size_t pc,
                       const std::vector<char>& barrier, Instr* out) {
  const auto op = [&](std::size_t i) {
    return pc + i < c.size() ? c[pc + i].op : Op::kStep;
  };
  const auto in = [&](std::size_t i) -> const Instr& { return c[pc + i]; };
  // Step points p2/p3 are constituent offsets (0 = none).
  const auto fusable = [&](std::size_t len, std::size_t p2 = 0,
                           std::size_t p3 = 0) {
    if (pc + len > c.size()) return false;
    for (std::size_t i = 1; i < len; ++i) {
      if (barrier[pc + i]) return false;
      if (in(i).n > 0 && i != p2 && i != p3) return false;
    }
    return true;
  };
  const auto make = [&](Op sop, std::int32_t a, std::int32_t b,
                        std::int32_t cc, std::size_t len,
                        std::size_t lineFrom, std::size_t p2 = 0,
                        std::size_t p3 = 0) {
    *out = Instr{sop};
    out->n = in(0).n;
    out->n2 = p2 != 0 ? in(p2).n : 0;
    out->n3 = p3 != 0 ? in(p3).n : 0;
    out->a = a;
    out->b = b;
    out->c = cc;
    out->line = in(lineFrom).line;
    return len;
  };
  // [kDup kStoreLocal kPop] at offset i: an assignment statement's store.
  const auto isStoreTail = [&](std::size_t i) {
    return op(i) == Op::kDup && op(i + 1) == Op::kStoreLocal &&
           op(i + 2) == Op::kPop;
  };
  const auto withOp = [&](std::size_t len, std::int32_t binOp) {
    out->f = static_cast<std::uint8_t>(binOp);
    return len;
  };

  switch (op(0)) {
    case Op::kCharge: {
      // [kCharge(kBranch) kLoad (kLoad|kConstInt) kBinary kJumpIfFalse
      //  (kCharge(kLoopIter))] — a loop or if header.
      if (!isCharge(in(0), energy::Op::kBranch) || op(1) != Op::kLoad ||
          (op(2) != Op::kLoad && op(2) != Op::kConstInt) ||
          op(3) != Op::kBinary || in(3).b != 0 ||
          op(4) != Op::kJumpIfFalse || in(1).a >= (1 << 24)) {
        break;
      }
      const bool tick =
          fusable(6, 1, 2) && isCharge(in(5), energy::Op::kLoopIter);
      if (!tick && !fusable(5, 1, 2)) break;
      const std::size_t len = tick ? 6 : 5;
      make(Op::kCmpLoopHead, in(4).a, in(1).a | in(3).a << 24, in(2).a, len,
           3, 1, 2);
      out->f = static_cast<std::uint8_t>((op(2) == Op::kConstInt ? 1 : 0) |
                                         (tick ? 2 : 0));
      return len;
    }
    case Op::kLoad:
      // [kLoad s kDup kIncDec kStoreLocal s kPop (kJump)] / [kLoad s kIncDec
      // kDup kStoreLocal s kPop (kJump)]: the `i++;` / `++i;` statement,
      // with the jump: the counted-loop latch.
      if (((op(1) == Op::kDup && op(2) == Op::kIncDec) ||
           (op(1) == Op::kIncDec && op(2) == Op::kDup)) &&
          op(3) == Op::kStoreLocal && in(3).a == in(0).a &&
          op(4) == Op::kPop && fusable(5)) {
        const std::int32_t incOp =
            op(1) == Op::kIncDec ? in(1).a : in(2).a;
        const std::size_t lineFrom = op(1) == Op::kIncDec ? 1 : 2;
        if (op(5) == Op::kJump && fusable(6)) {
          return make(Op::kIncLocalJump, in(5).a, in(0).a, incOp, 6,
                      lineFrom);
        }
        return make(Op::kIncLocal, in(0).a, incOp, 0, 5, lineFrom);
      }
      if ((op(1) == Op::kLoad || op(1) == Op::kConstInt) &&
          op(2) == Op::kBinary && in(2).b == 0) {
        const bool constRhs = op(1) == Op::kConstInt;
        if (isStoreTail(3) && fusable(6, 1)) {
          make(constRhs ? Op::kLoadConstBinaryStore : Op::kLoadLoadBinaryStore,
               in(0).a, in(1).a, in(4).a, 6, 2, 1);
          return withOp(6, in(2).a);
        }
        if (fusable(3, 1)) {
          return make(constRhs ? Op::kLoadConstBinary : Op::kLoadLoadBinary,
                      in(0).a, in(1).a, in(2).a, 3, 2, 1);
        }
      }
      if (op(1) == Op::kBinary && in(1).b == 0) {
        if (isStoreTail(2) && fusable(5)) {
          make(Op::kLoadBinaryStore, in(0).a, 0, in(3).a, 5, 1);
          return withOp(5, in(1).a);
        }
        if (fusable(2)) return make(Op::kLoadBinary, in(0).a, in(1).a, 0, 2, 1);
      }
      if (op(1) == Op::kLoad && fusable(2, 1)) {
        return make(Op::kLoadLoad, in(0).a, in(1).a, 0, 2, 0, 1);
      }
      break;
    case Op::kConstInt:
      if (op(1) == Op::kBinary && in(1).b == 0 && fusable(2)) {
        return make(Op::kConstBinary, in(0).a, in(1).a, 0, 2, 1);
      }
      break;
    case Op::kDup:
      if (isStoreTail(0)) {
        if (op(3) == Op::kJump && fusable(4)) {
          return make(Op::kStoreLocalPopJump, in(3).a, in(1).a, 0, 4, 1);
        }
        if (fusable(3)) return make(Op::kStoreLocalPop, in(1).a, 0, 0, 3, 1);
      }
      break;
    case Op::kBinary:
      if (in(0).b != 0) break;
      if (isStoreTail(1) && fusable(4)) {
        make(Op::kBinaryStore, in(2).a, 0, 0, 4, 0);
        return withOp(4, in(0).a);
      }
      if (op(1) == Op::kJumpIfFalse && fusable(2)) {
        return make(Op::kBinaryJumpIfFalse, in(1).a, in(0).a, 0, 2, 0);
      }
      break;
    default:
      break;
  }
  *out = in(0);
  return 1;
}

/// One greedy left-to-right fusion pass: jump-target and exception-range
/// barriers, match, then remap every jump operand and exception-table
/// entry.
void fuseChunk(Chunk& chunk) {
  const std::vector<Instr>& code = chunk.code;
  if (code.empty()) return;
  std::vector<char> barrier(code.size() + 1, 0);
  barrier[0] = 1;
  for (const Instr& in : code) {
    if (isJump(in.op)) barrier[static_cast<std::size_t>(in.a)] = 1;
  }
  for (const auto& h : chunk.handlers) {
    barrier[static_cast<std::size_t>(h.start)] = 1;
    barrier[static_cast<std::size_t>(h.end)] = 1;
    barrier[static_cast<std::size_t>(h.handler)] = 1;
  }
  std::vector<Instr> fused;
  fused.reserve(code.size());
  // Interior pcs of a fused run never feed a jump or handler operand
  // (they are barrier-free by construction).
  std::vector<std::int32_t> newPcOf(code.size() + 1, 0);
  std::size_t pc = 0;
  while (pc < code.size()) {
    Instr out;
    const std::size_t len = matchSuper(code, pc, barrier, &out);
    for (std::size_t i = 0; i < len; ++i) {
      newPcOf[pc + i] = static_cast<std::int32_t>(fused.size());
    }
    fused.push_back(out);
    pc += len;
  }
  newPcOf[code.size()] = static_cast<std::int32_t>(fused.size());
  for (Instr& in : fused) {
    if (isJump(in.op)) in.a = newPcOf[static_cast<std::size_t>(in.a)];
  }
  for (auto& h : chunk.handlers) {
    h.start = newPcOf[static_cast<std::size_t>(h.start)];
    h.end = newPcOf[static_cast<std::size_t>(h.end)];
    h.handler = newPcOf[static_cast<std::size_t>(h.handler)];
  }
  chunk.code = std::move(fused);
}

// ---------------------------------------------------------------------------

CompiledProgram ProgramCompiler::run() {
  // Resolve before lowering: every bound name site compiles straight to a
  // slot-resolved opcode, exactly as the tree interpreter dispatches it.
  res_ = jlang::ensureResolved(program_);
  out_.resolution = res_;
  for (const auto& unit : program_.units) {
    for (const auto& cls : unit.classes) {
      // Shadowed duplicate class names never execute (findClass returns
      // the first), exactly as in the tree.
      if (out_.classes.count(cls.name) != 0) continue;
      CompiledClass compiled;
      compiled.name = cls.name;
      compiled.classId = cls.classId;
      for (const auto& f : cls.fields) {
        compiled.fields.push_back(CompiledField{
            f.name, jvm::kindOfType(f.type), f.isStatic});
      }
      compiled.clinit = MethodCompiler(*this, cls).compileFieldInits(true);
      compiled.initFields = MethodCompiler(*this, cls).compileFieldInits(false);
      for (const auto& m : cls.methods) {
        // First declaration wins, mirroring ClassDecl::findMethod.
        if (compiled.methods.count(m.name) != 0) continue;
        compiled.methods.emplace(m.name,
                                 MethodCompiler(*this, cls).compileMethod(m));
        if (m.name == "main" && m.isStatic) compiled.hasMain = true;
      }
      out_.classes.emplace(cls.name, std::move(compiled));
    }
  }
  const auto finishChunk = [&](Chunk& chunk) {
    computeMaxStack(chunk);
    fuseChunk(chunk);
    // Compiled programs stay resident in jepod's cache: no growth slack.
    chunk.code.shrink_to_fit();
    chunk.handlers.shrink_to_fit();
  };
  for (auto& [name, cls] : out_.classes) {
    finishChunk(cls.clinit);
    finishChunk(cls.initFields);
    for (auto& [mname, chunk] : cls.methods) finishChunk(chunk);
  }
  out_.names.shrink_to_fit();
  out_.intPool.shrink_to_fit();
  out_.numPool.shrink_to_fit();
  return std::move(out_);
}

}  // namespace

CompiledProgram compile(const Program& program) {
  return ProgramCompiler(program).run();
}

std::string disassemble(const Chunk& chunk, const CompiledProgram& program) {
  std::string out = chunk.qualifiedName + " (slots=" +
                    std::to_string(chunk.numSlots) + ")\n";
  for (std::size_t pc = 0; pc < chunk.code.size(); ++pc) {
    const Instr& in = chunk.code[pc];
    out += "  " + std::to_string(pc) + ": op" +
           std::to_string(static_cast<int>(in.op)) + " a=" +
           std::to_string(in.a) + " b=" + std::to_string(in.b) +
           " c=" + std::to_string(in.c);
    if (in.op == Op::kGetField || in.op == Op::kPutField ||
        in.op == Op::kInvokeVirtual || in.op == Op::kNewDyn ||
        in.op == Op::kThrowVm) {
      out += " (" + program.names.at(static_cast<std::size_t>(in.a)) + ")";
    }
    if (in.n > 0) out += " n=" + std::to_string(static_cast<int>(in.n));
    if (in.n2 > 0) out += " n2=" + std::to_string(static_cast<int>(in.n2));
    if (in.n3 > 0) out += " n3=" + std::to_string(static_cast<int>(in.n3));
    out += "\n";
  }
  for (const auto& h : chunk.handlers) {
    out += "  handler [" + std::to_string(h.start) + "," +
           std::to_string(h.end) + ") -> " + std::to_string(h.handler) +
           "\n";
  }
  return out;
}

}  // namespace jepo::jbc
