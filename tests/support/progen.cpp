#include "tests/support/progen.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace jepo::testgen {
namespace {

// Shape of one generated helper class H<i>. All members are ints; names are
// positional (f0.., s0.., m0.., t0..) so references never dangle. Every
// class has a one-argument constructor and a static `boom` that throws
// through a finally block for a third of its inputs.
struct ClassSpec {
  int fields = 0;
  int statics = 0;
  int methods = 0;        // int m<k>(int x)
  int staticMethods = 0;  // static int t<k>(int x)
  std::vector<bool> fieldInit;   // `int f<k> = ...;`
  std::vector<bool> staticInit;  // `static int s<k> = ...;`
};

// One lexical scope's visible locals. Names are globally unique (a single
// counter per kind), so shadowing never occurs and scope tracking only
// decides visibility, not validity.
struct Scope {
  std::vector<std::string> ints;
  std::vector<std::pair<std::string, int>> objs;  // name, class index
  std::vector<std::pair<std::string, int>> arrs;  // name, length
};

class Emitter {
 public:
  explicit Emitter(std::uint64_t seed) : rng_(seed) {}

  std::string emit() {
    const int helpers = static_cast<int>(rng_.nextInt(1, 3));
    classes_.resize(static_cast<std::size_t>(helpers));
    for (ClassSpec& c : classes_) {
      c.fields = static_cast<int>(rng_.nextInt(1, 3));
      c.statics = static_cast<int>(rng_.nextInt(0, 2));
      c.methods = static_cast<int>(rng_.nextInt(1, 3));
      c.staticMethods = static_cast<int>(rng_.nextInt(0, 2));
      for (int f = 0; f < c.fields; ++f) {
        c.fieldInit.push_back(rng_.nextBelow(2) == 0);
      }
      for (int s = 0; s < c.statics; ++s) {
        c.staticInit.push_back(rng_.nextBelow(2) == 0);
      }
    }
    std::string out;
    for (int i = 0; i < helpers; ++i) emitClass(out, i);
    emitMain(out);
    return out;
  }

 private:
  // ------------------------------------------------------------- utilities

  static std::string className(int idx) { return "H" + std::to_string(idx); }

  std::string freshInt() { return "l" + std::to_string(nextInt_++); }
  std::string freshObj() { return "o" + std::to_string(nextObj_++); }
  std::string freshArr() { return "a" + std::to_string(nextArr_++); }
  std::string freshLoop() { return "i" + std::to_string(nextLoop_++); }
  std::string freshExc() { return "e" + std::to_string(nextExc_++); }

  std::vector<std::string> visibleInts() const {
    std::vector<std::string> v;
    for (const Scope& s : scopes_)
      v.insert(v.end(), s.ints.begin(), s.ints.end());
    return v;
  }
  /// Visible int locals a statement may write: never a loop counter.
  std::vector<std::string> writableInts() const {
    std::vector<std::string> v;
    for (const std::string& n : visibleInts())
      if (n[0] != 'i') v.push_back(n);
    return v;
  }
  std::vector<std::pair<std::string, int>> visibleObjs() const {
    std::vector<std::pair<std::string, int>> v;
    for (const Scope& s : scopes_)
      v.insert(v.end(), s.objs.begin(), s.objs.end());
    return v;
  }
  std::vector<std::pair<std::string, int>> visibleArrs() const {
    std::vector<std::pair<std::string, int>> v;
    for (const Scope& s : scopes_)
      v.insert(v.end(), s.arrs.begin(), s.arrs.end());
    return v;
  }
  /// (class, slot) statics visible from the current context: this class's
  /// and every earlier class's (any class from Main).
  std::vector<std::pair<int, int>> visibleStatics() const {
    std::vector<std::pair<int, int>> cands;
    const int limit = inClass_ >= 0 ? inClass_ + 1
                                    : static_cast<int>(classes_.size());
    for (int c = 0; c < limit; ++c)
      for (int s = 0; s < classes_[static_cast<std::size_t>(c)].statics; ++s)
        cands.emplace_back(c, s);
    return cands;
  }

  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[rng_.nextBelow(v.size())];
  }

  void indent(std::string& out) const {
    out.append(static_cast<std::size_t>(indent_) * 2, ' ');
  }

  // Call sites compound: a method called from a loop that itself calls two
  // methods that each call two more multiplies the dynamic invocation count
  // per level. Keeping programs comfortably under the engines' step limits
  // needs a structural bound: at most a few call sites per body, and none
  // inside helper-method loops (Main's loops run a bounded number of times,
  // so calls there only multiply by the loop's own trip count).
  bool callAllowed(bool exprAllows) {
    if (!exprAllows || callBudget_ <= 0) return false;
    if (inClass_ >= 0 && loopDepth_ > 0) return false;
    return true;
  }
  /// Risky operations (division by a possibly-zero value, unchecked array
  /// indices, explicit throws, calls to boom) only appear where an
  /// enclosing catch clause handles every exception they raise.
  bool riskAllowed() const { return catchDepth_ > 0; }

  // ----------------------------------------------------------- expressions

  // Always-positive denominator: ((e) % 7 + 13) lands in [7, 19].
  std::string safeDenominator(const std::string& e) {
    return "((" + e + ") % 7 + 13)";
  }

  // In-range index for an array of length `len`, whatever sign `e` has.
  std::string safeIndex(const std::string& e, int len) {
    const std::string l = std::to_string(len);
    return "((" + e + ") % " + l + " + " + l + ") % " + l;
  }

  std::string literal() { return std::to_string(rng_.nextInt(0, 20)); }

  // An int-valued expression. `depth` bounds recursion; `calls` allows
  // method-call atoms (disabled inside constructors and initializers to
  // keep the call graph acyclic and construction non-reentrant).
  std::string genExpr(int depth, bool calls = true) {
    if (depth <= 0) return genAtom(calls);
    switch (rng_.nextBelow(8)) {
      case 0:
        return genAtom(calls);
      case 1:
        return "(" + genExpr(depth - 1, calls) + " + " +
               genExpr(depth - 1, calls) + ")";
      case 2:
        return "(" + genExpr(depth - 1, calls) + " - " +
               genExpr(depth - 1, calls) + ")";
      case 3:
        return "(" + genExpr(depth - 1, calls) + " * " +
               genExpr(depth - 1, calls) + ")";
      case 4:
        if (riskAllowed() && rng_.nextBelow(3) == 0) {  // may divide by 0
          return "(" + genExpr(depth - 1, calls) + " / ((" +
                 genExpr(depth - 1, calls) + ") % 3))";
        }
        return "(" + genExpr(depth - 1, calls) + " / " +
               safeDenominator(genExpr(depth - 1, calls)) + ")";
      case 5:
        return "(" + genExpr(depth - 1, calls) + " % " +
               safeDenominator(genExpr(depth - 1, calls)) + ")";
      case 6:
        return "(" + genCondition(1, depth - 1, calls) + " ? " +
               genExpr(depth - 1, calls) + " : " + genExpr(depth - 1, calls) +
               ")";
      default:
        return "(-" + genExpr(depth - 1, calls) + ")";
    }
  }

  std::string genAtom(bool calls) {
    // Atoms nest expressions (indices, arguments); past two levels only
    // leaves remain, which bounds the recursion.
    struct Nest {
      int& depth;
      ~Nest() { --depth; }
    } nest{++atomNest_};
    if (nest.depth > 2) {
      const std::vector<std::string> ints = visibleInts();
      return ints.empty() || rng_.nextBelow(2) == 0 ? literal() : pick(ints);
    }
    for (int attempt = 0; attempt < 8; ++attempt) {
      switch (rng_.nextBelow(9)) {
        case 0:
          return literal();
        case 1: {
          const std::vector<std::string> ints = visibleInts();
          if (ints.empty()) break;
          return pick(ints);
        }
        case 2: {  // static field, qualified or (own class) unqualified
          const auto cands = visibleStatics();
          if (cands.empty()) break;
          const auto [c, s] = pick(cands);
          if (c == inClass_ && rng_.nextBelow(2) == 0) {
            return "s" + std::to_string(s);
          }
          return className(c) + ".s" + std::to_string(s);
        }
        case 3: {  // own field (instance context only)
          if (inClass_ < 0 || inStatic_) break;
          const int n = classes_[static_cast<std::size_t>(inClass_)].fields;
          const std::string f =
              "f" + std::to_string(rng_.nextBelow(
                        static_cast<std::uint64_t>(n)));
          return rng_.nextBelow(3) == 0 ? "this." + f : f;
        }
        case 4: {  // field read or method call on an object-typed local
          const auto objs = visibleObjs();
          if (objs.empty()) break;
          const auto& [name, cls] = pick(objs);
          const ClassSpec& spec = classes_[static_cast<std::size_t>(cls)];
          if (callAllowed(calls) && rng_.nextBelow(2) == 0) {
            --callBudget_;
            const std::uint64_t m =
                rng_.nextBelow(static_cast<std::uint64_t>(spec.methods));
            return name + ".m" + std::to_string(m) + "(" + genExpr(1, false) +
                   ")";
          }
          return name + ".f" +
                 std::to_string(rng_.nextBelow(
                     static_cast<std::uint64_t>(spec.fields)));
        }
        case 5: {  // array load
          const auto arrs = visibleArrs();
          if (arrs.empty()) break;
          const auto& [name, len] = pick(arrs);
          if (riskAllowed() && rng_.nextBelow(3) == 0) {  // may be out of range
            return name + "[(" + genExpr(1, false) + ") % " +
                   std::to_string(len + 3) + "]";
          }
          return name + "[" + safeIndex(genExpr(1, false), len) + "]";
        }
        case 6: {  // ++/-- on a writable local, as an expression
          const auto ints = writableInts();
          if (ints.empty()) break;
          const std::string& n = pick(ints);
          switch (rng_.nextBelow(4)) {
            case 0: return "(" + n + "++)";
            case 1: return "(" + n + "--)";
            case 2: return "(++" + n + ")";
            default: return "(--" + n + ")";
          }
        }
        case 7: {  // a helper that may throw (inside a catching try only)
          if (!riskAllowed() || !callAllowed(calls)) break;
          const int limit = inClass_ >= 0 ? inClass_
                                          : static_cast<int>(classes_.size());
          if (limit <= 0) break;
          --callBudget_;
          return className(static_cast<int>(rng_.nextBelow(
                     static_cast<std::uint64_t>(limit)))) +
                 ".boom(" + genExpr(1, false) + ")";
        }
        default: {  // a call: qualified static, or unqualified self
          if (!callAllowed(calls)) break;
          struct Callee {
            int cls;
            int idx;
            bool self;
          };
          std::vector<Callee> cands;
          // Qualified statics of strictly earlier classes (any class when
          // generating Main) — the acyclic half of the call graph.
          const int limit = inClass_ >= 0 ? inClass_
                                          : static_cast<int>(classes_.size());
          for (int c = 0; c < limit; ++c)
            for (int t = 0;
                 t < classes_[static_cast<std::size_t>(c)].staticMethods; ++t)
              cands.push_back({c, t, false});
          // Unqualified self calls: only strictly earlier methods of the
          // same kind, so intra-class recursion is impossible too.
          if (inClass_ >= 0)
            for (int m = 0; m < inMethod_; ++m)
              cands.push_back({inClass_, m, true});
          if (cands.empty()) break;
          --callBudget_;
          const Callee& callee = pick(cands);
          if (callee.self) {
            const char* prefix = inStatic_ ? "t" : "m";
            return std::string(prefix) + std::to_string(callee.idx) + "(" +
                   genExpr(1, false) + ")";
          }
          return className(callee.cls) + ".t" + std::to_string(callee.idx) +
                 "(" + genExpr(1, false) + ")";
        }
      }
    }
    return literal();
  }

  /// A boolean: comparisons of depth-`exprDepth` expressions, combined
  /// with && / || / ! up to `depth` levels.
  std::string genCondition(int depth = 1, int exprDepth = 1,
                           bool calls = true) {
    static const char* const kCmp[] = {"<", "<=", ">", ">=", "==", "!="};
    if (depth > 0) {
      switch (rng_.nextBelow(5)) {
        case 0:
          return "(" + genCondition(depth - 1, exprDepth, calls) + " && " +
                 genCondition(depth - 1, exprDepth, calls) + ")";
        case 1:
          return "(" + genCondition(depth - 1, exprDepth, calls) + " || " +
                 genCondition(depth - 1, exprDepth, calls) + ")";
        case 2:
          return "!" + genCondition(depth - 1, exprDepth, calls);
        default:
          break;
      }
    }
    return "(" + genExpr(exprDepth, calls) + " " + kCmp[rng_.nextBelow(6)] +
           " " + genExpr(exprDepth, calls) + ")";
  }

  // ------------------------------------------------------------ statements

  /// `target op= e;`, `target = e;` or `target++;`-style update.
  std::string update(const std::string& target) {
    switch (rng_.nextBelow(6)) {
      case 0: return target + " = " + genExpr(2) + ";";
      case 1: return target + " += " + genExpr(1) + ";";
      case 2: return target + " -= " + genExpr(1) + ";";
      case 3: return target + " *= " + genExpr(1) + ";";
      case 4: return target + "++;";
      default: return "--" + target + ";";
    }
  }

  void genStmt(std::string& out, int stmtDepth) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      switch (rng_.nextBelow(16)) {
        case 0: {  // new int local
          const std::string n = freshInt();
          indent(out);
          out += "int " + n + " = " + genExpr(2) + ";\n";
          scopes_.back().ints.push_back(n);
          return;
        }
        case 1: {  // update an existing int local — never a loop counter
          const auto ints = writableInts();
          if (ints.empty()) break;
          indent(out);
          out += update(pick(ints)) + "\n";
          return;
        }
        case 2: {  // if / else
          if (stmtDepth >= 2) break;
          indent(out);
          out += "if (" + genCondition() + ") {\n";
          genBlock(out, stmtDepth + 1, static_cast<int>(rng_.nextInt(1, 2)));
          indent(out);
          if (rng_.nextBelow(2) == 0) {
            out += "} else {\n";
            genBlock(out, stmtDepth + 1, static_cast<int>(rng_.nextInt(1, 2)));
            indent(out);
          }
          out += "}\n";
          return;
        }
        case 3: {  // bounded while loop (break only: the counter is last)
          if (loopDepth_ >= 2 || stmtDepth >= 2) break;
          const std::string i = freshLoop();
          indent(out);
          out += "int " + i + " = 0;\n";
          indent(out);
          out += "while (" + i + " < " + std::to_string(rng_.nextInt(2, 8)) +
                 ") {\n";
          loopBody(out, stmtDepth, i, /*allowContinue=*/false);
          indent(out);
          out += i + " = " + i + " + 1;\n";
          --indent_;
          indent(out);
          out += "}\n";
          return;
        }
        case 4: {  // bounded for loop (break and continue)
          if (loopDepth_ >= 2 || stmtDepth >= 2) break;
          const std::string i = freshLoop();
          indent(out);
          out += "for (int " + i + " = 0; " + i + " < " +
                 std::to_string(rng_.nextInt(2, 6)) + "; " + i + "++) {\n";
          loopBody(out, stmtDepth, i, /*allowContinue=*/true);
          --indent_;
          indent(out);
          out += "}\n";
          return;
        }
        case 5: {  // construct a helper object
          const int limit = inClass_ >= 0 ? inClass_
                                          : static_cast<int>(classes_.size());
          if (limit <= 0) break;
          const int cls = static_cast<int>(
              rng_.nextBelow(static_cast<std::uint64_t>(limit)));
          const std::string n = freshObj();
          indent(out);
          out += className(cls) + " " + n + " = new " + className(cls) + "(" +
                 genExpr(1) + ");\n";
          scopes_.back().objs.emplace_back(n, cls);
          return;
        }
        case 6: {  // this-field update (instance context)
          if (inClass_ < 0 || inStatic_) break;
          const int n = classes_[static_cast<std::size_t>(inClass_)].fields;
          const std::string f =
              "f" + std::to_string(rng_.nextBelow(
                        static_cast<std::uint64_t>(n)));
          indent(out);
          out += update(rng_.nextBelow(2) == 0 ? "this." + f : f) + "\n";
          return;
        }
        case 7: {  // new int array
          const int len = static_cast<int>(rng_.nextInt(4, 12));
          const std::string n = freshArr();
          indent(out);
          out += "int[] " + n + " = new int[" + std::to_string(len) + "];\n";
          scopes_.back().arrs.emplace_back(n, len);
          return;
        }
        case 8: {  // array element update
          const auto arrs = visibleArrs();
          if (arrs.empty()) break;
          const auto& [name, len] = pick(arrs);
          const std::string idx =
              riskAllowed() && rng_.nextBelow(3) == 0
                  ? "(" + genExpr(1, false) + ") % " + std::to_string(len + 3)
                  : safeIndex(genExpr(1, false), len);
          indent(out);
          out += update(name + "[" + idx + "]") + "\n";
          return;
        }
        case 9: {  // qualified field update on an object local
          const auto objs = visibleObjs();
          if (objs.empty()) break;
          const auto& [name, cls] = pick(objs);
          const int n = classes_[static_cast<std::size_t>(cls)].fields;
          indent(out);
          out += update(name + ".f" +
                        std::to_string(rng_.nextBelow(
                            static_cast<std::uint64_t>(n)))) +
                 "\n";
          return;
        }
        case 10: {  // static update, qualified or (own class) unqualified
          const auto cands = visibleStatics();
          if (cands.empty()) break;
          const auto [c, s] = pick(cands);
          const std::string target =
              c == inClass_ && rng_.nextBelow(2) == 0
                  ? "s" + std::to_string(s)
                  : className(c) + ".s" + std::to_string(s);
          indent(out);
          out += update(target) + "\n";
          return;
        }
        case 11: {  // try / catch / finally
          if (stmtDepth >= 2 || tryDepth_ >= 2) break;
          genTry(out, stmtDepth);
          return;
        }
        case 12: {  // throw, guarded (inside a catching try only)
          if (!riskAllowed()) break;
          static const char* const kExc[] = {"IllegalStateException",
                                             "ArithmeticException",
                                             "IllegalArgumentException"};
          indent(out);
          out += "if (" + genCondition(0) + ") throw new " +
                 kExc[rng_.nextBelow(3)] + "(\"t\" + " + genExpr(1, false) +
                 ");\n";
          return;
        }
        case 13: {  // switch over a small selector
          if (stmtDepth >= 2) break;
          genSwitch(out, stmtDepth);
          return;
        }
        case 14: {  // early return from a helper method (maybe past finally)
          if (inClass_ < 0 || stmtDepth == 0) break;
          indent(out);
          out += "if (" + genCondition(0) + ") return " + genExpr(1) + ";\n";
          return;
        }
        default: {  // print — makes divergence visible in stdout too
          indent(out);
          if (rng_.nextBelow(3) == 0) {
            out += "System.out.println(\"v\" + " + genExpr(2) + ");\n";
          } else {
            out += "System.out.println(" + genExpr(2) + ");\n";
          }
          return;
        }
      }
    }
    indent(out);
    out += "System.out.println(" + literal() + ");\n";
  }

  void loopBody(std::string& out, int stmtDepth, const std::string& counter,
                bool allowContinue) {
    ++loopDepth_;
    scopes_.push_back(Scope{});
    scopes_.back().ints.push_back(counter);
    ++indent_;
    const int body = static_cast<int>(rng_.nextInt(1, 3));
    for (int s = 0; s < body; ++s) {
      if (rng_.nextBelow(5) == 0) {
        // Exits the innermost loop — or, inside a switch, the switch.
        indent(out);
        const bool cont = allowContinue && rng_.nextBelow(2) == 0;
        out += "if (" + genCondition(0) +
               (cont ? ") continue;\n" : ") break;\n");
      } else {
        genStmt(out, stmtDepth + 1);
      }
    }
    scopes_.pop_back();
    --loopDepth_;
  }

  void genTry(std::string& out, int stmtDepth) {
    // Flavours: catch-all last clause (its body may raise anything), only
    // specific clauses plus finally, or finally alone. The latter two let
    // exceptions through, so they allow risky code only when an outer try
    // catches everything.
    const int flavour = static_cast<int>(rng_.nextBelow(3));
    const bool catchAll = flavour == 0;
    const bool hasFinally = flavour != 0 || rng_.nextBelow(2) == 0;
    indent(out);
    out += "try {\n";
    ++tryDepth_;
    if (catchAll) ++catchDepth_;
    genBlock(out, stmtDepth + 1, static_cast<int>(rng_.nextInt(1, 3)));
    if (catchAll) --catchDepth_;
    --tryDepth_;
    indent(out);
    out += "}";
    static const char* const kSpecific[] = {"ArithmeticException",
                                            "IllegalStateException",
                                            "ArrayIndexOutOfBoundsException"};
    const int clauses =
        flavour == 2 ? 0 : static_cast<int>(rng_.nextInt(1, 2));
    for (int c = 0; c < clauses; ++c) {
      const bool last = c == clauses - 1;
      const std::string type =
          catchAll && last ? (rng_.nextBelow(2) == 0 ? "RuntimeException"
                                                     : "Exception")
                           : kSpecific[rng_.nextBelow(3)];
      const std::string e = freshExc();
      out += " catch (" + type + " " + e + ") {\n";
      ++indent_;
      indent(out);
      out += "System.out.println(\"c\" + " + e + ".getMessage());\n";
      --indent_;
      genBlock(out, stmtDepth + 1, static_cast<int>(rng_.nextInt(0, 2)));
      indent(out);
      out += "}";
    }
    if (hasFinally) {
      out += " finally {\n";
      genBlock(out, stmtDepth + 1, static_cast<int>(rng_.nextInt(1, 2)));
      indent(out);
      out += "}";
    }
    out += "\n";
  }

  void genSwitch(std::string& out, int stmtDepth) {
    indent(out);
    out += "switch (((" + genExpr(1) + ") % 4 + 4) % 4) {\n";
    const int cases = static_cast<int>(rng_.nextInt(1, 3));
    for (int c = 0; c < cases; ++c) {
      indent(out);
      out += "  case " + std::to_string(c) + ":\n";
      ++indent_;
      genBlock(out, stmtDepth + 1, static_cast<int>(rng_.nextInt(0, 2)));
      --indent_;
      if (rng_.nextBelow(3) != 0) {  // otherwise fall through
        indent(out);
        out += "    break;\n";
      }
    }
    if (rng_.nextBelow(2) == 0) {
      indent(out);
      out += "  default:\n";
      ++indent_;
      genBlock(out, stmtDepth + 1, 1);
      --indent_;
    }
    indent(out);
    out += "}\n";
  }

  void genBlock(std::string& out, int stmtDepth, int stmts) {
    scopes_.push_back(Scope{});
    ++indent_;
    for (int s = 0; s < stmts; ++s) genStmt(out, stmtDepth);
    --indent_;
    scopes_.pop_back();
  }

  // -------------------------------------------------------------- classes

  void emitClass(std::string& out, int idx) {
    const ClassSpec& spec = classes_[static_cast<std::size_t>(idx)];
    out += "class " + className(idx) + " {\n";
    inClass_ = idx;
    // Initializers are call-free; a static one may read this class's
    // earlier statics or an earlier class's (running its <clinit>).
    for (int f = 0; f < spec.fields; ++f) {
      out += "  int f" + std::to_string(f);
      if (spec.fieldInit[static_cast<std::size_t>(f)]) {
        inStatic_ = true;  // no `this` fields in initializers
        out += " = " + genExpr(1, false);
      }
      out += ";\n";
    }
    for (int s = 0; s < spec.statics; ++s) {
      out += "  static int s" + std::to_string(s);
      if (spec.staticInit[static_cast<std::size_t>(s)]) {
        inStatic_ = true;
        ClassSpec& self = classes_[static_cast<std::size_t>(idx)];
        const int saved = self.statics;
        self.statics = s;  // only earlier statics of this class
        out += " = " + genExpr(1, false);
        self.statics = saved;
      }
      out += ";\n";
    }

    // Constructor: assigns fields from call-free expressions so
    // `new H<j>(...)` can never recurse into user methods.
    inStatic_ = false;
    inMethod_ = 0;
    out += "  " + className(idx) + "(int x) {\n";
    scopes_.push_back(Scope{});
    scopes_.back().ints.push_back("x");
    indent_ = 2;
    for (int f = 0; f < spec.fields; ++f) {
      if (rng_.nextBelow(3) == 0) continue;
      indent(out);
      out += (rng_.nextBelow(2) == 0 ? "this.f" : "f") + std::to_string(f) +
             " = " + genExpr(1, false) + ";\n";
    }
    scopes_.pop_back();
    out += "  }\n";

    // boom: throws through a finally block for a third of its inputs.
    out += "  static int boom(int x) {\n";
    out += "    int r = x;\n";
    out += "    try {\n";
    out += "      if (x % 3 == 0) throw new IllegalStateException(\"boom\" + "
           "x);\n";
    out += "      r = r + 1;\n";
    out += "    } finally {\n";
    out += "      r = r * 2;\n";
    out += "    }\n";
    out += "    return r;\n";
    out += "  }\n";

    for (int m = 0; m < spec.methods; ++m) {
      inStatic_ = false;
      inMethod_ = m;
      out += "  int m" + std::to_string(m) + "(int x) {\n";
      emitMethodBody(out);
      out += "  }\n";
    }
    for (int t = 0; t < spec.staticMethods; ++t) {
      inStatic_ = true;
      inMethod_ = t;
      out += "  static int t" + std::to_string(t) + "(int x) {\n";
      emitMethodBody(out);
      out += "  }\n";
    }
    out += "}\n";
    inClass_ = -1;
    inStatic_ = true;
  }

  void emitMethodBody(std::string& out) {
    callBudget_ = 2;
    catchDepth_ = 0;
    scopes_.push_back(Scope{});
    scopes_.back().ints.push_back("x");
    indent_ = 2;
    const int stmts = static_cast<int>(rng_.nextInt(1, 4));
    for (int s = 0; s < stmts; ++s) genStmt(out, 0);
    indent(out);
    out += "return " + genExpr(2) + ";\n";
    scopes_.pop_back();
  }

  void emitMain(std::string& out) {
    inClass_ = -1;
    inStatic_ = true;
    inMethod_ = 0;
    callBudget_ = 4;
    catchDepth_ = 0;
    out += "class Main {\n";
    out += "  static int g0;\n";
    out += "  static void main(String[] args) {\n";
    scopes_.push_back(Scope{});
    indent_ = 2;
    out += "    g0 = " + literal() + ";\n";
    const int stmts = static_cast<int>(rng_.nextInt(4, 8));
    for (int s = 0; s < stmts; ++s) genStmt(out, 0);

    // Guaranteed churn: every iteration allocates, so the heap-limited
    // rerun in the fuzzer exercises the collector on every seed, with a
    // live/dead mix and a printed checksum.
    const int iters = static_cast<int>(rng_.nextInt(40, 160));
    const int cls = static_cast<int>(
        rng_.nextBelow(static_cast<std::uint64_t>(classes_.size())));
    const ClassSpec& spec = classes_[static_cast<std::size_t>(cls)];
    const std::string m =
        "m" + std::to_string(rng_.nextBelow(
                  static_cast<std::uint64_t>(spec.methods)));
    out += "    int chk = g0;\n";
    out += "    int ci = 0;\n";
    out += "    while (ci < " + std::to_string(iters) + ") {\n";
    out += "      " + className(cls) + " tmp = new " + className(cls) +
           "(ci);\n";
    out += "      int[] buf = new int[8];\n";
    out += "      chk = chk + tmp." + m + "(ci) + tmp.f0 + buf[((ci) % 8 + "
           "8) % 8];\n";
    out += "      ci = ci + 1;\n";
    out += "    }\n";
    out += "    System.out.println(chk);\n";
    scopes_.pop_back();
    out += "  }\n";
    out += "}\n";
  }

  Rng rng_;
  std::vector<ClassSpec> classes_;
  std::vector<Scope> scopes_;
  int inClass_ = -1;  // -1 = Main
  bool inStatic_ = true;
  int inMethod_ = 0;
  int indent_ = 2;
  int loopDepth_ = 0;
  int tryDepth_ = 0;
  int catchDepth_ = 0;  // enclosing tries whose last clause catches all
  int callBudget_ = 0;
  int atomNest_ = 0;
  int nextInt_ = 0;
  int nextObj_ = 0;
  int nextArr_ = 0;
  int nextLoop_ = 0;
  int nextExc_ = 0;
};

}  // namespace

GeneratedProgram generateProgram(std::uint64_t seed) {
  char tag[24];
  std::snprintf(tag, sizeof tag, "fuzz_%016llx",
                static_cast<unsigned long long>(seed));
  GeneratedProgram p;
  p.name = tag;
  p.source = Emitter(seed).emit();
  return p;
}

}  // namespace jepo::testgen
