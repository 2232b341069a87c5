// Bytecode representation — the "Javassist level" of the reproduction.
//
// JEPO's profiler injects measurement instructions into compiled method
// bodies. The jbc module makes that level real: a compiler lowers MiniJava
// methods into stack-machine chunks (with exception tables, as on the real
// JVM), and a bytecode VM executes them on the same Heap/Value/Builtin
// substrate as the tree interpreter.
//
// One charging semantics. The tree interpreter (jvm/interpreter.hpp) is
// the definition: every execStmt/eval takes one step, and every node
// charges the meter in a fixed order around its children. The compiler
// lowers each AST node so that the bytecode produces the *same event
// sequence* — steps, meter charges, onEnter/onExit hooks and printed
// bytes — as the tree walk of that node:
//
//  * Instr::n is the number of tree steps taken at the start of the
//    instruction, before any of its effects. A node's entry step rides on
//    the first instruction emitted for it (usually the leftmost leaf of
//    its subtree), so a run of nested node entries collapses into one n.
//  * Where the tree charges between two steps (the kBranch of an `if`
//    before its condition is evaluated, a loop's kLoopIter before its
//    body), the compiler emits a charge-only kCharge instruction.
//  * Charges are never moved across a step, a hook or a print, so a
//    step-limit or cancel abort lands at exactly the tree's meter state.
//
// Superinstructions (produced by the peephole pass in compiler.cpp) run a
// whole instruction run in one dispatch and may regroup charges that sit
// between the same two steps. A constituent's steps are taken exactly
// where the tree takes them: the first constituent's in Instr::n (by the
// dispatch prologue), a later constituent's in Instr::n2 / Instr::n3 at the
// matching point inside the handler (each op below documents which
// constituents those are; every other constituent takes no steps). So a
// step-limit or cancel abort — checked at every step point that takes
// steps, never between charges of one step — leaves the meter, output and
// records exactly where the tree leaves them, fused or not.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "jlang/ast.hpp"
#include "jvm/value.hpp"

namespace jepo::jbc {

enum class Op : std::uint8_t {
  // Step/charge carriers.
  kStep,    // no effect: carries steps only (e.g. an empty block's entry)
  kCharge,  // a = energy::Op, charged once

  // Constants (each charges kConstLoad, or kConstLoadPlainDecimal).
  kConstInt,     // a -> intPool
  kConstLong,    // a -> intPool
  kConstFloat,   // a -> numPool; b=1: plain-decimal spelling
  kConstDouble,  // a -> numPool; b=1: plain-decimal spelling
  kConstStr,     // a = resolver string-literal id (interned lazily)
  kConstChar,    // a = code point
  kConstBool,    // a = 0/1
  kConstNull,
  kPushDefault,  // a = ValKind: Heap::defaultValue, uncharged
  kPushBool,     // a = 0/1, uncharged (short-circuit result)

  // Locals and `this`.
  kLoad,        // a = slot
  kLoadThis,    // the frame's `this` (null in static frames)
  kStoreLocal,  // a = slot; pops v, the tree's storeTo(local) rule
  kDeclLocal,   // a = slot, b = declared ValKind, c -> names (wrapper class
                // to box into) or -1; pops v, the tree's kVarDecl rule

  // Fields of `this` (resolver offsets); c -> names (field name) for the
  // null-`this` static fallback and its error text.
  kGetThisField,  // a = offset
  kPutThisField,  // a = offset; pops v

  // Statics.
  kGetStatic,      // a = global slot, b = classId (class init first)
  kPutStatic,      // a = global slot, b = classId; pops v
  kGetStaticSite,  // a -> CompiledProgram::staticSites (builtin probe,
                   // missing-field errors)
  kPutStaticSite,  // a -> staticSites; pops v
  kInitStatic,     // a = slot, b = ValKind, c -> names (wrapper) or -1;
                   // one static initializer store (<clinit>)
  kInitField,      // a = offset, b = ValKind; one instance initializer
                   // store (<initfields>)

  // Instance fields through the resolver's inline-cache slot.
  kGetField,  // a -> names (field), b = cache slot; obj -> value
  kPutField,  // a -> names (field), b = cache slot; v obj ->

  // Null checks the tree performs right after evaluating a receiver; the
  // NullPointerException message is built only when one fires.
  kNullCheck,  // peeks; a = NullCheck kind, b -> names (called method)

  // Arrays.
  kArrayGet,  // arr idx -> value
  kArraySet,  // v arr idx ->
  kCheckDim,  // peeks a dimension: NegativeArraySizeException if < 0
  kNewArray,  // a = dim count (dims on stack), b = leaf ValKind

  // Objects.
  kNew,     // a = classId, b = argc (resolved program class)
  kNewDyn,  // a -> names (class), b = argc (builtin-first construct)

  // Operators.
  kBinary,  // a = jlang::BinOp (no &&/||); b=1: compound assignment
            // (narrow the result to the current value's kind)
  kIncDec,  // a = BinOp kAdd/kSub: old -> old±1 narrowed to old's kind
  kNeg,
  kNot,
  kBitNot,
  kCast,    // a = ValKind: charged primitive cast
  kToBool,  // asBool() re-boxed as a boolean (&&/|| right operand)

  // Control flow. a = target pc.
  kJump,
  kJumpIfFalse,   // pops a boolean
  kShortCircuit,  // b=0 (&&): pops; false -> push false, jump
                  // b=1 (||): pops; true -> push true, jump
  kSwitchSel,     // selector -> selector.asInt()
  kCaseEq,        // a = target, b -> intPool; charges kIntAlu, on a match
                  // pops the selector and jumps
  kPopJump,       // a = target; pops the selector (no case matched)

  // Calls. Arguments on the stack (receiver below them for virtual).
  kClassInit,      // a = classId (static call: init precedes arguments)
  kPrint,          // a = newline flag, b = has-argument flag; pushes null
  kCallBuiltin,    // a -> names (class), b -> names (method), c = argc
  kInvokeStatic,   // a = classId, b = method ordinal, c = argc
  kInvokeSelf,     // a = method ordinal, b = argc (same class)
  kInvokeVirtual,  // a -> names (method), b = argc, c = call-cache slot

  // Returns. The VM keeps the tree's single return register: a nested
  // call's return value stays in it until the next return overwrites it.
  kReturnValue,  // pops v: register = v; return
  kReturnVoid,   // register = null; return
  kSetRet,       // a = slot: a return crossing finally blocks parks its
                 // value there, uncharged (b=0: pops v; b=1: null)
  kRet,          // return the register (fall-off end); b=1: register =
                 // slot a first (after the finallys a return crossed)
  kEscape,       // a -> names: break/continue escaped the method body
                 // (charges kReturn, then the tree's VmError)

  kPop,
  kDup,
  kThrow,    // pops: NPE on null, charge kThrow, throw
  kRethrow,  // a = slot: rethrow a pending exception (uncharged)
  kThrowVm,  // a -> names: raise VmError(message)

  // Superinstructions (compiler.cpp, fuseChunk). Charges replay in
  // constituent order; "n2: X" names the constituent whose steps the
  // handler takes from Instr::n2 (likewise n3).
  kLoadLoad,            // [kLoad kLoad]  a = slot1, b = slot2; n2: load 2
  kLoadBinary,          // [kLoad kBinary]  a = slot, b = BinOp
  kConstBinary,         // [kConstInt kBinary]  a = intPool, b = BinOp
  kLoadLoadBinary,      // [kLoad kLoad kBinary]  a = slot1, b = slot2,
                        //   c = BinOp; n2: load 2
  kLoadConstBinary,     // [kLoad kConstInt kBinary]  a = slot,
                        //   b = intPool, c = BinOp; n2: the constant
  kStoreLocalPop,       // [kDup kStoreLocal kPop]  a = slot
  kIncLocal,            // [kLoad kDup kIncDec kStoreLocal kPop] or
                        //   [kLoad kIncDec kDup kStoreLocal kPop], same
                        //   slot: the `i++;` statement.  a = slot, b = op
  kBinaryJumpIfFalse,   // [kBinary kJumpIfFalse]  a = target, b = BinOp
  kLoadBinaryStore,     // [kLoad kBinary kDup kStoreLocal kPop]  a = slot,
                        //   c = destination slot, f = BinOp
  kBinaryStore,         // [kBinary kDup kStoreLocal kPop]  a = destination
                        //   slot, f = BinOp
  kLoadLoadBinaryStore, // [kLoad kLoad kBinary kDup kStoreLocal kPop] —
                        //   the `d = s1 op s2;` statement.  a = slot1,
                        //   b = slot2, c = destination slot, f = BinOp;
                        //   n2: load 2
  kLoadConstBinaryStore,  // [kLoad kConstInt kBinary kDup kStoreLocal
                        //   kPop]  a = slot, b = intPool, c = destination
                        //   slot, f = BinOp; n2: the constant
  kIncLocalJump,        // kIncLocal + trailing kJump — the counted-loop
                        //   latch.  a = target, b = slot, c = op
  kStoreLocalPopJump,   // [kDup kStoreLocal kPop kJump]  a = target,
                        //   b = slot
  kCmpLoopHead,         // [kCharge(kBranch) kLoad (kLoad|kConstInt)
                        //   kBinary kJumpIfFalse (kCharge(kLoopIter))] —
                        //   a loop or if header.  a = target,
                        //   b = slot1 | BinOp<<24, c = slot2 or intPool;
                        //   f bit0 = constant rhs, bit1 = kLoopIter tick;
                        //   n2: load 1, n3: the right operand
};

/// What a kNullCheck guards (selects the tree's message).
enum class NullCheck : std::int32_t {
  kArrayLoad,   // "array access on null at line N"
  kArrayStore,  // "store to null array"
  kCall,        // "call 'm' on null at line N"
};

struct Instr {
  Op op;
  /// Superinstruction operand byte (a BinOp or flags; see each op).
  std::uint8_t f = 0;
  /// Tree steps taken at the start of this instruction (see top of file).
  std::uint16_t n = 0;
  /// Superinstructions: steps taken at their second and third step points.
  std::uint16_t n2 = 0;
  std::uint16_t n3 = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t line = 0;
};

/// JVM-style exception table entry: pcs in [start, end) covered; on a match
/// the operand stack is cleared, the exception ref stored to `slot`, and
/// control transfers to `handler`.
struct ExceptionEntry {
  std::int32_t start = 0;
  std::int32_t end = 0;
  std::int32_t handler = 0;
  std::int32_t classNameIdx = -1;  // -1 = catch-all (finally path)
  std::int32_t slot = -1;
};

struct Chunk {
  std::string qualifiedName;  // "Class.method" for the hook interface
  /// Interned program-wide method id (Resolution::methodNames index) —
  /// what MethodHooks receive.
  std::uint32_t methodId = jlang::kNoName;
  std::vector<Instr> code;
  std::vector<ExceptionEntry> handlers;
  int numSlots = 0;   // resolver locals + compiler temporaries
  bool isStatic = true;
  int line = 0;  // declaration line (parameter-coercion errors)
  std::vector<jvm::ValKind> paramKinds;  // coercion at call time
  /// Worst-case operand-stack depth of the unfused code (a fused
  /// instruction never needs more stack than the run it replaced).
  int maxStack = 0;
};

/// A `Class.field` static site whose class may be a builtin (probe the
/// builtin table first) or whose field may be missing (the tree's error).
struct StaticSite {
  std::string className;
  std::string fieldName;
  std::int32_t classId = -1;
  std::int32_t slot = -1;
  bool builtin = false;
};

struct CompiledField {
  std::string name;
  jvm::ValKind kind = jvm::ValKind::kInt;
  bool isStatic = false;
};

struct CompiledClass {
  std::string name;
  std::int32_t classId = -1;  // index into Resolution::classes
  std::vector<CompiledField> fields;
  std::unordered_map<std::string, Chunk> methods;  // includes ctor (== name)
  /// Static / instance field initializers. They run inline like the
  /// tree's ensureClassInit / construct: no hooks, no kReturn charge.
  /// Empty code means "no initializers".
  Chunk clinit;
  Chunk initFields;
  bool hasMain = false;
};

struct CompiledProgram {
  std::vector<std::string> names;  // shared name/message pool
  std::vector<std::int64_t> intPool;
  std::vector<double> numPool;
  std::vector<StaticSite> staticSites;
  std::unordered_map<std::string, CompiledClass> classes;
  /// The resolution substrate of the source Program (set by compile()).
  /// Holds pointers into the source AST, so the Program must outlive
  /// execution — the same lifetime contract the tree interpreter has.
  std::shared_ptr<const jlang::Resolution> resolution;

  const CompiledClass* findClass(const std::string& name) const {
    const auto it = classes.find(name);
    return it == classes.end() ? nullptr : &it->second;
  }
};

/// Human-readable disassembly (for tests and debugging).
std::string disassemble(const Chunk& chunk, const CompiledProgram& program);

}  // namespace jepo::jbc
