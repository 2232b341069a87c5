// The bytecode stack machine — the engine every profile job runs on.
//
// Shares the Heap/Value/BuiltinLibrary/ops substrate with the tree
// interpreter, honours the same MethodHooks interface (so the Instrumenter
// plugs into either engine), and reproduces the tree's event sequence
// exactly: the same steps, meter charges, onEnter/onExit hooks, printed
// bytes, heap-allocation order and error texts (code.hpp explains how the
// compiler lays those out). The tree interpreter (jepo_tree_oracle) is
// the oracle the tests compare against.
//
// The inner loop is direct-threaded (computed goto, GCC/Clang) and
// executes the compiler's superinstructions, which take their
// constituents' steps at the same points the tree does; every point that
// takes steps checks the step limit and the cancel token, as the tree's
// step() does.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "energy/machine.hpp"
#include "jbc/code.hpp"
#include "jlang/resolve.hpp"
#include "jvm/builtins.hpp"
#include "jvm/engine.hpp"
#include "jvm/gc.hpp"
#include "jvm/heap.hpp"
#include "support/cancel.hpp"

namespace jepo::jbc {

class BytecodeVm {
 public:
  BytecodeVm(const CompiledProgram& program, energy::SimMachine& machine);
  BytecodeVm(CompiledProgram&&, energy::SimMachine&) = delete;

  /// Install (or clear, with nullptr) method hooks. Not owned. The tier
  /// gate is hoisted here so per-call tier checks branch on a pointer,
  /// never through a virtual call (see jvm/tier.hpp).
  void setHooks(jvm::MethodHooks* hooks) {
    hooks_ = hooks;
    tier_ = hooks != nullptr ? hooks->tierGate() : nullptr;
  }
  /// Abort with the tree's VmError once this many tree steps have run
  /// (0 disables the limit).
  void setMaxSteps(std::uint64_t maxSteps) {
    maxSteps_ = maxSteps;
    maxStepsEff_ = maxSteps == 0 ? ~std::uint64_t{0} : maxSteps;
  }

  /// Install (or clear, with nullptr) a cooperative cancel token. A fired
  /// token unwinds with CancelledError at the next tree step, through the
  /// same abort path as the step limit. Never-fired tokens leave every
  /// observable bit-identical.
  void setCancelToken(const CancelToken* token) { cancel_ = token; }

  /// Run `static void main` (the unique one, or the named class's).
  jvm::Value runMain(std::string_view mainClass = {});

  jvm::Value callStatic(std::string_view className,
                        std::string_view methodName,
                        std::vector<jvm::Value> args);

  const std::string& output() const noexcept { return out_; }
  jvm::Heap& heap() noexcept { return heap_; }

  /// Heap-object limit that arms the mark-compact collector (0 = never
  /// collect, the seed behaviour). Defaults to env JEPO_HEAP_LIMIT.
  void setHeapLimit(std::size_t objects) { gc_.setLimit(objects); }
  jvm::Gc& gc() noexcept { return gc_; }

 private:
  /// Monomorphic inline cache at one kInvokeVirtual site.
  struct CallCacheEntry {
    std::int32_t classId = -1;
    const CompiledClass* cls = nullptr;
    const Chunk* chunk = nullptr;
  };
  /// Monomorphic inline cache at one kGetField/kPutField site.
  struct FieldCacheEntry {
    const jlang::ClassLayout* layout = nullptr;
    std::int32_t offset = -1;
  };

  /// One pooled frame (locals + operand stack + `this`), indexed by call
  /// depth. Frames are heap-allocated so their addresses stay stable while
  /// the pool grows. `top` is the stack height recorded at the owning
  /// run()'s most recent dispatch — collections happen only at that
  /// safepoint, so [0, top) is exactly the live-operand root span.
  struct Frame {
    std::vector<jvm::Value> slots;
    std::vector<jvm::Value> stack;
    jvm::Value thisV;
    std::size_t liveSlots = 0;
    std::size_t top = 0;
  };

  /// The tree's invoke: depth check, hooks, parameter coercion, body,
  /// kReturn. `args` must stay rooted by the caller (its operand stack or
  /// a scoped vector) until the callee frame holds copies.
  jvm::Value invoke(const CompiledClass& cls, const Chunk& chunk,
                    jvm::Value thisV, const jvm::Value* args,
                    std::size_t argc);
  /// Field initializers: a frame without hooks or charges of its own,
  /// exactly like the tree's inline ensureClassInit / construct loops.
  void runInitializers(const CompiledClass& cls, const Chunk& chunk,
                       jvm::Value thisV);
  Frame& acquireFrame(const Chunk& chunk);
  /// Execute a chunk; its result is left in retVal_.
  void run(const CompiledClass& cls, const Chunk& chunk, Frame& frame);

  void ensureClassInit(const std::string& className);
  void ensureClassInitById(std::int32_t classId);
  /// The tree's name-keyed static lookup (class init first); nullptr when
  /// the class has no such static.
  jvm::Value* findStaticByName(const std::string& className,
                               const std::string& fieldName);
  jvm::Value construct(const std::string& className,
                       std::vector<jvm::Value>& args, int line);
  jvm::Value constructById(std::int32_t classId, const jvm::Value* args,
                           std::size_t argc);
  jvm::Value allocArray(const std::vector<std::int64_t>& dims,
                        std::size_t level, jvm::ValKind leafKind);
  // Out-of-line bodies of the dispatch handlers that own vectors or
  // scoped roots (bcvm.cpp explains why); operands are caller-stack spans.
  jvm::Value newArray(const Instr& in, const jvm::Value* dims);
  jvm::Value newDynamic(const Instr& in, const jvm::Value* args);
  jvm::Value callBuiltin(const Instr& in, const jvm::Value* args);
  /// kInvokeVirtual on anything but a program-class object (strings,
  /// builders, boxed values, foreign exception objects): the tree's
  /// builtin-first sequence.
  jvm::Value invokeVirtualSlow(const Instr& in, const jvm::Value& receiver,
                               const jvm::Value* args);

  void chargeRowLoad(jvm::Ref array, std::int64_t index, bool rowIsArray);
  void charge(energy::Op op, std::uint64_t n = 1) { machine_->charge(op, n); }
  [[noreturn]] void throwStepLimit() const;
  [[noreturn]] void throwCancelled() const;
  [[noreturn]] void throwJava(const std::string& cls,
                              const std::string& msg) {
    builtins_.throwJava(cls, msg);
  }

  const CompiledProgram* program_;
  std::shared_ptr<const jlang::Resolution> resolution_;
  energy::SimMachine* machine_;
  jvm::Heap heap_;
  std::string out_;
  jvm::BuiltinLibrary builtins_;
  jvm::MethodHooks* hooks_ = nullptr;
  jvm::TierGate* tier_ = nullptr;  // hoisted from hooks_->tierGate()

  // Flat execution state, indexed by resolver-assigned ids. All VM-owned:
  // concurrent VMs over one CompiledProgram share no mutable state.
  std::vector<jvm::Value> statics_;          // global static slots
  std::vector<char> classInitDone_;          // by classId
  std::vector<jvm::Ref> literalPool_;        // by string-literal id (lazy)
  std::vector<const CompiledClass*> classById_;        // by classId
  std::vector<std::vector<const Chunk*>> methodChunks_;  // by (classId, ordinal)
  // Per-class static defaults as (global slot, kind), declaration order.
  std::vector<std::vector<std::pair<std::int32_t, jvm::ValKind>>>
      staticDefaults_;
  std::vector<std::vector<jvm::Value>> objectTemplates_;  // default fields
  std::vector<const Chunk*> ctorById_;       // by classId (nullptr: none)
  std::vector<CallCacheEntry> callCaches_;   // by call-cache slot
  std::vector<FieldCacheEntry> fieldCaches_; // by field-cache slot
  std::int32_t lengthName_ = -1;             // names index of "length"

  std::vector<std::unique_ptr<Frame>> framePool_;  // by call depth

  /// The tree's return register (Interpreter::returnValue_).
  jvm::Value retVal_;

  std::uint64_t steps_ = 0;
  std::uint64_t maxSteps_ = 0;
  std::uint64_t maxStepsEff_ = ~std::uint64_t{0};
  const CancelToken* cancel_ = nullptr;
  std::size_t frameDepth_ = 0;  // invoke and initializer frames

  jvm::Ref lastRowArray_ = 0xFFFFFFFF;
  std::int64_t lastRowIndex_ = -1;

  // Precise roots: statics, interned literals, the return register and
  // every active frame's `this`, slots[0, liveSlots) + stack[0, top).
  void scanGcRoots(jvm::Gc::RootWalker& w);
  jvm::Gc gc_;

  static constexpr jvm::Ref kNullRef = 0xFFFFFFFF;
  static constexpr std::size_t kMaxFrames = 512;
};

}  // namespace jepo::jbc
