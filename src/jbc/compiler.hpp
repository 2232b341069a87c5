// MiniJava AST -> bytecode compiler.
//
// Lowers every method (plus <clinit>/<initfields> chunks for field
// initializers) into stack-machine code with JVM-style exception tables,
// node by node in the tree interpreter's evaluation order, so the VM
// reproduces the tree's steps, charges, hooks and output exactly (see
// code.hpp). finally blocks are compiled by inlining: a copy on the normal
// path, a copy after each catch body, a catch-all handler that runs the
// copy and rethrows, and a copy on every return/break/continue that
// crosses the finally (excluded from that try's handler ranges, as the
// tree runs it after leaving the try).
#pragma once

#include "jbc/code.hpp"

namespace jepo::jbc {

struct CompileOptions {
  /// Run the peephole pass that fuses hot instruction runs into
  /// superinstructions (code.hpp). Off keeps one instruction per
  /// constituent, for A/B benchmarking and for tests that pin unfused
  /// layouts; both forms produce the same event sequence.
  bool fuseSuperinstructions = true;
};

/// Compile a whole program (resolving it first if needed). Names the
/// resolver could not bind compile to instructions that raise the tree's
/// error when — and only when — they execute.
CompiledProgram compile(const jlang::Program& program);
CompiledProgram compile(const jlang::Program& program,
                        const CompileOptions& options);

}  // namespace jepo::jbc
