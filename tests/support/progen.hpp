// Seeded MiniJava program generator for the cross-engine differential
// fuzzer. It covers the whole language the engines run: helper classes
// with instance and static fields (with and without initializers),
// constructors, instance/static/self calls, ternaries, && / || / !,
// local/field/array/static stores (plain, compound and ++/--), for and
// while loops with break/continue, switch, try/catch/finally, throw, and
// exceptions raised by division, array bounds and helper methods — also
// across frames and through finally blocks. Every program terminates: loops
// are bounded, the call graph is acyclic, and risky operations appear only
// where an enclosing catch clause handles them. See tests/fuzz_diff_test.cpp
// for the invariants checked on every program.
#pragma once

#include <cstdint>
#include <string>

namespace jepo::testgen {

struct GeneratedProgram {
  std::string name;    // stable per-seed identifier, e.g. "fuzz_1a2b3c"
  std::string source;  // complete program with a Main.main entry point
};

/// Deterministically expand `seed` into a program: same seed, same bytes.
/// Programs contain 1-3 helper classes, bounded loops, object/array churn,
/// and a final printed checksum so divergence surfaces in stdout as well as
/// in the energy ledger.
GeneratedProgram generateProgram(std::uint64_t seed);

}  // namespace jepo::testgen
