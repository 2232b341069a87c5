// Compile-once-run-many: an LRU cache of parsed + resolved programs.
//
// Parsing and the PR 4 resolution pass dominate the cost of small repeated
// jobs ("Probabilistic energy profiler..." serves thousands of measurement
// jobs over the same program). The cache keys on a 64-bit FNV-1a hash of
// the source bytes, holds immutable shared_ptr<const Program> entries that
// any number of concurrent VMs can execute (PR 4: engines share no mutable
// state; ensureResolved is idempotent and runs once, at insert), and
// evicts least-recently-used entries past a byte budget measured in source
// bytes (the AST scales with the source; the budget is a knob, not an
// accounting exercise).
//
// The hash is only an index, never a proof of identity: FNV-1a is
// non-cryptographic and collisions are adversarially constructible, so in
// a multi-tenant daemon a hit is served only after the stored source bytes
// compare equal to the request's — a colliding entry can neither be served
// to nor displace another tenant's program; the collider just compiles
// fresh, uncached.
//
// Hit/miss/eviction land in the obs registry (jepod.cache.{hits,misses,
// evictions}, gauge jepod.cache.bytes) so bench_jepod can report hit rate
// without private counters.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "jbc/code.hpp"
#include "jlang/ast.hpp"
#include "obs/registry.hpp"

namespace jepo::jepod {

/// FNV-1a over the source bytes — stable across processes and runs, so a
/// cache key can double as a job's compile identity in logs.
std::uint64_t sourceHash(std::string_view source) noexcept;

/// One cached compile: the immutable program plus its identity, and the
/// bytecode profile jobs run — compiled lazily by the first profile job
/// for the entry (analyze-only traffic never pays for it), then shared
/// read-only by every later one.
struct CachedProgram {
  jlang::Program program;  // resolved at insert; treated as const after
  std::string source;      // the exact bytes compiled; verified on get()
  std::uint64_t hash = 0;
  std::size_t bytes = 0;   // source size, the budget currency

  /// The entry's bytecode, compiled on first use (thread-safe).
  const jbc::CompiledProgram& bytecode() const;

 private:
  mutable std::once_flag compileOnce_;
  mutable std::unique_ptr<const jbc::CompiledProgram> compiled_;
};

class ProgramCache {
 public:
  /// `byteBudget` bounds the sum of cached entries' source bytes
  /// (0 = unbounded). A single entry larger than the whole budget is
  /// admitted but becomes the first eviction candidate.
  explicit ProgramCache(std::size_t byteBudget);

  /// Look up by source hash, refreshing recency. nullptr on miss — which
  /// includes a hash collision: a hit is served only when the cached
  /// entry's source bytes equal `source`.
  std::shared_ptr<const CachedProgram> get(std::uint64_t hash,
                                           std::string_view source);

  /// Insert a freshly compiled program and evict past the budget. If a
  /// racing job inserted the same hash AND source first, the existing
  /// entry wins (both are compiled from identical bytes, so either is
  /// correct) and is returned. If the hash is occupied by a *different*
  /// source (collision), the incumbent is left untouched and `entry` is
  /// returned uncached.
  std::shared_ptr<const CachedProgram> put(
      std::shared_ptr<const CachedProgram> entry);

  std::size_t entryCount() const;
  std::size_t byteCount() const;

 private:
  void evictLocked();

  const std::size_t byteBudget_;
  mutable std::mutex mu_;
  /// MRU at front. The map holds iterators into the list (stable under
  /// splice), the list holds the entries.
  std::list<std::shared_ptr<const CachedProgram>> lru_;
  std::unordered_map<std::uint64_t, decltype(lru_)::iterator> byHash_;
  std::size_t bytes_ = 0;

  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Gauge* bytesGauge_;
  obs::Gauge* entriesGauge_;
};

}  // namespace jepo::jepod
