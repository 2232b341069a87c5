#include "jepod/program_cache.hpp"

#include "jbc/compiler.hpp"

namespace jepo::jepod {

const jbc::CompiledProgram& CachedProgram::bytecode() const {
  std::call_once(compileOnce_, [this] {
    compiled_ = std::make_unique<const jbc::CompiledProgram>(
        jbc::compile(program));
  });
  return *compiled_;
}

std::uint64_t sourceHash(std::string_view source) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : source) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

ProgramCache::ProgramCache(std::size_t byteBudget)
    : byteBudget_(byteBudget),
      hits_(&obs::Registry::global().counter("jepod.cache.hits")),
      misses_(&obs::Registry::global().counter("jepod.cache.misses")),
      evictions_(&obs::Registry::global().counter("jepod.cache.evictions")),
      bytesGauge_(&obs::Registry::global().gauge("jepod.cache.bytes")),
      entriesGauge_(&obs::Registry::global().gauge("jepod.cache.entries")) {}

std::shared_ptr<const CachedProgram> ProgramCache::get(std::uint64_t hash,
                                                       std::string_view source) {
  std::lock_guard lock(mu_);
  const auto it = byHash_.find(hash);
  if (it == byHash_.end() || (*it->second)->source != source) {
    // Absent, or a 64-bit collision — FNV-1a collisions are adversarially
    // constructible, and a hit must never hand one tenant a program
    // compiled from another tenant's bytes. A collision is just a miss.
    misses_->add();
    return nullptr;
  }
  hits_->add();
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return *it->second;
}

std::shared_ptr<const CachedProgram> ProgramCache::put(
    std::shared_ptr<const CachedProgram> entry) {
  std::lock_guard lock(mu_);
  const auto it = byHash_.find(entry->hash);
  if (it != byHash_.end()) {
    if ((*it->second)->source != entry->source) {
      // Hash collision: the incumbent stays (a colliding insert must not
      // displace it), the newcomer runs from its fresh compile uncached.
      return entry;
    }
    // Lost a compile race; the first insert wins and stays.
    lru_.splice(lru_.begin(), lru_, it->second);
    return *it->second;
  }
  lru_.push_front(entry);
  byHash_.emplace(entry->hash, lru_.begin());
  bytes_ += entry->bytes;
  evictLocked();
  bytesGauge_->set(static_cast<std::int64_t>(bytes_));
  entriesGauge_->set(static_cast<std::int64_t>(lru_.size()));
  return entry;
}

void ProgramCache::evictLocked() {
  if (byteBudget_ == 0) return;
  // Never evict the entry just inserted (lru_.size() > 1): a job that was
  // admitted must be servable, even if it alone busts the budget.
  while (bytes_ > byteBudget_ && lru_.size() > 1) {
    const auto& victim = lru_.back();
    bytes_ -= victim->bytes;
    byHash_.erase(victim->hash);
    lru_.pop_back();
    evictions_->add();
  }
}

std::size_t ProgramCache::entryCount() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

std::size_t ProgramCache::byteCount() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

}  // namespace jepo::jepod
