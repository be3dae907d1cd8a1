// Single-level cache replacement policies behind one interface.
//
// These serve three roles in the reproduction: building blocks of the
// independent-LRU baseline (one policy instance per level), the MQ server
// cache of Figure 7 (Zhou et al. 2001) and its LIRS sibling, and the OPT
// reference the other policies are checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/types.h"

namespace ulc {

// Per-access side information. LRU/MQ/LIRS ignore it; OPT requires
// next_use (the trace position of the next reference to this block, or
// kNever) — supplied by the offline preprocessing in measures/next_use.h.
// `size` is the incoming block's footprint in SizeUnits; capacity is a
// byte budget in the same units (util/byte_budget.h), so inserting a
// size-s block may evict several smaller residents.
struct AccessContext {
  std::uint64_t time = 0;
  std::uint64_t next_use = 0;
  SizeUnits size = 1;
};

// Victims of one insert. With unit-size blocks at most one block leaves per
// insert and `more` stays empty (no allocation on the unit-size hot path);
// a sized insert may push out several residents — the first lands in
// `victim`, the rest in `more`, in eviction order.
struct EvictResult {
  bool evicted = false;
  BlockId victim = 0;
  // False when the policy declined to cache the block: OPT's farthest-out
  // bypass, or a sized block larger than the whole budget (which no amount
  // of eviction could fit). Unit-size inserts are always admitted.
  bool admitted = true;
  std::vector<BlockId> more;

  void clear() {
    evicted = false;
    victim = 0;
    admitted = true;
    more.clear();
  }
  void add(BlockId b) {
    if (!evicted) {
      evicted = true;
      victim = b;
    } else {
      more.push_back(b);
    }
  }
  std::size_t count() const { return evicted ? 1 + more.size() : 0; }
  // Applies `fn(BlockId)` to every victim in eviction order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!evicted) return;
    fn(victim);
    for (BlockId b : more) fn(b);
  }
};

class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  // References a block that may or may not be cached; returns true on hit.
  // On miss the block is admitted (possibly evicting; see *evicted).
  bool access(BlockId block, const AccessContext& ctx = {},
              EvictResult* evicted = nullptr);

  // Updates recency/frequency state of a present block; false if absent.
  virtual bool touch(BlockId block, const AccessContext& ctx) = 0;
  // Admits an absent block, evicting if at capacity.
  virtual EvictResult insert(BlockId block, const AccessContext& ctx) = 0;
  // Removes a block (exclusive-caching reads); false if absent.
  virtual bool erase(BlockId block) = 0;

  // Pulls the cache lines a touch/insert of `block` would probe first
  // toward the core (index hash group, typically). Pure prefetch
  // instructions: never stalls, never changes observable state. Default
  // no-op so simple or cold policies need not care.
  virtual void prefetch(BlockId block) const { (void)block; }

  virtual bool contains(BlockId block) const = 0;
  virtual std::size_t size() const = 0;
  virtual std::size_t capacity() const = 0;
  // Occupancy in SizeUnits. Equals size() for unit-size workloads; policies
  // that track sized residents override this with their byte budget's usage.
  virtual std::uint64_t used_bytes() const { return size(); }
  virtual const char* name() const = 0;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_ratio() const;

 protected:
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

using PolicyPtr = std::unique_ptr<CachePolicy>;

PolicyPtr make_lru(std::size_t capacity);
// OPT (Belady): evicts the block whose next use is farthest in the future.
// Requires AccessContext::next_use on every touch/insert.
PolicyPtr make_opt(std::size_t capacity);

struct MqConfig {
  std::size_t capacity = 0;
  std::size_t queue_count = 8;
  // lifeTime: accesses a block may sit unreferenced in its queue before
  // being demoted one queue down. The MQ paper recommends the observed peak
  // temporal distance; a multiple of the cache size is a robust default.
  std::uint64_t life_time = 0;  // 0 -> 4 * capacity
  std::size_t ghost_capacity = 0;  // Qout entries; 0 -> 4 * capacity
};
PolicyPtr make_mq(const MqConfig& config);

struct LirsConfig {
  std::size_t capacity = 0;
  // Fraction of the cache devoted to HIR resident blocks (LIRS paper: ~1%,
  // at least 2 blocks).
  double hir_fraction = 0.01;
};
PolicyPtr make_lirs(const LirsConfig& config);

}  // namespace ulc
