#include "runtime/block_cache.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/ensure.h"

namespace ulc {

namespace {

UlcConfig engine_config(const BlockCacheConfig& cfg, const NearTier& near) {
  UlcConfig out;
  out.capacities = {cfg.memory_blocks, near.capacity_blocks()};
  return out;
}

inline void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

BlockCache::BlockCache(const BlockCacheConfig& config, NearTier& near,
                       Origin& origin)
    : config_(config),
      near_(near),
      origin_(origin),
      engine_(engine_config(config, near)) {
  ULC_REQUIRE(config.block_size > 0, "block size must be positive");
  ULC_REQUIRE(config.memory_blocks >= 1, "need at least one RAM buffer");
  ULC_REQUIRE(near.block_size() == config.block_size,
              "near tier block size mismatch");
  arena_.resize(config.block_size * config.memory_blocks);
  resident_.reserve(config.memory_blocks);
  free_buffers_.reserve(config.memory_blocks);
  for (std::size_t i = config.memory_blocks; i-- > 0;) free_buffers_.push_back(i);
  scratch_.resize(config.block_size);
  scratch2_.resize(config.block_size);
}

BlockCache::~BlockCache() {
  // Durability on destruction: push dirty data to the origin.
  flush();
}

std::size_t BlockCache::acquire_buffer() {
  ULC_ENSURE(!free_buffers_.empty(),
             "RAM pool exhausted: engine placement must bound residency");
  const std::size_t index = free_buffers_.back();
  free_buffers_.pop_back();
  return index;
}

void BlockCache::release_buffer(std::size_t index) {
  free_buffers_.push_back(index);
}

void BlockCache::set_writeback_journal(WritebackSink* journal) {
  std::lock_guard<std::mutex> guard(lock_);
  journal_ = journal;
}

void BlockCache::set_placement_listener(PlacementListener* listener,
                                        std::uint32_t shard) {
  std::lock_guard<std::mutex> guard(lock_);
  listener_ = listener;
  shard_id_ = shard;
}

void BlockCache::notify(BlockId block, PlacementEventKind kind) {
  if (listener_ != nullptr)
    listener_->on_placement(PlacementEvent{block, shard_id_, kind});
}

void BlockCache::writeback(BlockId block, std::size_t from,
                           std::span<const std::byte> contents) {
  if (journal_ != nullptr) {
    const std::uint64_t seq = journal_->append(
        block, from, static_cast<SizeUnits>(config_.block_size));
    origin_.write(block, contents);
    journal_->mark_written(seq);
    journal_->ack(seq);
  } else {
    origin_.write(block, contents);
  }
  bump(counters_.writebacks);
  notify(block, PlacementEventKind::kWriteback);
}

void BlockCache::handle_demotions(const UlcAccess& outcome) {
  for (const DemoteCmd& d : outcome.demotions) {
    if (d.from == 0) {
      const std::size_t* found = resident_.find(d.block);
      ULC_ENSURE(found != nullptr, "demoted block not resident in RAM");
      const std::size_t buf = *found;
      const std::byte* data = buffer_data(buf);
      if (d.to == 1) {
        near_.store(d.block, std::span(data, config_.block_size));
        bump(counters_.demotions);
        notify(d.block, PlacementEventKind::kDemote);
      } else {
        // Discard from RAM: dirty data must reach the origin first. The
        // RAM buffer is freed only after the write-back returns.
        if (dirty_.erase(d.block) > 0)
          writeback(d.block, 0, std::span(data, config_.block_size));
        notify(d.block, PlacementEventKind::kDiscard);
      }
      release_buffer(buf);
      resident_.erase(d.block);
    } else {
      // Leaving the near tier; in a two-tier cache that means discard.
      ULC_ENSURE(d.to == kLevelOut, "two-tier cache demotes near-tier blocks out");
      if (dirty_.erase(d.block) > 0) {
        // Pin for the write-back window: the tier refuses to evict the
        // block while its bytes are being copied out.
        near_.pin(d.block);
        const bool ok = near_.fetch(d.block, scratch2_);
        ULC_ENSURE(ok, "dirty near-tier block missing");
        writeback(d.block, 1, scratch2_);
        near_.unpin(d.block);
      }
      near_.evict(d.block);
      notify(d.block, PlacementEventKind::kDiscard);
    }
  }
}

void BlockCache::apply_placement(BlockId block, const UlcAccess& outcome,
                                 std::span<const std::byte> contents,
                                 bool dirtying) {
  if (outcome.placed_level == 0) {
    const std::size_t* found = resident_.find(block);
    std::size_t buf;
    if (found == nullptr) {
      buf = acquire_buffer();
      resident_.insert_new(block, buf);
      notify(block, outcome.hit_level == 1 ? PlacementEventKind::kPromote
                                           : PlacementEventKind::kStore);
    } else {
      buf = *found;
    }
    if (buffer_data(buf) != contents.data())
      std::memcpy(buffer_data(buf), contents.data(), config_.block_size);
    if (outcome.hit_level == 1) near_.evict(block);  // exclusive move up
    if (dirtying) dirty_.insert(block);
  } else if (outcome.placed_level == 1) {
    // Stays at / goes to the near tier. On a near-tier read hit nothing
    // moves; writes and fresh placements must store the bytes.
    if (dirtying || outcome.hit_level != 1) {
      near_.store(block, contents);
      if (outcome.hit_level != 1) notify(block, PlacementEventKind::kStore);
    }
    if (dirtying) dirty_.insert(block);
  } else {
    // Not cached anywhere: pass-through. A write goes straight to the
    // origin; a read retains nothing.
    if (dirtying) writeback(block, 0, contents);
  }
}

void BlockCache::read(BlockId block, std::span<std::byte> out) {
  ULC_REQUIRE(out.size() >= config_.block_size, "read buffer too small");
  std::lock_guard<std::mutex> guard(lock_);
  bump(counters_.reads);
  const UlcAccess& a = engine_.access(block);

  const std::byte* source = nullptr;
  if (a.hit_level == 0) {
    bump(counters_.memory_hits);
    const std::size_t* buf = resident_.find(block);
    ULC_ENSURE(buf != nullptr, "engine says RAM hit but the block has no buffer");
    source = buffer_data(*buf);
  } else if (a.hit_level == 1) {
    bump(counters_.near_hits);
    const bool ok = near_.fetch(block, scratch_);
    ULC_ENSURE(ok, "engine says near-tier hit but the tier lacks the block");
    source = scratch_.data();
  } else {
    bump(counters_.origin_reads);
    origin_.read(block, scratch_);
    source = scratch_.data();
  }
  std::memcpy(out.data(), source, config_.block_size);

  // Demotions first: they free the RAM buffer a promotion may need. They
  // never touch the just-accessed block (it sits at the stack top) and use
  // their own scratch buffer, so `source` stays valid.
  handle_demotions(a);
  apply_placement(block, a, std::span(source, config_.block_size),
                  /*dirtying=*/false);
}

void BlockCache::write(BlockId block, std::span<const std::byte> in) {
  ULC_REQUIRE(in.size() >= config_.block_size, "write buffer too small");
  std::lock_guard<std::mutex> guard(lock_);
  bump(counters_.writes);
  const UlcAccess& a = engine_.access(block);
  if (a.hit_level == 0) {
    bump(counters_.memory_hits);
  } else if (a.hit_level == 1) {
    bump(counters_.near_hits);
  }
  // A whole-block write does not need the old contents; the new bytes are
  // placed per the engine's direction.
  handle_demotions(a);
  apply_placement(block, a, in.subspan(0, config_.block_size),
                  /*dirtying=*/true);
}

void BlockCache::write_back_dirty_locked(BlockId block) {
  if (const std::size_t* buf = resident_.find(block)) {
    writeback(block, 0, std::span(buffer_data(*buf), config_.block_size));
  } else {
    near_.pin(block);
    const bool ok = near_.fetch(block, scratch_);
    ULC_ENSURE(ok, "dirty block missing from both tiers");
    writeback(block, 1, scratch_);
    near_.unpin(block);
  }
  dirty_.erase(block);
}

void BlockCache::flush() {
  std::lock_guard<std::mutex> guard(lock_);
  // Write back in block order: the hash-set iteration order must not leak
  // into the sequence of origin writes (determinism across runs/platforms).
  std::vector<BlockId> to_flush(dirty_.begin(), dirty_.end());
  std::sort(to_flush.begin(), to_flush.end());
  for (BlockId block : to_flush) write_back_dirty_locked(block);
}

std::vector<BlockId> BlockCache::dirty_blocks() const {
  std::lock_guard<std::mutex> guard(lock_);
  std::vector<BlockId> out(dirty_.begin(), dirty_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void BlockCache::flush_block(BlockId block) {
  std::lock_guard<std::mutex> guard(lock_);
  if (dirty_.count(block) == 0) return;
  write_back_dirty_locked(block);
}

BlockCacheStats BlockCache::stats() const {
  // Deliberately lock-free: concurrent readers/writers publish each counter
  // with relaxed atomics, so a monitoring thread never waits behind IO.
  BlockCacheStats out;
  out.memory_hits = counters_.memory_hits.load(std::memory_order_relaxed);
  out.near_hits = counters_.near_hits.load(std::memory_order_relaxed);
  out.origin_reads = counters_.origin_reads.load(std::memory_order_relaxed);
  out.demotions = counters_.demotions.load(std::memory_order_relaxed);
  out.writebacks = counters_.writebacks.load(std::memory_order_relaxed);
  out.reads = counters_.reads.load(std::memory_order_relaxed);
  out.writes = counters_.writes.load(std::memory_order_relaxed);
  return out;
}

bool BlockCache::resident_in_memory(BlockId block) const {
  std::lock_guard<std::mutex> guard(lock_);
  return resident_.contains(block);
}

}  // namespace ulc
