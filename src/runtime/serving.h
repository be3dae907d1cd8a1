// The concurrent serving runtime: ULC as a server (ROADMAP item 1).
//
// Layout (the OrangeFS ucache idiom — flat per-shard tables, all cross-shard
// traffic over explicit queues):
//
//   client threads ──> ShardedBlockCache (shard-per-lock BlockCache engines)
//                          │ PlacementEvent (demotions, stores, discards)
//                          ▼
//                      BoundedMpsc queues (one per directory shard)
//                          │ drained by one worker thread each
//                          ▼
//                      DirectoryServer (sharded gLRU directory)
//
// The DirectoryServer maintains an asynchronous global view of which cache
// shard owns which block, in per-shard GlruServer stacks keyed by the same
// splitmix64 routing as the cache. It is deliberately *advisory*: events
// arrive after the cache has already acted, so the directory approximates
// the cache population (a real deployment would use it to route peer
// lookups). The queues are bounded — a client that outruns the directory
// blocks in push(), which is the backpressure contract. Producers wake a
// shard's worker only when its queue reaches the wake mark (util/mpsc.h:
// capacity / 8, 512 events at the default 4096), so until drain() a shard's
// view may lag the cache by fewer than one mark of events.
//
// Determinism is per-queue: each cache shard emits its events in lock order,
// and when directory_shards == cache_shards every queue has exactly one
// producing cache shard, so each directory stack applies a well-defined
// sequence. Across shards no global order is promised (DESIGN.md §10).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/sharded_cache.h"
#include "ulc/glru_server.h"
#include "util/mpsc.h"

namespace ulc {

struct DirectoryConfig {
  std::size_t shards = 2;            // directory (server) shards, >= 1
  std::size_t queue_capacity = 4096; // per-shard event queue bound
  std::size_t capacity = 1 << 16;    // gLRU entries per directory shard
};

struct DirectoryShardStats {
  std::uint64_t stores = 0;
  std::uint64_t promotes = 0;
  std::uint64_t demotes = 0;
  std::uint64_t discards = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t evictions = 0;  // directory entries displaced by gLRU
  std::uint64_t applied = 0;    // events applied to this shard's stack
  std::size_t resident = 0;     // current directory entries
  MpscStats queue;
};

struct DirectoryStats {
  std::vector<DirectoryShardStats> shards;

  std::uint64_t applied() const {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s.applied;
    return n;
  }
  std::uint64_t resident() const {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s.resident;
    return n;
  }
};

// Sharded gLRU block directory fed by PlacementEvents over bounded MPSC
// queues, one consumer thread per directory shard.
class DirectoryServer final : public PlacementListener {
 public:
  explicit DirectoryServer(const DirectoryConfig& config);
  ~DirectoryServer();  // stop()s: closes queues, drains, joins workers

  DirectoryServer(const DirectoryServer&) = delete;
  DirectoryServer& operator=(const DirectoryServer&) = delete;

  // Producer side (called by BlockCache under its shard lock): route the
  // event to its directory shard's queue. Blocks when the queue is full;
  // drops the event once the server is stopped.
  void on_placement(const PlacementEvent& event) override;

  // Wakes every worker and waits until every event posted so far (pushes
  // that returned before the call) has been applied. A racing producer can
  // post more afterwards; those are not waited for.
  void drain();

  // Closes the queues, lets the workers drain what is queued, joins them.
  // Further events are dropped. Idempotent.
  void stop();

  // True if the directory currently tracks `block`; which shard owns it.
  // Asynchronous: reflects the events applied so far, not the cache's
  // instantaneous state.
  bool tracks(BlockId block) const;
  std::uint32_t owner_of(BlockId block) const;  // block must be tracked

  std::size_t shards() const { return shards_.size(); }
  DirectoryStats stats() const;

 private:
  struct ServerShard {
    explicit ServerShard(const DirectoryConfig& config)
        : queue(config.queue_capacity), directory(config.capacity) {}

    BoundedMpsc<PlacementEvent> queue;

    mutable std::mutex lock;  // guards directory + stats below
    std::condition_variable applied_cv;
    GlruServer directory;
    DirectoryShardStats stats;

    std::thread worker;
  };

  std::size_t shard_of(BlockId block) const;
  void run_worker(ServerShard& shard);
  void apply(ServerShard& shard, const PlacementEvent& event);

  std::vector<std::unique_ptr<ServerShard>> shards_;
  bool stopped_ = false;
};

// Everything a serving process needs, wired together: a synchronized view of
// the backing origin, per-shard memory near tiers, the sharded cache, and
// the directory server listening to it.
struct ServingConfig {
  BlockCacheConfig per_shard;              // RAM pool + block size per shard
  std::size_t cache_shards = 4;
  std::size_t near_blocks_per_shard = 4096;
  DirectoryConfig directory;
  bool enable_directory = true;
};

class ServingRuntime {
 public:
  // `backing` need not be thread-safe (it is wrapped) and must outlive the
  // runtime.
  ServingRuntime(const ServingConfig& config, Origin& backing);
  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  void read(BlockId block, std::span<std::byte> out) { cache_->read(block, out); }
  void write(BlockId block, std::span<const std::byte> in) { cache_->write(block, in); }
  void flush() { cache_->flush(); }

  ShardedBlockCache& cache() { return *cache_; }
  // Null when the directory is disabled.
  DirectoryServer* directory() { return directory_.get(); }

  // Waits for the directory to catch up with everything posted so far.
  void drain();

 private:
  ServingConfig config_;
  std::unique_ptr<Origin> origin_;  // synchronized wrapper over `backing`
  // Destruction order matters: cache_ is destroyed first (its flush still
  // posts events), then the directory stops and joins its workers.
  std::unique_ptr<DirectoryServer> directory_;
  std::unique_ptr<ShardedBlockCache> cache_;
};

}  // namespace ulc
