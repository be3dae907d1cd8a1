// Bounded multi-producer single-consumer queue for the serving runtime.
//
// The sharded serving path routes demotions and directory updates from the
// shard client engines to the gLRU directory server over these queues; the
// bound is the backpressure mechanism (a client that outruns the server
// blocks in push() instead of growing an unbounded backlog — the same
// contract OrangeFS's ucache uses for its cross-process message queues).
// Items live in a ring of `capacity` slots allocated once, so a push never
// allocates.
//
// Ordering contract: the queue is FIFO over the *enqueue* order, which a
// single internal mutex makes a total order. With one producer that order is
// the producer's program order, so a per-shard consumer applies a
// deterministic sequence; with several producers the order is whatever
// interleaving the mutex admits (per-producer subsequences stay in order).
//
// Wake mark: producers do not signal the consumer on every push. Only the
// push that lifts the queue depth to wake_mark() (capacity / 8, at least 1)
// signals, so a sleeping consumer costs its producers one futex wake per
// batch instead of one per item. The consumer sleeps only on an empty
// queue, so while it sleeps fewer than wake_mark() items wait; a full queue
// (depth == capacity >= wake_mark) therefore always has a woken consumer,
// and a producer blocked on backpressure is always released. A backlog
// below the mark is delivered by the consumer's next pop_wait after it
// wakes for any reason, by wake() (a flush: DirectoryServer::drain calls it
// before waiting), or by close(). At capacity < 16 the mark is 1: every
// push onto an empty queue signals, as an unbatched queue would.
//
// The consumer drains in batches (pop_wait) to amortize the lock. close()
// wakes everyone: producers see push() fail, the consumer drains what is
// left and then gets 0.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/ensure.h"

namespace ulc {

struct MpscStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t rejected = 0;        // try_push on a full queue / push after close
  std::uint64_t producer_waits = 0;  // pushes that had to block on a full queue
  std::uint64_t wake_signals = 0;    // pushes that lifted the depth to the wake mark
  std::uint64_t max_depth = 0;       // high-water mark of queued items
};

template <typename T>
class BoundedMpsc {
 public:
  explicit BoundedMpsc(std::size_t capacity)
      : capacity_(capacity),
        wake_mark_(capacity / 8 > 1 ? capacity / 8 : 1),
        ring_(capacity) {
    ULC_REQUIRE(capacity >= 1, "queue capacity must be positive");
  }

  BoundedMpsc(const BoundedMpsc&) = delete;
  BoundedMpsc& operator=(const BoundedMpsc&) = delete;

  // Blocks while the queue is full (backpressure). Returns false only when
  // the queue has been closed, in which case the item is dropped.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(lock_);
    if (size_ >= capacity_ && !closed_) {
      ++stats_.producer_waits;
      not_full_.wait(lock, [&] { return size_ < capacity_ || closed_; });
    }
    if (closed_) {
      ++stats_.rejected;
      return false;
    }
    enqueue_locked(std::move(item));
    return true;
  }

  // Non-blocking variant: false when full or closed (item dropped).
  bool try_push(T item) {
    std::lock_guard<std::mutex> lock(lock_);
    if (closed_ || size_ >= capacity_) {
      ++stats_.rejected;
      return false;
    }
    enqueue_locked(std::move(item));
    return true;
  }

  // Consumer side: clears `out`, then blocks until at least one item is
  // available (moving every queued item into `out`) or the queue is closed
  // and empty. Returns the number of items delivered; 0 means "closed and
  // fully drained" — the consumer's exit signal. A consumer that finds
  // items queued takes them without sleeping; once asleep it is woken by
  // the wake mark, wake() or close().
  std::size_t pop_wait(std::vector<T>& out) {
    out.clear();
    std::unique_lock<std::mutex> lock(lock_);
    not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
    for (; size_ > 0; --size_) {
      out.push_back(std::move(ring_[head_]));
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    }
    stats_.dequeued += out.size();
    if (!out.empty()) not_full_.notify_all();
    return out.size();
  }

  // Releases a consumer asleep in pop_wait so that a backlog below the
  // wake mark is delivered now. Harmless on an empty queue.
  void wake() {
    std::lock_guard<std::mutex> lock(lock_);
    not_empty_.notify_one();
  }

  // After close() every push fails and pop_wait drains to 0.
  void close() {
    std::lock_guard<std::mutex> lock(lock_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(lock_);
    return closed_;
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(lock_);
    return size_;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t wake_mark() const { return wake_mark_; }

  MpscStats stats() const {
    std::lock_guard<std::mutex> lock(lock_);
    return stats_;
  }

 private:
  void enqueue_locked(T item) {
    const std::size_t tail = head_ + size_;
    ring_[tail < capacity_ ? tail : tail - capacity_] = std::move(item);
    ++size_;
    ++stats_.enqueued;
    if (size_ > stats_.max_depth) stats_.max_depth = size_;
    // The consumer sleeps only on an empty queue, so the push that lifts the
    // depth to the mark is the one that must signal; deeper pushes find the
    // consumer already woken (or awake and bound to pop them).
    if (size_ == wake_mark_) {
      ++stats_.wake_signals;
      not_empty_.notify_one();
    }
  }

  const std::size_t capacity_;
  const std::size_t wake_mark_;
  mutable std::mutex lock_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> ring_;   // capacity_ slots; items at [head_, head_ + size_)
  std::size_t head_ = 0;  // oldest item's slot
  std::size_t size_ = 0;
  bool closed_ = false;
  MpscStats stats_;
};

}  // namespace ulc
