// Mailbox: the FIFO ingress queue of a rank.
//
// Multi-producer (every other rank plus the main thread), single-consumer
// (the owning rank). The hot path is lock-free: each *rank* producer owns a
// bounded SPSC ring (single writer, single reader, release/acquire on the
// ring indices), so a steady-state push touches no mutex at all. Two slow
// paths share one mutexed overflow segment: producers without a ring (the
// main thread's push()/push_one()) and ring producers whose ring filled up.
//
// Per-producer FIFO order — the ordering guarantee the paper's
// undirected-edge serialisation argument relies on (Section III-C) — is
// preserved across the ring/overflow boundary by a sticky per-ring `spilled`
// flag: once a producer spills, it keeps appending to the overflow segment
// (never the ring) until the consumer has taken the overflow *and* cleared
// the flag under the same mutex. Thus at any instant a producer's pending
// visitors are [older: its ring] ++ [newer: its overflow entries], and
// drain() empties rings before the overflow segment (re-draining spilled
// rings under the mutex, see drain() for the interleaving proof).
//
// Parking uses an eventcount-style protocol instead of holding a mutex
// around the queue: the consumer raises `parked_`, fences, re-checks
// emptiness, and only then blocks on the condvar; a producer fences after
// publishing and checks `parked_`. The two seq_cst fences guarantee that
// either the consumer sees the new message on its re-check or the producer
// sees `parked_ == true` and rings the condvar — there is no interleaving
// in which a push lands between the re-check and the park without a wakeup
// (DESIGN.md §6). The bounded wait_for is a belt-and-braces liveness
// backstop, not a correctness requirement.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "runtime/memory.hpp"
#include "runtime/message.hpp"

namespace remo {

class Mailbox {
 public:
  /// A mailbox with `producers` SPSC rings (one per rank that may call
  /// push_from) of `ring_capacity` slots each (rounded up to a power of
  /// two). With zero producers every push takes the overflow path — the
  /// configuration standalone tests use.
  ///
  /// `arena` (optional) backs the ring slot arrays. The mailbox belongs to
  /// its consumer, so the engine passes the *consumer rank's* arena — the
  /// consumer walks all producers' rings each drain() while each producer
  /// writes its one ring once, so consumer-side placement wins (DESIGN.md
  /// §7).
  explicit Mailbox(RankId producers = 0, std::size_t ring_capacity = 16384,
                   Arena* arena = nullptr) {
    std::size_t cap = 8;
    while (cap < ring_capacity) cap <<= 1;
    rings_.reserve(producers);
    for (RankId p = 0; p < producers; ++p)
      rings_.push_back(std::make_unique<Ring>(cap, arena));
  }

  RankId producers() const noexcept { return static_cast<RankId>(rings_.size()); }

  /// Append a batch from ring producer `producer` (that producer's thread
  /// only). Lock-free while the ring has room; spills the remainder to the
  /// overflow segment when it fills (counted in overflows()).
  void push_from(RankId producer, std::span<const Visitor> batch) {
    if (batch.empty()) return;
    Ring& ring = *rings_[producer];
    std::size_t taken = 0;
    // The producer is the only writer of `spilled` transitions it cares
    // about ordering against its own pushes; a stale `true` read (consumer
    // cleared it concurrently) merely routes one more batch through the
    // overflow segment, which is always FIFO-safe.
    if (!ring.spilled.load(std::memory_order_relaxed)) {
      const std::uint64_t tail = ring.tail.load(std::memory_order_relaxed);
      if (tail - ring.cached_head > ring.mask) {
        ring.cached_head = ring.head.load(std::memory_order_acquire);
      }
      const std::size_t room =
          static_cast<std::size_t>(ring.mask + 1 - (tail - ring.cached_head));
      taken = batch.size() < room ? batch.size() : room;
      for (std::size_t i = 0; i < taken; ++i)
        ring.slots[(tail + i) & ring.mask] = batch[i];
      ring.tail.store(tail + taken, std::memory_order_release);
    }
    if (taken < batch.size()) {
      {
        std::lock_guard lock(overflow_mutex_);
        // Re-assert under the mutex: from here until the consumer clears
        // the flag (also under this mutex), this producer bypasses its
        // ring, so its overflow entries stay newer than its ring entries.
        ring.spilled.store(true, std::memory_order_relaxed);
        overflow_.insert(overflow_.end(), batch.begin() + taken, batch.end());
        overflow_depth_.store(overflow_.size(), std::memory_order_release);
      }
      overflows_.fetch_add(batch.size() - taken, std::memory_order_relaxed);
    }
    notify();
  }

  /// Append a batch from a producer without a ring (main thread, tests).
  /// Always takes the mutexed overflow segment; FIFO per caller holds
  /// because appends are serialised by the mutex.
  void push(std::span<const Visitor> batch) {
    if (batch.empty()) return;
    {
      std::lock_guard lock(overflow_mutex_);
      overflow_.insert(overflow_.end(), batch.begin(), batch.end());
      overflow_depth_.store(overflow_.size(), std::memory_order_release);
    }
    notify();
  }

  void push_one(const Visitor& v) { push(std::span<const Visitor>{&v, 1}); }

  /// Take all pending visitors (consumer side). Returns false when the
  /// mailbox was empty. `out` is cleared first. Per-producer FIFO: a
  /// producer's ring entries predate its overflow entries (sticky-flag
  /// argument above), and any ring entries that landed *after* the first
  /// ring pass but *before* that producer spilled are re-collected under
  /// the mutex — while its `spilled` flag is set the producer cannot add
  /// ring entries, so the second pass sees everything older than the
  /// overflow entries taken in the same critical section.
  bool drain(std::vector<Visitor>& out) {
    out.clear();
    for (auto& ring : rings_) pop_ring(*ring, out);
    if (overflow_depth_.load(std::memory_order_acquire) != 0) {
      std::lock_guard lock(overflow_mutex_);
      for (auto& ring : rings_) {
        if (ring->spilled.load(std::memory_order_relaxed)) {
          pop_ring(*ring, out);
          // Sequence check on the ring/overflow boundary: while `spilled`
          // is set its owning producer routes every visitor to the overflow
          // segment, so the re-pop above must leave the ring empty. A
          // non-empty ring here would mean ring entries NEWER than the
          // overflow entries taken below — a per-producer FIFO violation
          // (the ordering DESIGN.md §2 and the undirected serialisation
          // argument rely on). Checked before the flag is cleared, while
          // the producer still cannot touch the ring.
          if (ring->tail.load(std::memory_order_acquire) !=
              ring->head.load(std::memory_order_relaxed)) {
            fifo_violations_.fetch_add(1, std::memory_order_relaxed);
            REMO_ASSERT(false && "mailbox: ring grew while spilled");
          }
          ring->spilled.store(false, std::memory_order_relaxed);
        }
      }
      out.insert(out.end(), overflow_.begin(), overflow_.end());
      overflow_.clear();
      overflow_depth_.store(0, std::memory_order_relaxed);
    }
    return !out.empty();
  }

  /// Undrained visitor count, readable by any thread without locks (the
  /// queue-depth gauge). Head is read before tail per ring, so concurrent
  /// consumption can only make the estimate high, never negative.
  std::size_t approx_depth() const noexcept {
    return ring_depth() + overflow_depth();
  }

  /// Occupancy of the SPSC rings alone (the ring-occupancy gauge).
  std::size_t ring_depth() const noexcept {
    std::size_t n = 0;
    for (const auto& ring : rings_) {
      const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
      const std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
      n += static_cast<std::size_t>(tail - head);
    }
    return n;
  }

  /// Occupancy of the mutexed overflow segment (gauge; updated under the
  /// mutex, read lock-free).
  std::size_t overflow_depth() const noexcept {
    return overflow_depth_.load(std::memory_order_relaxed);
  }

  /// Total visitors that missed their ring and went through the overflow
  /// segment (the ring_overflows counter; ring producers only — push()
  /// traffic is overflow by design and not counted).
  std::uint64_t overflows() const noexcept {
    return overflows_.load(std::memory_order_relaxed);
  }

  /// Times drain() caught a ring holding entries newer than the overflow
  /// entries it was about to take (see the sequence check in drain()).
  /// Always compiled in — any nonzero value is a FIFO-ordering bug.
  std::uint64_t fifo_violations() const noexcept {
    return fifo_violations_.load(std::memory_order_relaxed);
  }

  /// Lock-free emptiness check (consumer-biased; instantaneous like any
  /// concurrent-queue empty()).
  bool empty() const {
    for (const auto& ring : rings_) {
      if (ring->tail.load(std::memory_order_acquire) !=
          ring->head.load(std::memory_order_relaxed))
        return false;
    }
    return overflow_depth_.load(std::memory_order_acquire) == 0;
  }

  /// Park the consumer until a push arrives or `timeout` elapses. Returns
  /// true when the mailbox is (possibly) non-empty. Missed-wakeup freedom:
  /// parked_ is raised *before* the emptiness re-check, with seq_cst
  /// fences on both sides (see notify()), so a concurrent publisher either
  /// loses the race to the re-check (we return true) or observes parked_
  /// and signals the condvar.
  template <typename Duration>
  bool wait(Duration timeout) {
    if (!empty()) return true;
    parked_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!empty()) {
      parked_.store(false, std::memory_order_relaxed);
      return true;
    }
    {
      std::unique_lock lock(park_mutex_);
      cv_.wait_for(lock, timeout, [&] { return wake_signal_; });
      wake_signal_ = false;
    }
    parked_.store(false, std::memory_order_relaxed);
    return !empty();
  }

  /// Wake a parked consumer without delivering a message (used by the
  /// engine for phase changes).
  void interrupt() {
    {
      std::lock_guard lock(park_mutex_);
      wake_signal_ = true;
    }
    cv_.notify_all();
  }

 private:
  struct alignas(64) Ring {
    Ring(std::size_t cap, Arena* arena)
        : slots(cap, Visitor{}, ArenaAllocator<Visitor>(arena)),
          mask(cap - 1) {}
    std::vector<Visitor, ArenaAllocator<Visitor>> slots;
    std::uint64_t mask;
    // Producer side: writes tail (release); caches head to avoid reading
    // the consumer's line on every push.
    alignas(64) std::atomic<std::uint64_t> tail{0};
    std::uint64_t cached_head = 0;  // producer-private
    // Consumer side.
    alignas(64) std::atomic<std::uint64_t> head{0};
    // Sticky spill marker; see the FIFO argument in the header comment.
    std::atomic<bool> spilled{false};
  };

  void pop_ring(Ring& ring, std::vector<Visitor>& out) {
    std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    const std::uint64_t tail = ring.tail.load(std::memory_order_acquire);
    if (head == tail) return;
    for (; head != tail; ++head) out.push_back(ring.slots[head & ring.mask]);
    // Release: the producer's acquire of `head` orders our slot reads
    // before its slot reuse.
    ring.head.store(head, std::memory_order_release);
  }

  /// Publisher half of the eventcount: fence, then signal iff the consumer
  /// advertised it is parking. Pairs with the fence in wait().
  void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!parked_.load(std::memory_order_relaxed)) return;
    {
      std::lock_guard lock(park_mutex_);
      wake_signal_ = true;
    }
    cv_.notify_all();
  }

  std::vector<std::unique_ptr<Ring>> rings_;

  mutable std::mutex overflow_mutex_;
  std::vector<Visitor> overflow_;
  std::atomic<std::size_t> overflow_depth_{0};  // overflow_.size(), lock-free
  std::atomic<std::uint64_t> overflows_{0};     // ring spill events (visitors)
  std::atomic<std::uint64_t> fifo_violations_{0};  // drain() sequence check

  std::mutex park_mutex_;
  std::condition_variable cv_;
  std::atomic<bool> parked_{false};
  bool wake_signal_ = false;  // guarded by park_mutex_
};

}  // namespace remo
