// Comm: the shared-nothing communicator.
//
// One mailbox per rank (per-producer SPSC rings, see mailbox.hpp),
// per-destination send buffers (visitors batch up and flush in groups, like
// MPI message aggregation) with an optional coalescing index that merges
// same-key monotone Update visitors before they ever travel, and the
// in-flight accounting that backs both the counting termination detector
// and the epoch-drain logic of versioned snapshots (Section III-D).
//
// Accounting invariant: every *basic* (non-control) visitor increments
// in_flight for its epoch parity before it becomes visible to any consumer
// and decrements only after its callback has fully executed (including the
// sends the callback generated, which were incremented first). Therefore
// in_flight == 0 implies no basic work exists anywhere in the system.
//
// The counters are sharded: one cache-line-padded {injected, processed}
// pair per rank plus one external shard for main-thread injections, so the
// hot path RMWs a line no other rank touches. Readers compute
// in_flight = Σinjected − Σprocessed by summing every *processed* counter
// first, fencing, then summing every *injected* counter. Both families are
// monotone, so for the instant T between the two phases:
//     ΣP(read) ≤ ΣP(T) ≤ ΣI(T) ≤ ΣI(read)
// (the middle inequality is the invariant itself). If the two read sums are
// equal, the chain collapses and in-flight was exactly zero at T — a sound
// quiescence certificate with no retry loop. Non-quiescent reads may be
// transiently low or even negative; pollers just keep polling. DESIGN.md §6
// ("Quiescence and the in-flight invariant") is the full treatment.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/message.hpp"

namespace remo {

class Comm {
 public:
  /// Type-erased monotone merge hook (a VertexProgram::combine thunk; the
  /// runtime layer cannot see core/). Registered per program id by the
  /// engine while idle. Slot reads need no atomics: a rank only consults
  /// combiners_[algo] while holding a visitor of program `algo`, and every
  /// such visitor was published through a release/acquire chain (mailbox
  /// ring or overflow mutex) that starts at an injection sequenced after
  /// register_combiner returned — so the slot write happens-before every
  /// read of that slot. has_combiners_ IS atomic, because rank threads
  /// poll it each loop iteration with no such chain.
  using CombineFn = StateWord (*)(const void*, StateWord, StateWord);
  struct Combiner {
    const void* prog = nullptr;
    CombineFn fn = nullptr;
  };

  /// `arenas` (one per rank; empty: heap) back the inbound mailbox rings:
  /// rank r's mailbox — which r alone drains — allocates its slot arrays
  /// from arenas[r], the consumer's arena.
  explicit Comm(RankId num_ranks, std::size_t batch_size = 128,
                std::size_t ring_capacity = 16384,
                const std::vector<Arena*>& arenas = {})
      : batch_size_(batch_size),
        shards_(static_cast<std::size_t>(num_ranks) + 1) {
    REMO_CHECK(num_ranks > 0);
    REMO_CHECK(batch_size > 0);
    ranks_.reserve(num_ranks);
    for (RankId r = 0; r < num_ranks; ++r)
      ranks_.push_back(std::make_unique<PerRank>(
          num_ranks, ring_capacity,
          r < arenas.size() ? arenas[r] : nullptr));
  }

  RankId size() const noexcept { return static_cast<RankId>(ranks_.size()); }

  Mailbox& mailbox(RankId r) noexcept { return ranks_[r]->box; }

  /// Register `combine` for program `algo` (engine-idle only; see Combiner).
  void register_combiner(std::uint8_t algo, const void* prog, CombineFn fn) {
    combiners_[algo] = Combiner{prog, fn};
    has_combiners_.store(true, std::memory_order_release);
  }

  /// The merge hook for `algo`, or nullptr when none is registered.
  const Combiner* combiner(std::uint8_t algo) const noexcept {
    return combiners_[algo].fn != nullptr ? &combiners_[algo] : nullptr;
  }

  bool has_combiners() const noexcept {
    return has_combiners_.load(std::memory_order_acquire);
  }

  /// Send a visitor from rank `from` to rank `to`. Must be called from the
  /// owning thread of `from`. Basic visitors are counted; control visitors
  /// bypass accounting (they must not hold off quiescence).
  ///
  /// Returns true when the visitor was *coalesced away*: an Update with the
  /// same (program, target, sender, epoch) key was already buffered for
  /// `to`, and this visitor's payload was merged into it via the program's
  /// combine hook. A coalesced visitor never becomes visible to any
  /// consumer, so it is never counted — not by the in-flight counters, not
  /// by Safra's balance, not by messages_sent (the caller owns those
  /// skips; see RankRuntime::send and DESIGN.md §6).
  ///
  /// Self-sends (`from == to`) take a loop-back fast path: the sender IS
  /// the consumer, so the visitor goes straight onto a thread-private local
  /// queue — no send buffer, no mailbox, no flush round-trip, and no
  /// coalescing (it would only re-order the cheapest path). FIFO among a
  /// rank's self-sends is trivially preserved; cross-sender order into one
  /// mailbox was never guaranteed. Drain via Comm::drain (not the raw
  /// mailbox) to observe the local queue.
  bool send(RankId from, RankId to, const Visitor& v) {
    auto& pr = *ranks_[from];
    if (from == to) {
      if (v.kind != VisitKind::kControl) note_injected(v.epoch, from);
      pr.local.push_back(v);
      pr.local_depth.store(pr.local.size(), std::memory_order_relaxed);
      return false;
    }
    OutBuf& ob = pr.out[to];
    if (v.kind == VisitKind::kUpdate) {
      const Combiner& c = combiners_[v.algo];
      if (c.fn != nullptr && coalesce_into(ob, v, c)) return true;
    }
    if (v.kind != VisitKind::kControl) note_injected(v.epoch, from);
    if (!ob.listed) {
      ob.listed = true;
      pr.dirty.push_back(to);
    }
    ob.buf.push_back(v);
    if (ob.buf.size() >= batch_size_) flush_one(from, to);
    return false;
  }

  /// Consumer-side drain of rank `r`'s ingress: the mailbox plus the
  /// (thread-private) loop-back queue. Must be called from the owning
  /// thread of `r`. Returns false when both were empty; `out` is replaced.
  bool drain(RankId r, std::vector<Visitor>& out) {
    auto& pr = *ranks_[r];
    const bool from_box = pr.box.drain(out);  // clears `out` first
    if (pr.local.empty()) return from_box;
    out.insert(out.end(), pr.local.begin(), pr.local.end());
    pr.local.clear();
    pr.local_depth.store(0, std::memory_order_relaxed);
    return true;
  }

  /// True when rank `r` has undrained loop-back visitors. Owning thread only.
  bool local_pending(RankId r) const noexcept { return !ranks_[r]->local.empty(); }

  /// Ingress backlog of rank `r` — undrained mailbox visitors plus the
  /// loop-back queue — readable by any thread without locks (the per-rank
  /// queue-depth gauge; values are slightly stale, never torn).
  std::size_t queue_depth(RankId r) const noexcept {
    const auto& pr = *ranks_[r];
    return pr.box.approx_depth() + pr.local_depth.load(std::memory_order_relaxed);
  }

  /// SPSC-ring occupancy of rank `r`'s mailbox (gauge).
  std::size_t ring_depth(RankId r) const noexcept {
    return ranks_[r]->box.ring_depth();
  }

  /// Overflow-segment occupancy of rank `r`'s mailbox (gauge).
  std::size_t overflow_depth(RankId r) const noexcept {
    return ranks_[r]->box.overflow_depth();
  }

  /// Visitors that spilled past rank `r`'s rings so far (counter).
  std::uint64_t overflows(RankId r) const noexcept {
    return ranks_[r]->box.overflows();
  }

  /// Push all of rank `from`'s buffered visitors to their mailboxes.
  /// O(dirty destinations), not O(ranks): only buffers touched since the
  /// last flush are visited.
  void flush(RankId from) {
    auto& pr = *ranks_[from];
    if (pr.dirty.empty()) return;
    for (const RankId to : pr.dirty) {
      flush_one(from, to);
      pr.out[to].listed = false;
    }
    pr.dirty.clear();
  }

  /// True when rank `from` has buffered undelivered visitors. Owning
  /// thread only (reads the thread-private dirty list). O(dirty).
  bool has_buffered(RankId from) const noexcept {
    const auto& pr = *ranks_[from];
    return std::any_of(pr.dirty.begin(), pr.dirty.end(),
                       [&](RankId to) { return !pr.out[to].buf.empty(); });
  }

  /// Account for a basic visitor becoming in-flight. `shard` is the rank
  /// doing the accounting; omit it for injections from outside the rank
  /// threads (stream feeders, main-thread init, tests), which share one
  /// external shard. Pair with note_processed (any shard — the sums are
  /// global).
  void note_injected(std::uint16_t epoch) noexcept {
    note_injected(epoch, size());
  }
  void note_injected(std::uint16_t epoch, RankId shard) noexcept {
    shards_[shard].injected[epoch & 1].fetch_add(1, std::memory_order_release);
  }

  void note_processed(std::uint16_t epoch) noexcept {
    note_processed(epoch, size());
  }
  void note_processed(std::uint16_t epoch, RankId shard) noexcept {
    shards_[shard].processed[epoch & 1].fetch_add(1, std::memory_order_release);
  }

  /// Σinjected − Σprocessed for one epoch parity, via the two-phase read
  /// (processed first — see the header comment). == 0 is a sound "was
  /// quiescent" certificate; transient non-quiescent values may be low or
  /// negative and must only ever be compared against zero by pollers.
  std::int64_t in_flight(std::uint16_t epoch_parity) const noexcept {
    const unsigned p = epoch_parity & 1;
    std::uint64_t processed = 0;
    for (const auto& s : shards_)
      processed += s.processed[p].load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::uint64_t injected = 0;
    for (const auto& s : shards_)
      injected += s.injected[p].load(std::memory_order_acquire);
    return static_cast<std::int64_t>(injected - processed);
  }

  /// Both parities in one sound certificate (single fence between the
  /// processed and injected phases, so == 0 still pins one instant).
  std::int64_t in_flight_total() const noexcept {
    std::uint64_t processed = 0;
    for (const auto& s : shards_)
      processed += s.processed[0].load(std::memory_order_acquire) +
                   s.processed[1].load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::uint64_t injected = 0;
    for (const auto& s : shards_)
      injected += s.injected[0].load(std::memory_order_acquire) +
                  s.injected[1].load(std::memory_order_acquire);
    return static_cast<std::int64_t>(injected - processed);
  }

  /// Wake every parked rank (phase transitions, shutdown).
  void interrupt_all() {
    for (auto& r : ranks_) r->box.interrupt();
  }

 private:
  /// One send buffer plus its (lazily built) coalescing index: open
  /// addressing over (program, target, sender, epoch), slots invalidated
  /// wholesale by bumping `stamp` at flush instead of clearing. Capacity is
  /// 2× batch_size rounded up to a power of two, and the buffer never
  /// exceeds batch_size entries between flushes, so load factor stays
  /// ≤ 1/2 and linear probing terminates.
  struct OutBuf {
    struct Slot {
      std::uint32_t stamp = 0;  // valid iff == OutBuf::stamp (0 = never)
      std::uint32_t pos = 0;    // index into buf
    };
    std::vector<Visitor> buf;
    std::vector<Slot> slots;
    std::uint32_t stamp = 0;
    bool listed = false;  // on the owner's dirty-destination list?
  };

  struct PerRank {
    PerRank(RankId n, std::size_t ring_capacity, Arena* arena)
        : box(n, ring_capacity, arena), out(n) {}
    Mailbox box;
    std::vector<OutBuf> out;     // per-destination send buffers
    std::vector<RankId> dirty;   // destinations with listed OutBufs (owner only)
    std::vector<Visitor> local;  // loop-back queue (owning thread only)
    std::atomic<std::size_t> local_depth{0};  // local.size(), lock-free gauge
  };

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> injected[2]{};
    std::atomic<std::uint64_t> processed[2]{};
  };

  /// Merge `v` into an already-buffered same-key Update, or claim an index
  /// slot for the append the caller is about to do. Returns true iff
  /// merged (the caller must then treat `v` as never having existed).
  bool coalesce_into(OutBuf& ob, const Visitor& v, const Combiner& c) {
    if (ob.slots.empty()) {
      std::size_t cap = 8;
      while (cap < 2 * batch_size_) cap <<= 1;
      ob.slots.assign(cap, OutBuf::Slot{});
      ob.stamp = 1;
    }
    const std::uint64_t mask = ob.slots.size() - 1;
    std::uint64_t h = splitmix64(v.target);
    h = hash_combine(h, v.other);
    h = hash_combine(h, (static_cast<std::uint64_t>(v.epoch) << 8) | v.algo);
    for (std::uint64_t i = h & mask;; i = (i + 1) & mask) {
      OutBuf::Slot& s = ob.slots[i];
      if (s.stamp != ob.stamp) {
        s.stamp = ob.stamp;
        s.pos = static_cast<std::uint32_t>(ob.buf.size());
        return false;
      }
      Visitor& e = ob.buf[s.pos];
      if (e.kind == VisitKind::kUpdate && e.algo == v.algo &&
          e.target == v.target && e.other == v.other && e.epoch == v.epoch) {
        e.value = c.fn(c.prog, e.value, v.value);
        return true;
      }
    }
  }

  void flush_one(RankId from, RankId to) {
    OutBuf& ob = ranks_[from]->out[to];
    if (!ob.buf.empty()) {
      ranks_[to]->box.push_from(
          from, std::span<const Visitor>(ob.buf.data(), ob.buf.size()));
      ob.buf.clear();
    }
    if (!ob.slots.empty() && ++ob.stamp == 0) {  // uint32 wrap: hard-reset
      std::fill(ob.slots.begin(), ob.slots.end(), OutBuf::Slot{});
      ob.stamp = 1;
    }
  }

  std::size_t batch_size_;
  std::vector<std::unique_ptr<PerRank>> ranks_;
  // One shard per rank plus shards_[size()] for external injections; each
  // counter pair is indexed by epoch parity (at most two epochs are ever
  // active — the engine serialises versioned collections).
  std::vector<Shard> shards_;
  Combiner combiners_[256] = {};
  std::atomic<bool> has_combiners_{false};
};

}  // namespace remo
