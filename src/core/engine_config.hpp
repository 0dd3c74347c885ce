// Engine configuration.
#pragma once

#include <atomic>
#include <cstddef>

#include "common/types.hpp"
#include "obs/obs_config.hpp"
#include "runtime/partitioner.hpp"
#include "storage/degaware_store.hpp"

namespace remo {

enum class TerminationMode {
  kCounting,  ///< exact in-flight counting (default; single-host)
  kSafra,     ///< Safra's token ring — message-only, deployable over a network
};

struct EngineConfig {
  /// Number of shared-nothing ranks (the paper's MPI processes).
  RankId num_ranks = 2;

  /// Undirected graphs materialise a Reverse-Add at the far owner for every
  /// Add (Section III-A); directed graphs store each arc once at its source.
  bool undirected = true;

  /// Send-buffer batch size (visitors aggregate per destination rank).
  std::size_t batch_size = 128;

  /// Merge same-(program, target, sender, epoch) Update visitors in the
  /// send buffers via VertexProgram::combine (monotone programs that opt in
  /// with can_combine(); DESIGN.md §6). Off: every visitor travels and is
  /// dispatched verbatim — the A/B arm for determinism tests and
  /// `--no-coalesce`.
  bool coalesce = true;

  /// Per-producer SPSC ring capacity of each mailbox, in visitors (rounded
  /// up to a power of two). Ring-full pushes spill to a mutexed overflow
  /// segment and show up in the ring_overflows counter. Sized so that a
  /// producer burning a full scheduler timeslice while the consumer is
  /// descheduled does not spill: at 1024 slots roughly half of all fig6
  /// messages took the mutex path, erasing the lock-free win. Memory is
  /// ranks^2 rings x capacity x sizeof(Visitor) — ~40 MiB at 8 ranks —
  /// which is the intended trade for a thread-backed single-node deploy;
  /// dial down for large rank counts.
  std::size_t mailbox_ring_capacity = 16384;

  /// How many stream events a rank pulls per loop iteration once its
  /// mailbox is drained. Small values favour algorithm-event latency;
  /// large values favour raw ingest (the prioritisation trade-off the
  /// paper notes at the end of Section V-C).
  std::size_t stream_chunk = 64;

  TerminationMode termination = TerminationMode::kCounting;

  /// Skip update_all_nbrs sends that the per-edge neighbour-state cache
  /// proves redundant (VertexProgram::update_is_redundant). Sound for
  /// monotone programs; off only for the abl_cache_filter ablation.
  bool nbr_cache_filter = true;

  /// Vertex-to-rank placement (Section III-C; kHash is the paper's).
  PartitionMode partition = PartitionMode::kHash;

  /// Chaos testing: when nonzero, every rank sleeps a random 0..N µs
  /// before each loop iteration (seeded deterministically per rank). Used
  /// by the test suite to widen the asynchronous interleaving space;
  /// never enable in production configurations.
  std::uint32_t chaos_delay_us = 0;

  /// Dynamic graph store tuning.
  StoreConfig store{};

  /// Observability: latency histograms, phase timers, chrome-trace capture
  /// (docs/OBSERVABILITY.md).
  obs::ObsConfig obs{};

  /// Test-only fault injection and schedule control. Never set any of these
  /// in production configurations.
  ///
  /// `park_rank_while` points at a flag owned by the test; while it is
  /// true, rank `park_rank` spins without processing its mailbox —
  /// simulating a wedged rank so the stall watchdog can be exercised
  /// deterministically.
  ///
  /// `schedule_seed` is the fuzzer's deterministic-schedule hook: when
  /// nonzero, each rank derives its loop-pacing RNG (the chaos-delay
  /// source) from (schedule_seed, rank) instead of the fixed built-in
  /// seed. Together with `chaos_delay_us` this makes the *distribution* of
  /// thread interleavings a pure function of the seed, so a fuzz case
  /// explores the same schedule neighbourhood on every replay — and with
  /// num_ranks == 1 the execution is exactly deterministic.
  ///
  /// `drop_nth_update` is message-loss injection for the fuzzer's
  /// self-test: when nonzero, each rank silently discards every Nth
  /// kUpdate visitor it would send (before any accounting, so quiescence
  /// is still reached — the converged state is simply wrong). This is the
  /// synthetic bug the differential oracle and the repro shrinker are
  /// validated against.
  struct DebugHooks {
    const std::atomic<bool>* park_rank_while = nullptr;
    RankId park_rank = 0;
    std::uint64_t schedule_seed = 0;
    std::uint32_t drop_nth_update = 0;
  };
  DebugHooks debug{};
};

}  // namespace remo
