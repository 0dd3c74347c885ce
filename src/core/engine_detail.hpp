// Engine internals shared between engine.cpp and engine_loop.cpp.
// Not part of the public API.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include <memory>

#include "common/types.hpp"
#include "core/query.hpp"
#include "core/snapshot.hpp"
#include "gen/stream.hpp"
#include "obs/gauges.hpp"
#include "obs/histogram.hpp"
#include "obs/lineage.hpp"
#include "obs/obs_config.hpp"
#include "obs/phase_timer.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/metrics.hpp"
#include "runtime/partitioner.hpp"
#include "runtime/safra.hpp"
#include "storage/degaware_store.hpp"
#include "storage/robin_hood_map.hpp"

namespace remo {

class Engine;

namespace detail {

/// Masks of the latency and lineage samplers: a rank records every
/// (mask+1)-th topology event it processes or pulls.
inline constexpr std::uint64_t kLatencySampleMask =
    (std::uint64_t{1} << obs::kLatencySampleShift) - 1;
inline constexpr std::uint64_t kLineageSampleMask =
    (std::uint64_t{1} << obs::kLineageSampleShift) - 1;

/// A trigger registration travelling from the caller's thread to the
/// owning rank's thread.
struct PendingTrigger {
  ProgramId prog = 0;
  bool is_global = false;
  VertexTrigger vertex_trigger;
  GlobalTrigger global_trigger;
};

/// Per-(program, rank) algorithm state.
struct ProgramRank {
  RobinHoodMap<VertexId, StateWord> cur;   ///< live state (S_new)
  RobinHoodMap<VertexId, StateWord> prev;  ///< S_prev during versioned collection
  RobinHoodMap<VertexId, StateWord> aux;   ///< secondary word (parents, ...)
  RobinHoodMap<VertexId, std::vector<VertexTrigger>> vertex_triggers;
  std::size_t vertex_trigger_count = 0;
  std::vector<GlobalTrigger> global_triggers;
  std::vector<VertexId> dirty;        ///< decremental repair anchors
  std::vector<VertexId> invalidated;  ///< phase-A casualties awaiting probes
};

/// Everything a rank thread owns.
struct RankRuntime {
  Engine* engine = nullptr;
  Comm* comm = nullptr;
  SafraRing* safra = nullptr;
  const Partitioner* part = nullptr;
  RankId rank = 0;

  DegAwareStore store;
  std::vector<ProgramRank> progs;
  LiveRankMetrics metrics;

  // Observability (src/obs). Counters/histogram/timers are single-writer
  // (this rank's thread) with relaxed-atomic cells so metrics_snapshot()
  // and sample_gauges() can read concurrently; the trace ring must only be
  // exported at quiescence.
  obs::RankGauges gauges;
  obs::LatencyHistogram update_latency;
  obs::PhaseTimers phases;
  std::unique_ptr<obs::TraceBuffer> trace;  // null unless tracing enabled
  // Hardware-counter profiler (obs/prof.hpp); null unless profiling is on.
  // Fed by on_phase() at the same boundaries as `phases`.
  std::unique_ptr<obs::RankProfiler> prof;
  std::uint64_t obs_topo_seen = 0;
  std::uint64_t obs_control_ns = 0;  // scratch: snapshot-drain time in batch

  // Causal lineage (obs/lineage.hpp). The table is single-writer (this
  // rank); `cur_cause`/`cur_hop` are the processing context set around
  // process_visitor so that send() can stamp derived visitors without any
  // per-call-site changes. Both are plain fields — only this rank's thread
  // touches them.
  std::unique_ptr<obs::LineageTable> lineage;  // null unless lineage enabled
  std::uint64_t lineage_topo_seen = 0;
  std::uint32_t lineage_next_seq = 1;  // 24-bit, wraps past 0
  obs::CauseId cur_cause = 0;
  std::uint16_t cur_hop = 0;

  // Ingestion stream assignment. A rank may own several concurrent streams
  // (stream i of a StreamSet goes to rank i mod P); it pulls them
  // round-robin, preserving each stream's internal FIFO order. `streams`
  // is written by main under the op mutex while `stream_remaining` is zero
  // (the rank never touches the vector then); the atomic publishes pull
  // progress to the main thread.
  struct StreamCursor {
    const EdgeStream* stream = nullptr;
    std::size_t pos = 0;
  };
  std::vector<StreamCursor> streams;
  std::size_t next_stream = 0;
  std::atomic<std::uint64_t> stream_remaining{0};

  // Fault injection (EngineConfig::DebugHooks::drop_nth_update): when
  // nonzero, every Nth outbound kUpdate from this rank is silently
  // discarded before any accounting sees it — a synthetic lost-message
  // bug for the differential fuzzer's self-test. Single-writer fields.
  std::uint32_t drop_nth_update = 0;
  std::uint64_t update_drop_seq = 0;

  // Versioned-collection handshake: last engine epoch this rank observed
  // at a loop-iteration boundary.
  std::atomic<std::uint16_t> epoch_seen{0};

  // Epoch at which this rank last harvested (rank thread only). Once a
  // versioned collection has harvested the rank, its cut is taken: a
  // new-epoch write must not freeze S_prev any more, or the split would
  // outlive the collection and the next one would read it as its cut value.
  std::uint16_t harvested_epoch = 0;

  // Safra token currently held (if any).
  bool holds_token = false;
  bool token_parked = false;  // restart throttling: forward after one park
  SafraRing::Token token{};

  // Cross-thread trigger registration.
  std::mutex reg_mutex;
  std::vector<PendingTrigger> pending_triggers;
  std::atomic<bool> has_pending{false};

  // Harvest output slot (written by rank, read by main after the ack):
  // this rank's run of the snapshot, sorted on the rank thread. The main
  // thread swaps the run out; harvest_scratch is the radix sort's working
  // space and keeps its capacity across harvests.
  std::mutex harvest_mutex;
  Snapshot::Run harvest_out;
  Snapshot::Run harvest_scratch;

  RankRuntime(StoreConfig store_cfg, Arena* arena) : store(store_cfg, arena) {}

  /// Route a visitor to the owner of its target vertex. Taken by value:
  /// when lineage tracing is on, visitors emitted while a caused visitor
  /// is being processed inherit its cause and hop+1 here, so every
  /// emission path (program updates, reverse-adds, invalidations, probes)
  /// is covered without touching the call sites.
  void send(Visitor v) {
    if (drop_nth_update != 0 && v.kind == VisitKind::kUpdate &&
        ++update_drop_seq % drop_nth_update == 0) {
      // Injected message loss: the visitor vanishes before it is counted
      // anywhere, exactly like a send that never happened. Quiescence is
      // unaffected; convergence is silently broken — which is the point.
      return;
    }
    const RankId to = part->owner(v.target);
    if (lineage && v.kind != VisitKind::kControl && v.cause == 0 &&
        cur_cause != 0) {
      v.cause = cur_cause;
      // Saturate: a >65k-hop cascade keeps reporting the max depth
      // rather than wrapping back to the root.
      v.hop = cur_hop == 0xFFFF ? cur_hop
                                : static_cast<std::uint16_t>(cur_hop + 1);
    }
    if (comm->send(rank, to, v)) {
      // Coalesced into an already-buffered visitor: no new message exists,
      // so neither the in-flight counters, Safra's balance, messages_sent,
      // nor the lineage spawn log may see it (the surviving visitor's
      // record covers the cascade edge).
      ++metrics.coalesced_sends;
      return;
    }
    ++metrics.messages_sent;
    if (to != rank)
      ++metrics.remote_messages;
    else
      ++metrics.local_messages;
    if (lineage && v.kind != VisitKind::kControl && v.cause != 0)
      lineage->record_spawn(v.cause, v.hop, to != rank);
    if (v.kind != VisitKind::kControl) safra->on_basic_send(rank);
  }

  /// Send a control visitor to a specific rank (tokens address ranks, not
  /// vertices) and flush so it cannot linger in a send buffer.
  void send_control(RankId to, const Visitor& v) {
    ++metrics.messages_sent;
    ++metrics.control_messages;
    comm->send(rank, to, v);
    comm->flush(rank);
  }

  /// The rank's one phase clock: `ns` of wall clock just spent in `p`,
  /// accounted in the phase timers and handed to the profiler.
  void on_phase(obs::Phase p, std::uint64_t ns) noexcept {
    phases.add(p, ns);
    if (prof) prof->on_phase(p, ns);
  }

  StateWord cur_value(ProgramId p, VertexId v, StateWord identity) const {
    const StateWord* c = progs[p].cur.find(v);
    return c ? *c : identity;
  }
};

/// Evaluate and fire "when" triggers for a state transition.
void fire_triggers(ProgramRank& pr, VertexId v, StateWord old_val, StateWord new_val);

}  // namespace detail
}  // namespace remo
