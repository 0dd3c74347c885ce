// Engine: the on-line incremental graph analytics middleware.
//
// The engine owns N shared-nothing ranks (threads). Each rank owns a
// disjoint vertex partition (consistent hashing, Section III-C), a
// DegAwareRHH-style topology store (Section III-B), and per-program
// algorithm state. Ranks exchange only POD visitor messages over FIFO
// mailboxes — there is no shared algorithm state, no locks on the data
// path, and no atomics beyond the runtime's termination accounting,
// mirroring the paper's "no shared memory (nor locking or atomics)" claim
// at the algorithm level.
//
// Lifecycle: attach programs, then ingest streams (synchronously or
// asynchronously), injecting algorithm init events, "when" queries and
// global-state collections at any time before, during, or after ingestion
// (Section V's "system properties that always held true").
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"
#include "core/engine_config.hpp"
#include "core/query.hpp"
#include "core/snapshot.hpp"
#include "core/vertex_program.hpp"
#include "gen/stream.hpp"
#include "obs/gauges.hpp"
#include "obs/lineage.hpp"
#include "obs/prof.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/memory.hpp"
#include "runtime/metrics.hpp"
#include "runtime/partitioner.hpp"
#include "runtime/safra.hpp"
#include "storage/degaware_store.hpp"

namespace remo {

/// Outcome of one ingestion run (saturation methodology of Section V-A:
/// events are offered as fast as ranks can pull them, so events/second is
/// the maximum real-time rate the configuration can sustain).
struct IngestStats {
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_second = 0.0;
};

class Engine {
 public:
  explicit Engine(EngineConfig cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  RankId num_ranks() const noexcept { return cfg_.num_ranks; }
  const EngineConfig& config() const noexcept { return cfg_; }

  // --- Programs ------------------------------------------------------------

  /// Attach an algorithm. Must be called while the engine is idle. At most
  /// 32 programs per engine. Returns the program slot id.
  ProgramId attach(std::shared_ptr<VertexProgram> program);

  /// Construct-and-attach convenience.
  template <typename P, typename... Args>
  std::pair<ProgramId, std::shared_ptr<P>> attach_make(Args&&... args) {
    auto p = std::make_shared<P>(std::forward<Args>(args)...);
    return {attach(p), p};
  }

  std::size_t num_programs() const noexcept { return programs_.size(); }
  VertexProgram& program(ProgramId p) const { return *programs_[p]; }

  // --- Event injection -------------------------------------------------------

  /// Instantiate program `p` at vertex `v` (e.g. set the BFS source).
  /// Allowed at any time, including mid-ingestion.
  void inject_init(ProgramId p, VertexId v);

  /// Feed a single topology event from the application (the streamless
  /// API used by the examples).
  void inject_edge(const EdgeEvent& e);

  /// Remove a vertex: materialised as the set of edge-delete events for
  /// every edge incident to `v` (the paper's Section III-A footnote:
  /// vertex-related changes are sets of edge changes). Requires
  /// quiescence so the incident edge set is well defined.
  void inject_vertex_removal(VertexId v);

  // --- Ingestion -------------------------------------------------------------

  /// Assign stream i to rank (i mod num_ranks) and start pulling. The set
  /// must outlive the run. Engine must be idle.
  void ingest_async(const StreamSet& streams);

  /// Block until all streams are exhausted and the system is quiescent.
  IngestStats await_quiescence();

  /// ingest_async + await_quiescence.
  IngestStats ingest(const StreamSet& streams);

  /// Process any injected events to quiescence (no streams).
  void drain();

  /// True when streams are exhausted (or none assigned) and no work is in
  /// flight anywhere.
  bool idle() const;

  /// Stop/resume stream pulling; algorithm events keep flowing.
  void pause_streams() { streams_paused_.store(true, std::memory_order_release); }
  void resume_streams();

  // --- State access ----------------------------------------------------------

  /// Local state of one vertex. Requires quiescence (use triggers for live
  /// observation, per Section III-E).
  StateWord state_of(ProgramId p, VertexId v) const;

  /// Pause streams, drain, gather all non-identity state, resume.
  Snapshot collect_quiescent(ProgramId p);

  /// Gather the program's auxiliary per-vertex word (e.g. the BFS/SSSP
  /// parent pointers — the full tree of Section II-C's "global state"
  /// example). Quiescent only; aux state is not versioned.
  Snapshot collect_aux_quiescent(ProgramId p);

  /// Chandy-Lamport-style versioned collection (Section III-D): cut the
  /// streams at "now", keep ingesting the new epoch, and return the state
  /// at the cut once the old epoch drains. Never pauses the streams.
  Snapshot collect_versioned(ProgramId p);

  // --- "When" queries (Section III-E) -----------------------------------------

  /// Fire `act` once, when vertex `v`'s state for program `p` first
  /// satisfies `pred`. If it already does, fires promptly.
  TriggerId when(ProgramId p, VertexId v, TriggerPredicate pred, TriggerAction act);

  /// Fire `act` whenever *any* vertex's state transitions into `pred`
  /// (once per upward crossing — at most once per vertex under add-only
  /// events; delete-era repair may re-cross, see query.hpp). Registration
  /// is prospective: existing satisfied vertices do not fire.
  TriggerId when_any(ProgramId p, TriggerPredicate pred, TriggerAction act);

  // --- Decremental repair (Section VI-B) ---------------------------------------

  /// Run the invalidate/probe repair waves for one delete-capable program.
  /// Requires quiescence (deletes already ingested). Both waves execute
  /// asynchronously and concurrently across ranks.
  void repair(ProgramId p);

  /// repair() for every program with supports_deletes().
  void repair_all();

  /// Clear all algorithm state of one program (topology untouched), e.g.
  /// to rerun a traversal from a different source on the same dynamic
  /// graph. Requires quiescence.
  void reset_program(ProgramId p);

  // --- Introspection ------------------------------------------------------------

  MetricsSummary metrics() const;
  std::vector<MetricsSummary> rank_metrics() const;

  /// Full observability snapshot: counters, merged per-update latency
  /// histogram (p50/p90/p99/p999), per-phase wall-clock accounting — per
  /// rank and aggregated.
  ///
  /// Safe to call from any thread concurrently with the event loop: every
  /// cell it reads is a single-writer relaxed atomic, so the snapshot is a
  /// torn-across-counters but per-counter-consistent view (each counter is
  /// some value it actually held; counters need not be from the same
  /// instant). At quiescence the snapshot is exact. See
  /// docs/OBSERVABILITY.md.
  obs::MetricsSnapshot metrics_snapshot() const;

  /// One live-telemetry sample: watermarks (events ingested / applied /
  /// converged-through), convergence lag and staleness, per-rank queue
  /// depths, in-flight message count, and termination-detector state.
  /// Lock-free reads of relaxed/acquire atomics — callable from any thread
  /// at any time without stopping the engine; this is what the
  /// MetricsExporter and StallWatchdog poll. Advances the converged-through
  /// watermark (CAS-max) when it observes the system quiescent, so it is
  /// `const` in the logical sense only. See docs/OBSERVABILITY.md.
  obs::GaugeSample sample_gauges() const;

  /// Render the stall-watchdog's extra diagnostics for a flagged rank:
  /// the rank's counter snapshot plus its most recent trace events (when
  /// tracing is on). Best-effort — the flagged rank is by definition not
  /// emitting, so the trace tail is stable in practice.
  std::string stall_dump(RankId flagged) const;

  /// True when chrome-trace capture is active (config flag set and tracing
  /// compiled in).
  bool tracing_enabled() const noexcept;

  /// Export the captured trace as chrome://tracing JSON — one track per
  /// rank plus one for the main thread's control operations, followed by
  /// any caller-supplied extra tracks (e.g. a SpanRecorder's write-path
  /// flow slices). Call at quiescence (the ring buffers are single-writer).
  /// Returns false when tracing is disabled or the file cannot be written.
  bool write_trace(const std::string& path,
                   std::vector<obs::TraceTrack> extra_tracks = {}) const;

  /// True when causal lineage tracing is active (config flag set).
  bool lineage_enabled() const noexcept;

  /// Merge the per-rank lineage tables into global per-cause records:
  /// visitors spawned/applied, max hop depth, ranks touched, wall-clock
  /// span from ingest to last descendant, and the witness chain
  /// approximating each cause's critical path. Callable from any thread
  /// (relaxed single-writer cells, like metrics_snapshot()); exact at
  /// quiescence. Empty when lineage is disabled.
  obs::LineageSnapshot lineage_snapshot() const;

  /// Dump the merged lineage as a remo-lineage-1 JSON file (the input of
  /// `remo_cli trace-analyze`). Returns false when lineage is disabled or
  /// the file cannot be written.
  bool write_lineage(const std::string& path) const;

  /// True when hardware-counter profiling is active (config flag set).
  bool prof_enabled() const noexcept;

  /// Per-rank × per-phase hardware-counter attribution (obs/prof.hpp).
  /// Callable from any thread (relaxed single-writer accumulators, like
  /// metrics_snapshot()); exact at quiescence. enabled=false when
  /// profiling is off.
  obs::ProfSnapshot prof_snapshot() const;

  /// Dump the counter attribution as a remo-prof-1 JSON file (the input of
  /// `remo_cli trace-analyze --prof`). Returns false when profiling is
  /// disabled or the file cannot be written.
  bool write_prof(const std::string& path) const;

  /// Stop the on-CPU stack sampler (if running) and write the folded
  /// flamegraph-compatible stacks. Returns false when stack sampling was
  /// not enabled or the file cannot be written.
  bool write_folded(const std::string& path);

  /// The on-CPU stack sampler when prof_stacks is on (null otherwise).
  obs::StackSampler* stack_sampler() noexcept { return stack_sampler_.get(); }

  /// Topology store of one rank (requires quiescence for consistent reads).
  const DegAwareStore& store(RankId r) const;

  std::size_t total_stored_edges() const;
  std::size_t total_stored_vertices() const;
  std::size_t store_memory_bytes() const;

  const Partitioner& partitioner() const noexcept { return part_; }

  /// The `memory` block of `--stats-json` and BENCH reports: the weakest
  /// page backing any rank arena achieved, plus reserved and cumulative
  /// allocated arena bytes summed over ranks (DESIGN.md §7).
  Json memory_json() const;

  /// True while a versioned collection is splitting state (internal, but
  /// harmless to observe).
  bool versioned_collection_active() const noexcept {
    return versioned_active_.load(std::memory_order_acquire);
  }

  std::uint16_t current_epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Engine-relative monotonic nanoseconds — the time base of every trace
  /// slice, gauge sample, and write-path span milestone. Public so external
  /// instrumentation (the serving plane's span stamps) shares the engine's
  /// clock instead of inventing a second origin.
  std::uint64_t obs_now() const noexcept;

  /// Total topology events accepted so far: main-thread API injections plus
  /// per-rank stream pulls (the events_ingested gauge without the rest of a
  /// sample). Monotone; a thread reading this after its own inject_edge
  /// calls gets a count covering them, and the count covers any injector
  /// whose completion happens-before the read.
  std::uint64_t ingested_watermark() const noexcept;

  /// What collect_versioned reports when an epoch cut finishes draining:
  /// the watermark every event inside the cut is counted under, plus the
  /// cut/drain instants (engine clock).
  struct EpochDrainInfo {
    std::uint16_t epoch = 0;         ///< the new epoch stamped on the cut
    std::uint64_t watermark = 0;     ///< ingested watermark at cut start
    std::uint64_t cut_ns = 0;
    std::uint64_t drained_ns = 0;
  };
  using EpochDrainHook = std::function<void(const EpochDrainInfo&)>;

  /// Install (or clear, with an empty function) the epoch-drain hook. The
  /// hook runs on the collecting thread while the engine's op lock is held:
  /// it must be quick and must not call back into engine operations (the
  /// serving plane's SpanRecorder::on_epoch_drained is the intended use).
  void set_epoch_drain_hook(EpochDrainHook hook);

 private:
  friend class VertexContext;

  void rank_main(RankId r);
  void process_visitor(detail::RankRuntime& rt, const Visitor& v);
  void dispatch_visitor(detail::RankRuntime& rt, const Visitor& v);
  void process_topology_add(detail::RankRuntime& rt, const Visitor& v);
  void process_topology_delete(detail::RankRuntime& rt, const Visitor& v);
  void emit_program_reverse(detail::RankRuntime& rt, const Visitor& v, ProgramId p,
                            VisitKind kind);
  template <typename Invoke>
  void dispatch_views(detail::RankRuntime& rt, const Visitor& v, ProgramId p,
                      TwoTierAdjacency* adj, Invoke&& invoke);
  void handle_control(detail::RankRuntime& rt, const Visitor& v);
  void handle_safra_idle(detail::RankRuntime& rt);
  void absorb_pending_triggers(detail::RankRuntime& rt);
  void do_harvest(detail::RankRuntime& rt, ProgramId p);
  void do_repair_anchors(detail::RankRuntime& rt, ProgramId p);
  void do_repair_probes(detail::RankRuntime& rt, ProgramId p);
  void await_in_flight_zero();
  /// Push one control visitor per rank from the main thread and block
  /// until every rank has acknowledged via control_acks_.
  void broadcast_control_and_wait(ControlOp op, ProgramId p);
  Snapshot harvest(ProgramId p);

  EngineConfig cfg_;
  // One arena per rank, backing that rank's storage shard and inbound
  // mailbox rings. Declared before comm_ and ranks_ (and thus destroyed
  // after them): arena chunks must outlive every container that
  // allocated from them (ASan-audited teardown order).
  std::vector<std::unique_ptr<Arena>> arenas_;
  Partitioner part_;
  Comm comm_;
  SafraRing safra_;

  std::vector<std::shared_ptr<VertexProgram>> programs_;
  std::vector<std::unique_ptr<detail::RankRuntime>> ranks_;
  std::vector<std::thread> threads_;

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> streams_paused_{false};
  std::atomic<bool> streams_assigned_{false};

  // Versioned-collection epoch machinery (Section III-D).
  std::atomic<std::uint16_t> epoch_{0};
  std::atomic<bool> versioned_active_{false};

  // Acknowledgement counters for control fan-outs (harvest / repair).
  std::atomic<std::uint32_t> control_acks_{0};

  // Control visitors the *main thread* pushed (harvest / repair fan-outs).
  // Ranks count their own sends in rank-private metrics; this cell is the
  // main thread's share, folded into the merged counters at snapshot time.
  std::atomic<std::uint64_t> main_control_sent_{0};

  // Serialises collect/repair/ingest phase transitions.
  mutable std::mutex op_mutex_;

  // Write-path span support: invoked by collect_versioned once the old
  // epoch's in-flight work hits zero. Guarded by op_mutex_ (both the setter
  // and the only call site hold it).
  EpochDrainHook epoch_drain_hook_;

  // Current ingestion run bookkeeping (main thread only).
  std::chrono::steady_clock::time_point ingest_start_{};
  std::uint64_t ingest_events_ = 0;

  // Live-telemetry watermarks (docs/OBSERVABILITY.md). `injected_events_`
  // counts topology/init events the *main thread* injected directly
  // (inject_edge / inject_init), bumped with release order AFTER the
  // matching in-flight increment so a sampler that sees the count also
  // sees the in-flight message. The converged watermark is advanced by
  // observers (sample_gauges) via CAS-max when they see the system
  // quiescent; `converged_ns_` timestamps the advance for staleness.
  std::atomic<std::uint64_t> injected_events_{0};
  mutable std::atomic<std::uint64_t> converged_events_{0};
  mutable std::atomic<std::uint64_t> converged_ns_{0};

  // Observability: trace timestamp origin + the main thread's own track.
  std::uint64_t trace_base_ns_ = 0;
  std::unique_ptr<obs::TraceBuffer> main_trace_;

  // Hardware-counter profiling: the backend kind resolved at construction
  // (per-rank RankProfilers live in RankRuntime) and the optional on-CPU
  // stack sampler. The sampler signals rank threads, so the destructor
  // stops it before joining them.
  obs::ProfBackendKind prof_backend_kind_ = obs::ProfBackendKind::kNoop;
  std::unique_ptr<obs::StackSampler> stack_sampler_;

  // Causal lineage: the main thread's own table (for inject_edge origins —
  // ranks own theirs). inject_edge may be called from several application
  // threads, so the sampling counter and sequence are atomics and the
  // table's claim path is a CAS.
  std::unique_ptr<obs::LineageTable> main_lineage_;
  std::atomic<std::uint64_t> main_lineage_seen_{0};
  std::atomic<std::uint32_t> main_lineage_seq_{1};

  std::uint64_t next_trigger_id_ = 1;
};

}  // namespace remo
