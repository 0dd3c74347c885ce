#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/assert.hpp"
#include "common/radix_sort.hpp"
#include "common/strfmt.hpp"
#include "core/engine_detail.hpp"

namespace remo {
namespace detail {

void fire_triggers(ProgramRank& pr, VertexId v, StateWord old_val, StateWord new_val) {
  if (pr.vertex_trigger_count > 0) {
    if (auto* vec = pr.vertex_triggers.find(v)) {
      std::size_t i = 0;
      while (i < vec->size()) {
        if ((*vec)[i].predicate(new_val)) {
          // Retire before running: exactly-once even if the action itself
          // changes state.
          VertexTrigger fired = std::move((*vec)[i]);
          (*vec)[i] = std::move(vec->back());
          vec->pop_back();
          --pr.vertex_trigger_count;
          fired.action(v, new_val);
        } else {
          ++i;
        }
      }
      if (vec->empty()) pr.vertex_triggers.erase(v);
    }
  }
  for (auto& gt : pr.global_triggers)
    if (!gt.predicate(old_val) && gt.predicate(new_val)) gt.action(v, new_val);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// VertexContext
// ---------------------------------------------------------------------------

StateWord VertexContext::value() const {
  const detail::ProgramRank& pr = rt_->progs[prog_];
  if (prev_view_) {
    if (const StateWord* p = pr.prev.find(vertex_)) return *p;
  }
  if (const StateWord* c = pr.cur.find(vertex_)) return *c;
  return rt_->engine->program(prog_).identity();
}

void VertexContext::set_value(StateWord v) {
  detail::ProgramRank& pr = rt_->progs[prog_];
  if (prev_view_) {
    // S_prev mutation: silent (triggers observe live state only).
    pr.prev.insert_or_assign(vertex_, v);
    return;
  }
  Engine& eng = *rt_->engine;
  const StateWord identity = eng.program(prog_).identity();
  const StateWord* c = pr.cur.find(vertex_);
  const StateWord old_val = c ? *c : identity;
  // Copy-on-first-new-epoch-write (Section III-D): freeze S_prev before a
  // new-epoch cause mutates the shared state — until this rank's share of
  // the cut has been harvested.
  if (eng.versioned_collection_active() && epoch_ == eng.current_epoch() &&
      rt_->harvested_epoch != epoch_ && !pr.prev.contains(vertex_))
    pr.prev.insert_or_assign(vertex_, old_val);
  pr.cur.insert_or_assign(vertex_, v);
  detail::fire_triggers(pr, vertex_, old_val, v);
}

bool VertexContext::undirected() const {
  return rt_->engine->config().undirected;
}

StateWord VertexContext::aux() const {
  const StateWord* a = rt_->progs[prog_].aux.find(vertex_);
  return a ? *a : kInfiniteState;
}

void VertexContext::set_aux(StateWord v) {
  rt_->progs[prog_].aux.insert_or_assign(vertex_, v);
}

void VertexContext::update_single_nbr(VertexId nbr, StateWord value) {
  rt_->send(Visitor{nbr, vertex_, value, edge_weight(nbr), VisitKind::kUpdate, prog_,
                    epoch_});
}

void VertexContext::update_all_nbrs(StateWord value) {
  if (!adj_) return;
  Engine& eng = *rt_->engine;
  // The cache bounds the neighbour's *live* state only. Old-epoch
  // emissions during a versioned collection also drive receivers' frozen
  // S_prev, which may be arbitrarily behind the live state — never
  // suppress those (nor prev-view emissions, which are old-tagged too).
  // Non-monotone programs additionally opt out wholesale: the cache proof
  // ("a neighbour's live state is no-worse than anything it sent") only
  // holds under a monotone lattice, and deposits are skipped for them too.
  const bool suppressible =
      eng.config().nbr_cache_filter && !prev_view_ &&
      (!eng.versioned_collection_active() || epoch_ == eng.current_epoch()) &&
      eng.program(prog_).monotone();
  const VertexProgram* prog = suppressible ? &eng.program(prog_) : nullptr;
  adj_->for_each([&](VertexId nbr, EdgeProp& prop) {
    if (prog) {
      const StateWord cached = prop.cache_for(prog_);
      if (cached != kInfiniteState && prog->update_is_redundant(cached, value))
        return;
    }
    rt_->send(Visitor{nbr, vertex_, value, prop.weight, VisitKind::kUpdate, prog_,
                      epoch_});
  });
}

void VertexContext::send_publish() {
  rt_->send(Visitor{vertex_, vertex_, 0, kDefaultWeight, VisitKind::kPublish, prog_,
                    epoch_});
}

void VertexContext::mark_dirty() { rt_->progs[prog_].dirty.push_back(vertex_); }

void VertexContext::mark_invalid() {
  rt_->progs[prog_].invalidated.push_back(vertex_);
}

void VertexContext::send_invalidate_all_nbrs() {
  if (!adj_) return;
  adj_->for_each([&](VertexId nbr, EdgeProp& prop) {
    rt_->send(Visitor{nbr, vertex_, 0, prop.weight, VisitKind::kInvalidate, prog_,
                      epoch_});
  });
}

void VertexContext::send_probe_all_nbrs() {
  if (!adj_) return;
  adj_->for_each([&](VertexId nbr, EdgeProp& prop) {
    rt_->send(Visitor{nbr, vertex_, 0, prop.weight, VisitKind::kProbe, prog_, epoch_});
  });
}

// ---------------------------------------------------------------------------
// Engine — construction / teardown
// ---------------------------------------------------------------------------

namespace {
constexpr auto kPollInterval = std::chrono::microseconds(50);

std::vector<std::unique_ptr<Arena>> make_arenas(RankId num_ranks) {
  std::vector<std::unique_ptr<Arena>> out;
  out.reserve(num_ranks);
  for (RankId r = 0; r < num_ranks; ++r) out.push_back(std::make_unique<Arena>());
  return out;
}

std::vector<Arena*> arena_ptrs(const std::vector<std::unique_ptr<Arena>>& arenas) {
  std::vector<Arena*> out;
  out.reserve(arenas.size());
  for (const auto& arena : arenas) out.push_back(arena.get());
  return out;
}
}  // namespace

Engine::Engine(EngineConfig cfg)
    : cfg_(cfg),
      arenas_(make_arenas(cfg.num_ranks)),
      part_(cfg.num_ranks, cfg.partition),
      comm_(cfg.num_ranks, cfg.batch_size, cfg.mailbox_ring_capacity,
            arena_ptrs(arenas_)),
      safra_(cfg.num_ranks) {
  REMO_CHECK(cfg_.num_ranks > 0);
  trace_base_ns_ = obs::monotonic_ns();
  if (cfg_.obs.trace) main_trace_ = std::make_unique<obs::TraceBuffer>(obs::kTraceCapacity);
  if (cfg_.obs.lineage) {
    // CauseId reserves 8 bits for the origin, with 0xFF meaning "main
    // thread" — rank ids must stay below that.
    REMO_CHECK_MSG(cfg_.num_ranks < obs::kMainOrigin,
                   "lineage tracing supports at most 254 ranks");
    main_lineage_ = std::make_unique<obs::LineageTable>(obs::kLineageCapacity);
  }
  if (cfg_.obs.prof) {
    // Resolve once (the perf_event probe costs a syscall) and give every
    // rank its own backend instance: counter fds are per-thread.
    prof_backend_kind_ = obs::resolve_prof_backend();
    if (cfg_.obs.prof_stacks && obs::StackSampler::supported()) {
      stack_sampler_ = std::make_unique<obs::StackSampler>();
      stack_sampler_->start();
    }
  }
  ranks_.reserve(cfg_.num_ranks);
  for (RankId r = 0; r < cfg_.num_ranks; ++r) {
    auto rt = std::make_unique<detail::RankRuntime>(cfg_.store, arenas_[r].get());
    rt->engine = this;
    rt->comm = &comm_;
    rt->safra = &safra_;
    rt->part = &part_;
    rt->rank = r;
    rt->drop_nth_update = cfg_.debug.drop_nth_update;
    if (cfg_.obs.trace) rt->trace = std::make_unique<obs::TraceBuffer>(obs::kTraceCapacity);
    if (cfg_.obs.lineage)
      rt->lineage = std::make_unique<obs::LineageTable>(obs::kLineageCapacity);
    if (cfg_.obs.prof)
      rt->prof = std::make_unique<obs::RankProfiler>(
          r, obs::make_counter_backend(prof_backend_kind_));
    ranks_.push_back(std::move(rt));
  }
  threads_.reserve(cfg_.num_ranks);
  for (RankId r = 0; r < cfg_.num_ranks; ++r)
    threads_.emplace_back([this, r] { rank_main(r); });
}

Engine::~Engine() {
  // The stack sampler signals rank threads; stop it before they exit.
  if (stack_sampler_) stack_sampler_->stop();
  shutdown_.store(true, std::memory_order_release);
  comm_.interrupt_all();
  for (auto& t : threads_) t.join();
}

// ---------------------------------------------------------------------------
// Engine — program & event injection API
// ---------------------------------------------------------------------------

ProgramId Engine::attach(std::shared_ptr<VertexProgram> program) {
  std::lock_guard guard(op_mutex_);
  REMO_CHECK_MSG(idle(), "attach() requires a quiescent engine");
  REMO_CHECK_MSG(programs_.size() < 32, "too many programs");
  const ProgramId id = static_cast<ProgramId>(programs_.size());
  // combine() soundness is a lattice argument (vertex_program.hpp): merging
  // two same-sender offers into their combine() is indistinguishable from
  // late delivery only when the program is monotone. A non-monotone program
  // claiming can_combine() would have visitors silently merged whenever
  // coalescing is on — reject the configuration outright rather than
  // corrupt state at runtime.
  REMO_CHECK_MSG(program->monotone() || !program->can_combine(),
                 "can_combine() requires a monotone program");
  // The per-edge cache word is shared by all programs with last-writer-wins
  // semantics (storage/adjacency.hpp). Monotone programs only lose an
  // optimisation when evicted; a memo-delta program stores *load-bearing*
  // cumulative-message memos there, so it must own the slot outright —
  // reject co-attachment in either direction.
  const bool is_delta =
      program->memoization_policy() == MemoizationPolicy::kMemoDelta;
  bool have_delta = false;
  for (const auto& p : programs_)
    have_delta |= p->memoization_policy() == MemoizationPolicy::kMemoDelta;
  REMO_CHECK_MSG(!(is_delta && !programs_.empty()) && !have_delta,
                 "a memo-delta program needs exclusive edge-memo ownership");
  programs_.push_back(std::move(program));
  for (auto& rt : ranks_) rt->progs.emplace_back();
  // Hand the communicator a type-erased combine thunk so same-sender
  // Update visitors can be merged in the send buffers (runtime/ cannot
  // name VertexProgram; the engine is idle here, and every later visitor
  // is published-after this write — see Comm::Combiner).
  const VertexProgram* p = programs_.back().get();
  if (cfg_.coalesce && p->can_combine()) {
    comm_.register_combiner(
        id, p, [](const void* prog, StateWord a, StateWord b) {
          return static_cast<const VertexProgram*>(prog)->combine(a, b);
        });
  }
  return id;
}

void Engine::inject_init(ProgramId p, VertexId v) {
  REMO_CHECK(p < programs_.size());
  Visitor vis{v, v, 0, kDefaultWeight, VisitKind::kInit, p,
              epoch_.load(std::memory_order_acquire)};
  comm_.note_injected(vis.epoch);
  safra_.on_basic_send(0);  // modelled as a send from rank 0's environment
  comm_.mailbox(part_.owner(v)).push_one(vis);
}

void Engine::inject_edge(const EdgeEvent& e) {
  const VisitKind kind = e.op == EdgeOp::kAdd ? VisitKind::kAdd : VisitKind::kDelete;
  // Canonical forward orientation in undirected mode — all events of an
  // unordered pair must serialise at one owner (see the stream-pull site in
  // engine_loop.cpp for the race this prevents).
  VertexId fwd_src = e.src, fwd_dst = e.dst;
  if (cfg_.undirected && fwd_dst < fwd_src) std::swap(fwd_src, fwd_dst);
  Visitor vis{fwd_src, fwd_dst, 0, e.weight, kind, Visitor::kTopologyAlgo,
              epoch_.load(std::memory_order_acquire)};
  // Lineage sampling for API injections, mirroring the stream-pull sampler
  // (self-loops skipped — they spawn no propagation). Origin 0xFF marks
  // "main thread"; the atomics keep concurrent injectors safe.
  if (main_lineage_ && e.src != e.dst &&
      (main_lineage_seen_.fetch_add(1, std::memory_order_relaxed) &
       detail::kLineageSampleMask) == 0) {
    std::uint32_t seq = main_lineage_seq_.fetch_add(1, std::memory_order_relaxed) &
                        obs::kCauseSeqMask;
    if (seq == 0) seq = 1;
    vis.cause = obs::make_cause(obs::kMainOrigin, seq);
    main_lineage_->record_origin(vis.cause, obs_now());
    // Count the routing handoff as the root spawn, as the stream-pull path
    // does via rt.send — every sampled cause records >= 1 descendant.
    // remote=false: main -> owner is an injection, not a rank-boundary hop.
    main_lineage_->record_spawn(vis.cause, 0, /*remote=*/false);
  }
  comm_.note_injected(vis.epoch);
  // Watermark bump strictly after the in-flight increment: a gauge sampler
  // that observes this count (acquire) therefore also observes the event
  // as in flight (or already applied) — never as missing.
  injected_events_.fetch_add(1, std::memory_order_release);
  safra_.on_basic_send(0);
  comm_.mailbox(part_.owner(vis.target)).push_one(vis);
}

void Engine::inject_vertex_removal(VertexId v) {
  REMO_CHECK_MSG(comm_.in_flight_total() == 0,
                 "inject_vertex_removal() requires quiescence");
  const auto& store = ranks_[part_.owner(v)]->store;
  const TwoTierAdjacency* adj = store.adjacency(v);
  if (!adj) return;
  std::vector<VertexId> nbrs;
  adj->for_each([&](VertexId nbr, const EdgeProp&) { nbrs.push_back(nbr); });
  for (const VertexId nbr : nbrs)
    inject_edge(EdgeEvent{v, nbr, kDefaultWeight, EdgeOp::kDelete});
}

// ---------------------------------------------------------------------------
// Engine — ingestion
// ---------------------------------------------------------------------------

void Engine::ingest_async(const StreamSet& streams) {
  std::lock_guard guard(op_mutex_);
  // Injected events (e.g. a pre-ingestion init) may still be in flight —
  // that is fine; only overlapping stream runs are disallowed.
  REMO_CHECK_MSG(!streams_assigned_.load(std::memory_order_acquire),
                 "a stream set is already assigned");
  for (auto& rt : ranks_) {
    REMO_CHECK(rt->stream_remaining.load(std::memory_order_acquire) == 0);
    rt->streams.clear();
    rt->next_stream = 0;
  }
  for (std::size_t i = 0; i < streams.num_streams(); ++i) {
    auto& rt = *ranks_[i % cfg_.num_ranks];
    rt.streams.push_back(detail::RankRuntime::StreamCursor{&streams.stream(i), 0});
  }
  for (auto& rt : ranks_) {
    std::uint64_t total = 0;
    for (const auto& sc : rt->streams) total += sc.stream->size();
    rt->stream_remaining.store(total, std::memory_order_release);
  }
  ingest_start_ = std::chrono::steady_clock::now();
  ingest_events_ = streams.total_events();
  streams_paused_.store(false, std::memory_order_release);
  streams_assigned_.store(true, std::memory_order_release);
  if (cfg_.termination == TerminationMode::kSafra) safra_.rearm();
  comm_.interrupt_all();
}

bool Engine::idle() const {
  if (!streams_paused_.load(std::memory_order_acquire)) {
    for (const auto& rt : ranks_)
      if (rt->stream_remaining.load(std::memory_order_acquire) != 0) return false;
  }
  return comm_.in_flight_total() == 0;
}

void Engine::await_in_flight_zero() {
  while (comm_.in_flight_total() != 0) std::this_thread::sleep_for(kPollInterval);
}

IngestStats Engine::await_quiescence() {
  // Wait for every stream to be fully pulled...
  for (auto& rt : ranks_) {
    while (rt->stream_remaining.load(std::memory_order_acquire) != 0) {
      REMO_CHECK_MSG(!streams_paused_.load(std::memory_order_acquire),
                     "await_quiescence() while streams are paused would hang");
      std::this_thread::sleep_for(kPollInterval);
    }
  }
  // ...then for the cascades to settle.
  if (cfg_.termination == TerminationMode::kSafra) {
    while (!safra_.terminated()) std::this_thread::sleep_for(kPollInterval);
    // Safra declared termination; the counting invariant must agree.
    REMO_CHECK(comm_.in_flight_total() == 0);
  } else {
    await_in_flight_zero();
  }

  IngestStats stats;
  stats.events = ingest_events_;
  stats.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                ingest_start_)
                      .count();
  stats.events_per_second =
      stats.seconds > 0 ? static_cast<double>(stats.events) / stats.seconds : 0.0;

  std::lock_guard guard(op_mutex_);
  for (auto& rt : ranks_) rt->streams.clear();
  streams_assigned_.store(false, std::memory_order_release);
  return stats;
}

IngestStats Engine::ingest(const StreamSet& streams) {
  ingest_async(streams);
  return await_quiescence();
}

void Engine::drain() {
  if (cfg_.termination == TerminationMode::kSafra) {
    safra_.rearm();
    comm_.interrupt_all();
    while (!safra_.terminated()) std::this_thread::sleep_for(kPollInterval);
    REMO_CHECK(comm_.in_flight_total() == 0);
  } else {
    await_in_flight_zero();
  }
}

void Engine::resume_streams() {
  streams_paused_.store(false, std::memory_order_release);
  comm_.interrupt_all();
}

// ---------------------------------------------------------------------------
// Engine — state access & snapshots
// ---------------------------------------------------------------------------

StateWord Engine::state_of(ProgramId p, VertexId v) const {
  REMO_CHECK(p < programs_.size());
  REMO_CHECK_MSG(comm_.in_flight_total() == 0,
                 "state_of() requires quiescence; use triggers for live reads");
  const auto& rt = *ranks_[part_.owner(v)];
  const StateWord* c = rt.progs[p].cur.find(v);
  return c ? *c : programs_[p]->identity();
}

void Engine::broadcast_control_and_wait(ControlOp op, ProgramId p) {
  control_acks_.store(0, std::memory_order_release);
  main_control_sent_.fetch_add(cfg_.num_ranks, std::memory_order_relaxed);
  for (RankId r = 0; r < cfg_.num_ranks; ++r) {
    Visitor vis{};
    vis.kind = VisitKind::kControl;
    vis.other = static_cast<std::uint64_t>(op);
    vis.algo = p;
    comm_.mailbox(r).push_one(vis);
  }
  while (control_acks_.load(std::memory_order_acquire) < cfg_.num_ranks)
    std::this_thread::sleep_for(kPollInterval);
}

Snapshot Engine::harvest(ProgramId p) {
  broadcast_control_and_wait(ControlOp::kHarvest, p);

  std::vector<Snapshot::Run> runs(ranks_.size());
  for (RankId r = 0; r < ranks_.size(); ++r) {
    std::lock_guard guard(ranks_[r]->harvest_mutex);
    runs[r].swap(ranks_[r]->harvest_out);
  }
  return Snapshot(std::move(runs), part_, programs_[p]->identity());
}

Snapshot Engine::collect_quiescent(ProgramId p) {
  REMO_CHECK(p < programs_.size());
  std::lock_guard guard(op_mutex_);
  const std::uint64_t t0 = main_trace_ ? obs_now() : 0;
  const bool was_paused = streams_paused_.load(std::memory_order_acquire);
  pause_streams();
  await_in_flight_zero();
  Snapshot snap = harvest(p);
  snap.set_epoch(epoch_.load(std::memory_order_acquire));
  if (!was_paused) resume_streams();
  if (main_trace_)
    main_trace_->emit("collect_quiescent", t0, obs_now() - t0, "vertices",
                      snap.size());
  return snap;
}

Snapshot Engine::collect_aux_quiescent(ProgramId p) {
  REMO_CHECK(p < programs_.size());
  std::lock_guard guard(op_mutex_);
  const bool was_paused = streams_paused_.load(std::memory_order_acquire);
  pause_streams();
  await_in_flight_zero();
  std::vector<Snapshot::Run> runs(ranks_.size());
  Snapshot::Run scratch;
  for (RankId r = 0; r < ranks_.size(); ++r) {
    ranks_[r]->progs[p].aux.for_each([&](const VertexId& v, StateWord& a) {
      if (a != kInfiniteState) runs[r].emplace_back(v, a);
    });
    radix_sort_by_key(runs[r], scratch);
  }
  if (!was_paused) resume_streams();
  return Snapshot(std::move(runs), part_, kInfiniteState);
}

Snapshot Engine::collect_versioned(ProgramId p) {
  REMO_CHECK(p < programs_.size());
  std::lock_guard guard(op_mutex_);
  const std::uint64_t t0 = obs_now();
  // Watermark before the cut: every event counted here registered its
  // in-flight work first (release/acquire pairing, see sample_gauges), so
  // it is provably inside the old epoch this cut is about to drain.
  const std::uint64_t cut_watermark =
      epoch_drain_hook_ ? ingested_watermark() : 0;

  versioned_active_.store(true, std::memory_order_release);
  const std::uint16_t old_epoch = epoch_.fetch_add(1, std::memory_order_acq_rel);
  const std::uint16_t new_epoch = static_cast<std::uint16_t>(old_epoch + 1);
  comm_.interrupt_all();

  // Handshake: once every rank has published the new epoch, no further
  // old-tagged injections can occur, so the old parity counter can only
  // fall to zero.
  for (auto& rt : ranks_) {
    while (rt->epoch_seen.load(std::memory_order_acquire) != new_epoch) {
      std::this_thread::sleep_for(kPollInterval);
      comm_.interrupt_all();  // parked ranks publish on wake
    }
  }
  while (comm_.in_flight(old_epoch & 1) != 0) std::this_thread::sleep_for(kPollInterval);
  const std::uint64_t drained_ns = obs_now();
  if (main_trace_) main_trace_->emit("epoch_drain", t0, drained_ns - t0);
  if (epoch_drain_hook_)
    epoch_drain_hook_(EpochDrainInfo{new_epoch, cut_watermark, t0, drained_ns});

  // The cut is final: S_prev (or the shared state for unsplit vertices) is
  // the global algorithm state at the discretisation point, while new-epoch
  // ingestion continues untouched.
  Snapshot snap = harvest(p);
  snap.set_epoch(new_epoch);
  versioned_active_.store(false, std::memory_order_release);
  if (main_trace_)
    main_trace_->emit("collect_versioned", t0, obs_now() - t0, "vertices",
                      snap.size());
  return snap;
}

// ---------------------------------------------------------------------------
// Engine — "when" queries
// ---------------------------------------------------------------------------

TriggerId Engine::when(ProgramId p, VertexId v, TriggerPredicate pred,
                       TriggerAction act) {
  REMO_CHECK(p < programs_.size());
  auto& rt = *ranks_[part_.owner(v)];
  detail::PendingTrigger pt;
  pt.prog = p;
  pt.is_global = false;
  pt.vertex_trigger = VertexTrigger{v, std::move(pred), std::move(act)};
  {
    std::lock_guard guard(rt.reg_mutex);
    rt.pending_triggers.push_back(std::move(pt));
  }
  rt.has_pending.store(true, std::memory_order_release);
  comm_.mailbox(rt.rank).interrupt();
  return next_trigger_id_++;
}

TriggerId Engine::when_any(ProgramId p, TriggerPredicate pred, TriggerAction act) {
  REMO_CHECK(p < programs_.size());
  for (auto& rt : ranks_) {
    detail::PendingTrigger pt;
    pt.prog = p;
    pt.is_global = true;
    pt.global_trigger = GlobalTrigger{pred, act};
    {
      std::lock_guard guard(rt->reg_mutex);
      rt->pending_triggers.push_back(std::move(pt));
    }
    rt->has_pending.store(true, std::memory_order_release);
    comm_.mailbox(rt->rank).interrupt();
  }
  return next_trigger_id_++;
}

// ---------------------------------------------------------------------------
// Engine — decremental repair (Section VI-B)
// ---------------------------------------------------------------------------

void Engine::repair(ProgramId p) {
  REMO_CHECK(p < programs_.size());
  REMO_CHECK_MSG(programs_[p]->supports_deletes(),
                 "repair() on a program without delete support");
  std::lock_guard guard(op_mutex_);
  const std::uint64_t t0 = main_trace_ ? obs_now() : 0;
  const bool was_paused = streams_paused_.load(std::memory_order_acquire);
  pause_streams();
  await_in_flight_zero();

  // Phase A: invalidation wave from every dirty anchor (asynchronous and
  // concurrent across ranks; quiescence ends the phase).
  broadcast_control_and_wait(ControlOp::kRepairAnchors, p);
  await_in_flight_zero();

  // Phase B: every invalidated vertex probes its neighbourhood; the normal
  // monotone machinery then reconverges.
  broadcast_control_and_wait(ControlOp::kRepairProbes, p);
  await_in_flight_zero();

  if (!was_paused) resume_streams();
  if (main_trace_) main_trace_->emit("repair", t0, obs_now() - t0);
}

void Engine::repair_all() {
  for (ProgramId p = 0; p < programs_.size(); ++p)
    if (programs_[p]->supports_deletes()) repair(p);
}

void Engine::reset_program(ProgramId p) {
  REMO_CHECK(p < programs_.size());
  std::lock_guard guard(op_mutex_);
  REMO_CHECK_MSG(comm_.in_flight_total() == 0, "reset_program() requires quiescence");
  for (auto& rt : ranks_) {
    auto& pr = rt->progs[p];
    pr.cur.clear();
    pr.prev.clear();
    pr.aux.clear();
    pr.dirty.clear();
    pr.invalidated.clear();
    // Edge caches deposited by this program would otherwise let the
    // redundancy filter suppress the rerun's propagation.
    rt->store.for_each_vertex([&](VertexId, TwoTierAdjacency& adj) {
      adj.for_each([&](VertexId, EdgeProp& prop) {
        if (prop.cache_algo == p) prop.clear_cache();
      });
    });
  }
}

// ---------------------------------------------------------------------------
// Engine — introspection
// ---------------------------------------------------------------------------

MetricsSummary Engine::metrics() const {
  MetricsSummary s;
  for (const MetricsSummary& m : rank_metrics()) s.merge(m);
  const std::uint64_t main = main_control_sent_.load(std::memory_order_relaxed);
  s.messages_sent += main;
  s.control_messages += main;
  return s;
}

obs::MetricsSnapshot Engine::metrics_snapshot() const {
  obs::MetricsSnapshot s;
  s.per_rank.reserve(ranks_.size());
  for (const auto& rt : ranks_) {
    obs::RankObs ro;
    ro.counters = rt->metrics.snapshot();
    ro.update_latency_ns = rt->update_latency.snapshot();
    ro.phases = rt->phases.snapshot();
    s.update_latency_ns.merge(ro.update_latency_ns);
    s.phases.merge(ro.phases);
    s.per_rank.push_back(std::move(ro));
  }
  s.counters = metrics();  // includes the main thread's control sends
  if (lineage_enabled()) {
    s.lineage_enabled = true;
    s.lineage = lineage_snapshot().summary();
  }
  if (prof_enabled()) s.prof = prof_snapshot();
  return s;
}

bool Engine::prof_enabled() const noexcept { return cfg_.obs.prof; }

obs::ProfSnapshot Engine::prof_snapshot() const {
  obs::ProfSnapshot s;
  if (!prof_enabled()) return s;
  s.enabled = true;
  s.backend = obs::prof_backend_name(prof_backend_kind_);
  s.degraded = prof_backend_kind_ != obs::ProfBackendKind::kPerfEvent;
  s.per_rank.reserve(ranks_.size());
  for (const auto& rt : ranks_) {
    s.available |= rt->prof->available();
    s.per_rank.push_back(rt->prof->snapshot());
  }
  return s;
}

bool Engine::write_prof(const std::string& path) const {
  if (!prof_enabled()) return false;
  const std::string text = prof_snapshot().to_json().dump(2);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

bool Engine::write_folded(const std::string& path) {
  if (!stack_sampler_) return false;
  return stack_sampler_->write_folded(path);
}

bool Engine::lineage_enabled() const noexcept { return main_lineage_ != nullptr; }

obs::LineageSnapshot Engine::lineage_snapshot() const {
  if (!lineage_enabled()) return {};
  std::vector<obs::LineageCellSnapshot> cells;
  std::uint64_t dropped = main_lineage_->dropped();
  for (RankId r = 0; r < cfg_.num_ranks; ++r) {
    const auto rank_cells = ranks_[r]->lineage->snapshot(r);
    cells.insert(cells.end(), rank_cells.begin(), rank_cells.end());
    dropped += ranks_[r]->lineage->dropped();
  }
  const auto main_cells = main_lineage_->snapshot(obs::kMainOrigin);
  cells.insert(cells.end(), main_cells.begin(), main_cells.end());
  return obs::merge_lineage(cells, cfg_.num_ranks, dropped);
}

bool Engine::write_lineage(const std::string& path) const {
  if (!lineage_enabled()) return false;
  const std::string text = lineage_snapshot().to_json().dump();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

bool Engine::tracing_enabled() const noexcept { return main_trace_ != nullptr; }

std::uint64_t Engine::obs_now() const noexcept {
  return obs::monotonic_ns() - trace_base_ns_;
}

std::uint64_t Engine::ingested_watermark() const noexcept {
  std::uint64_t n = injected_events_.load(std::memory_order_acquire);
  for (const auto& rt : ranks_)
    n += rt->gauges.events_ingested.load(std::memory_order_acquire);
  return n;
}

void Engine::set_epoch_drain_hook(EpochDrainHook hook) {
  std::lock_guard guard(op_mutex_);
  epoch_drain_hook_ = std::move(hook);
}

bool Engine::write_trace(const std::string& path,
                         std::vector<obs::TraceTrack> extra_tracks) const {
  if (!tracing_enabled()) return false;
  std::vector<obs::TraceTrack> tracks;
  tracks.reserve(ranks_.size() + 1 + extra_tracks.size());
  for (RankId r = 0; r < cfg_.num_ranks; ++r)
    tracks.push_back(obs::TraceTrack{strfmt("rank %u", r), r,
                                     ranks_[r]->trace->events()});
  tracks.push_back(
      obs::TraceTrack{"main", cfg_.num_ranks, main_trace_->events()});
  for (auto& t : extra_tracks) tracks.push_back(std::move(t));
  return obs::write_chrome_trace(path, "remo engine", tracks);
}

std::vector<MetricsSummary> Engine::rank_metrics() const {
  std::vector<MetricsSummary> out;
  out.reserve(ranks_.size());
  for (const auto& rt : ranks_) {
    out.push_back(rt->metrics.snapshot());
    // Spill accounting lives in the mailbox (the *receiving* side), so a
    // rank's row reports overflows into its own ingress queue.
    out.back().ring_overflows = comm_.overflows(rt->rank);
  }
  return out;
}

obs::GaugeSample Engine::sample_gauges() const {
  obs::GaugeSample s;
  s.sample_ns = obs_now();

  // Soundness of the watermark advance hinges on read order: take the
  // ingested counts FIRST (acquire), then probe the quiescence indicators.
  // Each ingested event bumps its gauge only after the matching in-flight
  // increment (release), so if the later checks find in-flight == 0 and
  // every queue empty, all events in `ingested` have provably been applied
  // — the count read here is a safe converged watermark.
  std::uint64_t ingested = injected_events_.load(std::memory_order_acquire);
  for (const auto& rt : ranks_)
    ingested += rt->gauges.events_ingested.load(std::memory_order_acquire);

  bool streams_active = false;
  if (streams_assigned_.load(std::memory_order_acquire) &&
      !streams_paused_.load(std::memory_order_acquire)) {
    for (const auto& rt : ranks_)
      if (rt->stream_remaining.load(std::memory_order_acquire) != 0)
        streams_active = true;
  }

  s.per_rank.reserve(ranks_.size());
  for (RankId r = 0; r < cfg_.num_ranks; ++r) {
    const auto& rt = *ranks_[r];
    obs::RankGaugeSample g;
    g.queue_depth = comm_.queue_depth(r);
    g.ring_occupancy = comm_.ring_depth(r);
    g.overflow_depth = comm_.overflow_depth(r);
    g.events_ingested = rt.gauges.events_ingested.load(std::memory_order_relaxed);
    g.events_applied = rt.metrics.topology_events.load();
    g.converged_through = rt.gauges.converged_through.load(std::memory_order_relaxed);
    g.idle = rt.gauges.idle.load(std::memory_order_relaxed);
    if (!(g.idle && g.queue_depth == 0)) {
      const std::uint64_t passive_ns =
          rt.gauges.last_passive_ns.load(std::memory_order_relaxed);
      g.staleness_ns = s.sample_ns > passive_ns ? s.sample_ns - passive_ns : 0;
    }
    g.trace_emitted = rt.trace ? rt.trace->emitted() : 0;
    if (g.idle) ++s.idle_ranks;
    s.queue_depth += g.queue_depth;
    s.events_applied += g.events_applied;
    s.per_rank.push_back(g);
  }
  s.in_flight = comm_.in_flight_total();
  s.events_ingested = ingested;
  s.idle_ratio = static_cast<double>(s.idle_ranks) / cfg_.num_ranks;
  s.quiescent = !streams_active && s.in_flight == 0 && s.queue_depth == 0;

  if (s.quiescent) {
    // Advance the converged watermark (CAS-max keeps it monotone under
    // concurrent samplers) and timestamp the advance for staleness.
    std::uint64_t cur = converged_events_.load(std::memory_order_relaxed);
    while (cur < ingested && !converged_events_.compare_exchange_weak(
                                 cur, ingested, std::memory_order_acq_rel,
                                 std::memory_order_relaxed)) {
    }
    if (cur < ingested) converged_ns_.store(s.sample_ns, std::memory_order_release);
  }
  s.converged_through = converged_events_.load(std::memory_order_acquire);
  s.convergence_lag_events =
      s.events_ingested > s.converged_through
          ? s.events_ingested - s.converged_through
          : 0;
  if (s.convergence_lag_events != 0) {
    const std::uint64_t conv_ns = converged_ns_.load(std::memory_order_acquire);
    s.staleness_ns = s.sample_ns > conv_ns ? s.sample_ns - conv_ns : 0;
  }

  s.safra_mode = cfg_.termination == TerminationMode::kSafra;
  if (s.safra_mode) {
    s.safra_generation = safra_.generation();
    s.safra_probe_rounds = safra_.probe_rounds();
    s.safra_probe_active = safra_.probe_active();
    s.safra_terminated = safra_.terminated();
  }

  if (prof_enabled()) {
    s.prof_resolved_backend = obs::prof_backend_name(prof_backend_kind_);
    s.prof_degraded = prof_backend_kind_ != obs::ProfBackendKind::kPerfEvent;
    s.prof.rank = obs::kProfTotalsRank;
    for (const auto& rt : ranks_) s.prof.merge(rt->prof->snapshot());
  }
  return s;
}

std::string Engine::stall_dump(RankId flagged) const {
  std::string out;
  if (flagged >= cfg_.num_ranks) return out;
  const auto& rt = *ranks_[flagged];
  const MetricsSummary m = rt.metrics.snapshot();
  out += strfmt(
      "rank %u counters: topo %llu, algo %llu, sent %llu (local %llu, remote "
      "%llu, control %llu), edges stored %llu\n",
      flagged, static_cast<unsigned long long>(m.topology_events),
      static_cast<unsigned long long>(m.algorithm_events),
      static_cast<unsigned long long>(m.messages_sent),
      static_cast<unsigned long long>(m.local_messages),
      static_cast<unsigned long long>(m.remote_messages),
      static_cast<unsigned long long>(m.control_messages),
      static_cast<unsigned long long>(m.edges_stored));
  out += strfmt("rank %u stream backlog: %llu events unpulled\n", flagged,
                static_cast<unsigned long long>(
                    rt.stream_remaining.load(std::memory_order_acquire)));
  if (rt.trace) {
    // Best-effort tail: the flagged rank has stopped emitting, so the ring
    // is stable in practice (see TraceBuffer::recent_events).
    const auto recent = rt.trace->recent_events(16);
    out += strfmt("rank %u recent trace slices (newest last, %llu emitted "
                  "lifetime):\n",
                  flagged, static_cast<unsigned long long>(rt.trace->emitted()));
    for (const auto& ev : recent) {
      out += strfmt("  %-18s ts %.6f s dur %.3f us", ev.name ? ev.name : "?",
                    static_cast<double>(ev.ts_ns) / 1e9,
                    static_cast<double>(ev.dur_ns) / 1e3);
      if (ev.arg_name)
        out += strfmt("  %s=%llu", ev.arg_name,
                      static_cast<unsigned long long>(ev.arg_value));
      out += '\n';
    }
  }
  return out;
}

const DegAwareStore& Engine::store(RankId r) const { return ranks_[r]->store; }

std::size_t Engine::total_stored_edges() const {
  std::size_t n = 0;
  for (const auto& rt : ranks_) n += rt->store.edge_count();
  return n;
}

std::size_t Engine::total_stored_vertices() const {
  std::size_t n = 0;
  for (const auto& rt : ranks_) n += rt->store.vertex_count();
  return n;
}

std::size_t Engine::store_memory_bytes() const {
  std::size_t n = 0;
  for (const auto& rt : ranks_) n += rt->store.memory_bytes();
  return n;
}

Json Engine::memory_json() const {
  PageBacking worst = PageBacking::kThp;
  std::uint64_t reserved = 0, allocated = 0;
  for (const auto& arena : arenas_) {
    worst = std::max(worst, arena->backing());
    reserved += arena->reserved_bytes();
    allocated += arena->allocated_bytes();
  }
  Json j = Json::object();
  j["page_backing"] = page_backing_name(worst);
  j["arena_reserved_bytes"] = reserved;
  j["arena_allocated_bytes"] = allocated;
  return j;
}

}  // namespace remo
