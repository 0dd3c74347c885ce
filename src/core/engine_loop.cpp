// The rank event loop: mailbox draining, stream pulling, visitor dispatch,
// versioned-view handling, control messages, and Safra token circulation.
#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/radix_sort.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "core/engine.hpp"
#include "core/engine_detail.hpp"

namespace remo {
namespace {

constexpr auto kParkInterval = std::chrono::microseconds(200);

// Passive-iteration pacing. A rank that finds nothing to do yields its
// timeslice a few times before parking — on an oversubscribed host that
// hands the CPU straight to whichever rank *does* have work, and a push
// that lands meanwhile is picked up without the producer paying a futex
// wake (the consumer never advertised `parked_`). Only after
// kYieldIterations empty passes does the rank park, and then with a
// timeout that doubles per further empty pass up to
// kParkInterval << kMaxParkShift. Every state change that matters is
// wakeup-driven (push -> notify, token -> interrupt, ingest/epoch ->
// interrupt_all), so the timed park is purely a liveness backstop and
// lengthening it cannot lose events (DESIGN.md §6).
constexpr std::uint32_t kYieldIterations = 4;
constexpr std::uint32_t kMaxParkShift = 4;  // 200us << 4 = 3.2ms cap

}  // namespace

// ---------------------------------------------------------------------------
// Visitor dispatch with versioned views
// ---------------------------------------------------------------------------

// Invoke a program callback on the right state view(s) (Section III-D):
//  * events of the current epoch run on the live state, emitting visitors
//    tagged with the current epoch;
//  * events of the *previous* epoch at a vertex whose state has split run
//    once on S_prev (emitting old-epoch visitors — "subsequent events
//    inherit the same version") and once on the live state (emitting
//    current-epoch visitors, so new-epoch dissemination stays complete);
//  * old-epoch events at unsplit vertices run once on the shared state,
//    inheriting the old tag;
//  * an old-epoch publish token (kPublish) at a split vertex runs on the
//    live state only. A publish broadcasts against state the program keeps
//    unversioned (PageRankDelta's published ratio and edge memos): run on
//    S_prev it would flip that state between the two views, and every
//    flip re-sends old-tagged mass that never decays, so the old epoch
//    would never drain and the cut would never return (DESIGN.md §8).
template <typename Invoke>
void Engine::dispatch_views(detail::RankRuntime& rt, const Visitor& v, ProgramId p,
                            TwoTierAdjacency* adj, Invoke&& invoke) {
  ++rt.metrics.algorithm_events;
  const std::uint16_t cur_epoch = epoch_.load(std::memory_order_acquire);
  const bool old_event =
      versioned_active_.load(std::memory_order_acquire) && v.epoch != cur_epoch;
  if (old_event && rt.progs[p].prev.contains(v.target)) {
    if (v.kind != VisitKind::kPublish) {
      VertexContext prev_ctx(rt, p, v.target, adj, v.epoch, /*prev_view=*/true);
      invoke(prev_ctx);
    }
    VertexContext cur_ctx(rt, p, v.target, adj, cur_epoch, /*prev_view=*/false);
    invoke(cur_ctx);
  } else {
    VertexContext ctx(rt, p, v.target, adj, v.epoch, /*prev_view=*/false);
    invoke(ctx);
  }
}

// Emit the per-program half of a Reverse-Add/Delete: the visitor carries
// this vertex's state (vis_val) to the far endpoint. During a versioned
// collection with a split, both views' values travel under their tags.
void Engine::emit_program_reverse(detail::RankRuntime& rt, const Visitor& v,
                                  ProgramId p, VisitKind kind) {
  detail::ProgramRank& pr = rt.progs[p];
  const StateWord identity = programs_[p]->identity();
  const StateWord cur_val = rt.cur_value(p, v.target, identity);
  const std::uint16_t cur_epoch = epoch_.load(std::memory_order_acquire);
  const bool old_event =
      versioned_active_.load(std::memory_order_acquire) && v.epoch != cur_epoch;
  if (old_event && pr.prev.contains(v.target)) {
    rt.send(Visitor{v.other, v.target, *pr.prev.find(v.target), v.weight, kind, p,
                    v.epoch});
    rt.send(Visitor{v.other, v.target, cur_val, v.weight, kind, p, cur_epoch});
  } else {
    rt.send(Visitor{v.other, v.target, cur_val, v.weight, kind, p, v.epoch});
  }
}

// ---------------------------------------------------------------------------
// Topology events
// ---------------------------------------------------------------------------

void Engine::process_topology_add(detail::RankRuntime& rt, const Visitor& v) {
  ++rt.metrics.topology_events;
  const auto res = rt.store.insert_edge(v.target, v.other, v.weight);
  if (res.new_edge) ++rt.metrics.edges_stored;
  // A re-add of a live edge with a different weight is a weight *change*
  // (last-weight-wins store): programs see on_weight_change, never a
  // delete+add pair that could race the repair wave, and the far side is
  // told via a first-class kWeightChange visitor below.
  const bool weight_changed = !res.new_edge && res.old_weight != v.weight;
  TwoTierAdjacency* const adj = res.adj;  // insert already probed the record
  // Emit the reverse-topology half BEFORE running program callbacks: the
  // callbacks may send updates to the new/changed neighbour, and those
  // updates must queue behind the visitor that materialises the reverse
  // edge on the same FIFO channel — otherwise they arrive at a vertex with
  // no receiver-side edge and the stale-update guard (correctly) drops
  // them. Topology lands on both sides first, then the algorithm reacts.
  if (cfg_.undirected && v.target != v.other) {
    if (weight_changed) {
      // The reverse edge already exists at the far owner; ship the weight
      // mutation as its own visitor (old weight in `value`). One per
      // program so each gets its callback; a bare topology-tagged one when
      // none are attached keeps the two stores consistent.
      if (rt.progs.empty()) {
        rt.send(Visitor{v.other, v.target, res.old_weight, v.weight,
                        VisitKind::kWeightChange, Visitor::kTopologyAlgo,
                        v.epoch});
      } else {
        for (ProgramId p = 0; p < rt.progs.size(); ++p)
          rt.send(Visitor{v.other, v.target, res.old_weight, v.weight,
                          VisitKind::kWeightChange, p, v.epoch});
      }
    } else if (rt.progs.empty()) {
      // Reverse-Add carries the topology change AND this vertex's program
      // state in one visitor (Algorithm 3's REVERSE_ADD does both): the
      // program-tagged handler inserts the reverse edge idempotently before
      // running its callback, so no separate topology visitor is needed
      // unless no program is attached.
      rt.send(Visitor{v.other, v.target, 0, v.weight, VisitKind::kReverseAdd,
                      Visitor::kTopologyAlgo, v.epoch});
    } else {
      for (ProgramId p = 0; p < rt.progs.size(); ++p)
        emit_program_reverse(rt, v, p, VisitKind::kReverseAdd);
    }
  }
  // Handle-invalidation audit (debug): `adj` is only usable across the
  // program loop below because VertexContext exposes no store-mutation API
  // — no callback can grow the vertex map and move the record out from
  // under us. The generation check turns any future violation of that
  // contract into a loud failure instead of a heap-corrupting dangling
  // pointer (see DegAwareStore::InsertResult).
  [[maybe_unused]] const std::uint64_t store_gen = rt.store.generation();
  for (ProgramId p = 0; p < rt.progs.size(); ++p)
    dispatch_views(rt, v, p, adj, [&](VertexContext& ctx) {
      if (weight_changed)
        programs_[p]->on_weight_change(ctx, v.other, res.old_weight, v.weight);
      else
        programs_[p]->on_add(ctx, v.other, v.weight);
    });
  REMO_ASSERT(rt.store.generation() == store_gen);
}

void Engine::process_topology_delete(detail::RankRuntime& rt, const Visitor& v) {
  ++rt.metrics.topology_events;
  // Delete events name only the endpoints; the weight a program must
  // retract (PageRank mass revocation) is whatever the store actually
  // held — under weight mutations that can differ from the event's stamp —
  // and memo-delta programs also need the erased edge's memo slot, which
  // the erase would otherwise destroy before the callback could read it.
  EdgeProp erased{};
  erased.weight = v.weight;
  const bool removed = rt.store.erase_edge(v.target, v.other, &erased);
  if (removed) --rt.metrics.edges_stored;
  const Weight erased_w = erased.weight;
  Visitor dv = v;
  dv.weight = erased_w;
  TwoTierAdjacency* adj = rt.store.adjacency(v.target);
  for (ProgramId p = 0; p < rt.progs.size(); ++p)
    dispatch_views(rt, dv, p, adj, [&](VertexContext& ctx) {
      ctx.deleted_nbr_memo_ = erased.cache_for(p);
      programs_[p]->on_delete(ctx, v.other, erased_w);
    });
  if (cfg_.undirected && removed && v.target != v.other) {
    if (rt.progs.empty()) {
      rt.send(Visitor{v.other, v.target, 0, erased_w, VisitKind::kReverseDelete,
                      Visitor::kTopologyAlgo, v.epoch});
    } else {
      for (ProgramId p = 0; p < rt.progs.size(); ++p)
        emit_program_reverse(rt, dv, p, VisitKind::kReverseDelete);
    }
  }
}

// ---------------------------------------------------------------------------
// Main dispatch
// ---------------------------------------------------------------------------

// Lineage wrapper: processing a caused visitor opens a cause context (so
// rt.send stamps every derived emission), records the application in the
// rank's lineage table, and — when tracing — emits a "cause" slice carrying
// a chrome-trace flow record so the cross-rank cascade is visually linked.
void Engine::process_visitor(detail::RankRuntime& rt, const Visitor& v) {
  if (rt.lineage && v.cause != 0) {
    rt.cur_cause = v.cause;
    rt.cur_hop = v.hop;
    const std::uint64_t t0 = obs_now();
    dispatch_visitor(rt, v);
    const std::uint64_t t1 = obs_now();
    rt.cur_cause = 0;
    rt.cur_hop = 0;
    rt.lineage->record_apply(v.cause, v.hop, v.target, t1);
    if (rt.trace)
      rt.trace->emit_flow(
          "cause", t0, t1 - t0, v.cause,
          v.hop == 0 ? obs::FlowPhase::kStart : obs::FlowPhase::kStep, "cause",
          v.cause);
    return;
  }
  dispatch_visitor(rt, v);
}

void Engine::dispatch_visitor(detail::RankRuntime& rt, const Visitor& v) {
  switch (v.kind) {
    case VisitKind::kAdd:
      process_topology_add(rt, v);
      break;

    case VisitKind::kDelete:
      process_topology_delete(rt, v);
      break;

    case VisitKind::kReverseAdd: {
      // Fused topology + program visitor: materialise the reverse edge
      // first (idempotent — with several programs each one's Reverse-Add
      // re-asserts it), then run the program callback.
      const auto res = rt.store.insert_edge(v.target, v.other, v.weight);
      if (res.new_edge) ++rt.metrics.edges_stored;
      if (v.algo != Visitor::kTopologyAlgo) {
        // Deposit the sender's state into the edge cache (Algorithm 3:
        // this.nbrs.set(vis_ID, vis_val)) — straight into the slot the
        // insert just returned, no re-probe. Same handle audit as
        // process_topology_add: the callback must not mutate the store.
        [[maybe_unused]] const std::uint64_t store_gen = rt.store.generation();
        // The cache bounds the sender's live state only under a monotone
        // lattice; non-monotone programs never consult it, and depositing
        // would evict a monotone co-program's slot for nothing.
        if (programs_[v.algo]->monotone()) res.prop->set_cache(v.algo, v.value);
        dispatch_views(rt, v, v.algo, res.adj, [&](VertexContext& ctx) {
          programs_[v.algo]->on_reverse_add(ctx, v.other, v.value, v.weight);
        });
        REMO_ASSERT(rt.store.generation() == store_gen);
      }
      break;
    }

    case VisitKind::kWeightChange: {
      // Far side of an in-place weight mutation: assert the new weight on
      // the reverse edge (idempotent across programs), then let the
      // program react. `value` carries the old weight from the canonical
      // owner, so every program sees the same old -> new transition
      // regardless of arrival order.
      const auto res = rt.store.insert_edge(v.target, v.other, v.weight);
      if (res.new_edge) ++rt.metrics.edges_stored;  // defensive; see comment
      if (v.algo != Visitor::kTopologyAlgo) {
        const Weight old_w = static_cast<Weight>(v.value);
        dispatch_views(rt, v, v.algo, res.adj, [&](VertexContext& ctx) {
          programs_[v.algo]->on_weight_change(ctx, v.other, old_w, v.weight);
        });
      }
      break;
    }

    case VisitKind::kReverseDelete: {
      EdgeProp erased{};
      erased.weight = v.weight;
      if (rt.store.erase_edge(v.target, v.other, &erased))
        --rt.metrics.edges_stored;
      if (v.algo != Visitor::kTopologyAlgo) {
        TwoTierAdjacency* adj = rt.store.adjacency(v.target);
        dispatch_views(rt, v, v.algo, adj, [&](VertexContext& ctx) {
          ctx.deleted_nbr_memo_ = erased.cache_for(v.algo);
          programs_[v.algo]->on_reverse_delete(ctx, v.other, erased.weight);
        });
      }
      break;
    }

    case VisitKind::kUpdate: {
      TwoTierAdjacency* adj = rt.store.adjacency(v.target);
      EdgeProp* prop = adj ? adj->find(v.other) : nullptr;
      if (!prop && cfg_.undirected && v.target != v.other) {
        // Stale update across a deleted edge. In undirected mode updates
        // are only ever sent to current neighbours, and the complementary
        // insert always reaches the receiver before any update can (the
        // sender learns of the edge through that same visitor chain) — so a
        // missing edge here means a concurrent delete won the race while
        // this update was in flight. (Directed mode stores no receiver-side
        // arc at all, so absence proves nothing there and the guard is
        // skipped.)
        // Applying it would deposit a state the repair wave can never see
        // (the anchor edge is already gone on both sides); dropping it is
        // safe because a future re-add transfers the sender's then-current
        // state in its Reverse-Add. Found by `remo fuzz` (docs/TESTING.md,
        // "The bug hunt").
        break;
      }
      if (prop && programs_[v.algo]->monotone()) prop->set_cache(v.algo, v.value);
      // Relax with the RECEIVER's stored weight, not the one the sender read
      // at send time. A message sent after a weight assertion queues behind
      // the visitor asserting that weight here (same per-producer FIFO), so
      // the local store is always at least as fresh as the carried weight —
      // whereas a pre-change offer can land *after* on_weight_change ran and
      // would re-derive stale state no repair anchor could ever see. Found
      // by `remo fuzz --algo wsssp` (tests/integration/repros).
      const Weight w_now = prop ? prop->weight : v.weight;
      dispatch_views(rt, v, v.algo, adj, [&](VertexContext& ctx) {
        programs_[v.algo]->on_update(ctx, v.other, v.value, w_now);
      });
      break;
    }

    case VisitKind::kPublish:
      dispatch_views(rt, v, v.algo, rt.store.adjacency(v.target),
                     [&](VertexContext& ctx) { programs_[v.algo]->on_publish(ctx); });
      break;

    case VisitKind::kInit: {
      TwoTierAdjacency* adj = rt.store.adjacency(v.target);
      dispatch_views(rt, v, v.algo, adj,
                     [&](VertexContext& ctx) { programs_[v.algo]->init(ctx); });
      break;
    }

    case VisitKind::kInvalidate: {
      TwoTierAdjacency* adj = rt.store.adjacency(v.target);
      // The sender's state just worsened: whatever it previously deposited
      // in our edge cache no longer bounds its live state. Reset it so the
      // redundancy filter cannot suppress the reconvergence updates.
      if (adj)
        if (EdgeProp* prop = adj->find(v.other)) prop->clear_cache();
      dispatch_views(rt, v, v.algo, adj, [&](VertexContext& ctx) {
        programs_[v.algo]->on_invalidate(ctx, v.other);
      });
      break;
    }

    case VisitKind::kProbe: {
      TwoTierAdjacency* adj = rt.store.adjacency(v.target);
      dispatch_views(rt, v, v.algo, adj, [&](VertexContext& ctx) {
        programs_[v.algo]->on_probe(ctx, v.other);
      });
      break;
    }

    case VisitKind::kControl:
      REMO_CHECK_MSG(false, "control visitors are handled before dispatch");
      break;
  }
}

// ---------------------------------------------------------------------------
// Control messages
// ---------------------------------------------------------------------------

void Engine::do_harvest(detail::RankRuntime& rt, ProgramId p) {
  const std::uint64_t t0 = obs_now();
  const StateWord identity = programs_[p]->identity();
  detail::ProgramRank& pr = rt.progs[p];
  {
    std::lock_guard guard(rt.harvest_mutex);
    rt.harvest_out.clear();
    rt.harvest_out.reserve(pr.cur.size());
    pr.cur.for_each([&](const VertexId& v, StateWord& cur_val) {
      const StateWord* frozen = pr.prev.find(v);
      const StateWord val = frozen ? *frozen : cur_val;
      if (val != identity) rt.harvest_out.emplace_back(v, val);
    });
    radix_sort_by_key(rt.harvest_out, rt.harvest_scratch);
  }
  // Retire every program's S_prev: the epoch is over for the whole engine,
  // and stale splits would poison the next collection.
  for (auto& each : rt.progs) each.prev.clear();
  rt.harvested_epoch = epoch_.load(std::memory_order_acquire);
  const std::uint64_t dt = obs_now() - t0;
  rt.obs_control_ns += dt;
  if (rt.trace) rt.trace->emit("harvest", t0, dt, "vertices", rt.harvest_out.size());
  control_acks_.fetch_add(1, std::memory_order_acq_rel);
}

void Engine::do_repair_anchors(detail::RankRuntime& rt, ProgramId p) {
  const std::uint64_t t0 = obs_now();
  detail::ProgramRank& pr = rt.progs[p];
  std::vector<VertexId> anchors;
  anchors.swap(pr.dirty);
  std::sort(anchors.begin(), anchors.end());
  anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
  const std::uint16_t epoch = epoch_.load(std::memory_order_acquire);
  for (const VertexId v : anchors) {
    VertexContext ctx(rt, p, v, rt.store.adjacency(v), epoch, /*prev_view=*/false);
    programs_[p]->on_repair_anchor(ctx);
  }
  comm_.flush(rt.rank);
  const std::uint64_t dt = obs_now() - t0;
  rt.obs_control_ns += dt;
  if (rt.trace) rt.trace->emit("repair_anchors", t0, dt, "anchors", anchors.size());
  control_acks_.fetch_add(1, std::memory_order_acq_rel);
}

void Engine::do_repair_probes(detail::RankRuntime& rt, ProgramId p) {
  const std::uint64_t t0 = obs_now();
  detail::ProgramRank& pr = rt.progs[p];
  std::vector<VertexId> casualties;
  casualties.swap(pr.invalidated);
  std::sort(casualties.begin(), casualties.end());
  casualties.erase(std::unique(casualties.begin(), casualties.end()),
                   casualties.end());
  const std::uint16_t epoch = epoch_.load(std::memory_order_acquire);
  for (const VertexId v : casualties) {
    VertexContext ctx(rt, p, v, rt.store.adjacency(v), epoch, /*prev_view=*/false);
    ctx.send_probe_all_nbrs();
  }
  comm_.flush(rt.rank);
  const std::uint64_t dt = obs_now() - t0;
  rt.obs_control_ns += dt;
  if (rt.trace)
    rt.trace->emit("repair_probes", t0, dt, "casualties", casualties.size());
  control_acks_.fetch_add(1, std::memory_order_acq_rel);
}

void Engine::handle_control(detail::RankRuntime& rt, const Visitor& v) {
  // Control traffic is counted at the *send* site (send_control for
  // rank-originated tokens, broadcast_control for the main thread), never
  // on receipt — counting both sides would double-book every message and
  // break `local + remote + control == messages_sent`.
  switch (static_cast<ControlOp>(v.other)) {
    case ControlOp::kSafraToken:
      // v.target carries the probe generation; stale tokens die here.
      if (v.target == safra_.generation()) {
        rt.holds_token = true;
        rt.token_parked = false;
        rt.token = SafraRing::Token{std::bit_cast<std::int64_t>(v.value),
                                    v.weight != 0};
      }
      break;
    case ControlOp::kHarvest:
      do_harvest(rt, v.algo);
      break;
    case ControlOp::kRepairAnchors:
      do_repair_anchors(rt, v.algo);
      break;
    case ControlOp::kRepairProbes:
      do_repair_probes(rt, v.algo);
      break;
  }
}

// ---------------------------------------------------------------------------
// Safra circulation (only active in TerminationMode::kSafra)
// ---------------------------------------------------------------------------

void Engine::handle_safra_idle(detail::RankRuntime& rt) {
  if (safra_.terminated()) return;
  const RankId r = rt.rank;

  auto send_token = [&](RankId to, const SafraRing::Token& tok) {
    Visitor v{};
    v.kind = VisitKind::kControl;
    v.other = static_cast<std::uint64_t>(ControlOp::kSafraToken);
    v.value = std::bit_cast<StateWord>(tok.count);
    v.weight = tok.black ? 1 : 0;
    v.target = safra_.generation();
    rt.send_control(to, v);
    comm_.mailbox(to).interrupt();
  };

  if (rt.holds_token) {
    if (rt.token_parked) {
      // A restarted probe waits one park interval before re-circulating so
      // an idle-but-unterminated system doesn't spin tokens continuously.
      rt.token_parked = false;
      rt.holds_token = false;
      send_token(safra_.next(r), rt.token);
      return;
    }
    switch (safra_.on_token(r, rt.token)) {
      case SafraRing::TokenAction::kForward:
        rt.holds_token = false;
        send_token(safra_.next(r), rt.token);
        break;
      case SafraRing::TokenAction::kTerminated:
        rt.holds_token = false;
        break;
      case SafraRing::TokenAction::kRestart:
        rt.token_parked = true;  // forward after the next park
        break;
    }
    return;
  }

  if (r == 0 && safra_.start_probe(0)) send_token(safra_.next(0), SafraRing::Token{});
}

// ---------------------------------------------------------------------------
// Trigger absorption
// ---------------------------------------------------------------------------

void Engine::absorb_pending_triggers(detail::RankRuntime& rt) {
  if (!rt.has_pending.load(std::memory_order_acquire)) return;
  std::vector<detail::PendingTrigger> pending;
  {
    std::lock_guard guard(rt.reg_mutex);
    pending.swap(rt.pending_triggers);
    rt.has_pending.store(false, std::memory_order_release);
  }
  for (auto& pt : pending) {
    detail::ProgramRank& pr = rt.progs[pt.prog];
    if (pt.is_global) {
      pr.global_triggers.push_back(std::move(pt.global_trigger));
      continue;
    }
    // Vertex trigger: fire promptly when already satisfied.
    const StateWord val =
        rt.cur_value(pt.prog, pt.vertex_trigger.vertex, programs_[pt.prog]->identity());
    if (pt.vertex_trigger.predicate(val)) {
      pt.vertex_trigger.action(pt.vertex_trigger.vertex, val);
      continue;
    }
    pr.vertex_triggers.get_or_insert(pt.vertex_trigger.vertex)
        .push_back(std::move(pt.vertex_trigger));
    ++pr.vertex_trigger_count;
  }
}

// ---------------------------------------------------------------------------
// Rank main loop
// ---------------------------------------------------------------------------

void Engine::rank_main(RankId r) {
  detail::RankRuntime& rt = *ranks_[r];
  std::vector<Visitor> batch;
  std::uint32_t passive_streak = 0;  // consecutive no-work iterations
  // Loop-pacing RNG (chaos delays). By default a fixed per-rank seed; the
  // deterministic-schedule debug hook re-derives it from the fuzz seed so
  // every replay of a fuzz case explores the same interleaving
  // neighbourhood (engine_config.hpp, DebugHooks::schedule_seed).
  Xoshiro256 chaos_rng(cfg_.debug.schedule_seed != 0
                           ? hash_combine(cfg_.debug.schedule_seed, r + 1)
                           : 0xC4A05ULL * (r + 1));

  // Hoisted so the hot path pays one branch when tracing is off.
  obs::TraceBuffer* const trace = rt.trace.get();

  // Open this rank's counter group on its own thread (fds are per-thread)
  // and enrol in the on-CPU stack sampler before entering the loop.
  if (rt.prof) rt.prof->attach();
  if (stack_sampler_)
    stack_sampler_->register_current_thread(strfmt("rank %u", r));

  // Test-only fault injection: while the hook flag is up, this rank spins
  // without touching its mailbox — a deterministic "wedged rank" for the
  // stall-watchdog tests. Null in every production configuration.
  const std::atomic<bool>* const park_hook =
      (cfg_.debug.park_rank_while && cfg_.debug.park_rank == r)
          ? cfg_.debug.park_rank_while
          : nullptr;

  // Apply one visitor; topology events (the stream's unit of work) are
  // sampled into the per-update latency histogram.
  const auto process_one = [&](const Visitor& v) {
    if ((v.kind == VisitKind::kAdd || v.kind == VisitKind::kDelete) &&
        (rt.obs_topo_seen++ & detail::kLatencySampleMask) == 0) {
      const std::uint64_t t0 = obs::monotonic_ns();
      process_visitor(rt, v);
      rt.update_latency.record(obs::monotonic_ns() - t0);
      return;
    }
    process_visitor(rt, v);
  };

  while (!shutdown_.load(std::memory_order_acquire)) {
    if (park_hook && park_hook->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    if (cfg_.chaos_delay_us != 0) {
      // Chaos mode: random per-iteration delays widen the interleaving
      // space the correctness tests explore.
      std::this_thread::sleep_for(
          std::chrono::microseconds(chaos_rng.bounded(cfg_.chaos_delay_us)));
    }
    // Publish the epoch this iteration operates under (versioned-collection
    // handshake: after the main thread has seen `epoch_seen == new`, no
    // old-tagged injection from this rank can follow).
    const std::uint16_t iter_epoch = epoch_.load(std::memory_order_acquire);
    rt.epoch_seen.store(iter_epoch, std::memory_order_release);

    // Held publish tokens (Comm::send) wait while this rank's streams are
    // live, so each vertex's one token covers the deltas of every chunk
    // pulled meanwhile. They rejoin the loop-back queue, in send order, on
    // the first iteration the streams are not live: drained, paused, or a
    // versioned cut waiting for old-epoch work to settle (DESIGN.md §8).
    // The epoch load above makes a cut's versioned_active_ store visible.
    if (comm_.has_held(r) &&
        (rt.stream_remaining.load(std::memory_order_acquire) == 0 ||
         streams_paused_.load(std::memory_order_acquire) ||
         versioned_active_.load(std::memory_order_acquire)))
      comm_.release_held(r);

    absorb_pending_triggers(rt);

    // Each loop iteration is attributed wholly to one phase: propagate
    // (mailbox drain), ingest (stream pull), or quiesce (passive), with
    // harvest/repair control work inside a drain re-attributed to
    // snapshot-drain via obs_control_ns.
    const std::uint64_t iter_t0 = obs_now();
    bool did_work = false;

    // 1) Drain the mailbox + loop-back queue: algorithm events take
    //    priority over new topology pulls (Section V-C's prioritisation).
    //    Every drained visitor is dispatched as it arrived: same-key
    //    Updates were already merged in the sender's buffer (Comm::send,
    //    the one merge point; DESIGN.md §6).
    if (comm_.drain(r, batch)) {
      did_work = true;
      passive_streak = 0;
      rt.obs_control_ns = 0;
      for (const Visitor& v : batch) {
        if (v.kind == VisitKind::kControl) {
          handle_control(rt, v);
        } else {
          safra_.on_basic_receive(r);
          process_one(v);
          comm_.note_processed(v.epoch, r);
        }
      }
      comm_.flush(r);
      const std::uint64_t dt = obs_now() - iter_t0;
      const std::uint64_t control = std::min(dt, rt.obs_control_ns);
      rt.on_phase(obs::Phase::kPropagate, dt - control);
      if (control) rt.on_phase(obs::Phase::kSnapshotDrain, control);
      if (trace) trace->emit("drain", iter_t0, dt, "events", batch.size());
      continue;
    }

    // 2) Saturation ingest: pull the next chunk from this rank's streams
    //    (round-robin across them — streams are mutually concurrent, each
    //    internally FIFO).
    // Acquire pairs with ingest_async's release store: seeing a nonzero
    // remaining count must also make the just-assigned stream cursors
    // visible (the old mutexed mailbox synchronised this by accident; the
    // lock-free one does not).
    if (rt.stream_remaining.load(std::memory_order_acquire) > 0 &&
        !streams_paused_.load(std::memory_order_acquire)) {
      std::size_t pulled = 0;
      for (; pulled < cfg_.stream_chunk; ++pulled) {
        detail::RankRuntime::StreamCursor* sc = nullptr;
        for (std::size_t tries = 0; tries < rt.streams.size(); ++tries) {
          auto& cand = rt.streams[rt.next_stream];
          rt.next_stream = (rt.next_stream + 1) % rt.streams.size();
          if (cand.pos < cand.stream->size()) {
            sc = &cand;
            break;
          }
        }
        if (!sc) break;
        const EdgeEvent& e = (*sc->stream)[sc->pos++];
        // Canonical forward orientation (undirected): route both (u,v) and
        // (v,u) through the same owner so one stream's add/delete history
        // for an unordered pair is processed in stream order. With mixed
        // orientations the forward visitors land on different ranks and a
        // stale delete can race the later add's Reverse-Add, erasing an
        // edge the stream says survives (found by `remo fuzz`, see
        // docs/TESTING.md "The bug hunt").
        VertexId fwd_src = e.src, fwd_dst = e.dst;
        if (cfg_.undirected && fwd_dst < fwd_src) std::swap(fwd_src, fwd_dst);
        Visitor vis{fwd_src, fwd_dst, 0, e.weight,
                    e.op == EdgeOp::kAdd ? VisitKind::kAdd : VisitKind::kDelete,
                    Visitor::kTopologyAlgo, iter_epoch};
        // Lineage sampling at the origin: every (mask+1)-th pulled event
        // becomes a traced cause. Self-loops are skipped — they spawn no
        // propagation, so a sampled self-loop would only pollute the
        // amplification percentiles with structural zeros.
        if (rt.lineage && e.src != e.dst &&
            (rt.lineage_topo_seen++ & detail::kLineageSampleMask) == 0) {
          vis.cause = obs::make_cause(r, rt.lineage_next_seq);
          rt.lineage_next_seq = (rt.lineage_next_seq + 1) & obs::kCauseSeqMask;
          if (rt.lineage_next_seq == 0) rt.lineage_next_seq = 1;
          rt.lineage->record_origin(vis.cause, obs_now());
        }
        did_work = true;
        bool drained = false;
        if (part_.owner(vis.target) == r) {
          comm_.note_injected(iter_epoch, r);
          // Ingest-watermark bump AFTER the in-flight increment (release
          // store): a gauge sampler that sees the count also sees the
          // event as in flight or applied — never as missing. Single
          // writer, so load+store is a plain increment on x86.
          rt.gauges.events_ingested.store(
              rt.gauges.events_ingested.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);
          drained = rt.stream_remaining.fetch_sub(1, std::memory_order_release) == 1;
          process_one(vis);
          comm_.note_processed(iter_epoch, r);
        } else {
          rt.send(vis);  // Comm::send counts it in flight first
          rt.gauges.events_ingested.store(
              rt.gauges.events_ingested.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);
          drained = rt.stream_remaining.fetch_sub(1, std::memory_order_release) == 1;
        }
        // Once the main thread sees zero remaining it may clear `streams`:
        // touch no cursor after the last decrement.
        if (drained) {
          ++pulled;
          break;
        }
      }
      if (did_work) {
        passive_streak = 0;
        comm_.flush(r);
        const std::uint64_t dt = obs_now() - iter_t0;
        rt.on_phase(obs::Phase::kIngest, dt);
        if (trace) trace->emit("ingest", iter_t0, dt, "events", pulled);
        continue;
      }
    }

    // 3) Locally passive: flush, circulate termination tokens, park.
    comm_.flush(r);
    const bool stream_passive =
        rt.stream_remaining.load(std::memory_order_relaxed) == 0 ||
        streams_paused_.load(std::memory_order_acquire);
    const bool locally_passive =
        stream_passive && comm_.mailbox(r).empty() && !comm_.local_pending(r);
    if (locally_passive) {
      // Per-rank convergence watermark: everything this rank has applied is
      // settled from its own point of view at this instant.
      rt.gauges.converged_through.store(rt.metrics.topology_events.load(),
                                        std::memory_order_relaxed);
      rt.gauges.last_passive_ns.store(obs_now(), std::memory_order_relaxed);
      if (cfg_.termination == TerminationMode::kSafra) handle_safra_idle(rt);
    }
    rt.gauges.idle.store(true, std::memory_order_relaxed);
    if (passive_streak < kYieldIterations && !rt.token_parked) {
      // Early in an idle spell: give the timeslice away without parking.
      std::this_thread::yield();
    } else {
      // A throttled Safra restart (`token_parked`) must wait out a *timed*
      // park before re-circulating — a yield would let an unterminated
      // probe spin tokens continuously — so it skips the yield phase.
      const std::uint32_t shift =
          passive_streak < kYieldIterations
              ? 0
              : std::min(passive_streak - kYieldIterations, kMaxParkShift);
      comm_.mailbox(r).wait(kParkInterval * (1u << shift));
    }
    ++passive_streak;
    rt.gauges.idle.store(false, std::memory_order_relaxed);
    rt.on_phase(obs::Phase::kQuiesce, obs_now() - iter_t0);
  }
  // Attribute the tail the sampling stride would otherwise drop.
  if (rt.prof) rt.prof->flush();
}

}  // namespace remo
