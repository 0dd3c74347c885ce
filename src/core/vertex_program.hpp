// The event-centric programming model (Section III-A, Algorithm 3).
//
// An algorithm is a stateless VertexProgram: a bundle of callbacks invoked
// by the engine when a visitor reaches a vertex. All per-vertex state lives
// in engine-owned, rank-local stores and is reached through the
// VertexContext handed to each callback — programs themselves hold only
// immutable configuration (e.g. the BFS source id), so one instance safely
// serves every rank.
//
// Callback vocabulary (mirrors the paper's virtual add / reverse_add /
// update / init, plus the Section VI-B decremental extension):
//   init          — algorithm instantiation at a vertex, any time
//   on_add        — an out-edge (vertex -> nbr) was just inserted here
//   on_reverse_add— the far side of an undirected insert; nbr_val carries
//                   the adding vertex's state (vis_val)
//   on_update     — algorithm-generated propagation (vis_ID, vis_val)
//   on_publish    — a deferred self-visit requested by send_publish()
//   on_delete / on_reverse_delete / on_repair_invalidate / on_invalidate /
//   on_probe      — decremental support; see Engine::repair()
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "storage/adjacency.hpp"

namespace remo {

class Engine;
namespace detail {
struct RankRuntime;
}

/// Program slot index inside an engine.
using ProgramId = std::uint8_t;

/// How a program trades memoized state for propagation containment when the
/// graph mutates (the Ingress taxonomy, DESIGN.md §8). The engine treats
/// this as declarative metadata: it does not allocate anything per policy,
/// but uses it to pick the correct mutation schedule (repair waves vs.
/// direct delta correction) and to gate monotone-only fast paths.
enum class MemoizationPolicy : std::uint8_t {
  /// No memoized support structure: every mutation restarts propagation
  /// from the affected vertices (connected components — recomputing a
  /// label costs one flood either way).
  kMemoFree,
  /// Memoize the dependency path (parent pointers in `aux`): a mutation
  /// invalidates exactly the subtree hanging off the changed edge, then
  /// reconverges it from the intact frontier (BFS/SSSP and the weighted
  /// variant — Engine::repair's invalidate-then-reconverge schedule).
  kMemoPath,
  /// Memoize per-vertex deltas (residuals in `aux`): a mutation is folded
  /// into a local correction that propagates only while it stays above the
  /// tolerance — no global invalidation at all (delta PageRank).
  kMemoDelta,
};

/// Handle to one vertex's state plus the messaging surface, valid only for
/// the duration of a callback. All operations are rank-local or enqueue
/// visitors; nothing blocks.
class VertexContext {
 public:
  /// The vertex being visited.
  VertexId vertex() const noexcept { return vertex_; }

  /// This vertex's current algorithm state (program identity if untouched).
  StateWord value() const;

  /// Overwrite the state. Fires any matching "when" triggers. During a
  /// versioned collection the engine transparently maintains the S_prev /
  /// S_new split (Section III-D) around this call.
  void set_value(StateWord v);

  /// Secondary per-vertex word (e.g. the BFS/SSSP parent pointer used for
  /// deterministic trees and decremental repair). kInfiniteState if unset.
  StateWord aux() const;
  void set_aux(StateWord v);

  /// Owned adjacency of vertex(); nullptr when no out-edges exist yet.
  /// Iterate with adj()->for_each([&](VertexId nbr, EdgeProp& p) { ... }).
  TwoTierAdjacency* adj() const noexcept { return adj_; }

  std::size_t degree() const noexcept { return adj_ ? adj_->degree() : 0; }

  Weight edge_weight(VertexId nbr) const noexcept {
    return adj_ ? adj_->weight_of(nbr) : kDefaultWeight;
  }

  /// Whether the engine materialises reverse edges (EngineConfig::undirected).
  /// Programs use this to decide if an explicit forward push is needed on
  /// on_add (directed mode has no Reverse-Add to carry the value across).
  bool undirected() const;

  /// Per-edge memo slot (Algorithm 3's nbrs.get/set), scoped to this
  /// program. Monotone programs have the engine deposit sender states here
  /// automatically; non-monotone memo-delta programs manage the slot
  /// themselves (the cumulative-message memo that makes deletions local —
  /// DESIGN.md §8). kInfiniteState when absent or owned by another program.
  StateWord nbr_memo(VertexId nbr) const noexcept {
    const EdgeProp* p = adj_ ? adj_->find(nbr) : nullptr;
    return p ? p->cache_for(prog_) : kInfiniteState;
  }
  void set_nbr_memo(VertexId nbr, StateWord value) noexcept {
    // During a versioned collection an old-epoch event at a split vertex
    // runs the callback twice — first on frozen S_prev, then on the live
    // state. The memo is not versioned, so only the live invocation (which
    // always follows) may advance it; a prev-view write would make the
    // live invocation see a zero delta and lose the message.
    if (prev_view_) return;
    if (EdgeProp* p = adj_ ? adj_->find(nbr) : nullptr) p->set_cache(prog_, value);
  }

  /// During on_delete / on_reverse_delete only: the memo slot of the edge
  /// that was just erased (the topology is updated before the callback, so
  /// nbr_memo() can no longer reach it). kInfiniteState otherwise. This is
  /// what lets a memo-delta program retract the departed neighbour's
  /// contribution exactly, with no message over the dead edge.
  StateWord deleted_nbr_memo() const noexcept { return deleted_nbr_memo_; }

  /// Send an Update visitor carrying `value` to one vertex. The weight is
  /// looked up from this vertex's adjacency (paper: getEdgeWeight).
  void update_single_nbr(VertexId nbr, StateWord value);

  /// Send an Update visitor carrying `value` across every owned edge
  /// (paper: update_nbrs).
  void update_all_nbrs(StateWord value);

  /// Ask for one deferred on_publish() call at this vertex (a kPublish
  /// visitor to self). It runs after every visitor already queued here,
  /// and while this rank still has stream events to pull the engine holds
  /// it back until the stream is drained or paused or a versioned cut is
  /// waiting (DESIGN.md §8). Counted in flight like any visitor.
  void send_publish();

  /// Decremental support (Section VI-B; see Engine::repair):
  /// flag this vertex as a repair anchor — its program will be asked to
  /// re-examine it when the next repair pass starts.
  void mark_dirty();
  /// Record this vertex as invalidated during repair phase A (it will
  /// probe its neighbourhood in phase B).
  void send_invalidate_all_nbrs();
  void send_probe_all_nbrs();
  void mark_invalid();

 private:
  friend class Engine;
  VertexContext(detail::RankRuntime& rt, ProgramId prog, VertexId vertex,
                TwoTierAdjacency* adj, std::uint16_t epoch, bool prev_view)
      : rt_(&rt), vertex_(vertex), adj_(adj), prog_(prog), epoch_(epoch),
        prev_view_(prev_view) {}

  detail::RankRuntime* rt_;
  VertexId vertex_;
  TwoTierAdjacency* adj_;
  ProgramId prog_;
  std::uint16_t epoch_;
  bool prev_view_;  // operating on S_prev during a versioned collection
  // Set by the engine for delete dispatches (see deleted_nbr_memo()).
  StateWord deleted_nbr_memo_ = kInfiniteState;
};

/// Base class for REMO algorithms.
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  virtual std::string name() const = 0;

  /// State of a vertex no event has touched (BFS/SSSP: infinity; CC /
  /// S-T / degree: 0).
  virtual StateWord identity() const = 0;

  /// True when `a` is at least as converged as `b` in the program's
  /// monotone order (BFS: a <= b). Drives monotonicity property tests.
  virtual bool no_worse(StateWord a, StateWord b) const { return a <= b; }

  /// Whether the program's state evolves monotonically along no_worse()
  /// during convergence. Monotone programs get the lattice fast paths
  /// (visitor coalescing, neighbour-cache suppression); non-monotone
  /// programs (delta PageRank — rank mass moves both ways) must see every
  /// message, and Engine::attach rejects them if they also claim
  /// can_combine() (coalescing a non-monotone visitor silently corrupts
  /// state: the merged message is not equivalent to the replayed history).
  virtual bool monotone() const { return true; }

  /// Which memoization structure backs this program's incremental updates
  /// (DESIGN.md §8). Purely declarative today — programs implementing
  /// kMemoPath lean on Engine::repair, kMemoDelta programs self-correct in
  /// on_weight_change/on_delete — but surfaced so tooling (fig9 bench,
  /// fuzz case descriptions) can report which policy a run exercised.
  virtual MemoizationPolicy memoization_policy() const {
    return MemoizationPolicy::kMemoFree;
  }

  /// Opt-in for visitor coalescing: true when two Update visitors from the
  /// *same sender* to the *same target* may be merged en route into one
  /// carrying combine(a, b). Sound exactly when the program is monotone
  /// and combine picks a value that is no_worse than both inputs — the
  /// receiver then observes the sender's best offer instead of a replayed
  /// history of dominated ones, which a monotone callback cannot
  /// distinguish from the messages simply arriving late (DESIGN.md §6 has
  /// the proof sketch, including why *cross*-sender merging is unsound).
  /// Default off: programs that react to every message (counting,
  /// non-monotone folds) must see the full stream.
  virtual bool can_combine() const { return false; }

  /// Merge two same-sender Update payloads (consulted only when
  /// can_combine()). Must be commutative, associative, idempotent, and
  /// satisfy no_worse(combine(a, b), a) && no_worse(combine(a, b), b) —
  /// BFS/SSSP: min; CC: max. Property-tested in test_coalescing.cpp.
  virtual StateWord combine(StateWord a, StateWord b) const {
    (void)b;
    return a;
  }

  /// Neighbour-cache suppression (the optimisation Algorithm 3's per-edge
  /// `nbrs` values enable): before update_all_nbrs sends `value` to a
  /// neighbour, the engine consults the last state heard *from* that
  /// neighbour. Return true when that cached state proves the send is
  /// useless. Sound for monotone programs: a neighbour's live state is
  /// always no-worse than anything it ever sent, so if the cached value is
  /// already no-worse than `value`, the receiver can neither improve from
  /// it nor needs to reply (its earlier message was already incorporated
  /// here). Default: never suppress.
  virtual bool update_is_redundant(StateWord nbr_cache, StateWord value) const {
    (void)nbr_cache;
    (void)value;
    return false;
  }

  /// The deferred self-visit requested by VertexContext::send_publish().
  virtual void on_publish(VertexContext& ctx) { (void)ctx; }

  /// Algorithm instantiation at `ctx.vertex()` (paper: init()).
  virtual void init(VertexContext& ctx) { (void)ctx; }

  /// Edge (vertex -> nbr, weight w) inserted at this owner.
  virtual void on_add(VertexContext& ctx, VertexId nbr, Weight w) {
    (void)ctx;
    (void)nbr;
    (void)w;
  }

  /// Far side of an undirected insert; nbr_val is the adding vertex's
  /// state at add time (vis_val of Algorithm 3's REVERSE_ADD).
  virtual void on_reverse_add(VertexContext& ctx, VertexId nbr, StateWord nbr_val,
                              Weight w) {
    (void)ctx;
    (void)nbr;
    (void)nbr_val;
    (void)w;
  }

  /// Propagation event from `from` carrying its state `from_val` over an
  /// edge of weight w.
  virtual void on_update(VertexContext& ctx, VertexId from, StateWord from_val,
                         Weight w) {
    (void)ctx;
    (void)from;
    (void)from_val;
    (void)w;
  }

  /// The edge (vertex -> nbr) changed weight old_w -> new_w in place
  /// (last-weight-wins re-add of a live edge). Fired instead of on_add, on
  /// both sides of an undirected edge, with the topology already updated.
  /// A weight change is never decomposed into delete+add — that pair would
  /// race the repair wave (the PR 5 stale-update family) and double-count
  /// weight-dependent contributions. Weighted SSSP treats a decrease as a
  /// fresh relaxation source and an increase on its parent edge as damage
  /// to repair; delta PageRank folds the mass difference directly.
  virtual void on_weight_change(VertexContext& ctx, VertexId nbr, Weight old_w,
                                Weight new_w) {
    (void)ctx;
    (void)nbr;
    (void)old_w;
    (void)new_w;
  }

  // --- Decremental extension (Section VI-B) -------------------------------

  /// Whether Engine::repair() should drive this program's delete recovery.
  virtual bool supports_deletes() const { return false; }

  /// Edge (vertex -> nbr) deleted at this owner (topology already updated).
  virtual void on_delete(VertexContext& ctx, VertexId nbr, Weight w) {
    (void)ctx;
    (void)nbr;
    (void)w;
  }

  virtual void on_reverse_delete(VertexContext& ctx, VertexId nbr, Weight w) {
    (void)ctx;
    (void)nbr;
    (void)w;
  }

  /// Repair phase A entry: re-examine a dirty anchor (a vertex whose
  /// support may have been severed). Typically: if the lost neighbour was
  /// this vertex's parent, mark_invalid() + send_invalidate_all_nbrs().
  virtual void on_repair_anchor(VertexContext& ctx) { (void)ctx; }

  /// Repair phase A propagation: neighbour `from` was invalidated.
  virtual void on_invalidate(VertexContext& ctx, VertexId from) {
    (void)ctx;
    (void)from;
  }

  /// Repair phase B: neighbour `from` (invalidated) asks for support.
  /// Default: offer our value if we have one.
  virtual void on_probe(VertexContext& ctx, VertexId from) {
    if (ctx.value() != identity()) ctx.update_single_nbr(from, ctx.value());
  }
};

}  // namespace remo
