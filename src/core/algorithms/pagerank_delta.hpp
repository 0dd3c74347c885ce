// Incremental PageRank via memoized cumulative ratios (memo-delta).
//
// The first non-monotone program in the engine: rank mass moves both ways,
// so none of the lattice fast paths (visitor coalescing, neighbour-cache
// suppression, repair waves) apply. Instead the program follows the
// Ingress memo-delta recipe — memoize the last *message* per edge — using
// the per-edge memo slot VertexContext exposes:
//
//   cur  r(x)      rank, encoded as an IEEE double in the StateWord;
//                  bit-pattern 0 (the identity) means "never touched" and
//                  decodes to the base mass (1 - d).
//   aux  rho(x)    the out-ratio r(x)/W(x) this vertex last broadcast
//                  (kInfiniteState, the unset aux, decodes to 0), with the
//                  publish-token flag riding its sign bit (ratios are
//                  non-negative, so the bit is free).
//   memo[u]        the last rho heard from neighbour u (cumulative, not a
//                  delta) — deposited by this program itself, since the
//                  engine only auto-deposits for monotone programs.
//
// Invariant: x's contribution inside r(y) is exactly d * w(x,y) * memo,
// where memo is y's slot for x. Messages carry the sender's *cumulative*
// ratio and the receiver folds d * w * (rho - memo), so the invariant is
// re-established by every message regardless of interleaving (per-sender
// FIFO gives per-edge ordering). The payoff is that every topology event
// is a purely local correction:
//
//   delete         retract d * w * memo using the erased edge's slot
//                  (VertexContext::deleted_nbr_memo) — no message over the
//                  dead edge, no repair wave;
//   weight change  rescale: fold d * (w_new - w_old) * memo;
//   add            send our cumulative rho to the new neighbour (its slot
//                  is empty, so it folds the full contribution).
//
// Publishing is deferred, never inline: folding a delta and immediately
// re-broadcasting would multiply the message count by the degree at every
// hop while the amplitude only decays by d — an exponential storm of
// ever-smaller messages (observed first-hand: a 4-vertex graph took ~1e9
// messages to drain to a 1e-9 tolerance). Instead a state-changing
// callback sends one *publish token* (VertexContext::send_publish, a
// kPublish visitor to self) and sets the pending flag; every delta that
// arrives while the token is in flight just folds. When the token surfaces
// (on_publish) the vertex broadcasts its accumulated ratio once — if the
// unpublished outgoing mass d * |r - rho_pub * W| still exceeds the
// tolerance. The engine holds tokens while the owning rank still has
// stream events to pull, so a bulk load folds every chunk's deltas behind
// one token per vertex and propagates once; a batch pulled in one chunk
// surfaces its tokens on the next drain, as before. Each broadcast round
// shrinks total unpublished mass by a factor d < 1, so the cascade is
// geometric and quiescence-terminated. Dangling vertices (W = 0) keep
// their rank and push nothing — the static oracle
// (graph/static_pagerank.hpp) uses the identical convention.
//
// Requires an undirected engine (the memo lives on the receiver-side edge)
// and exclusive ownership of the per-edge memo slot — Engine::attach
// rejects co-attachment with other programs.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/vertex_program.hpp"

namespace remo {

class PageRankDelta : public VertexProgram {
 public:
  struct Options {
    double damping = 0.85;
    /// Maximum unpublished outgoing mass a vertex may retain. Converged
    /// ranks are within n * tolerance / (1 - damping) of the fixpoint.
    double tolerance = 1e-9;
  };

  PageRankDelta() = default;
  explicit PageRankDelta(Options opts) : opts_(opts) {}

  std::string name() const override { return "pagerank"; }
  StateWord identity() const override { return 0; }
  bool monotone() const override { return false; }
  MemoizationPolicy memoization_policy() const override {
    return MemoizationPolicy::kMemoDelta;
  }
  bool supports_deletes() const override { return true; }

  double damping() const noexcept { return opts_.damping; }
  double base_mass() const noexcept { return 1.0 - opts_.damping; }

  /// Decode a collected StateWord into a rank (identity -> base mass).
  double rank_of(StateWord s) const noexcept {
    return s == 0 ? base_mass() : std::bit_cast<double>(s);
  }

  void on_add(VertexContext& ctx, VertexId nbr, Weight /*w*/) override {
    catch_up(ctx, nbr);
    request_publish(ctx);
  }

  void on_reverse_add(VertexContext& ctx, VertexId nbr, StateWord /*nbr_val*/,
                      Weight /*w*/) override {
    // Same situation as on_add: a new neighbour with an empty memo slot.
    // The carried value is the sender's rank, not its ratio — its own
    // on_add sends us the ratio, so it is ignored here.
    catch_up(ctx, nbr);
    request_publish(ctx);
  }

  void on_publish(VertexContext& ctx) override {
    // Our publish token surfaced: every delta enqueued before it has been
    // folded. Broadcast the accumulated ratio (if it moved enough).
    store_published(ctx, published(ctx).rho, /*pending=*/false);
    maybe_publish(ctx);
  }

  void on_update(VertexContext& ctx, VertexId from, StateWord from_val,
                 Weight /*w*/) override {
    // Scale by the *receiver-side* stored weight: retraction (on_delete)
    // and rescaling (on_weight_change) use the local store too, so the
    // per-edge invariant stays exact under any interleaving.
    if (!ctx.adj() || !ctx.adj()->contains(from)) return;
    const double rho = std::bit_cast<double>(from_val);
    const double heard = memo_value(ctx.nbr_memo(from));
    const double w = static_cast<double>(ctx.edge_weight(from));
    set_rank(ctx, rank(ctx) + opts_.damping * w * (rho - heard));
    ctx.set_nbr_memo(from, from_val);
    request_publish(ctx);
  }

  void on_weight_change(VertexContext& ctx, VertexId nbr, Weight old_w,
                        Weight new_w) override {
    // The neighbour's memoized contribution was scaled by the old weight;
    // rescale it in place, then re-examine our own out-ratio (W changed).
    const double heard = memo_value(ctx.nbr_memo(nbr));
    if (heard != 0.0) {
      const double dw = static_cast<double>(new_w) - static_cast<double>(old_w);
      set_rank(ctx, rank(ctx) + opts_.damping * dw * heard);
    }
    request_publish(ctx);
  }

  void on_delete(VertexContext& ctx, VertexId nbr, Weight w) override {
    retract(ctx, nbr, w);
  }

  void on_reverse_delete(VertexContext& ctx, VertexId nbr, Weight w) override {
    retract(ctx, nbr, w);
  }

  /// Repair is a no-op: deletions are absorbed eagerly above, so the
  /// engine's invalidate-then-reconverge waves have nothing to anchor.
  void on_repair_anchor(VertexContext& /*ctx*/) override {}

  /// Never offer the raw rank as if it were a propagation value — probes
  /// are a monotone-repair mechanism and rank bits would be misread as a
  /// cumulative ratio.
  void on_probe(VertexContext& /*ctx*/, VertexId /*from*/) override {}

 private:
  static constexpr StateWord kPendingBit = StateWord{1} << 63;

  struct Published {
    double rho;    // last broadcast out-ratio
    bool pending;  // a publish token is in flight
  };

  static Published published(const VertexContext& ctx) noexcept {
    const StateWord a = ctx.aux();
    if (a == kInfiniteState) return {0.0, false};
    return {std::bit_cast<double>(a & ~kPendingBit), (a & kPendingBit) != 0};
  }

  static void store_published(VertexContext& ctx, double rho, bool pending) {
    const StateWord bits = std::bit_cast<StateWord>(rho);
    ctx.set_aux(pending ? (bits | kPendingBit) : bits);
  }

  static double memo_value(StateWord m) noexcept {
    return m == kInfiniteState ? 0.0 : std::bit_cast<double>(m);
  }

  double rank(const VertexContext& ctx) const noexcept {
    return rank_of(ctx.value());
  }

  static void set_rank(VertexContext& ctx, double r) {
    ctx.set_value(std::bit_cast<StateWord>(r));
  }

  static double weighted_degree(const VertexContext& ctx) {
    double sum = 0.0;
    if (ctx.adj())
      ctx.adj()->for_each([&](VertexId, const EdgeProp& p) {
        sum += static_cast<double>(p.weight);
      });
    return sum;
  }

  /// A neighbour whose memo slot is empty has seen none of our mass: hand
  /// it the full cumulative ratio (it folds d * w * rho against memo 0).
  void catch_up(VertexContext& ctx, VertexId nbr) {
    const double rho = published(ctx).rho;
    if (rho != 0.0)
      ctx.update_single_nbr(nbr, std::bit_cast<StateWord>(rho));
  }

  void retract(VertexContext& ctx, VertexId /*nbr*/, Weight w) {
    const double heard = memo_value(ctx.deleted_nbr_memo());
    if (heard != 0.0)
      set_rank(ctx,
               rank(ctx) - opts_.damping * static_cast<double>(w) * heard);
    request_publish(ctx);
  }

  /// Schedule one deferred broadcast: the first state-changing event sends
  /// the token, every further delta folds silently behind it.
  void request_publish(VertexContext& ctx) {
    const Published p = published(ctx);
    if (p.pending) return;
    store_published(ctx, p.rho, /*pending=*/true);
    ctx.send_publish();
  }

  void maybe_publish(VertexContext& ctx) {
    const double W = weighted_degree(ctx);
    if (W == 0.0) {
      // Dangling: every former neighbour has already retracted our
      // contribution locally. Reset the published ratio so a future add
      // does not catch a new neighbour up to a stale one.
      if (published(ctx).rho != 0.0) store_published(ctx, 0.0, false);
      return;
    }
    const double r = rank(ctx);
    const double rho_pub = published(ctx).rho;
    if (opts_.damping * std::abs(r - rho_pub * W) <= opts_.tolerance) return;
    const double rho = r / W;
    store_published(ctx, rho, /*pending=*/false);
    ctx.update_all_nbrs(std::bit_cast<StateWord>(rho));
  }

  Options opts_{};
};

}  // namespace remo
