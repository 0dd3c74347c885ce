// Workload `reweight`: non-monotone batches on a loaded weighted graph
// (the Figure 9 operating point), 4 ranks, in two phases.
//   (a) PageRankDelta at tolerance 1e-2 is built by ingesting a deduped
//       RMAT-12 base, then absorbs 1000 batches of 16 mutations.
//   (b) WeightedSssp on a deduped RMAT-13 base absorbs at least 2000
//       batches of 64 mutations, each followed by repair(), until the time
//       budget is spent.
// Mutations are weight increases and decreases (make_weight_mutations) with
// about 1 in 8 turned into a delete or re-add of an existing pair; each
// batch keeps every pair's history in order (split_events_keyed). The work
// goes to memo paths, repair waves and the fixed ingest -> quiescence round
// trip of each batch; storage does lookups and in-place weight writes, and
// serving is idle.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>

#include "harness.hpp"

namespace pb {

using namespace remo;

namespace {

constexpr RankId kRanks = 4;
constexpr std::uint32_t kPrScale = 12;
constexpr std::uint32_t kSsspScale = 13;
constexpr double kPrTolerance = 1e-2;
constexpr double kDamping = 0.85;
// Largest relative error a served rank may have against the tight oracle.
// The program's own bound (on the summed error) is loose at this size: an
// engine that ignored every mutation batch still met it (summed error 173
// against a bound of 224) while serving ranks 90% off. Over seven seeds
// the largest error at tolerance 1e-2 was 2.5-6.3%, so 20% leaves a margin
// of about three.
constexpr double kPrMaxRelErr = 0.2;
constexpr std::size_t kPrBatches = 1000;
constexpr std::size_t kPrBatchEvents = 16;
constexpr std::size_t kSsspMinBatches = 4000;
constexpr std::size_t kSsspBatchEvents = 64;
constexpr std::size_t kReadEvery = 4;  // >= 1000 reads per run
constexpr VertexId kSource = 0;  // RMAT's densest corner: the hub
constexpr int kSetups = 3;

/// Endless mutation stream over a base edge list. Weight changes come from
/// make_weight_mutations over the current topology; about one event in 8
/// instead deletes a live pair or re-adds a deleted one. Every emitted
/// weight change is a real old != new transition.
class Mutations {
 public:
  Mutations(const EdgeList& base, std::uint64_t seed)
      : rng_(hash_combine(seed, 0xde1e7e)), seed_(seed) {
    pairs_.reserve(base.size());
    for (const Edge& e : base) {
      index_.insert_or_assign(key(e.src, e.dst),
                              static_cast<std::uint32_t>(pairs_.size()));
      pairs_.push_back({e, true});
    }
  }

  std::vector<EdgeEvent> next(std::size_t n) {
    std::vector<EdgeEvent> out;
    out.reserve(n);
    while (out.size() < n) {
      if (pos_ == pending_.size()) refill();
      const EdgeEvent& m = pending_[pos_++];
      Pair& p = pairs_[*index_.find(key(m.src, m.dst))];
      if (rng_.bounded(8) == 0) {
        p.live = !p.live;
        if (!p.live) {
          out.push_back({p.e.src, p.e.dst, p.e.weight, EdgeOp::kDelete});
          continue;
        }
        p.e.weight = m.weight;
      } else if (p.live) {
        p.e.weight = m.weight != p.e.weight ? m.weight : m.weight % 8 + 1;
      } else {
        p.live = true;  // a weight change on a deleted pair re-adds it
        p.e.weight = m.weight;
      }
      out.push_back({p.e.src, p.e.dst, p.e.weight, EdgeOp::kAdd});
    }
    return out;
  }

  /// The topology after every emitted event.
  EdgeList live() const {
    EdgeList out;
    for (const Pair& p : pairs_)
      if (p.live) out.push_back(p.e);
    return out;
  }

 private:
  struct Pair {
    Edge e;
    bool live;
  };
  static std::uint64_t key(VertexId a, VertexId b) {
    return event_pair_key(EdgeEvent{a, b, 1, EdgeOp::kAdd});
  }
  void refill() {
    EdgeList current;
    current.reserve(pairs_.size());
    for (const Pair& p : pairs_) current.push_back(p.e);
    pending_ = make_weight_mutations(
        current, {.num_events = 4096, .min_weight = 1, .max_weight = 8,
                  .seed = hash_combine(seed_, ++chunk_)});
    pos_ = 0;
  }

  std::vector<Pair> pairs_;
  RobinHoodMap<std::uint64_t, std::uint32_t> index_;
  Xoshiro256 rng_;
  std::uint64_t seed_;
  std::uint64_t chunk_ = 0;
  std::vector<EdgeEvent> pending_;
  std::size_t pos_ = 0;
};

struct Loaded {
  std::unique_ptr<Engine> engine;
  ProgramId id = 0;
  double load_seconds = 0;
};

/// A fresh engine with one program attached (by `attach`), loaded with
/// `base` as shuffled add streams; the load is timed.
template <typename Attach>
Loaded load(const EdgeList& base, RankId ranks, std::uint64_t seed,
            Attach&& attach, Tracer& tr) {
  Loaded l;
  {
    Scope s(tr, PB_SPAN_ID("core.engine_ctor"));
    EngineConfig cfg;
    cfg.num_ranks = ranks;
    l.engine = std::make_unique<Engine>(cfg);
    l.id = attach(*l.engine);
  }
  std::vector<EdgeEvent> adds;
  adds.reserve(base.size());
  for (const Edge& e : base) adds.push_back({e.src, e.dst, e.weight, EdgeOp::kAdd});
  const StreamSet streams = split_events(std::move(adds), ranks, true, seed);
  const std::uint64_t t0 = now_ns();
  {
    Scope s(tr, PB_SPAN_ID("core.ingest_base"));
    l.engine->ingest(streams);
  }
  l.load_seconds = secs_since(t0);
  return l;
}

Loaded load_pagerank(const EdgeList& base, RankId ranks, std::uint64_t seed,
                     Tracer& tr) {
  return load(base, ranks, seed, [](Engine& e) {
    return e.attach(std::make_shared<PageRankDelta>(
        PageRankDelta::Options{.damping = kDamping, .tolerance = kPrTolerance}));
  }, tr);
}

Loaded load_sssp(const EdgeList& base, RankId ranks, std::uint64_t seed,
                 Tracer& tr) {
  return load(base, ranks, seed, [](Engine& e) {
    const ProgramId id = e.attach_make<WeightedSssp>(kSource).first;
    e.inject_init(id, kSource);
    return id;
  }, tr);
}

/// Every vertex of the base graph (vertices whose pairs were all deleted
/// must have returned to the program's identity).
std::vector<VertexId> base_vertices(const EdgeList& base) {
  RobinHoodMap<VertexId, std::uint8_t> known;
  std::vector<VertexId> out;
  for (const Edge& e : base)
    for (const VertexId v : {e.src, e.dst})
      if (known.find_or_emplace(v, [] { return std::uint8_t{1}; }).second)
        out.push_back(v);
  return out;
}

struct Phase {
  std::vector<double> batch_ms, ingest_ms, repair_ms;
  std::uint64_t mutations = 0;
  std::uint64_t visitors = 0;
};

/// One batch: ingest (and repair for SSSP), timed and traced under one id.
void run_batch(Engine& engine, ProgramId id, std::vector<EdgeEvent> batch,
               std::uint64_t split_seed, bool repair, std::uint64_t batch_id,
               std::uint32_t root_span, Phase& ph, Tracer& tr) {
  const std::size_t n = batch.size();
  const StreamSet streams = split_events_keyed(std::move(batch), kRanks, split_seed);
  const std::uint32_t root = tr.open(root_span, batch_id);
  const std::uint64_t t0 = now_ns();
  {
    Scope s(tr, PB_SPAN_ID("core.ingest"), batch_id, root);
    engine.ingest(streams);
  }
  const std::uint64_t t1 = now_ns();
  if (repair) {
    Scope s(tr, PB_SPAN_ID("core.repair"), batch_id, root);
    engine.repair(id);
  }
  const std::uint64_t t2 = now_ns();
  tr.close(root, t2);
  ph.batch_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
  ph.ingest_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  if (repair) ph.repair_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  ph.mutations += n;
}

}  // namespace

Result run_reweight(const Options& opts, Tracer& tr) {
  Result r;

  // --- set-up, repeated: generation, engines, base loads -----------------
  EdgeList pr_base, sssp_base;
  Loaded pr, sssp;
  std::vector<double> setup_s, gen_s, pr_load_eps;
  for (int i = 0; i < kSetups; ++i) {
    pr = {};
    sssp = {};
    const std::uint64_t t0 = now_ns();
    {
      Scope s(tr, PB_SPAN_ID("gen.rmat"));
      pr_base = rmat_dedup_weighted(kPrScale, opts.seed);
      sssp_base = rmat_dedup_weighted(kSsspScale, hash_combine(opts.seed, 13));
    }
    gen_s.push_back(secs_since(t0));
    pr = load_pagerank(pr_base, kRanks, opts.seed, tr);
    sssp = load_sssp(sssp_base, kRanks, opts.seed, tr);
    setup_s.push_back(secs_since(t0));
    pr_load_eps.push_back(static_cast<double>(pr_base.size()) / pr.load_seconds);
  }
  r.e2e["setup_s"] = median(setup_s);
  r.e2e["ingest_eps"] = median(pr_load_eps);
  r.layers["gen.rmat_s"] = median(gen_s);
  const std::uint64_t pr_load_visitors = pr.engine->metrics().algorithm_events;
  std::printf("reweight: pagerank rmat-%u (%zu edges), wsssp rmat-%u (%zu "
              "edges), %u ranks, set-up %.3f s\n",
              kPrScale, pr_base.size(), kSsspScale, sssp_base.size(), kRanks,
              r.e2e["setup_s"]);

  const std::uint64_t start = now_ns();

  // --- phase (a): PageRankDelta batches ------------------------------------
  Phase pr_phase;
  Mutations pr_muts(pr_base, opts.seed);
  {
    const std::uint64_t v0 = pr.engine->metrics().algorithm_events;
    for (std::size_t b = 0; b < kPrBatches; ++b)
      run_batch(*pr.engine, pr.id, pr_muts.next(kPrBatchEvents),
                hash_combine(opts.seed, b), false, b,
                PB_SPAN_ID("loadgen.pr_batch"), pr_phase, tr);
    pr_phase.visitors = pr.engine->metrics().algorithm_events - v0;
  }

  // --- phase (b): WeightedSssp batches with repair --------------------------
  // Every kReadEvery-th batch the client reads the repaired distances back
  // with a quiescent collection (the read_* metrics), outside batch time.
  Phase sssp_phase;
  std::vector<double> collect_us;
  Mutations sssp_muts(sssp_base, hash_combine(opts.seed, 0xb));
  {
    const std::uint64_t v0 = sssp.engine->metrics().algorithm_events;
    std::uint64_t collect_visitors = 0;
    for (std::size_t b = 0;
         b < kSsspMinBatches || secs_since(start) < opts.seconds; ++b) {
      run_batch(*sssp.engine, sssp.id, sssp_muts.next(kSsspBatchEvents),
                hash_combine(opts.seed, 0x10000 + b), true, b,
                PB_SPAN_ID("loadgen.sssp_batch"), sssp_phase, tr);
      if (b % kReadEvery != 0) continue;
      const std::uint64_t e0 = sssp.engine->metrics().algorithm_events;
      const std::uint64_t c0 = now_ns();
      {
        Scope s(tr, PB_SPAN_ID("core.collect_quiescent"), b);
        (void)sssp.engine->collect_quiescent(sssp.id);
      }
      collect_us.push_back(static_cast<double>(now_ns() - c0) / 1e3);
      collect_visitors += sssp.engine->metrics().algorithm_events - e0;
    }
    sssp_phase.visitors = sssp.engine->metrics().algorithm_events - v0 - collect_visitors;
  }
  std::printf("  %zu pagerank batches, %zu wsssp batches in %.2f s\n",
              pr_phase.batch_ms.size(), sssp_phase.batch_ms.size(), secs_since(start));

  // --- checks ----------------------------------------------------------------
  double max_rel_err = 0, l1_err = 0, l1_bound = 0;
  {
    // PageRank: served ranks against the tight (1e-12) oracle on the final
    // topology. The program's documented bound is on the total error over
    // all vertices, n * tolerance / (1 - damping), so that sum is one check;
    // the largest relative error of a single vertex is the other.
    Scope s(tr, PB_SPAN_ID("graph.oracle_pagerank"));
    const CsrGraph g = CsrGraph::build(with_reverse_edges(pr_muts.live()));
    const std::vector<double> oracle =
        static_pagerank(g, {.damping = kDamping, .eps = 1e-12});
    const std::vector<VertexId> all = base_vertices(pr_base);
    l1_bound = static_cast<double>(all.size()) * kPrTolerance / (1 - kDamping);
    const PageRankDelta decode(PageRankDelta::Options{.damping = kDamping});
    for (const VertexId x : all) {
      const StateWord got = pr.engine->state_of(pr.id, x);
      const CsrGraph::Dense d = g.dense_of(x);
      const double want = d == CsrGraph::kNoVertex ? decode.base_mass() : oracle[d];
      const double err = std::abs(decode.rank_of(got) - want);
      l1_err += err;
      max_rel_err = std::max(max_rel_err, err / want);
    }
    r.check(l1_err <= l1_bound,
            strfmt("pagerank: total |served - oracle| %g over %zu vertices "
                   "above the bound n * tol / (1 - d) = %g",
                   l1_err, all.size(), l1_bound));
    r.check(max_rel_err <= kPrMaxRelErr,
            strfmt("pagerank: largest relative error %g above %g",
                   max_rel_err, kPrMaxRelErr));
  }
  {
    // Weighted SSSP: exact against Dijkstra on the final topology.
    Scope s(tr, PB_SPAN_ID("graph.oracle_dijkstra"));
    const CsrGraph g = CsrGraph::build(with_reverse_edges(sssp_muts.live()));
    const CsrGraph::Dense src = g.dense_of(kSource);
    const std::vector<StateWord> oracle =
        src != CsrGraph::kNoVertex ? static_sssp_dijkstra(g, src)
                                   : std::vector<StateWord>(g.num_vertices(), kInfiniteState);
    const std::vector<VertexId> all = base_vertices(sssp_base);
    for (const VertexId x : all) {
      const StateWord got = sssp.engine->state_of(sssp.id, x);
      const CsrGraph::Dense d = g.dense_of(x);
      const StateWord want = d != CsrGraph::kNoVertex ? oracle[d]
                             : x == kSource           ? StateWord{1}
                                                      : kInfiniteState;
      r.check(got == want, strfmt("wsssp vertex %llu: got %llu, oracle %llu",
                                  static_cast<unsigned long long>(x),
                                  static_cast<unsigned long long>(got),
                                  static_cast<unsigned long long>(want)));
    }
  }

  const Dist sb = summarize(sssp_phase.batch_ms);
  const Dist prb = summarize(pr_phase.batch_ms);
  const Dist reads = summarize(collect_us);
  r.layers["loadgen.update_p50_ms"] = sb.p50;
  r.layers["loadgen.update_p99_ms"] = sb.p99;
  r.e2e["read_p50_us"] = reads.p50;
  r.layers["loadgen.read_p99_us"] = reads.p99;
  r.layers["core.pr_max_rel_err"] = max_rel_err;

  Json sizes = Json::object();
  sizes["pagerank_rmat_scale"] = kPrScale;
  sizes["pagerank_base_edges"] = static_cast<std::uint64_t>(pr_base.size());
  sizes["pagerank_batches"] = static_cast<std::uint64_t>(pr_phase.batch_ms.size());
  sizes["pagerank_batch_events"] = static_cast<std::uint64_t>(kPrBatchEvents);
  sizes["pagerank_tolerance"] = kPrTolerance;
  sizes["wsssp_rmat_scale"] = kSsspScale;
  sizes["wsssp_base_edges"] = static_cast<std::uint64_t>(sssp_base.size());
  sizes["wsssp_batches"] = static_cast<std::uint64_t>(sssp_phase.batch_ms.size());
  sizes["wsssp_batch_events"] = static_cast<std::uint64_t>(kSsspBatchEvents);
  r.detail["sizes"] = sizes;
  Json threads = Json::object();
  threads["ranks"] = kRanks;
  threads["client"] = 1;
  r.detail["threads"] = threads;
  Json named = Json::object();
  named["sssp_batch_p50_ms"] = sb.p50;
  named["sssp_batch_p99_ms"] = sb.p99;
  named["sssp_batch_samples"] = static_cast<std::uint64_t>(sb.n);
  named["pr_load_eps"] = r.e2e["ingest_eps"];
  named["pr_batch_p50_ms"] = prb.p50;
  named["pr_batch_p99_ms"] = prb.p99;
  named["pr_batch_samples"] = static_cast<std::uint64_t>(prb.n);
  named["pr_max_rel_err"] = max_rel_err;
  named["pr_l1_err"] = l1_err;
  named["pr_l1_bound"] = l1_bound;
  r.detail["named"] = named;

  if (!tr.on()) return r;

  // --- traced run: layer metrics ------------------------------------------
  {
    Mutations probe(sssp_base, hash_combine(opts.seed, 0x100c));
    common_layer_probes(*sssp.engine, sssp_muts.live(), probe.next(1 << 18), r, tr);
  }
  const Dist bi = summarize(sssp_phase.ingest_ms);
  const Dist rp = summarize(sssp_phase.repair_ms);
  r.layers["core.batch_ingest_ms_p50"] = bi.p50;
  r.layers["core.batch_ingest_ms_p99"] = bi.p99;
  r.layers["core.repair_ms_p50"] = rp.p50;
  r.layers["core.repair_ms_p99"] = rp.p99;
  r.layers["core.pr_batch_ms_p50"] = prb.p50;
  r.layers["core.pr_batch_ms_p99"] = prb.p99;
  r.layers["core.sssp_visitors_per_mutation"] =
      static_cast<double>(sssp_phase.visitors) / static_cast<double>(sssp_phase.mutations);
  r.layers["core.pr_visitors_per_mutation"] =
      static_cast<double>(pr_phase.visitors) / static_cast<double>(pr_phase.mutations);
  r.layers["core.pr_visitors_per_load_edge"] =
      static_cast<double>(pr_load_visitors) / static_cast<double>(pr_base.size());

  // Recompute-from-scratch baseline for one batch (the fig9 scratch arm).
  {
    std::vector<double> ms, pr_ms;
    for (int i = 0; i < 5; ++i) {
      Scope s(tr, PB_SPAN_ID("graph.scratch_batch"));
      const std::uint64_t t0 = now_ns();
      const CsrGraph g = CsrGraph::build(with_reverse_edges(sssp_muts.live()));
      (void)static_sssp_dijkstra(g, g.dense_of(kSource));
      ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    for (int i = 0; i < 5; ++i) {
      Scope s(tr, PB_SPAN_ID("graph.scratch_pr_batch"));
      const std::uint64_t t0 = now_ns();
      const CsrGraph g = CsrGraph::build(with_reverse_edges(pr_muts.live()));
      (void)static_pagerank(g, {.damping = kDamping, .eps = kPrTolerance});
      pr_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    r.layers["graph.scratch_batch_ms"] = median(ms);
    r.layers["graph.scratch_pr_batch_ms"] = median(pr_ms);
  }

  // Exact work counters: 1 rank, fixed inputs (pagerank rmat-9 + 100
  // batches, wsssp rmat-10 + 200 batches with repair), twice.
  {
    const EdgeList fpr = rmat_dedup_weighted(9, 1);
    const EdgeList fss = rmat_dedup_weighted(10, 1);
    WorkCounters c[2];
    for (auto& ci : c) {
      Phase ignored;
      Loaded a = load_pagerank(fpr, 1, 1, tr);
      Mutations ma(fpr, 1);
      for (std::size_t b = 0; b < 100; ++b)
        run_batch(*a.engine, a.id, ma.next(kPrBatchEvents), b, false, b,
                  PB_SPAN_ID("loadgen.pr_batch_1rank"), ignored, tr);
      Loaded s = load_sssp(fss, 1, 1, tr);
      Mutations ms(fss, 1);
      for (std::size_t b = 0; b < 200; ++b)
        run_batch(*s.engine, s.id, ms.next(kSsspBatchEvents), b, true, b,
                  PB_SPAN_ID("loadgen.sssp_batch_1rank"), ignored, tr);
      const WorkCounters x = counters_of(*a.engine), y = counters_of(*s.engine);
      ci = {x.topology_events + y.topology_events,
            x.algorithm_events + y.algorithm_events,
            x.basic_messages + y.basic_messages};
    }
    check_deterministic(r, "reweight", c[0], c[1]);
  }
  return r;
}

}  // namespace pb
