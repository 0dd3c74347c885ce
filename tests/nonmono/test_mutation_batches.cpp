// Served accuracy of both non-monotone programs at their operating point:
// an rmat base graph absorbs small batches of in-place weight mutations on
// a multi-rank engine, and the state left behind is held to the static
// oracles on the final topology. `perfbench reweight` times the same
// operating point; this pins what it serves.
#include <gtest/gtest.h>

#include <cmath>

#include "../support.hpp"

namespace remo::test {
namespace {

constexpr RankId kRanks = 4;
constexpr std::size_t kBatches = 8;
constexpr std::size_t kBatchEvents = 64;

/// Load the base edges on a fresh 4-rank engine, then apply the mutations
/// in kBatches keyed batches, repairing after each one when asked.
void load_and_mutate(Engine& engine, ProgramId id, const std::vector<EdgeEvent>& adds,
                     const std::vector<EdgeEvent>& muts, bool repair) {
  engine.ingest(split_events(adds, kRanks, /*shuffle=*/true, 7));
  for (std::size_t b = 0; b < kBatches; ++b) {
    std::vector<EdgeEvent> batch(
        muts.begin() + static_cast<std::ptrdiff_t>(b * kBatchEvents),
        muts.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBatchEvents));
    engine.ingest(split_events_keyed(std::move(batch), kRanks, 11 + b));
    if (repair) engine.repair(id);
  }
}

TEST(MutationBatches, ServedStateMatchesOraclesAtTheOperatingPoint) {
  // Deduped rmat-9 with deterministic varied weights, so the mutation
  // stream and the oracles see one well-defined weight per pair.
  EdgeList base = dedupe_undirected(make_rmat(9, /*seed=*/1).edges);
  for (std::size_t i = 0; i < base.size(); ++i)
    base[i].weight = static_cast<Weight>(1 + i % 7);
  const std::vector<EdgeEvent> muts = make_weight_mutations(
      base, {.num_events = static_cast<std::uint32_t>(kBatches * kBatchEvents),
             .min_weight = 1,
             .max_weight = 8,
             .seed = 1});
  ASSERT_EQ(muts.size(), kBatches * kBatchEvents);
  std::vector<EdgeEvent> adds;
  for (const Edge& e : base) adds.push_back({e.src, e.dst, e.weight, EdgeOp::kAdd});
  std::vector<EdgeEvent> all = adds;
  all.insert(all.end(), muts.begin(), muts.end());
  const CsrGraph g = undirected_csr(fold_events(all));

  // PageRankDelta at the serving tolerance 1e-2. Absolute error gathers at
  // hubs (a degree-k hub can hold k unpublished ratios just under the
  // tolerance), so the contract is relative: every served rank within 5%
  // of a 1e-12 oracle.
  {
    Engine engine(EngineConfig{.num_ranks = kRanks});
    auto pr = std::make_shared<PageRankDelta>(PageRankDelta::Options{.tolerance = 1e-2});
    const ProgramId id = engine.attach(pr);
    load_and_mutate(engine, id, adds, muts, /*repair=*/false);
    const std::vector<double> oracle = static_pagerank(g, {.eps = 1e-12});
    double max_rel = 0.0;
    for (CsrGraph::Dense v = 0; v < g.num_vertices(); ++v) {
      const double got = pr->rank_of(engine.state_of(id, g.external_of(v)));
      max_rel = std::max(max_rel, std::abs(got - oracle[v]) / oracle[v]);
    }
    EXPECT_LE(max_rel, 0.05) << "served PageRank max relative error";
  }

  // WeightedSssp is exact after repair: no distance may differ from
  // Dijkstra.
  {
    const VertexId source = vertex_in_largest_cc(undirected_csr(base));
    Engine engine(EngineConfig{.num_ranks = kRanks});
    auto [id, sssp] = engine.attach_make<WeightedSssp>(source);
    engine.inject_init(id, source);
    load_and_mutate(engine, id, adds, muts, /*repair=*/true);
    expect_matches_oracle(engine, id, g, static_sssp_dijkstra(g, g.dense_of(source)));
  }
}

}  // namespace
}  // namespace remo::test
