// Cross-module convergence sweep: every REMO algorithm, on every graph
// family (ER, RMAT, preferential attachment), at several rank counts, with
// shuffled concurrent streams — must converge to its static oracle
// (DESIGN.md invariant 1). This is the repository's strongest end-to-end
// property test.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "../support.hpp"

namespace remo::test {
namespace {

EdgeList family_edges(const std::string& family, std::uint64_t seed) {
  if (family == "er")
    return generate_erdos_renyi({.num_vertices = 512, .num_edges = 2048, .seed = seed});
  if (family == "rmat") {
    RmatParams p;
    p.scale = 9;
    p.edge_factor = 8;
    p.seed = seed;
    return generate_rmat(p);
  }
  PrefAttachParams p;
  p.num_vertices = 512;
  p.edges_per_vertex = 4;
  p.seed = seed;
  return generate_pref_attach(p);
}

class ConvergenceSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int, std::uint64_t>> {};

TEST_P(ConvergenceSweep, AllAlgorithmsMatchOracles) {
  const auto [family, ranks, seed] = GetParam();
  const EdgeList edges = family_edges(family, seed);
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  Engine engine(EngineConfig{.num_ranks = static_cast<RankId>(ranks)});
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(source);
  auto [sssp_id, sssp] = engine.attach_make<DynamicSssp>(source);
  auto [cc_id, cc] = engine.attach_make<DynamicCc>();
  auto [st_id, st] =
      engine.attach_make<MultiStConnectivity>(std::vector<VertexId>{source});
  auto [deg_id, deg] = engine.attach_make<DegreeTracker>();

  engine.inject_init(bfs_id, source);
  engine.inject_init(sssp_id, source);
  inject_st_sources(engine, st_id, *st);

  engine.ingest(make_streams(edges, static_cast<std::size_t>(ranks),
                             StreamOptions{.seed = seed}));

  const CsrGraph::Dense s = g.dense_of(source);
  expect_matches_oracle(engine, bfs_id, g, static_bfs(g, s));
  expect_matches_oracle(engine, sssp_id, g, static_bfs(g, s));  // unit weights
  expect_matches_oracle(engine, cc_id, g, static_cc_union_find(g));
  expect_matches_oracle(engine, st_id, g, static_multi_st(g, {s}));
  for (CsrGraph::Dense v = 0; v < g.num_vertices(); ++v) {
    const VertexId ext = g.external_of(v);
    EXPECT_EQ(engine.state_of(deg_id, ext),
              engine.store(engine.partitioner().owner(ext)).degree(ext));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesRanksSeeds, ConvergenceSweep,
    ::testing::Combine(::testing::Values(std::string("er"), std::string("rmat"),
                                         std::string("ba")),
                       ::testing::Values(1, 2, 4), ::testing::Values(101u, 202u)));

// Monotonicity invariant (DESIGN.md invariant 2): observe every state
// transition through a global trigger chain and assert per-vertex
// monotone evolution for BFS.
TEST(Monotonicity, BfsLevelsNeverIncreaseDuringIngestion) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 256, .num_edges = 2048, .seed = 3});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source);

  // Track the last observed level per vertex. The callback runs on the
  // owning rank thread; a mutex-protected map suffices for the test.
  std::mutex mu;
  RobinHoodMap<VertexId, StateWord> last;
  std::atomic<bool> violated{false};
  // A "when_any" with an always-true predicate on finite levels observes
  // the first transition only; instead use per-level global triggers: every
  // improvement passes through set_value, and levels are bounded by the
  // graph diameter, so register thresholds 1..32.
  for (StateWord lvl = 1; lvl <= 32; ++lvl) {
    engine.when_any(id, [lvl](StateWord s) { return s <= lvl; },
                    [&, lvl](VertexId v, StateWord s) {
                      std::lock_guard guard(mu);
                      StateWord& prev = last.get_or_insert(v);
                      if (prev == 0 || s <= prev)
                        prev = s;
                      else
                        violated.store(true);
                      (void)lvl;
                    });
  }

  engine.inject_init(id, source);
  engine.ingest(make_streams(edges, 2));
  EXPECT_FALSE(violated.load());
}

// Determinism (Section II-D): with the tie-break clause, repeated runs
// over differently-shuffled streams produce the identical global state.
TEST(Determinism, ShuffleInvariantFinalState) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 200, .num_edges = 800, .seed = 70});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  Snapshot reference;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Engine engine(EngineConfig{.num_ranks = 3});
    auto [id, bfs] = engine.attach_make<DynamicBfs>(
        source, DynamicBfs::Options{.deterministic_parents = true});
    engine.inject_init(id, source);
    engine.ingest(make_streams(edges, 3, StreamOptions{.seed = seed}));
    const Snapshot snap = engine.collect_quiescent(id);
    if (seed == 1u) {
      reference = snap;
    } else {
      EXPECT_EQ(snap, reference);
    }
  }
}

}  // namespace
}  // namespace remo::test
