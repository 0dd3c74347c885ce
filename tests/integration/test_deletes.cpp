// Decremental events (Section VI-B realisation): delete-capable BFS/SSSP
// with Engine::repair() must reconverge to the oracle on the post-delete
// graph; deletes interleaved with adds; repair idempotence.
#include <gtest/gtest.h>

#include <tuple>

#include "../support.hpp"

namespace remo::test {
namespace {

constexpr DynamicBfs::Options kBfsDel{.deterministic_parents = false,
                                      .support_deletes = true};
constexpr DynamicSssp::Options kSsspDel{.deterministic_parents = false,
                                        .support_deletes = true};

TEST(Deletes, BfsChainCutLeavesTailUnreachable) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(0, kBfsDel);
  engine.inject_init(id, 0);
  for (VertexId v = 0; v < 10; ++v) engine.inject_edge({v, v + 1, 1, EdgeOp::kAdd});
  engine.drain();
  ASSERT_EQ(engine.state_of(id, 10), 11u);

  engine.inject_edge({5, 6, 1, EdgeOp::kDelete});
  engine.drain();
  engine.repair(id);

  for (VertexId v = 0; v <= 5; ++v) EXPECT_EQ(engine.state_of(id, v), v + 1);
  for (VertexId v = 6; v <= 10; ++v)
    EXPECT_EQ(engine.state_of(id, v), kInfiniteState) << "vertex " << v;
}

TEST(Deletes, BfsReroutesThroughSurvivingPath) {
  // Ring 0..7: cutting one edge reroutes the far side the long way.
  Engine engine(EngineConfig{.num_ranks = 3});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(0, kBfsDel);
  engine.inject_init(id, 0);
  for (VertexId v = 0; v < 8; ++v)
    engine.inject_edge({v, (v + 1) % 8, 1, EdgeOp::kAdd});
  engine.drain();
  ASSERT_EQ(engine.state_of(id, 4), 5u);
  ASSERT_EQ(engine.state_of(id, 7), 2u);

  engine.inject_edge({7, 0, 1, EdgeOp::kDelete});
  engine.drain();
  engine.repair(id);

  // Now distances follow the single remaining path 0-1-2-...-7.
  for (VertexId v = 0; v < 8; ++v)
    EXPECT_EQ(engine.state_of(id, v), v + 1) << "vertex " << v;
}

class DeleteOracleSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, int>> {};

TEST_P(DeleteOracleSweep, BfsMatchesOracleAfterRandomDeletes) {
  const auto [ranks, seed, delete_pct] = GetParam();
  const EdgeList edges = dedupe_undirected(
      generate_erdos_renyi({.num_vertices = 200, .num_edges = 700, .seed = seed}));
  const CsrGraph g_full = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g_full);

  Engine engine(EngineConfig{.num_ranks = static_cast<RankId>(ranks)});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source, kBfsDel);
  engine.inject_init(id, source);
  engine.ingest(make_streams(edges, static_cast<std::size_t>(ranks),
                             StreamOptions{.seed = seed}));

  // Delete a random subset of edges (as delete events through the engine).
  Xoshiro256 rng(seed * 31 + 7);
  EdgeList surviving;
  std::vector<EdgeEvent> deletes;
  for (const Edge& e : edges) {
    if (rng.bounded(100) < static_cast<std::uint64_t>(delete_pct))
      deletes.push_back({e.src, e.dst, e.weight, EdgeOp::kDelete});
    else
      surviving.push_back(e);
  }
  engine.ingest(split_events(deletes, static_cast<std::size_t>(ranks),
                             /*shuffle=*/true, seed));
  engine.repair(id);

  const CsrGraph g_after = undirected_csr(surviving);
  const CsrGraph::Dense s = g_after.dense_of(source);
  if (s == CsrGraph::kNoVertex) {
    // Heavy deletion isolated the source entirely: it keeps its own level
    // and every other vertex must be unreached.
    EXPECT_EQ(engine.state_of(id, source), 1u);
    for (CsrGraph::Dense v = 0; v < g_after.num_vertices(); ++v)
      EXPECT_EQ(engine.state_of(id, g_after.external_of(v)), kInfiniteState);
    return;
  }
  const auto oracle = static_bfs(g_after, s);
  for (CsrGraph::Dense v = 0; v < g_after.num_vertices(); ++v) {
    const VertexId ext = g_after.external_of(v);
    EXPECT_EQ(engine.state_of(id, ext), oracle[v]) << "vertex " << ext;
  }
}

INSTANTIATE_TEST_SUITE_P(RanksSeedsPct, DeleteOracleSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1u, 2u),
                                            ::testing::Values(10, 30, 60)));

TEST(Deletes, SsspMatchesDijkstraAfterDeletes) {
  const EdgeList base = dedupe_undirected(
      generate_erdos_renyi({.num_vertices = 150, .num_edges = 500, .seed = 9}));
  // Deterministic weights derived from endpoints.
  EdgeList edges = base;
  for (Edge& e : edges) e.weight = 1 + static_cast<Weight>(splitmix64(e.src ^ e.dst) % 9);

  std::vector<EdgeEvent> adds;
  for (const Edge& e : edges) adds.push_back({e.src, e.dst, e.weight, EdgeOp::kAdd});

  const CsrGraph g_full = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g_full);

  Engine engine(EngineConfig{.num_ranks = 3});
  auto [id, sssp] = engine.attach_make<DynamicSssp>(source, kSsspDel);
  engine.inject_init(id, source);
  engine.ingest(split_events(adds, 3, /*shuffle=*/true, 1));

  Xoshiro256 rng(99);
  EdgeList surviving;
  std::vector<EdgeEvent> deletes;
  for (const Edge& e : edges) {
    if (rng.bounded(100) < 25)
      deletes.push_back({e.src, e.dst, e.weight, EdgeOp::kDelete});
    else
      surviving.push_back(e);
  }
  engine.ingest(split_events(deletes, 3, /*shuffle=*/true, 2));
  engine.repair(id);

  const CsrGraph g_after = undirected_csr(surviving);
  const CsrGraph::Dense s = g_after.dense_of(source);
  ASSERT_NE(s, CsrGraph::kNoVertex);
  const auto oracle = static_sssp_dijkstra(g_after, s);
  for (CsrGraph::Dense v = 0; v < g_after.num_vertices(); ++v) {
    const VertexId ext = g_after.external_of(v);
    EXPECT_EQ(engine.state_of(id, ext), oracle[v]) << "vertex " << ext;
  }
}

TEST(Deletes, RepairIsIdempotent) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(0, kBfsDel);
  engine.inject_init(id, 0);
  for (VertexId v = 0; v < 6; ++v) engine.inject_edge({v, v + 1, 1, EdgeOp::kAdd});
  engine.drain();
  engine.inject_edge({2, 3, 1, EdgeOp::kDelete});
  engine.drain();
  engine.repair(id);
  const Snapshot first = engine.collect_quiescent(id);
  engine.repair(id);  // nothing dirty: must be a no-op
  const Snapshot second = engine.collect_quiescent(id);
  EXPECT_EQ(first, second);
}

TEST(Deletes, VertexRemovalDeletesAllIncidentEdges) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(0, kBfsDel);
  engine.inject_init(id, 0);
  // Star: 0 connected to 1..5; 3 additionally bridges to 10.
  for (VertexId v = 1; v <= 5; ++v) engine.inject_edge({0, v, 1, EdgeOp::kAdd});
  engine.inject_edge({3, 10, 1, EdgeOp::kAdd});
  engine.drain();
  ASSERT_EQ(engine.state_of(id, 10), 3u);

  engine.inject_vertex_removal(3);
  engine.drain();
  engine.repair(id);

  const auto owner3 = engine.partitioner().owner(3);
  EXPECT_EQ(engine.store(owner3).degree(3), 0u);
  EXPECT_FALSE(engine.store(engine.partitioner().owner(0)).has_edge(0, 3));
  EXPECT_EQ(engine.state_of(id, 3), kInfiniteState);
  EXPECT_EQ(engine.state_of(id, 10), kInfiniteState);
  EXPECT_EQ(engine.state_of(id, 4), 2u);  // untouched spokes survive
}

TEST(Deletes, AddAfterRepairReconnects) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(0, kBfsDel);
  engine.inject_init(id, 0);
  for (VertexId v = 0; v < 5; ++v) engine.inject_edge({v, v + 1, 1, EdgeOp::kAdd});
  engine.drain();
  engine.inject_edge({1, 2, 1, EdgeOp::kDelete});
  engine.drain();
  engine.repair(id);
  ASSERT_EQ(engine.state_of(id, 5), kInfiniteState);

  engine.inject_edge({0, 5, 1, EdgeOp::kAdd});  // reconnect from the far end
  engine.drain();
  EXPECT_EQ(engine.state_of(id, 5), 2u);
  EXPECT_EQ(engine.state_of(id, 2), 5u);  // 0-5-4-3-2
}

}  // namespace
}  // namespace remo::test
