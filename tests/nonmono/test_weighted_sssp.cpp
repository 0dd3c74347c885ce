// WeightedSssp vs Dijkstra: true weight decreases (absorbed monotonically)
// and increases (repaired via the memo-path anchor), mixed with deletes.
#include <gtest/gtest.h>

#include <tuple>

#include "../support.hpp"

namespace remo::test {
namespace {

TEST(WeightedSssp, WeightIncreaseRepairsTheStaleSubtree) {
  // 0 -1- 1 -1- 2, alternative 0 -5- 3 -5- 2. dist(2) = 3 via the top path.
  const std::vector<EdgeEvent> base = {{0, 1, 1, EdgeOp::kAdd},
                                       {1, 2, 1, EdgeOp::kAdd},
                                       {0, 3, 5, EdgeOp::kAdd},
                                       {3, 2, 5, EdgeOp::kAdd}};
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, sssp] = engine.attach_make<WeightedSssp>(0);
  engine.inject_init(id, 0);
  engine.ingest(split_events(base, 2));
  ASSERT_EQ(engine.state_of(id, 2), 3u);

  // Grow the cheap edge 1-2 to 10: dist(2) must fall back to the 0-3-2
  // detour (1 + 5 + 5 = 11), and dist(1) must stay untouched.
  engine.ingest(split_events({{1, 2, 10, EdgeOp::kAdd}}, 1));
  engine.repair(id);
  EXPECT_EQ(engine.state_of(id, 2), 11u);
  EXPECT_EQ(engine.state_of(id, 1), 2u);
}

TEST(WeightedSssp, WeightDecreaseRelaxesWithoutRepair) {
  const std::vector<EdgeEvent> base = {{0, 1, 1, EdgeOp::kAdd},
                                       {1, 2, 1, EdgeOp::kAdd},
                                       {0, 3, 5, EdgeOp::kAdd},
                                       {3, 2, 5, EdgeOp::kAdd}};
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, sssp] = engine.attach_make<WeightedSssp>(0);
  engine.inject_init(id, 0);
  engine.ingest(split_events(base, 2));

  // 0-3 drops to 1: the decrease is a fresh relaxation source, no repair.
  engine.ingest(split_events({{0, 3, 1, EdgeOp::kAdd}}, 1));
  EXPECT_EQ(engine.state_of(id, 3), 2u);
  EXPECT_EQ(engine.state_of(id, 2), 3u);  // still via 0-1-2
}

class WssspMutationSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(WssspMutationSweep, MatchesDijkstraAfterMutations) {
  const auto [ranks, seed] = GetParam();
  const EdgeList base = dedupe_undirected(generate_erdos_renyi(
      {.num_vertices = 150, .num_edges = 550, .seed = seed}));
  std::vector<EdgeEvent> events;
  for (const Edge& e : base) events.push_back({e.src, e.dst, 4, EdgeOp::kAdd});
  const std::vector<EdgeEvent> mutations = make_weight_mutations(
      fold_events(events), {.num_events = 300, .max_weight = 8, .seed = seed});

  std::vector<EdgeEvent> all = events;
  all.insert(all.end(), mutations.begin(), mutations.end());
  const CsrGraph g = undirected_csr(fold_events(all));
  const VertexId source = vertex_in_largest_cc(g);

  Engine engine(EngineConfig{.num_ranks = static_cast<RankId>(ranks)});
  auto [id, sssp] = engine.attach_make<WeightedSssp>(source);
  engine.inject_init(id, source);
  engine.ingest(split_events(events, static_cast<std::size_t>(ranks),
                             /*shuffle=*/true, seed));
  engine.ingest(split_events_keyed(mutations, static_cast<std::size_t>(ranks),
                                   seed ^ 0xabcd));
  engine.repair(id);  // weight increases queue dirty anchors

  const auto oracle = static_sssp_dijkstra(g, g.dense_of(source));
  expect_matches_oracle(engine, id, g, oracle);
}

INSTANTIATE_TEST_SUITE_P(RanksSeeds, WssspMutationSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(41u, 42u, 43u)));

TEST(WeightedSssp, MixedDeletesAndMutationsConverge) {
  const std::uint64_t seed = 77;
  const EdgeList base = dedupe_undirected(generate_erdos_renyi(
      {.num_vertices = 100, .num_edges = 380, .seed = seed}));
  std::vector<EdgeEvent> events;
  for (const Edge& e : base) events.push_back({e.src, e.dst, 3, EdgeOp::kAdd});
  // Interleave: delete every 4th pair, mutate every 3rd surviving one.
  std::vector<EdgeEvent> tail;
  std::size_t i = 0;
  for (const EdgeEvent& e : events) {
    ++i;
    if (i % 4 == 0) {
      EdgeEvent d = e;
      d.op = EdgeOp::kDelete;
      tail.push_back(d);
    } else if (i % 3 == 0) {
      EdgeEvent m = e;
      m.weight = (i % 2 == 0) ? 1 : 7;  // decreases and increases
      tail.push_back(m);
    }
  }
  std::vector<EdgeEvent> all = events;
  all.insert(all.end(), tail.begin(), tail.end());
  const CsrGraph g = undirected_csr(fold_events(all));
  const VertexId source = vertex_in_largest_cc(g);

  Engine engine(EngineConfig{.num_ranks = 4});
  auto [id, sssp] = engine.attach_make<WeightedSssp>(source);
  engine.inject_init(id, source);
  engine.ingest(split_events_keyed(permute_preserving_pairs(all, seed), 4, seed));
  engine.repair(id);

  const auto oracle = static_sssp_dijkstra(g, g.dense_of(source));
  expect_matches_oracle(engine, id, g, oracle);
}

}  // namespace
}  // namespace remo::test
