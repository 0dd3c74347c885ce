// Termination detection: the counting detector vs Safra's token ring
// (Section III-F's "distributed quiescence detection algorithm [24]").
// Safra-mode runs must produce the identical final state, and termination
// must never be declared while work remains (the counting invariant is
// re-checked inside the engine whenever Safra concludes).
#include <gtest/gtest.h>

#include <tuple>

#include "../support.hpp"

namespace remo::test {
namespace {

class SafraSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(SafraSweep, SafraModeConvergesToOracle) {
  const auto [ranks, seed] = GetParam();
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 256, .num_edges = 1024, .seed = seed});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  EngineConfig cfg;
  cfg.num_ranks = static_cast<RankId>(ranks);
  cfg.termination = TerminationMode::kSafra;
  Engine engine(cfg);
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
  engine.inject_init(id, source);
  engine.ingest(make_streams(edges, static_cast<std::size_t>(ranks),
                             StreamOptions{.seed = seed}));

  expect_matches_oracle(engine, id, g, static_bfs(g, g.dense_of(source)));
}

INSTANTIATE_TEST_SUITE_P(RanksSeeds, SafraSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 7),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(Termination, SafraHandlesRepeatedPhases) {
  EngineConfig cfg;
  cfg.num_ranks = 3;
  cfg.termination = TerminationMode::kSafra;
  Engine engine(cfg);
  auto [id, cc] = engine.attach_make<DynamicCc>();

  for (int round = 0; round < 5; ++round) {
    EdgeList edges;
    for (VertexId v = 0; v < 30; ++v)
      edges.push_back({v + static_cast<VertexId>(round) * 100,
                       v + 1 + static_cast<VertexId>(round) * 100, 1});
    const StreamSet streams = make_streams(edges, 3);
    engine.ingest(streams);
  }
  EXPECT_EQ(engine.total_stored_vertices(), 5u * 31u);
}

TEST(Termination, SafraWithEmptyStreams) {
  EngineConfig cfg;
  cfg.num_ranks = 4;
  cfg.termination = TerminationMode::kSafra;
  Engine engine(cfg);
  const StreamSet empty(std::vector<EdgeStream>{});
  const IngestStats stats = engine.ingest(empty);
  EXPECT_EQ(stats.events, 0u);
}

TEST(Termination, SafraModeSupportsVersionedCollection) {
  // Internal snapshot waits always use the counting accounting; Safra only
  // gates user-facing quiescence. Both must coexist.
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 200, .num_edges = 2000, .seed = 71});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  EngineConfig cfg;
  cfg.num_ranks = 3;
  cfg.termination = TerminationMode::kSafra;
  Engine engine(cfg);
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
  engine.inject_init(id, source);
  const StreamSet streams = make_streams(edges, 3);
  engine.ingest_async(streams);
  const Snapshot cut = engine.collect_versioned(id);
  engine.await_quiescence();

  EXPECT_EQ(cut.at(source), 1u);
  expect_matches_oracle(engine, id, g, static_bfs(g, g.dense_of(source)));
}

TEST(Termination, CountingAndSafraAgreeOnFinalState) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 200, .num_edges = 800, .seed = 61});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  Snapshot snaps[2];
  for (int mode = 0; mode < 2; ++mode) {
    EngineConfig cfg;
    cfg.num_ranks = 3;
    cfg.termination = mode == 0 ? TerminationMode::kCounting : TerminationMode::kSafra;
    Engine engine(cfg);
    auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
    engine.inject_init(id, source);
    engine.ingest(make_streams(edges, 3));
    snaps[mode] = engine.collect_quiescent(id);
  }
  EXPECT_EQ(snaps[0], snaps[1]);
}

}  // namespace
}  // namespace remo::test
