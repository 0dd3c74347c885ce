// The neighbour-cache redundancy filter must be a pure optimisation:
// identical converged state with the filter on and off, across algorithms,
// deletes + repair, and versioned collections.
#include <gtest/gtest.h>

#include "../support.hpp"

namespace remo::test {
namespace {

Snapshot run_bfs(const EdgeList& edges, VertexId source, bool filter) {
  EngineConfig cfg;
  cfg.num_ranks = 3;
  cfg.nbr_cache_filter = filter;
  Engine engine(cfg);
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
  engine.inject_init(id, source);
  engine.ingest(make_streams(edges, 3, StreamOptions{.seed = 5}));
  return engine.collect_quiescent(id);
}

TEST(CacheFilter, OnOffConvergeIdentically) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 300, .num_edges = 1500, .seed = 64});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  const Snapshot off = run_bfs(edges, source, false);
  const Snapshot on = run_bfs(edges, source, true);
  EXPECT_EQ(off, on);
}

TEST(CacheFilter, CutsMessagesForMinPrograms) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 400, .num_edges = 3000, .seed = 65});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  // One rank, one unshuffled stream: the event schedule is fully
  // deterministic, so message counts are exactly comparable (multi-rank
  // counts vary with thread interleaving).
  std::uint64_t msgs[2];
  for (int mode = 0; mode < 2; ++mode) {
    EngineConfig cfg;
    cfg.num_ranks = 1;
    cfg.nbr_cache_filter = mode == 1;
    Engine engine(cfg);
    auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
    engine.inject_init(id, source);
    engine.drain();  // init settles before the deterministic stream starts
    engine.ingest(make_streams(edges, 1, StreamOptions{.shuffle = false}));
    msgs[mode] = engine.metrics().messages_sent;
    expect_matches_oracle(engine, id, g, static_bfs(g, g.dense_of(source)));
  }
  EXPECT_LT(msgs[1], msgs[0]);
}

TEST(CacheFilter, SoundUnderDeletesAndRepair) {
  const EdgeList edges = dedupe_undirected(
      generate_erdos_renyi({.num_vertices = 150, .num_edges = 500, .seed = 66}));
  const CsrGraph g_full = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g_full);

  EngineConfig cfg;
  cfg.num_ranks = 2;
  cfg.nbr_cache_filter = true;
  Engine engine(cfg);
  auto [id, bfs] = engine.attach_make<DynamicBfs>(
      source, DynamicBfs::Options{.support_deletes = true});
  engine.inject_init(id, source);
  engine.ingest(make_streams(edges, 2));

  Xoshiro256 rng(5);
  EdgeList surviving;
  std::vector<EdgeEvent> deletes;
  for (const Edge& e : edges) {
    if (rng.bounded(100) < 30)
      deletes.push_back({e.src, e.dst, e.weight, EdgeOp::kDelete});
    else
      surviving.push_back(e);
  }
  engine.ingest(split_events(deletes, 2, true, 6));
  engine.repair(id);

  // After the repair waves, new adds must still propagate despite the
  // caches (they were reset along the invalidation paths).
  const CsrGraph g_after = undirected_csr(surviving);
  const CsrGraph::Dense s = g_after.dense_of(source);
  if (s != CsrGraph::kNoVertex) {
    const auto oracle = static_bfs(g_after, s);
    for (CsrGraph::Dense v = 0; v < g_after.num_vertices(); ++v)
      EXPECT_EQ(engine.state_of(id, g_after.external_of(v)), oracle[v]);
  }
}

TEST(CacheFilter, SoundDuringVersionedCollection) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 300, .num_edges = 2500, .seed = 67});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  EngineConfig cfg;
  cfg.num_ranks = 3;
  cfg.nbr_cache_filter = true;
  Engine engine(cfg);
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
  engine.inject_init(id, source);
  const StreamSet streams = make_streams(edges, 3);
  engine.ingest_async(streams);
  const Snapshot cut = engine.collect_versioned(id);  // mid-flight
  engine.await_quiescence();

  // The cut must still be a consistent BFS prefix state (see the snapshot
  // suite for the rule) and the final state exact.
  EXPECT_EQ(cut.at(source), 1u);
  expect_matches_oracle(engine, id, g, static_bfs(g, g.dense_of(source)));
}

}  // namespace
}  // namespace remo::test
