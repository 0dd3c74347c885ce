// Engine lifecycle, construction-only ingestion, basic bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "../support.hpp"

namespace remo::test {
namespace {

TEST(EngineBasic, ConstructsAndShutsDownIdle) {
  EngineConfig cfg;
  cfg.num_ranks = 3;
  Engine engine(cfg);
  EXPECT_EQ(engine.num_ranks(), 3u);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.num_programs(), 0u);
}

TEST(EngineBasic, EveryRankGetsADistinctArena) {
  // Each rank's shard lives in its own arena, and the memory block reports
  // the weakest page backing those arenas achieved.
  Engine engine(EngineConfig{.num_ranks = 3});
  std::set<const Arena*> seen;
  PageBacking worst = PageBacking::kThp;
  for (RankId r = 0; r < 3; ++r) {
    const Arena* arena = engine.store(r).arena();
    ASSERT_NE(arena, nullptr) << r;
    seen.insert(arena);
    worst = std::max(worst, arena->backing());
  }
  EXPECT_EQ(seen.size(), 3u);
  const Json j = engine.memory_json();
  ASSERT_NE(j.find("page_backing"), nullptr);
  EXPECT_EQ(j.find("page_backing")->as_string(), page_backing_name(worst));
  ASSERT_NE(j.find("arena_reserved_bytes"), nullptr);
  EXPECT_GE(j.find("arena_reserved_bytes")->as_uint(), 3 * Arena::kChunkBytes);
  ASSERT_NE(j.find("arena_allocated_bytes"), nullptr);
}

TEST(EngineBasic, ConstructionOnlyIngestStoresEveryEdge) {
  EngineConfig cfg;
  cfg.num_ranks = 2;
  Engine engine(cfg);
  const EdgeList edges = small_graph();
  const StreamSet streams = make_streams(edges, 2);
  const IngestStats stats = engine.ingest(streams);

  EXPECT_EQ(stats.events, edges.size());
  EXPECT_TRUE(engine.idle());
  // Undirected: every edge stored at both endpoints.
  EXPECT_EQ(engine.total_stored_edges(), edges.size() * 2);
  EXPECT_EQ(engine.total_stored_vertices(), 8u);

  const MetricsSummary m = engine.metrics();
  EXPECT_EQ(m.topology_events, edges.size());
  EXPECT_EQ(m.edges_stored, edges.size() * 2);
}

TEST(EngineBasic, DuplicateEdgesCollapseInStore) {
  Engine engine(EngineConfig{.num_ranks = 2});
  EdgeList edges = small_graph();
  const std::size_t distinct = edges.size();
  edges.insert(edges.end(), edges.begin(), edges.end());  // every edge twice
  engine.ingest(make_streams(edges, 2));
  EXPECT_EQ(engine.total_stored_edges(), distinct * 2);
  EXPECT_EQ(engine.metrics().topology_events, distinct * 2);
}

TEST(EngineBasic, DirectedModeStoresOneArcPerEvent) {
  EngineConfig cfg;
  cfg.num_ranks = 2;
  cfg.undirected = false;
  Engine engine(cfg);
  const EdgeList edges = small_graph();
  engine.ingest(make_streams(edges, 2));
  EXPECT_EQ(engine.total_stored_edges(), edges.size());
}

TEST(EngineBasic, InjectEdgeWithoutStreams) {
  Engine engine(EngineConfig{.num_ranks = 2});
  engine.inject_edge(EdgeEvent{10, 20, 1, EdgeOp::kAdd});
  engine.inject_edge(EdgeEvent{20, 30, 1, EdgeOp::kAdd});
  engine.drain();
  EXPECT_EQ(engine.total_stored_edges(), 4u);
  EXPECT_EQ(engine.store(engine.partitioner().owner(20)).degree(20), 2u);
}

TEST(EngineBasic, DeleteEventRemovesEdgeBothSides) {
  Engine engine(EngineConfig{.num_ranks = 2});
  engine.inject_edge(EdgeEvent{1, 2, 1, EdgeOp::kAdd});
  engine.inject_edge(EdgeEvent{2, 3, 1, EdgeOp::kAdd});
  engine.drain();
  engine.inject_edge(EdgeEvent{1, 2, 1, EdgeOp::kDelete});
  engine.drain();
  EXPECT_EQ(engine.total_stored_edges(), 2u);
  EXPECT_FALSE(engine.store(engine.partitioner().owner(1)).has_edge(1, 2));
  EXPECT_FALSE(engine.store(engine.partitioner().owner(2)).has_edge(2, 1));
}

TEST(EngineBasic, ReingestAfterQuiescenceWorks) {
  Engine engine(EngineConfig{.num_ranks = 2});
  const EdgeList first = {{0, 1, 1}, {1, 2, 1}};
  const EdgeList second = {{2, 3, 1}, {3, 4, 1}};
  const StreamSet s1 = make_streams(first, 2);
  const StreamSet s2 = make_streams(second, 2);
  engine.ingest(s1);
  engine.ingest(s2);
  EXPECT_EQ(engine.total_stored_edges(), 8u);
}

TEST(EngineBasic, RanksPartitionVerticesDisjointly) {
  Engine engine(EngineConfig{.num_ranks = 4});
  const EdgeList edges = small_graph();
  engine.ingest(make_streams(edges, 4));
  // Every stored vertex must live at its partitioner-assigned owner only.
  for (RankId r = 0; r < engine.num_ranks(); ++r) {
    engine.store(r).for_each_vertex([&](VertexId v, const TwoTierAdjacency&) {
      EXPECT_EQ(engine.partitioner().owner(v), r);
    });
  }
}

}  // namespace
}  // namespace remo::test
