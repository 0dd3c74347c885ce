// Model-based stress test: a random interleaving of every public
// operation — chunked ingestion, single-event injection, deletes, repair,
// quiescent/versioned/aux collections, trigger registration — against a
// reference model (edge multiset + static oracles). After every quiescent
// point the engine must agree with the model exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "../support.hpp"

namespace remo::test {
namespace {

class Model {
 public:
  void add(VertexId u, VertexId v, Weight w) {
    edges_[key(u, v)] = Edge{u, v, w};
    ever_[key(u, v)] = Edge{u, v, w};
  }
  void remove(VertexId u, VertexId v) { edges_.erase(key(u, v)); }

  EdgeList edges() const { return values(edges_); }
  /// Union of every edge that ever existed (upper bound for programs
  /// without delete support, whose monotone state may go stale).
  EdgeList edges_ever() const { return values(ever_); }

 private:
  static std::uint64_t key(VertexId u, VertexId v) {
    const VertexId lo = std::min(u, v), hi = std::max(u, v);
    return hash_combine(splitmix64(lo), hi);
  }
  static EdgeList values(const std::map<std::uint64_t, Edge>& m) {
    EdgeList out;
    for (const auto& [k, e] : m) out.push_back(e);
    return out;
  }
  std::map<std::uint64_t, Edge> edges_;
  std::map<std::uint64_t, Edge> ever_;
};

class RandomOpsModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomOpsModel, EngineTracksModelThroughRandomOperations) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  constexpr VertexId kVertices = 120;
  const VertexId source = 0;

  Engine engine(EngineConfig{.num_ranks = 3});
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(
      source, DynamicBfs::Options{.support_deletes = true});
  auto [st_id, st] =
      engine.attach_make<MultiStConnectivity>(std::vector<VertexId>{source});
  engine.inject_init(bfs_id, source);
  inject_st_sources(engine, st_id, *st);

  Model model;
  std::atomic<std::uint64_t> trigger_fires{0};
  bool deletes_since_repair = false;

  auto verify = [&] {
    const EdgeList current = model.edges();
    if (current.empty()) return;
    const CsrGraph g = undirected_csr(current);
    const CsrGraph::Dense s = g.dense_of(source);
    if (s == CsrGraph::kNoVertex) return;  // source currently isolated

    // BFS is delete-capable: exact equality after repair.
    const auto bfs_oracle = static_bfs(g, s);
    for (CsrGraph::Dense v = 0; v < g.num_vertices(); ++v) {
      const VertexId ext = g.external_of(v);
      ASSERT_EQ(engine.state_of(bfs_id, ext), bfs_oracle[v])
          << "bfs vertex " << ext << " seed " << seed;
    }

    // S-T is add-only monotone: its mask must cover reachability over the
    // CURRENT edges (completeness) and stay within reachability over the
    // union of edges that EVER existed (soundness under staleness).
    const auto st_lower = static_multi_st(g, {s});
    const CsrGraph g_ever = undirected_csr(model.edges_ever());
    const auto st_upper = static_multi_st(g_ever, {g_ever.dense_of(source)});
    for (CsrGraph::Dense v = 0; v < g.num_vertices(); ++v) {
      const VertexId ext = g.external_of(v);
      const StateWord got = engine.state_of(st_id, ext);
      ASSERT_EQ(got & st_lower[v], st_lower[v])
          << "st missing current reachability at " << ext << " seed " << seed;
      const CsrGraph::Dense ve = g_ever.dense_of(ext);
      ASSERT_EQ(got | st_upper[ve], st_upper[ve])
          << "st exceeds all-time reachability at " << ext << " seed " << seed;
    }
  };

  for (int step = 0; step < 60; ++step) {
    switch (rng.bounded(10)) {
      case 0:
      case 1:
      case 2: {  // chunked stream ingestion of fresh random edges
        EdgeList chunk;
        const std::uint64_t n = 1 + rng.bounded(40);
        for (std::uint64_t i = 0; i < n; ++i) {
          VertexId u = rng.bounded(kVertices);
          VertexId v = rng.bounded(kVertices);
          if (u == v) v = (v + 1) % kVertices;
          model.add(u, v, 1);
          chunk.push_back({u, v, 1});
        }
        const StreamSet streams =
            make_streams(chunk, 1 + rng.bounded(3), StreamOptions{.seed = rng()});
        engine.ingest(streams);
        break;
      }
      case 3: {  // single-event injections
        for (int i = 0; i < 5; ++i) {
          VertexId u = rng.bounded(kVertices);
          VertexId v = rng.bounded(kVertices);
          if (u == v) v = (v + 1) % kVertices;
          model.add(u, v, 1);
          engine.inject_edge({u, v, 1, EdgeOp::kAdd});
        }
        engine.drain();
        break;
      }
      case 4: {  // delete a few random existing edges
        const EdgeList existing = model.edges();
        if (existing.empty()) break;
        for (int i = 0; i < 3; ++i) {
          const Edge& e = existing[rng.bounded(existing.size())];
          model.remove(e.src, e.dst);
          engine.inject_edge({e.src, e.dst, e.weight, EdgeOp::kDelete});
        }
        engine.drain();
        deletes_since_repair = true;
        break;
      }
      case 5: {  // repair after deletes, then full verify
        engine.repair(bfs_id);
        deletes_since_repair = false;
        verify();
        break;
      }
      case 6: {  // quiescent snapshot must match state_of
        const Snapshot snap = engine.collect_quiescent(st_id);
        for (const auto& [v, mask] : snap)
          ASSERT_EQ(engine.state_of(st_id, v), mask);
        break;
      }
      case 7: {  // versioned snapshot while idle degenerates to quiescent
        const Snapshot a = engine.collect_versioned(bfs_id);
        const Snapshot b = engine.collect_quiescent(bfs_id);
        ASSERT_EQ(a, b);
        break;
      }
      case 8: {  // register a trigger on a random vertex
        engine.when(st_id, rng.bounded(kVertices),
                    [](StateWord m) { return m != 0; },
                    [&](VertexId, StateWord) { trigger_fires.fetch_add(1); });
        break;
      }
      default: {  // aux collection sanity (levels' parents exist)
        const Snapshot parents = engine.collect_aux_quiescent(bfs_id);
        for (const auto& [v, parent] : parents)
          ASSERT_NE(parent, kInfiniteState);
        break;
      }
    }
    // BFS is only oracle-comparable when no un-repaired deletes exist.
    if (!deletes_since_repair && rng.bounded(4) == 0) {
      engine.repair(bfs_id);  // no-op repair keeps it comparable
      verify();
    }
  }

  engine.repair(bfs_id);
  verify();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOpsModel,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace remo::test
