// QueryService: the epoch-consistent read contract (docs/SERVING.md).
// The flagship test runs concurrent readers against live mutation —
// including delete bursts plus repair — and asserts every answer matches
// SOME published versioned snapshot's state. Run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "../support.hpp"

namespace remo::test {
namespace {

TEST(QueryService, AnswersMatchSomePublishedViewAcrossDeleteBursts) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(
      0, DynamicBfs::Options{.support_deletes = true});
  engine.inject_init(id, 0);

  // Manual refresh only: every published view passes through this thread,
  // so `published` below is the complete publication history.
  serve::QueryService qs(engine, {.refresh_period_ms = 0});
  qs.serve(id, serve::ViewRole::kDistance);

  std::map<std::uint64_t, std::shared_ptr<const serve::StateView>> published;
  auto capture = [&] {
    const auto v = qs.view(id);
    published[v->version()] = v;
  };
  capture();  // the initial view from serve()

  constexpr VertexId kVerts = 24;
  struct Obs {
    std::uint64_t version;
    VertexId vertex;
    StateWord value;
  };
  std::atomic<bool> stop{false};
  std::vector<std::vector<Obs>> pinned_obs(3);
  std::vector<std::vector<Obs>> point_obs(3);  // version 0 = point API
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(1000 + static_cast<std::uint64_t>(t));
      std::uint64_t last_version = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const VertexId v = static_cast<VertexId>(rng.bounded(kVerts));
        if (rng.bounded(2) == 0) {
          const auto view = qs.view(id);
          // Versions a reader observes never go backwards.
          ASSERT_GE(view->version(), last_version);
          last_version = view->version();
          pinned_obs[static_cast<std::size_t>(t)].push_back(
              {view->version(), v, view->at(v)});
        } else {
          point_obs[static_cast<std::size_t>(t)].push_back(
              {0, v, qs.state(id, v)});
        }
      }
    });
  }

  // Mutation phases interleaved with publications: grow, burst deletes +
  // repair, re-grow — readers run throughout. Track live unordered pairs
  // so adds never duplicate and deletes always cut an existing edge.
  Xoshiro256 rng(7);
  std::vector<EdgeEvent> live;
  RobinHoodMap<std::uint64_t, std::uint8_t> is_live;
  auto pair_key = [](VertexId a, VertexId b) {
    const VertexId lo = a < b ? a : b;
    const VertexId hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  };
  for (int phase = 0; phase < 6; ++phase) {
    if (phase % 3 == 2 && !live.empty()) {
      // Delete burst, then repair.
      for (int k = 0; k < 4 && !live.empty(); ++k) {
        const std::size_t i = rng.bounded(live.size());
        EdgeEvent e = live[i];
        live[i] = live.back();
        live.pop_back();
        is_live.insert_or_assign(pair_key(e.src, e.dst), 0);
        e.op = EdgeOp::kDelete;
        engine.inject_edge(e);
      }
      engine.drain();
      engine.repair(id);
    } else {
      for (int k = 0; k < 8; ++k) {
        const EdgeEvent e{static_cast<VertexId>(rng.bounded(kVerts)),
                          static_cast<VertexId>(rng.bounded(kVerts)), 1,
                          EdgeOp::kAdd};
        if (e.src == e.dst) continue;
        std::uint8_t& flag = is_live.get_or_insert(pair_key(e.src, e.dst));
        if (flag) continue;
        flag = 1;
        live.push_back(e);
        engine.inject_edge(e);
      }
      engine.drain();
    }
    qs.refresh(id);
    capture();
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  // Every pinned observation matches the captured view of that version;
  // every point answer matches at least one published view.
  std::uint64_t checked = 0;
  for (const auto& per_thread : pinned_obs) {
    for (const Obs& o : per_thread) {
      const auto it = published.find(o.version);
      ASSERT_NE(it, published.end()) << "unpublished version " << o.version;
      EXPECT_EQ(o.value, it->second->at(o.vertex));
      ++checked;
    }
  }
  for (const auto& per_thread : point_obs) {
    for (const Obs& o : per_thread) {
      bool matched = false;
      for (const auto& [ver, view] : published)
        if (view->at(o.vertex) == o.value) {
          matched = true;
          break;
        }
      EXPECT_TRUE(matched) << "vertex " << o.vertex << " answer " << o.value
                           << " matches no published view";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(qs.stats().refreshes, published.size());
}

TEST(QueryService, LiveIngestWithAutoRefreshConvergesToOracle) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 400, .num_edges = 2000, .seed = 17});
  const CsrGraph g = undirected_csr(edges);

  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, cc] = engine.attach_make<DynamicCc>();

  serve::QueryService qs(engine, {.refresh_period_ms = 2});
  qs.serve(id, serve::ViewRole::kComponent);
  qs.start();

  std::atomic<bool> stop{false};
  std::atomic<bool> served{false};
  std::thread reader([&] {
    Xoshiro256 rng(3);
    std::uint64_t last_version = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const VertexId u = static_cast<VertexId>(rng.bounded(400));
      const VertexId v = static_cast<VertexId>(rng.bounded(400));
      (void)qs.component_of(id, u);
      (void)qs.connected(id, u, v);
      const auto view = qs.view(id);
      ASSERT_GE(view->version(), last_version);
      last_version = view->version();
      served.store(true, std::memory_order_release);
    }
  });

  // The reader must be live before ingest starts: a fast ingest could
  // otherwise finish before the reader thread is first scheduled.
  while (!served.load(std::memory_order_acquire)) std::this_thread::yield();
  engine.ingest(make_streams(edges, 2));  // blocks until converged
  stop.store(true, std::memory_order_release);
  reader.join();
  qs.stop();
  qs.refresh(id);

  const auto view = qs.view(id);
  expect_snapshot_matches_oracle(view->snapshot(), g, static_cc_union_find(g));

  const serve::ServeStats st = qs.stats();
  EXPECT_GT(st.queries_served, 0u);
  EXPECT_GE(st.refreshes, 2u);
  EXPECT_EQ(st.served_programs, 1u);
  // Quiescent + just refreshed: the newest view misses nothing.
  EXPECT_EQ(st.read_epoch_lag_events, 0u);
}

TEST(QueryService, PinnedViewsAreImmutableAndVersioned) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(0);
  engine.inject_init(id, 0);
  engine.inject_edge({0, 1, 1, EdgeOp::kAdd});
  engine.drain();

  serve::QueryService qs(engine, {.refresh_period_ms = 0});
  qs.serve(id, serve::ViewRole::kDistance);
  const auto v1 = qs.view(id);
  ASSERT_EQ(v1->at(1), 2u);
  EXPECT_EQ(v1->at(2), kInfiniteState);

  engine.inject_edge({1, 2, 1, EdgeOp::kAdd});
  engine.drain();
  qs.refresh(id);
  const auto v2 = qs.view(id);

  // The old handle is frozen at its cut; the new one supersedes it.
  EXPECT_EQ(v1->at(2), kInfiniteState);
  EXPECT_EQ(v2->at(2), 3u);
  EXPECT_GT(v2->version(), v1->version());
  EXPECT_NE(v2->epoch(), v1->epoch());
  EXPECT_GE(v2->watermark(), v1->watermark());
}

TEST(QueryService, VersionedCutsStampEpochs) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, cc] = engine.attach_make<DynamicCc>();
  engine.ingest(make_streams(small_graph(), 2));

  const Snapshot s1 = engine.collect_versioned(id);
  const Snapshot s2 = engine.collect_versioned(id);
  EXPECT_EQ(s2.epoch(), static_cast<std::uint16_t>(s1.epoch() + 1));
  // A quiescent collect observes the current epoch without advancing it.
  const Snapshot s3 = engine.collect_quiescent(id);
  EXPECT_EQ(s3.epoch(), s2.epoch());
}

TEST(QueryService, CatalogAnswersOnSmallGraph) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(0);
  auto [cc_id, cc] = engine.attach_make<DynamicCc>();
  auto [deg_id, deg] = engine.attach_make<DegreeTracker>();
  engine.inject_init(bfs_id, 0);
  engine.ingest(make_streams(small_graph(), 2));

  serve::QueryService qs(engine, {.refresh_period_ms = 0, .top_k = 4});
  qs.serve(bfs_id, serve::ViewRole::kDistance);
  qs.serve(cc_id, serve::ViewRole::kComponent);
  qs.serve(deg_id, serve::ViewRole::kDegree);

  // Distance / reachability (source 0; path 0-1-2-3, triangle 2-4-5).
  EXPECT_EQ(qs.distance(bfs_id, 0), 1u);
  EXPECT_EQ(qs.distance(bfs_id, 3), 4u);
  EXPECT_TRUE(qs.reachable(bfs_id, 5));
  EXPECT_FALSE(qs.reachable(bfs_id, 6));  // other component
  EXPECT_EQ(qs.distance(bfs_id, 7), kInfiniteState);

  // Components: {0..5} and {6,7}; untouched vertices are connected to
  // nothing, not even each other.
  EXPECT_TRUE(qs.connected(cc_id, 0, 5));
  EXPECT_TRUE(qs.connected(cc_id, 6, 7));
  EXPECT_FALSE(qs.connected(cc_id, 0, 6));
  EXPECT_FALSE(qs.connected(cc_id, 98, 99));
  EXPECT_EQ(qs.component_of(cc_id, 0), qs.component_of(cc_id, 3));

  // Degrees: 2 has degree 4; ties broken by vertex id ascending.
  EXPECT_EQ(qs.state(deg_id, 2), 4u);
  const auto top = qs.top_k_degree(deg_id, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], (std::pair<VertexId, StateWord>{2, 4}));
  EXPECT_EQ(top[1], (std::pair<VertexId, StateWord>{1, 2}));
  EXPECT_EQ(top[2], (std::pair<VertexId, StateWord>{4, 2}));

  EXPECT_EQ(qs.stats().served_programs, 3u);
}

TEST(QueryService, BackgroundRepairPublishesDeleteResults) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(
      0, DynamicBfs::Options{.support_deletes = true});
  engine.inject_init(id, 0);
  engine.inject_edge({0, 1, 1, EdgeOp::kAdd});
  engine.inject_edge({1, 2, 1, EdgeOp::kAdd});
  engine.drain();

  serve::QueryService qs(engine,
                         {.refresh_period_ms = 2, .repair_on_refresh = true});
  qs.serve(id, serve::ViewRole::kDistance);
  qs.start();
  ASSERT_EQ(qs.view(id)->at(2), 3u);

  // Cut 1-2 and let the background refresher run repair + publish.
  engine.inject_edge({1, 2, 1, EdgeOp::kDelete});
  engine.drain();
  bool unreachable = false;
  for (int spin = 0; spin < 4000 && !unreachable; ++spin) {
    unreachable = qs.view(id)->at(2) == kInfiniteState;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  qs.stop();
  EXPECT_TRUE(unreachable)
      << "background repair_on_refresh never published the regressed state";
}

}  // namespace
}  // namespace remo::test
