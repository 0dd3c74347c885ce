// Weight-change routing: a re-add of a live pair with a different weight
// must reach programs as one on_weight_change per side — never a
// delete+add pair, never a duplicate stored edge — with the coalescing
// path and the stale-update drop guard staying out of the way.
#include <gtest/gtest.h>

#include <atomic>

#include "../support.hpp"

namespace remo::test {
namespace {

/// Counts every topology callback; shared across rank threads.
class RoutingProbe : public VertexProgram {
 public:
  std::string name() const override { return "routing-probe"; }
  StateWord identity() const override { return 0; }

  void on_add(VertexContext&, VertexId, Weight) override { ++adds_; }
  void on_reverse_add(VertexContext&, VertexId, StateWord, Weight) override {
    ++reverse_adds_;
  }
  void on_delete(VertexContext&, VertexId, Weight) override { ++deletes_; }
  void on_reverse_delete(VertexContext&, VertexId, Weight) override {
    ++deletes_;
  }
  void on_weight_change(VertexContext&, VertexId, Weight old_w,
                        Weight new_w) override {
    ++weight_changes_;
    last_old_.store(old_w, std::memory_order_relaxed);
    last_new_.store(new_w, std::memory_order_relaxed);
  }

  std::uint64_t adds() const { return adds_.load(); }
  std::uint64_t reverse_adds() const { return reverse_adds_.load(); }
  std::uint64_t deletes() const { return deletes_.load(); }
  std::uint64_t weight_changes() const { return weight_changes_.load(); }
  Weight last_old() const { return last_old_.load(std::memory_order_relaxed); }
  Weight last_new() const { return last_new_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> adds_{0}, reverse_adds_{0}, deletes_{0},
      weight_changes_{0};
  std::atomic<Weight> last_old_{0}, last_new_{0};
};

std::uint64_t stored_edges(const Engine& engine) {
  std::uint64_t total = 0;
  for (const MetricsSummary& m : engine.rank_metrics()) total += m.edges_stored;
  return total;
}

TEST(WeightRouting, LiveReAddBecomesOneWeightChangePerSide) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, probe] = engine.attach_make<RoutingProbe>();
  engine.ingest(split_events({{0, 1, 3, EdgeOp::kAdd}}, 1));
  ASSERT_EQ(stored_edges(engine), 2u);  // one directed edge per side
  ASSERT_EQ(probe->weight_changes(), 0u);

  engine.ingest(split_events({{0, 1, 9, EdgeOp::kAdd}}, 1));
  // Both owners saw exactly one old -> new transition; the store did not
  // grow and, critically, nothing was decomposed into delete+add.
  EXPECT_EQ(probe->weight_changes(), 2u);
  EXPECT_EQ(probe->last_old(), 3u);
  EXPECT_EQ(probe->last_new(), 9u);
  EXPECT_EQ(probe->deletes(), 0u);
  EXPECT_EQ(probe->adds() + probe->reverse_adds(), 2u);  // the initial add only
  EXPECT_EQ(stored_edges(engine), 2u);
}

TEST(WeightRouting, SameWeightReAddIsNotAWeightChange) {
  Engine engine(EngineConfig{.num_ranks = 1});
  auto [id, probe] = engine.attach_make<RoutingProbe>();
  engine.ingest(split_events({{0, 1, 3, EdgeOp::kAdd}}, 1));
  engine.ingest(split_events({{0, 1, 3, EdgeOp::kAdd}}, 1));
  EXPECT_EQ(probe->weight_changes(), 0u);
  EXPECT_EQ(stored_edges(engine), 2u);
}

TEST(WeightRouting, NoProgramAttachedStillSyncsBothStores) {
  // The bare-topology kWeightChange visitor must keep the far store's
  // weight in step even with zero programs attached.
  Engine engine(EngineConfig{.num_ranks = 2});
  engine.ingest(split_events({{0, 1, 3, EdgeOp::kAdd}}, 1));
  engine.ingest(split_events({{0, 1, 9, EdgeOp::kAdd}}, 1));
  EXPECT_EQ(stored_edges(engine), 2u);
  // A program attached afterwards relaxes across the post-change weight.
  auto [id, sssp] = engine.attach_make<WeightedSssp>(0);
  engine.inject_init(id, 0);
  engine.await_quiescence();
  EXPECT_EQ(engine.state_of(id, 1), 10u);  // 1 + 9, not 1 + 3
}

TEST(WeightRouting, CoalescedSchedulesRouteMutationsIdentically) {
  // Weight mutations under a coalescing, multi-rank, big-batch config: the
  // distances must land exactly where Dijkstra says regardless of merges.
  const std::vector<EdgeEvent> events = {
      {0, 1, 4, EdgeOp::kAdd}, {1, 2, 4, EdgeOp::kAdd}, {2, 3, 4, EdgeOp::kAdd},
      {0, 3, 9, EdgeOp::kAdd}, {1, 2, 1, EdgeOp::kAdd},  // decrease
      {0, 1, 8, EdgeOp::kAdd},                           // increase
  };
  for (const std::uint32_t ranks : {1u, 2u, 4u}) {
    Engine engine(EngineConfig{.num_ranks = static_cast<RankId>(ranks),
                               .batch_size = 512,
                               .coalesce = true});
    auto [id, sssp] = engine.attach_make<WeightedSssp>(0);
    engine.inject_init(id, 0);
    engine.ingest(split_events_keyed(events, ranks, /*seed=*/3));
    engine.repair(id);
    // Final weights: 0-1=8, 1-2=1, 2-3=4, 0-3=9.
    EXPECT_EQ(engine.state_of(id, 0), 1u) << "ranks=" << ranks;
    EXPECT_EQ(engine.state_of(id, 1), 9u) << "ranks=" << ranks;
    EXPECT_EQ(engine.state_of(id, 2), 10u) << "ranks=" << ranks;
    EXPECT_EQ(engine.state_of(id, 3), 10u) << "ranks=" << ranks;
  }
}

TEST(WeightRouting, MutationRacingDeleteNeverResurrectsTheEdge) {
  // Per-pair FIFO: mutate-then-delete on one stream must leave the edge
  // gone on both sides, with the mutation either applied before the
  // delete or dropped — never re-materialised after it.
  Engine engine(EngineConfig{.num_ranks = 4});
  auto [id, sssp] = engine.attach_make<WeightedSssp>(0);
  engine.inject_init(id, 0);
  const std::vector<EdgeEvent> events = {
      {0, 1, 2, EdgeOp::kAdd},    {1, 2, 2, EdgeOp::kAdd},
      {1, 2, 6, EdgeOp::kAdd},    // mutation...
      {1, 2, 2, EdgeOp::kDelete},  // ...then the pair dies
  };
  engine.ingest(split_events_keyed(events, 4, /*seed=*/5));
  engine.repair(id);
  EXPECT_EQ(stored_edges(engine), 2u);  // only 0-1 survives
  EXPECT_EQ(engine.state_of(id, 1), 3u);
  EXPECT_EQ(engine.state_of(id, 2), kInfiniteState);
}

}  // namespace
}  // namespace remo::test
