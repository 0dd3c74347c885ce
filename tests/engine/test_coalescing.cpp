// Monotonic visitor coalescing (DESIGN.md §6): the combine-hook algebra
// every opted-in program must satisfy, the accounting soundness of merging
// visitors away (in-flight exactly zero at quiescence, message partition
// intact), and end-to-end determinism — a coalesced run converges to the
// same states as a --no-coalesce run.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../support.hpp"

namespace remo::test {
namespace {

// A value spread that covers the interesting corners of every program's
// state lattice: zero, small levels/distances, bit patterns (MultiSt),
// large labels (CC picks max), and the BFS/SSSP identity.
std::vector<StateWord> sample_states(const VertexProgram& p) {
  return {0,    1,          2,          3,          7,          8,
          42,   0x5555,     0xAAAA,     1u << 20,   (1u << 20) + 1,
          1000, 0xFFFFFFFF, p.identity()};
}

// combine must be commutative, associative, idempotent, and dominate both
// inputs in the program's monotone order — exactly the algebra that makes
// merging en-route indistinguishable from late delivery for a monotone
// callback (the soundness argument in DESIGN.md §6).
void expect_combine_is_sound(const VertexProgram& p, const char* name) {
  ASSERT_TRUE(p.can_combine()) << name;
  const std::vector<StateWord> xs = sample_states(p);
  for (const StateWord a : xs) {
    EXPECT_EQ(p.combine(a, a), a) << name << ": not idempotent at " << a;
    for (const StateWord b : xs) {
      const StateWord ab = p.combine(a, b);
      EXPECT_EQ(ab, p.combine(b, a))
          << name << ": not commutative at (" << a << ", " << b << ")";
      EXPECT_TRUE(p.no_worse(ab, a) && p.no_worse(ab, b))
          << name << ": combine(" << a << ", " << b << ") = " << ab
          << " is worse than an input";
      for (const StateWord c : xs) {
        EXPECT_EQ(p.combine(ab, c), p.combine(a, p.combine(b, c)))
            << name << ": not associative at (" << a << ", " << b << ", " << c
            << ")";
      }
    }
  }
  // The identity element absorbs into anything without changing it.
  for (const StateWord a : xs)
    EXPECT_EQ(p.combine(a, p.identity()), a)
        << name << ": identity() is not neutral";
}

TEST(CombineAlgebra, BfsIsMin) {
  expect_combine_is_sound(DynamicBfs(0), "DynamicBfs");
  EXPECT_EQ(DynamicBfs(0).combine(3, 5), 3u);
}

TEST(CombineAlgebra, SsspIsMin) {
  expect_combine_is_sound(DynamicSssp(0), "DynamicSssp");
  EXPECT_EQ(DynamicSssp(0).combine(9, 4), 4u);
}

TEST(CombineAlgebra, CcIsMax) {
  expect_combine_is_sound(DynamicCc(), "DynamicCc");
  EXPECT_EQ(DynamicCc().combine(3, 5), 5u);
}

TEST(CombineAlgebra, MultiStIsBitwiseOr) {
  expect_combine_is_sound(MultiStConnectivity({1, 2}), "MultiStConnectivity");
  EXPECT_EQ(MultiStConnectivity({1, 2}).combine(0b0101, 0b0011), 0b0111u);
}

TEST(CombineAlgebra, DeterministicParentsOptsOut) {
  // With deterministic parent selection, equal-level updates are *not*
  // interchangeable (the tie-break depends on arrival), so coalescing
  // must be off for exactly that mode.
  DynamicBfs::Options det;
  det.deterministic_parents = true;
  EXPECT_FALSE(DynamicBfs(0, det).can_combine());
  DynamicSssp::Options sdet;
  sdet.deterministic_parents = true;
  EXPECT_FALSE(DynamicSssp(0, sdet).can_combine());
  EXPECT_TRUE(DynamicBfs(0).can_combine());  // default mode opts in
}

// ---------------------------------------------------------------------------
// End-to-end: coalesced runs vs the no-coalesce reference.

EdgeList coalescing_workload() {
  // Dense enough that a vertex improves several times during convergence,
  // re-sending to the same neighbours within one batch window — the
  // pattern coalescing exists for.
  return generate_erdos_renyi({.num_vertices = 2000, .num_edges = 16000, .seed = 11});
}

TEST(Coalescing, CoalescedRunMatchesNoCoalesceRunAndOracle) {
  const EdgeList edges = coalescing_workload();
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  auto run = [&](bool coalesce) {
    EngineConfig cfg{.num_ranks = 4};
    cfg.coalesce = coalesce;
    cfg.batch_size = 512;  // wide merge window
    auto engine = std::make_unique<Engine>(cfg);
    auto [bfs_id, bfs] = engine->attach_make<DynamicBfs>(source);
    auto [cc_id, cc] = engine->attach_make<DynamicCc>();
    engine->inject_init(bfs_id, source);
    engine->ingest(make_streams(edges, 4, StreamOptions{.seed = 13}));
    const Snapshot b = engine->collect_quiescent(bfs_id);
    const Snapshot c = engine->collect_quiescent(cc_id);
    const MetricsSummary m = engine->metrics();
    return std::tuple(std::move(b), std::move(c), m);
  };

  const auto [bfs_on, cc_on, m_on] = run(true);
  const auto [bfs_off, cc_off, m_off] = run(false);

  // Both runs converge to the oracle, hence to each other — final states
  // are independent of whether dominated updates travelled.
  expect_snapshot_matches_oracle(bfs_on, g, static_bfs(g, g.dense_of(source)));
  expect_snapshot_matches_oracle(bfs_off, g, static_bfs(g, g.dense_of(source)));
  expect_snapshot_matches_oracle(cc_on, g, static_cc_union_find(g));
  expect_snapshot_matches_oracle(cc_off, g, static_cc_union_find(g));

  // The coalesced run actually coalesced; the reference run provably not.
  EXPECT_GT(m_on.coalesced_sends, 0u);
  EXPECT_EQ(m_off.coalesced_sends, 0u);
}

TEST(Coalescing, MessagePartitionExcludesCoalescedSends) {
  // `local + remote + control == messages_sent` (PR 1's partition
  // invariant) must survive coalescing: a merged-away visitor was never
  // sent, so it lands in none of the four counters.
  const EdgeList edges = coalescing_workload();
  EngineConfig cfg{.num_ranks = 3};
  cfg.batch_size = 512;
  Engine engine(cfg);
  auto [id, bfs] = engine.attach_make<DynamicBfs>(edges.front().src);
  engine.inject_init(id, edges.front().src);
  engine.ingest(make_streams(edges, 3, StreamOptions{.seed = 5}));
  (void)engine.collect_quiescent(id);

  const obs::MetricsSnapshot snap = engine.metrics_snapshot();
  EXPECT_EQ(snap.counters.local_messages + snap.counters.remote_messages +
                snap.counters.control_messages,
            snap.counters.messages_sent);
  for (const auto& r : snap.per_rank)
    EXPECT_EQ(r.counters.local_messages + r.counters.remote_messages +
                  r.counters.control_messages,
              r.counters.messages_sent);
  EXPECT_GT(snap.counters.coalesced_sends, 0u);
}

TEST(Coalescing, InFlightExactlyZeroAtQuiescence) {
  // The sharded in-flight counters must read exactly zero at every
  // quiescent point even though coalesced sends never reach the injected
  // side — randomised multi-rank ingest, mid-stream versioned collections,
  // repeated across seeds.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const EdgeList edges = generate_erdos_renyi(
        {.num_vertices = 1200, .num_edges = 9600, .seed = 100 + seed});
    const RankId ranks = static_cast<RankId>(1 + seed);  // 2, 3, 4
    EngineConfig cfg{.num_ranks = ranks};
    Engine engine(cfg);
    const VertexId source = edges.front().src;
    auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(source);
    auto [cc_id, cc] = engine.attach_make<DynamicCc>();
    engine.inject_init(bfs_id, source);

    // ingest_async holds a reference: the set must outlive the run.
    const StreamSet streams = make_streams(edges, ranks, StreamOptions{.seed = seed});
    engine.ingest_async(streams);
    (void)engine.collect_versioned(bfs_id);  // epoch-drain mid-stream
    engine.await_quiescence();
    EXPECT_EQ(engine.sample_gauges().in_flight, 0)
        << "seed " << seed << " ranks " << unsigned(ranks);

    (void)engine.collect_quiescent(cc_id);
    EXPECT_EQ(engine.sample_gauges().in_flight, 0);
  }
}

TEST(Coalescing, ConfigKnobDisablesMergingEntirely) {
  const EdgeList edges = coalescing_workload();
  EngineConfig cfg{.num_ranks = 2};
  cfg.coalesce = false;
  Engine engine(cfg);
  auto [id, bfs] = engine.attach_make<DynamicBfs>(edges.front().src);
  engine.inject_init(id, edges.front().src);
  engine.ingest(make_streams(edges, 2, StreamOptions{.seed = 9}));
  const MetricsSummary m = engine.metrics();
  EXPECT_EQ(m.coalesced_sends, 0u);
}

TEST(Coalescing, DeterministicParentsRunNeverMerges) {
  // A program that opts out via can_combine() must see the full message
  // stream even when the engine-level knob is on (the default).
  const EdgeList edges = coalescing_workload();
  EngineConfig cfg{.num_ranks = 2};
  Engine engine(cfg);
  DynamicBfs::Options det;
  det.deterministic_parents = true;
  auto [id, bfs] = engine.attach_make<DynamicBfs>(edges.front().src, det);
  engine.inject_init(id, edges.front().src);
  engine.ingest(make_streams(edges, 2, StreamOptions{.seed = 9}));
  const MetricsSummary m = engine.metrics();
  EXPECT_EQ(m.coalesced_sends, 0u);
}

}  // namespace
}  // namespace remo::test
