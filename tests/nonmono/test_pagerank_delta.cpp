// PageRankDelta vs the static Jacobi oracle: adds, deletes, weight
// mutations, multi-rank schedules, and the serving-plane kRank catalog.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <tuple>

#include "../support.hpp"
#include "serve/query_service.hpp"

namespace remo::test {
namespace {

// Converged ranks sit within n * tolerance / (1 - d) of the fixpoint
// (pagerank_delta.hpp); the graphs here are <= a few hundred vertices with
// the default 1e-9 tolerance, so 1e-5 is a comfortable diff bound.
constexpr double kAtol = 1e-5;

void expect_ranks_match(Engine& engine, ProgramId id, const PageRankDelta& pr,
                        const CsrGraph& g, const std::vector<double>& oracle) {
  ASSERT_EQ(oracle.size(), g.num_vertices());
  std::uint64_t mismatches = 0;
  for (CsrGraph::Dense v = 0; v < g.num_vertices() && mismatches < 10; ++v) {
    const VertexId ext = g.external_of(v);
    const double got = pr.rank_of(engine.state_of(id, ext));
    if (std::abs(got - oracle[v]) > kAtol) {
      ++mismatches;
      ADD_FAILURE() << "vertex " << ext << ": dynamic=" << got
                    << " oracle=" << oracle[v];
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(PageRankDelta, SingleEdgeConvergesToUnitRanks) {
  Engine engine(EngineConfig{.num_ranks = 1});
  auto pr = std::make_shared<PageRankDelta>();
  const ProgramId id = engine.attach(pr);
  engine.ingest(split_events({{0, 1, 1, EdgeOp::kAdd}}, 1));
  // Symmetric two-vertex graph: r = (1-d) + d*r  =>  r = 1 for both.
  EXPECT_NEAR(pr->rank_of(engine.state_of(id, 0)), 1.0, kAtol);
  EXPECT_NEAR(pr->rank_of(engine.state_of(id, 1)), 1.0, kAtol);
}

TEST(PageRankDelta, StarCentreOutranksLeaves) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto pr = std::make_shared<PageRankDelta>();
  const ProgramId id = engine.attach(pr);
  std::vector<EdgeEvent> events;
  for (VertexId leaf = 1; leaf <= 6; ++leaf)
    events.push_back({0, leaf, 1, EdgeOp::kAdd});
  engine.ingest(split_events(std::move(events), 2, /*shuffle=*/true, 3));
  const double centre = pr->rank_of(engine.state_of(id, 0));
  const double leaf = pr->rank_of(engine.state_of(id, 1));
  EXPECT_GT(centre, 2.0);  // exact: (1-d)(1+6d)/(1-d^2) ~ 2.75
  EXPECT_LT(leaf, 1.0);
  EXPECT_NEAR(pr->rank_of(engine.state_of(id, 5)), leaf, kAtol);
}

class PagerankOracleSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PagerankOracleSweep, MatchesStaticOracle) {
  const auto [ranks, seed] = GetParam();
  const EdgeList edges = dedupe_undirected(generate_erdos_renyi(
      {.num_vertices = 120, .num_edges = 420, .seed = seed}));
  Engine engine(EngineConfig{.num_ranks = static_cast<RankId>(ranks)});
  auto pr = std::make_shared<PageRankDelta>();
  const ProgramId id = engine.attach(pr);

  const StreamOptions opts{
      .shuffle = true, .min_weight = 1, .max_weight = 5, .seed = seed};
  const StreamSet streams = make_streams(edges, static_cast<std::size_t>(ranks), opts);
  EdgeList weighted;
  for (std::size_t s = 0; s < streams.num_streams(); ++s)
    for (const EdgeEvent& e : streams.stream(s).events())
      weighted.push_back(Edge{e.src, e.dst, e.weight});
  engine.ingest(streams);

  const CsrGraph g = undirected_csr(weighted);
  expect_ranks_match(engine, id, *pr, g, static_pagerank(g));
}

INSTANTIATE_TEST_SUITE_P(RanksSeeds, PagerankOracleSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(21u, 22u, 23u)));

TEST(PageRankDelta, WeightMutationsRescaleInPlace) {
  const EdgeList base = dedupe_undirected(generate_erdos_renyi(
      {.num_vertices = 60, .num_edges = 200, .seed = 31}));
  std::vector<EdgeEvent> events;
  for (const Edge& e : base) events.push_back({e.src, e.dst, 2, EdgeOp::kAdd});
  const std::vector<EdgeEvent> mutations = make_weight_mutations(
      fold_events(events), {.num_events = 150, .max_weight = 6, .seed = 31});

  Engine engine(EngineConfig{.num_ranks = 4});
  auto pr = std::make_shared<PageRankDelta>();
  const ProgramId id = engine.attach(pr);
  engine.ingest(split_events(events, 4, /*shuffle=*/true, 5));
  engine.ingest(split_events_keyed(mutations, 4, /*seed=*/9));

  std::vector<EdgeEvent> all = events;
  all.insert(all.end(), mutations.begin(), mutations.end());
  const CsrGraph g = undirected_csr(fold_events(all));
  expect_ranks_match(engine, id, *pr, g, static_pagerank(g));
}

TEST(PageRankDelta, DeletesRetractWithoutRepair) {
  const EdgeList base = dedupe_undirected(generate_erdos_renyi(
      {.num_vertices = 80, .num_edges = 260, .seed = 17}));
  std::vector<EdgeEvent> events;
  for (const Edge& e : base) events.push_back({e.src, e.dst, 1, EdgeOp::kAdd});
  // Delete every third pair after its add (keyed split keeps the order).
  std::vector<EdgeEvent> with_deletes;
  std::size_t i = 0;
  for (const EdgeEvent& e : events) {
    with_deletes.push_back(e);
    if (++i % 3 == 0) {
      EdgeEvent d = e;
      d.op = EdgeOp::kDelete;
      with_deletes.push_back(d);
    }
  }
  Engine engine(EngineConfig{.num_ranks = 3});
  auto pr = std::make_shared<PageRankDelta>();
  const ProgramId id = engine.attach(pr);
  engine.ingest(split_events_keyed(permute_preserving_pairs(with_deletes, 11),
                                   3, /*seed=*/13));
  // No engine.repair(): the memo-delta program absorbs deletes eagerly.
  const CsrGraph g = undirected_csr(fold_events(with_deletes));
  expect_ranks_match(engine, id, *pr, g, static_pagerank(g));
}

TEST(PageRankDelta, ServedRankViewsDecodeAndOrder) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto pr = std::make_shared<PageRankDelta>();
  const ProgramId id = engine.attach(pr);
  std::vector<EdgeEvent> events;
  for (VertexId leaf = 1; leaf <= 5; ++leaf)
    events.push_back({0, leaf, 1, EdgeOp::kAdd});
  engine.ingest(split_events(std::move(events), 2));

  serve::QueryService qs(engine, {.refresh_period_ms = 0, .top_k = 4});
  qs.serve(id, serve::ViewRole::kRank);
  EXPECT_NEAR(qs.rank_of(id, 0), pr->rank_of(engine.state_of(id, 0)), 1e-12);
  // An untouched vertex decodes to the base mass, not to garbage bits.
  EXPECT_NEAR(qs.rank_of(id, 999), pr->base_mass(), 1e-12);
  const auto top = qs.top_k_rank(id, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 0u);  // the star centre dominates
  EXPECT_GT(top[0].second, top[1].second);
  EXPECT_NEAR(top[1].second, top[2].second, kAtol);  // leaves tie
}

// Exact work counters of a bulk load at one rank — the run of `remo
// generate --kind rmat --scale 10 --seed 1` + `remo ingest --ranks 1
// --algo pagerank --tolerance 1e-2 --weights 8`. Publish tokens are held
// while the rank's stream is live, so every chunk's deltas fold behind one
// token per vertex: 33.3 algorithm events per topology event, where one
// propagation wave per 64-event stream chunk took 292.9.
TEST(PageRankDelta, BulkLoadPropagatesOncePerIngest) {
  const EdgeList edges = generate_rmat(RmatParams{.scale = 10, .seed = 1});
  const StreamSet streams = make_streams(edges, 1, {.max_weight = 8});
  const auto load = [&] {
    Engine engine(EngineConfig{.num_ranks = 1});
    engine.attach(std::make_shared<PageRankDelta>(
        PageRankDelta::Options{.tolerance = 1e-2}));
    engine.ingest(streams);
    return engine.metrics();
  };
  const MetricsSummary a = load();
  const MetricsSummary b = load();
  EXPECT_EQ(a.topology_events, b.topology_events);
  EXPECT_EQ(a.algorithm_events, b.algorithm_events);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.local_messages, b.local_messages);
  EXPECT_EQ(a.edges_stored, b.edges_stored);
  ASSERT_EQ(a.topology_events, edges.size());
  EXPECT_LE(a.algorithm_events, 64 * a.topology_events)
      << static_cast<double>(a.algorithm_events) /
             static_cast<double>(a.topology_events)
      << " algorithm events per topology event";
}

// Held publish tokens at 2 and 4 ranks: every operation that waits for
// in-flight work while a stream is still live (a versioned cut, a pause)
// must see the tokens released, Safra must not terminate over them, and
// each run must still end within the documented n * tol / (1 - d) of the
// static fixpoint.
class PageRankHeldTokens : public ::testing::TestWithParam<int> {
 protected:
  static constexpr double kTolerance = 1e-3;
  static constexpr auto kDeadline = std::chrono::seconds(60);

  void SetUp() override {
    streams_ = make_streams(
        dedupe_undirected(generate_rmat(RmatParams{.scale = 12, .seed = 5})),
        static_cast<std::size_t>(GetParam()), {.max_weight = 8, .seed = 3});
  }

  EngineConfig config() const {
    return EngineConfig{.num_ranks = static_cast<RankId>(GetParam())};
  }

  ProgramId attach(Engine& engine) {
    pr_ = std::make_shared<PageRankDelta>(
        PageRankDelta::Options{.tolerance = kTolerance});
    return engine.attach(pr_);
  }

  std::uint64_t ingested(Engine& engine) const {
    return engine.sample_gauges().events_ingested;
  }

  /// Block until the live stream has pulled a tenth of its events.
  void await_partial_ingest(Engine& engine) const {
    const auto until = std::chrono::steady_clock::now() + kDeadline;
    while (ingested(engine) < streams_.total_events() / 10) {
      ASSERT_LT(std::chrono::steady_clock::now(), until);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  /// Summed |rank - oracle| over the loaded graph against the documented
  /// bound n * tol / (1 - d).
  void expect_within_bound(Engine& engine, ProgramId id) const {
    EdgeList weighted;
    for (std::size_t s = 0; s < streams_.num_streams(); ++s)
      for (const EdgeEvent& e : streams_.stream(s).events())
        weighted.push_back(Edge{e.src, e.dst, e.weight});
    const CsrGraph g = undirected_csr(weighted);
    const std::vector<double> oracle = static_pagerank(g);
    double l1 = 0.0;
    for (CsrGraph::Dense v = 0; v < g.num_vertices(); ++v)
      l1 += std::abs(pr_->rank_of(engine.state_of(id, g.external_of(v))) -
                     oracle[v]);
    const double bound = static_cast<double>(g.num_vertices()) * kTolerance /
                         (1.0 - pr_->damping());
    EXPECT_LE(l1, bound);
  }

  StreamSet streams_;
  std::shared_ptr<PageRankDelta> pr_;
};

TEST_P(PageRankHeldTokens, VersionedCutReturnsWhileTheStreamIsLive) {
  Engine engine(config());
  const ProgramId id = attach(engine);
  engine.ingest_async(streams_);
  await_partial_ingest(engine);
  const Snapshot cut = engine.collect_versioned(id);
  // The cut drained its epoch's held tokens instead of waiting for the
  // stream that holds them back to end.
  EXPECT_LT(ingested(engine), streams_.total_events());
  EXPECT_GT(cut.size(), 0u);
  engine.await_quiescence();
  expect_within_bound(engine, id);
}

TEST_P(PageRankHeldTokens, PauseReleasesHeldTokens) {
  Engine engine(config());
  const ProgramId id = attach(engine);
  engine.ingest_async(streams_);
  await_partial_ingest(engine);
  engine.pause_streams();
  // Held tokens count in flight: the engine only goes idle once the
  // paused ranks have released and drained them.
  const auto until = std::chrono::steady_clock::now() + kDeadline;
  while (!engine.idle()) {
    ASSERT_LT(std::chrono::steady_clock::now(), until);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_LT(ingested(engine), streams_.total_events());
  const obs::GaugeSample paused = engine.sample_gauges();
  EXPECT_EQ(paused.in_flight, 0);
  EXPECT_EQ(paused.queue_depth, 0u);
  engine.resume_streams();
  engine.await_quiescence();
  expect_within_bound(engine, id);
}

TEST_P(PageRankHeldTokens, ConvergesUnderSafra) {
  EngineConfig cfg = config();
  cfg.termination = TerminationMode::kSafra;
  Engine engine(cfg);
  const ProgramId id = attach(engine);
  engine.ingest(streams_);
  expect_within_bound(engine, id);
}

INSTANTIATE_TEST_SUITE_P(Ranks, PageRankHeldTokens, ::testing::Values(2, 4));

TEST(PageRankDeltaDeathTest, MemoDeltaProgramRejectsCoAttachment) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Engine engine(EngineConfig{.num_ranks = 1});
  engine.attach(std::make_shared<PageRankDelta>());
  EXPECT_DEATH(engine.attach_make<DynamicBfs>(0),
               "exclusive edge-memo ownership");
  Engine other(EngineConfig{.num_ranks = 1});
  other.attach_make<DynamicBfs>(0);
  EXPECT_DEATH(other.attach(std::make_shared<PageRankDelta>()),
               "exclusive edge-memo ownership");
}

TEST(PageRankDeltaDeathTest, NonMonotoneCombineIsRejectedAtAttach) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  class BadProgram : public DynamicCc {
   public:
    bool monotone() const override { return false; }
    bool can_combine() const override { return true; }
  };
  Engine engine(EngineConfig{.num_ranks = 1});
  EXPECT_DEATH(engine.attach(std::make_shared<BadProgram>()),
               "monotone program");
}

}  // namespace
}  // namespace remo::test
