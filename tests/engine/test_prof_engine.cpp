// Live-engine profiling smoke: counters flow end-to-end on a real ingest
// with the auto-resolved backend, and the noop backend degrades gracefully
// (zeros, degraded flag, no crash) — the CI-container guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "../support.hpp"

namespace remo::test {
namespace {

EdgeList small_graph() {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 42;
  return generate_rmat(p);
}

IngestStats run_ingest(Engine& engine, const EdgeList& edges, RankId ranks) {
  const StreamSet streams = make_streams(edges, ranks, StreamOptions{.seed = 7});
  return engine.ingest(streams);
}

TEST(ProfEngine, AutoBackendCountersFlow) {
  EngineConfig cfg;
  cfg.num_ranks = 2;
  cfg.obs.prof = true;
  cfg.obs.prof_sample_shift = 0;  // read every boundary: deterministic flow
  Engine engine(cfg);
  EXPECT_TRUE(engine.prof_enabled());
  run_ingest(engine, small_graph(), cfg.num_ranks);

  const obs::ProfSnapshot snap = engine.prof_snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_FALSE(snap.backend.empty());
  ASSERT_EQ(snap.per_rank.size(), 2u);
  const obs::RankProfSnapshot totals = snap.totals();
  EXPECT_GT(totals.boundaries, 0u) << "phase boundaries must be observed";
  if (snap.backend == "noop") {
    // Container denies both perf_event and thread rusage: nothing to assert
    // beyond survival, which this test just demonstrated.
    EXPECT_TRUE(snap.degraded);
  } else {
    EXPECT_GT(totals.reads, 0u);
    EXPECT_GT(totals.total_attributed_ns(), 0u);
    // Whatever the backend provides must actually accumulate: perf_event
    // gives cycles, rusage gives task-clock.
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < obs::kProfCounterCount; ++i)
      sum += totals.total().v[i];
    EXPECT_GT(sum, 0u);
  }
  if (snap.backend == "perf_event") {
    EXPECT_FALSE(snap.degraded);
    EXPECT_GT(totals.total()[obs::ProfCounter::kCycles], 0u);
    EXPECT_GT(totals.total()[obs::ProfCounter::kInstructions], 0u);
  }
}

TEST(ProfEngine, NoopBackendDegradesGracefully) {
  EngineConfig cfg;
  cfg.num_ranks = 2;
  cfg.obs.prof = true;
  cfg.obs.prof_backend = obs::ProfBackendKind::kNoop;
  Engine engine(cfg);
  const IngestStats stats = run_ingest(engine, small_graph(), cfg.num_ranks);
  EXPECT_GT(stats.events, 0u);

  const obs::ProfSnapshot snap = engine.prof_snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_TRUE(snap.degraded);
  EXPECT_EQ(snap.backend, "noop");
  EXPECT_EQ(snap.available, 0u);
  const obs::RankProfSnapshot totals = snap.totals();
  EXPECT_EQ(totals.reads, 0u);
  for (std::size_t i = 0; i < obs::kProfCounterCount; ++i)
    EXPECT_EQ(totals.total().v[i], 0u);
  // The report still renders, with the degraded banner.
  const std::string report = obs::format_prof_report(snap);
  EXPECT_NE(report.find("degraded backend"), std::string::npos);
}

TEST(ProfEngine, DisabledEngineHasNoProf) {
  EngineConfig cfg;
  cfg.num_ranks = 1;
  Engine engine(cfg);
  EXPECT_FALSE(engine.prof_enabled());
  run_ingest(engine, small_graph(), 1);
  const obs::MetricsSnapshot snap = engine.metrics_snapshot();
  EXPECT_FALSE(snap.prof.enabled);
  EXPECT_EQ(snap.to_json().find("prof"), nullptr);
}

TEST(ProfEngine, SnapshotFlowsIntoStatsAndGauges) {
  EngineConfig cfg;
  cfg.num_ranks = 2;
  cfg.obs.prof = true;
  cfg.obs.prof_sample_shift = 0;
  Engine engine(cfg);
  run_ingest(engine, small_graph(), cfg.num_ranks);

  const Json stats = engine.metrics_snapshot().to_json();
  const Json* prof = stats.find("prof");
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->find("schema")->as_string(), "remo-prof-1");

  const obs::GaugeSample g = engine.sample_gauges();
  EXPECT_FALSE(g.prof_backend.empty());
  ASSERT_NE(g.to_json().find("prof"), nullptr);
}

TEST(ProfEngine, WriteProfRoundTrips) {
  EngineConfig cfg;
  cfg.num_ranks = 2;
  cfg.obs.prof = true;
  cfg.obs.prof_sample_shift = 0;
  Engine engine(cfg);
  run_ingest(engine, small_graph(), cfg.num_ranks);

  const std::string path = ::testing::TempDir() + "prof_round_trip.json";
  ASSERT_TRUE(engine.write_prof(path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const Json doc = Json::parse(text.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  obs::ProfSnapshot back;
  ASSERT_TRUE(obs::ProfSnapshot::from_json(doc, back, &error)) << error;
  EXPECT_EQ(back.per_rank.size(), 2u);
  EXPECT_EQ(back.backend, engine.prof_snapshot().backend);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace remo::test
