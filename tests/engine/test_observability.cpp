#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "../support.hpp"

namespace remo::test {
namespace {

EdgeList test_edges(std::uint32_t scale = 10) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = 5;
  return generate_rmat(p);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(EngineObservability, SnapshotCountersMatchLegacyMetrics) {
  const EdgeList edges = test_edges();
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(edges.front().src);
  engine.inject_init(id, edges.front().src);
  engine.ingest(make_streams(edges, 2, StreamOptions{.seed = 3}));
  // Harvesting a snapshot fans control visitors out from the main thread;
  // they must land in the merged counters or the partition below breaks.
  (void)engine.collect_quiescent(id);

  const MetricsSummary legacy = engine.metrics();
  const obs::MetricsSnapshot snap = engine.metrics_snapshot();
  EXPECT_EQ(snap.counters.topology_events, legacy.topology_events);
  EXPECT_EQ(snap.counters.algorithm_events, legacy.algorithm_events);
  EXPECT_EQ(snap.counters.messages_sent, legacy.messages_sent);
  EXPECT_EQ(snap.counters.edges_stored, legacy.edges_stored);
  ASSERT_EQ(snap.per_rank.size(), 2u);

  // Local + remote partitions the routed sends exactly.
  EXPECT_EQ(snap.counters.local_messages + snap.counters.remote_messages +
                snap.counters.control_messages,
            snap.counters.messages_sent);
  EXPECT_GT(snap.counters.local_messages, 0u);   // self-sends exist at 2 ranks
  EXPECT_GT(snap.counters.remote_messages, 0u);
  EXPECT_GE(snap.counters.control_messages, 2u);  // the harvest fan-out
}

TEST(EngineObservability, MessagePartitionHoldsUnderDeleteHeavyWorkload) {
  // `local + remote + control == messages_sent` must survive the messier
  // paths: delete events (reverse-deletes, cache invalidation), repair
  // waves, and the snapshot drains that interleave control traffic with
  // basic visitors mid-stream.
  const EdgeList edges = test_edges(9);
  std::vector<EdgeEvent> events;
  events.reserve(edges.size() * 2);
  for (const Edge& e : edges)
    events.push_back(EdgeEvent{e.src, e.dst, kDefaultWeight, EdgeOp::kAdd});
  // Delete-heavy: remove roughly 60% of what was added (adds come first in
  // each round-robin stream, so a delete never precedes its add).
  for (std::size_t i = 0; i < edges.size(); ++i)
    if (i % 5 < 3)
      events.push_back(EdgeEvent{edges[i].src, edges[i].dst, kDefaultWeight,
                                 EdgeOp::kDelete});
  const StreamSet streams = split_events(std::move(events), 3);

  Engine engine(EngineConfig{.num_ranks = 3});
  DynamicBfs::Options opts;
  opts.support_deletes = true;  // repair() below needs the delete machinery
  auto [id, bfs] = engine.attach_make<DynamicBfs>(edges.front().src, opts);
  engine.inject_init(id, edges.front().src);
  engine.ingest_async(streams);

  // Mid-stream snapshot drains: both the pausing and the versioned flavour
  // push control fan-outs while basic traffic is still flowing.
  (void)engine.collect_quiescent(id);
  (void)engine.collect_versioned(id);
  engine.await_quiescence();
  engine.repair(id);  // anchors + probes: two more control fan-outs

  const obs::MetricsSnapshot snap = engine.metrics_snapshot();
  EXPECT_EQ(snap.counters.local_messages + snap.counters.remote_messages +
                snap.counters.control_messages,
            snap.counters.messages_sent);
  // Per-rank rows partition too (control sends from the main thread are
  // folded into the aggregate only).
  for (const auto& r : snap.per_rank)
    EXPECT_EQ(r.counters.local_messages + r.counters.remote_messages +
                  r.counters.control_messages,
              r.counters.messages_sent);
  EXPECT_GT(snap.counters.control_messages, 0u);
  EXPECT_EQ(snap.counters.topology_events,
            engine.metrics().topology_events);
}

TEST(EngineObservability, LatencyHistogramPopulates) {
  const EdgeList edges = test_edges();
  Engine engine(EngineConfig{.num_ranks = 2});
  engine.ingest(make_streams(edges, 2, StreamOptions{.seed = 3}));

  const obs::MetricsSnapshot snap = engine.metrics_snapshot();
  // Each rank times its 1st, (stride+1)-th, ... processed topology event.
  // Ranks process adds at their owner, so a rank's sample count follows
  // from its processed topology events.
  constexpr std::uint64_t kStride = std::uint64_t{1} << obs::kLatencySampleShift;
  for (const auto& r : snap.per_rank)
    EXPECT_EQ(r.update_latency_ns.count,
              (r.counters.topology_events + kStride - 1) / kStride);
  EXPECT_GT(snap.update_latency_ns.p50(), 0u);
  EXPECT_GE(snap.update_latency_ns.p99(), snap.update_latency_ns.p50());
  EXPECT_GE(snap.update_latency_ns.max, snap.update_latency_ns.min);

  // The merged histogram equals the per-rank sum.
  std::uint64_t per_rank_total = 0;
  for (const auto& r : snap.per_rank) per_rank_total += r.update_latency_ns.count;
  EXPECT_EQ(per_rank_total, snap.update_latency_ns.count);
}

TEST(EngineObservability, SamplingReducesSampleCount) {
  const EdgeList edges = test_edges();
  Engine engine(EngineConfig{.num_ranks = 2});
  engine.ingest(make_streams(edges, 2, StreamOptions{.seed = 3}));

  const obs::MetricsSnapshot snap = engine.metrics_snapshot();
  constexpr std::uint64_t kStride = std::uint64_t{1} << obs::kLatencySampleShift;
  EXPECT_GT(snap.counters.topology_events, kStride);
  EXPECT_GT(snap.update_latency_ns.count, 0u);
  EXPECT_LE(snap.update_latency_ns.count,
            snap.counters.topology_events / kStride + engine.num_ranks());
}

TEST(EngineObservability, PhaseTimersAccountIngestAndPropagate) {
  const EdgeList edges = test_edges();
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(edges.front().src);
  engine.inject_init(id, edges.front().src);
  engine.ingest(make_streams(edges, 2, StreamOptions{.seed = 3}));
  const Snapshot s = engine.collect_quiescent(id);
  (void)s;

  const obs::PhaseSnapshot phases = engine.metrics_snapshot().phases;
  EXPECT_GT(phases[obs::Phase::kIngest], 0u);
  EXPECT_GT(phases[obs::Phase::kPropagate], 0u);
  // collect_quiescent ran a harvest on each rank.
  EXPECT_GT(phases[obs::Phase::kSnapshotDrain], 0u);
  EXPECT_GT(phases.total(), 0u);
}

TEST(EngineObservability, StatsJsonHasPercentiles) {
  const EdgeList edges = test_edges();
  Engine engine(EngineConfig{.num_ranks = 2});
  engine.ingest(make_streams(edges, 2, StreamOptions{.seed = 3}));

  const Json j = engine.metrics_snapshot().to_json();
  EXPECT_EQ(j.find("schema")->as_string(), "remo-stats-1");
  EXPECT_EQ(j.find("ranks")->as_uint(), 2u);
  const Json* lat = j.find("update_latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->find("count")->as_uint(), 0u);
  for (const char* key : {"p50_ns", "p90_ns", "p99_ns", "p999_ns"})
    EXPECT_GT(lat->find(key)->as_uint(), 0u) << key;
  ASSERT_NE(j.find("per_rank"), nullptr);
  EXPECT_EQ(j.find("per_rank")->size(), 2u);

  // The JSON must itself round-trip through the parser.
  std::string err;
  Json::parse(j.dump(2), &err);
  EXPECT_TRUE(err.empty()) << err;
}

TEST(EngineObservability, TracingOffByDefault) {
  Engine engine(EngineConfig{.num_ranks = 1});
  EXPECT_FALSE(engine.tracing_enabled());
  EXPECT_FALSE(engine.write_trace(::testing::TempDir() + "never.json"));
}

TEST(EngineObservability, TraceRoundTrip) {
  const EdgeList edges = test_edges();
  EngineConfig cfg{.num_ranks = 2};
  cfg.obs.trace = true;
  Engine engine(cfg);
  auto [id, bfs] = engine.attach_make<DynamicBfs>(edges.front().src);
  engine.inject_init(id, edges.front().src);
  engine.ingest(make_streams(edges, 2, StreamOptions{.seed = 3}));
  const Snapshot s = engine.collect_quiescent(id);
  (void)s;

  ASSERT_TRUE(engine.tracing_enabled());
  const std::string path = ::testing::TempDir() + "remo_engine_trace.json";
  ASSERT_TRUE(engine.write_trace(path));

  std::string err;
  const Json doc = Json::parse(slurp(path), &err);
  ASSERT_TRUE(err.empty()) << err;
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Per-track monotonic timestamps + at least one slice per rank.
  std::map<std::int64_t, double> last_ts;
  std::map<std::int64_t, int> slices_per_track;
  for (const Json& ev : events->items()) {
    if (ev.find("ph")->as_string() != "X") continue;
    const std::int64_t tid = ev.find("tid")->as_int();
    const double ts = ev.find("ts")->as_double();
    if (auto it = last_ts.find(tid); it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "track " << tid;
    }
    last_ts[tid] = ts;
    ++slices_per_track[tid];
  }
  EXPECT_GT(slices_per_track[0], 0);  // rank 0
  EXPECT_GT(slices_per_track[1], 0);  // rank 1
  EXPECT_GT(slices_per_track[2], 0);  // main thread (tid = num_ranks)
  std::remove(path.c_str());
}

}  // namespace
}  // namespace remo::test
