// Write-path spans through the real serving plane: concurrent submitters
// feed a WriteGate wired to a SpanRecorder while a QueryService publishes
// views, and every sampled batch's span must close with monotone
// milestones and a watermark its covering view actually reached. This is
// the TSan target for the recorder: gate pump thread, dispatch workers,
// the refresh thread's epoch-drain + publish callbacks, and a stats
// sampler all hit the one mutex concurrently.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "../support.hpp"
#include "serve/serving_gauges.hpp"

namespace remo::test {
namespace {

std::vector<EdgeEvent> ring_events(VertexId n, VertexId stride,
                                   std::uint64_t salt) {
  std::vector<EdgeEvent> ev;
  ev.reserve(n);
  for (VertexId i = 0; i < n; ++i)
    ev.push_back({static_cast<VertexId>((i * stride + salt) % n),
                  static_cast<VertexId>((i * stride + salt + 1) % n), 1,
                  EdgeOp::kAdd});
  return ev;
}

TEST(SpanPipeline, ConcurrentSubmittersEverySpanCloses) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(0);
  engine.inject_init(bfs_id, 0);

  obs::SpanRecorder rec;  // sample_shift 0: span every batch
  serve::QueryService qs(engine, {.refresh_period_ms = 5, .spans = &rec});
  qs.serve(bfs_id, serve::ViewRole::kDistance);
  qs.start();

  serve::WriteGate gate(
      engine, {.batch_limit = 64, .dispatch_threads = 3, .spans = &rec});

  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 12;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int b = 0; b < kBatchesPerWriter; ++b)
        gate.submit_batch(ring_events(
            200, static_cast<VertexId>(2 * w + 3),
            static_cast<std::uint64_t>(w * kBatchesPerWriter + b)));
    });
  }
  // A concurrent sampler imitating the metrics exporter.
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_acquire)) {
      obs::GaugeSample s = engine.sample_gauges();
      serve::fill_serving_gauges(s, &qs, &gate, &rec);
      EXPECT_FALSE(s.serving.empty());
      std::this_thread::yield();
    }
  });
  for (auto& t : writers) t.join();
  gate.flush();
  engine.drain();
  qs.refresh_all();  // covering publish: closes every remaining span
  sampling.store(false, std::memory_order_release);
  sampler.join();
  qs.stop();

  const obs::SpanSnapshot snap = rec.snapshot();
  EXPECT_GT(snap.batches_sampled, 0u);
  EXPECT_EQ(snap.completed, snap.batches_sampled);
  EXPECT_EQ(snap.open, 0u);
  EXPECT_EQ(snap.dropped_open, 0u);
  EXPECT_EQ(snap.freshness.hist.count, snap.completed);

  const std::uint64_t final_wm = engine.ingested_watermark();
  for (const obs::WriteSpan& s : snap.spans) {
    EXPECT_EQ(obs::cause_origin(s.id), obs::kSpanOrigin);
    // Milestones monotone; stage durations consistent with them.
    EXPECT_LE(s.queued_ns, s.begin_ns);
    EXPECT_LE(s.begin_ns, s.admitted_ns);
    EXPECT_LE(s.admitted_ns, s.drained_ns);
    EXPECT_LE(s.drained_ns, s.published_ns);
    EXPECT_EQ(s.total_ns, s.published_ns - s.queued_ns);
    std::uint64_t sum = 0;
    for (const std::uint64_t d : s.stage_ns) sum += d;
    EXPECT_LE(sum, s.total_ns);
    // The admission watermark was a real ingested count.
    EXPECT_GT(s.watermark, 0u);
    EXPECT_LE(s.watermark, final_wm);
    EXPECT_GT(s.events, 0u);
  }
  // Exemplar traces resolve to retained spans (history is larger than the
  // batch count here, so nothing was evicted).
  for (const obs::Exemplar& e : snap.freshness.exemplars)
    EXPECT_NE(snap.find(e.trace), nullptr);
}

TEST(SpanPipeline, SampledRecorderCountsEveryBatch) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(0);
  engine.inject_init(bfs_id, 0);

  obs::SpanRecorder rec({.sample_shift = 2});  // span every 4th batch
  serve::QueryService qs(engine, {.refresh_period_ms = 5, .spans = &rec});
  qs.serve(bfs_id, serve::ViewRole::kDistance);
  qs.start();
  serve::WriteGate gate(
      engine, {.batch_limit = 128, .dispatch_threads = 2, .spans = &rec});
  for (int b = 0; b < 16; ++b)
    gate.submit_batch(ring_events(128, 3, static_cast<std::uint64_t>(b)));
  gate.flush();
  engine.drain();
  qs.refresh_all();
  qs.stop();

  const obs::SpanCounts c = rec.counts();
  EXPECT_GT(c.batches_seen, 0u);
  EXPECT_GT(c.batches_sampled, 0u);
  EXPECT_LE(c.batches_sampled, c.batches_seen);
  EXPECT_EQ(c.completed, c.batches_sampled);
  EXPECT_EQ(c.open, 0u);
  // Deterministic 1-in-4 sampling: seen batches may exceed submit count
  // (the pump may split or merge swaps), but the ratio holds.
  EXPECT_EQ(c.batches_sampled, (c.batches_seen + 3) / 4);
}

TEST(SpanPipeline, GateWithoutServiceSpansStayOpenUntilPublish) {
  // No QueryService at all: spans admit and drain, but nothing publishes,
  // so they must remain open (not complete, not dropped) — the recorder
  // never invents a publish.
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(0);
  engine.inject_init(bfs_id, 0);

  obs::SpanRecorder rec;
  serve::WriteGate gate(
      engine, {.batch_limit = 64, .dispatch_threads = 2, .spans = &rec});
  gate.submit_batch(ring_events(256, 3, 1));
  gate.flush();
  engine.drain();

  const obs::SpanCounts c = rec.counts();
  EXPECT_GT(c.batches_sampled, 0u);
  EXPECT_EQ(c.completed, 0u);
  EXPECT_EQ(c.open, c.batches_sampled);

  // A later manual publish at the final watermark closes them all.
  rec.on_view_published(engine.ingested_watermark(), engine.obs_now());
  EXPECT_EQ(rec.counts().open, 0u);
  EXPECT_EQ(rec.counts().completed, c.batches_sampled);
}

}  // namespace
}  // namespace remo::test
