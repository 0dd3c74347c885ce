// Write-path span recorder: scripted batch timelines, watermark-based
// closing, overflow accounting, JSON round-trips, and the tail-attribution
// report with its exemplars (docs/OBSERVABILITY.md "Write-path spans").
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/span.hpp"

namespace remo::obs::test {
namespace {

// --- SpanRecorder: scripted timelines --------------------------------------

TEST(SpanRecorder, FullLifecycleRecordsEveryStage) {
  SpanRecorder rec;
  // queued at 100, picked up at 150 -> kQueue = 50.
  const TraceId id = rec.begin_batch(100, 150);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(cause_origin(id), kSpanOrigin);
  rec.stage(id, WriteStage::kPartition, 10);
  rec.stage(id, WriteStage::kDispatch, 20);
  rec.stage(id, WriteStage::kInject, 30);
  rec.record_admitted(id, /*watermark=*/500, /*now_ns=*/210, /*events=*/64,
                      /*waves=*/3, /*serial_fallback=*/false);
  rec.on_epoch_drained(/*watermark=*/500, /*ns=*/300);
  rec.on_view_published(/*watermark=*/500, /*ns=*/320);

  const SpanSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.batches_sampled, 1u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.open, 0u);
  ASSERT_EQ(snap.spans.size(), 1u);
  const WriteSpan& s = snap.spans[0];
  EXPECT_EQ(s.id, id);
  EXPECT_EQ(s.queued_ns, 100u);
  EXPECT_EQ(s.begin_ns, 150u);
  EXPECT_EQ(s.admitted_ns, 210u);
  EXPECT_EQ(s.drained_ns, 300u);
  EXPECT_EQ(s.published_ns, 320u);
  EXPECT_EQ(s.events, 64u);
  EXPECT_EQ(s.waves, 3u);
  EXPECT_FALSE(s.serial_fallback);
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kQueue)], 50u);
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kPartition)], 10u);
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kDispatch)], 20u);
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kInject)], 30u);
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kDrain)], 90u);    // 300-210
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kPublish)], 20u);  // 320-300
  EXPECT_EQ(s.total_ns, 220u);  // 320 - 100: write-to-readable freshness
  EXPECT_EQ(snap.freshness.count, 1u);
  // Milestones are monotone by construction.
  EXPECT_LE(s.queued_ns, s.begin_ns);
  EXPECT_LE(s.begin_ns, s.admitted_ns);
  EXPECT_LE(s.admitted_ns, s.drained_ns);
  EXPECT_LE(s.drained_ns, s.published_ns);
}

TEST(SpanRecorder, PublishWithoutDrainChargesWaitToDrainStage) {
  SpanRecorder rec;
  const TraceId id = rec.begin_batch(0, 0);
  rec.record_admitted(id, 100, /*now_ns=*/10, 8, 1, false);
  // No epoch-drain notification: the covering publish closes the span and
  // the whole admitted->publish wait lands on kDrain.
  rec.on_view_published(/*watermark=*/100, /*ns=*/50);
  const SpanSnapshot snap = rec.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].stage_ns[static_cast<int>(WriteStage::kDrain)], 40u);
  EXPECT_EQ(snap.spans[0].stage_ns[static_cast<int>(WriteStage::kPublish)], 0u);
  EXPECT_EQ(snap.spans[0].total_ns, 50u);
}

TEST(SpanRecorder, WatermarkComparisonClosesOnlyCoveredSpans) {
  SpanRecorder rec;
  const TraceId a = rec.begin_batch(0, 0);
  rec.record_admitted(a, /*watermark=*/100, 10, 8, 1, false);
  const TraceId b = rec.begin_batch(0, 20);
  rec.record_admitted(b, /*watermark=*/200, 30, 8, 1, false);

  rec.on_view_published(/*watermark=*/150, /*ns=*/40);  // covers a, not b
  SpanCounts c = rec.counts();
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.open, 1u);
  SpanSnapshot snap = rec.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);  // b is still open
  EXPECT_EQ(snap.spans[0].id, a);

  rec.on_view_published(/*watermark=*/200, /*ns=*/60);
  c = rec.counts();
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.open, 0u);
  snap = rec.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans[1].id, b);
}

TEST(SpanRecorder, UnadmittedSpansSurvivePublishes) {
  SpanRecorder rec;
  const TraceId id = rec.begin_batch(0, 0);
  ASSERT_NE(id, 0u);
  // Still mid-dispatch (no record_admitted): a publish must not close it.
  rec.on_view_published(~std::uint64_t{0}, 100);
  EXPECT_EQ(rec.counts().open, 1u);
  EXPECT_EQ(rec.counts().completed, 0u);
}

TEST(SpanRecorder, EveryBatchGetsASpan) {
  SpanRecorder rec;
  for (int i = 0; i < 16; ++i)
    EXPECT_NE(rec.begin_batch(0, static_cast<std::uint64_t>(i)), 0u);
  const SpanCounts c = rec.counts();
  EXPECT_EQ(c.batches_seen, 16u);
  EXPECT_EQ(c.batches_sampled, 16u);
}

// Completes span `i` of a scripted run: admitted with watermark i + 1 and
// published right after.
TraceId complete_one(SpanRecorder& rec, std::uint64_t i) {
  const TraceId id = rec.begin_batch(0, i);
  rec.record_admitted(id, i + 1, i, 1, 1, false);
  rec.on_view_published(i + 1, 10 + i);
  return id;
}

TEST(SpanRecorder, OpenTableOverflowDropsAndCounts) {
  SpanRecorder rec;
  for (std::size_t i = 0; i < kSpanMaxOpen; ++i)
    ASSERT_NE(rec.begin_batch(0, i), 0u);
  EXPECT_EQ(rec.begin_batch(0, kSpanMaxOpen), 0u);  // table full
  const SpanCounts c = rec.counts();
  EXPECT_EQ(c.batches_seen, kSpanMaxOpen + 1);
  EXPECT_EQ(c.open, kSpanMaxOpen);
  EXPECT_EQ(c.dropped_open, 1u);
  // Zero-id calls are no-ops, not crashes.
  rec.stage(0, WriteStage::kInject, 5);
  rec.record_admitted(0, 1, 1, 1, 1, false);
}

TEST(SpanRecorder, HistoryRingEvictsOldestCompleted) {
  SpanRecorder rec;
  std::vector<TraceId> ids;
  for (std::size_t i = 0; i <= kSpanHistory; ++i) ids.push_back(complete_one(rec, i));
  const SpanSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.completed, kSpanHistory + 1);
  EXPECT_EQ(snap.evicted, 1u);
  ASSERT_EQ(snap.spans.size(), kSpanHistory);
  // Oldest first: the first span was evicted.
  EXPECT_EQ(snap.spans.front().id, ids[1]);
  EXPECT_EQ(snap.spans.back().id, ids.back());
  // Freshness histogram keeps every span — eviction only affects the ring.
  EXPECT_EQ(snap.freshness.count, kSpanHistory + 1);
}

TEST(SpanRecorder, TraceIdsAreUniqueAndSpanOriginated) {
  SpanRecorder rec;
  std::vector<TraceId> ids;
  for (int i = 0; i < 100; ++i) {
    const TraceId id = rec.begin_batch(0, static_cast<std::uint64_t>(i));
    ASSERT_NE(id, 0u);
    EXPECT_EQ(cause_origin(id), kSpanOrigin);
    for (const TraceId prev : ids) EXPECT_NE(id, prev);
    ids.push_back(id);
  }
}

TEST(SpanRecorder, SnapshotJsonRoundTrip) {
  SpanRecorder rec;
  for (int i = 0; i < 5; ++i) {
    const TraceId id = rec.begin_batch(static_cast<std::uint64_t>(i * 10),
                                       static_cast<std::uint64_t>(i * 10 + 5));
    rec.stage(id, WriteStage::kPartition, 3);
    rec.record_admitted(id, static_cast<std::uint64_t>((i + 1) * 100),
                        static_cast<std::uint64_t>(i * 10 + 9), 32, 2, i == 0);
  }
  rec.on_epoch_drained(500, 90);
  rec.on_view_published(500, 100);

  const SpanSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.completed, 5u);
  std::string error;
  SpanSnapshot back;
  ASSERT_TRUE(SpanSnapshot::from_json(snap.to_json(), back, &error)) << error;
  EXPECT_EQ(back.batches_seen, snap.batches_seen);
  EXPECT_EQ(back.batches_sampled, snap.batches_sampled);
  EXPECT_EQ(back.completed, snap.completed);
  EXPECT_EQ(back.open, snap.open);
  EXPECT_EQ(back.freshness.count, snap.freshness.count);
  EXPECT_EQ(back.freshness.sum, snap.freshness.sum);
  EXPECT_EQ(back.freshness.min, snap.freshness.min);
  EXPECT_EQ(back.freshness.max, snap.freshness.max);
  EXPECT_EQ(back.freshness.p50(), snap.freshness.p50());
  EXPECT_EQ(back.freshness.p99(), snap.freshness.p99());
  ASSERT_EQ(back.spans.size(), snap.spans.size());
  for (std::size_t i = 0; i < back.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].id, snap.spans[i].id);
    EXPECT_EQ(back.spans[i].total_ns, snap.spans[i].total_ns);
    EXPECT_EQ(back.spans[i].stage_ns, snap.spans[i].stage_ns);
    EXPECT_EQ(back.spans[i].serial_fallback, snap.spans[i].serial_fallback);
  }
  for (std::size_t st = 0; st < kWriteStageCount; ++st) {
    EXPECT_EQ(back.stages[st].count, snap.stages[st].count);
    EXPECT_EQ(back.stages[st].p99(), snap.stages[st].p99());
  }
}

TEST(SpanRecorder, FromJsonRejectsWrongSchema) {
  Json doc = Json::object();
  doc["schema"] = std::string("remo-lineage-1");
  SpanSnapshot out;
  std::string error;
  EXPECT_FALSE(SpanSnapshot::from_json(doc, out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SpanRecorder, TraceTrackEmitsFlowChainPerCompletedSpan) {
  SpanRecorder rec;
  const TraceId id = rec.begin_batch(0, 10);
  rec.record_admitted(id, 100, 20, 8, 1, false);
  rec.on_epoch_drained(100, 30);
  rec.on_view_published(100, 40);
  const TraceTrack track = rec.trace_track(/*tid=*/9);
  EXPECT_EQ(track.tid, 9u);
  ASSERT_EQ(track.events.size(), 4u);
  EXPECT_STREQ(track.events[0].name, "wp:queue");
  EXPECT_STREQ(track.events[1].name, "wp:admit");
  EXPECT_STREQ(track.events[2].name, "wp:drain");
  EXPECT_STREQ(track.events[3].name, "wp:publish");
  for (const TraceEvent& e : track.events) {
    EXPECT_EQ(e.flow_id, id);
    EXPECT_NE(e.flow, FlowPhase::kNone);
  }
  EXPECT_EQ(track.events[0].flow, FlowPhase::kStart);
  EXPECT_EQ(track.events[3].flow, FlowPhase::kEnd);
}

// --- Tail report ------------------------------------------------------------

TEST(TailReport, AttributesStagesAndResolvesExemplars) {
  SpanRecorder rec;
  // 20 fast spans and one slow outlier dominated by drain.
  for (int i = 0; i < 20; ++i) {
    const TraceId id = rec.begin_batch(static_cast<std::uint64_t>(i * 1000),
                                       static_cast<std::uint64_t>(i * 1000 + 10));
    rec.stage(id, WriteStage::kPartition, 5);
    rec.stage(id, WriteStage::kInject, 20);
    rec.record_admitted(id, static_cast<std::uint64_t>(i + 1),
                        static_cast<std::uint64_t>(i * 1000 + 40), 16, 1,
                        false);
    rec.on_epoch_drained(static_cast<std::uint64_t>(i + 1),
                         static_cast<std::uint64_t>(i * 1000 + 60));
    rec.on_view_published(static_cast<std::uint64_t>(i + 1),
                          static_cast<std::uint64_t>(i * 1000 + 80));
  }
  const TraceId slow = rec.begin_batch(100'000, 100'010);
  rec.stage(slow, WriteStage::kPartition, 5);
  rec.record_admitted(slow, 1000, 100'040, 16, 1, false);
  rec.on_epoch_drained(1000, 1'100'000);  // ~1 ms drain
  rec.on_view_published(1000, 1'100'100);

  const SpanSnapshot snap = rec.snapshot();
  const std::string report = format_tail_report(snap, 99.0);
  // The per-stage table names every stage.
  for (std::size_t i = 0; i < kWriteStageCount; ++i)
    EXPECT_NE(report.find(write_stage_name(static_cast<WriteStage>(i))),
              std::string::npos)
        << report;
  // Drain dominates the tail, and the slow span's trace id appears as a
  // resolvable exemplar with its full breakdown.
  char idbuf[16];
  std::snprintf(idbuf, sizeof idbuf, "0x%08x", slow);
  EXPECT_NE(report.find(idbuf), std::string::npos) << report;
  EXPECT_NE(report.find("drain"), std::string::npos);
  EXPECT_NE(report.find("exemplars"), std::string::npos);
}

// The exemplar lines of a tail report: "  bucket [lo, hi) trace 0x.. ...".
std::vector<std::string> exemplar_lines(const std::string& report) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = report.find("\n  bucket [", pos)) != std::string::npos) {
    ++pos;
    out.push_back(report.substr(pos, report.find('\n', pos) - pos));
  }
  return out;
}

std::string trace_hex(TraceId id) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", id);
  return buf;
}

// Spans with freshness `total_ns` each, completed in order.
SpanSnapshot spans_with_freshness(const std::vector<std::uint64_t>& totals,
                                  std::vector<TraceId>& ids) {
  SpanRecorder rec;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const TraceId id = rec.begin_batch(0, 0);
    rec.record_admitted(id, i + 1, 0, 1, 1, false);
    rec.on_view_published(i + 1, totals[i]);
    ids.push_back(id);
  }
  return rec.snapshot();
}

TEST(TailReport, ExemplarIsLargestSpanInItsBucket) {
  std::vector<TraceId> ids;
  // Same log bucket (values this close share one), different traces.
  const SpanSnapshot snap = spans_with_freshness({1000, 1010, 1005}, ids);
  const auto lines = exemplar_lines(format_tail_report(snap, 50.0));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find(trace_hex(ids[1])), std::string::npos) << lines[0];
}

TEST(TailReport, ExemplarTieKeepsEarliestSpan) {
  std::vector<TraceId> ids;
  const SpanSnapshot snap = spans_with_freshness({500, 500}, ids);
  const auto lines = exemplar_lines(format_tail_report(snap, 50.0));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find(trace_hex(ids[0])), std::string::npos) << lines[0];
}

TEST(TailReport, ExemplarsCoverOnlyTailBuckets) {
  std::vector<TraceId> ids;
  const SpanSnapshot snap =
      spans_with_freshness({100, 10'000, 1'000'000}, ids);
  // p50 falls in 10'000's bucket: it and the 1 ms bucket are the tail,
  // listed bucket-ascending.
  const auto lines = exemplar_lines(format_tail_report(snap, 50.0));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find(trace_hex(ids[1])), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find(trace_hex(ids[2])), std::string::npos) << lines[1];
}

// Once the slowest span has left the ring, its bucket's exemplar is the
// largest span still retained there.
TEST(TailReport, EvictedExemplarFallsBackToLargestRetainedSpan) {
  SpanRecorder rec;
  const TraceId slow = rec.begin_batch(0, 0);
  rec.record_admitted(slow, 1, 0, 1, 1, false);
  rec.on_view_published(1, 1'000'010);
  // A ring's worth of fast spans evicts it; the last one shares its bucket.
  TraceId retained = 0;
  for (std::size_t i = 1; i <= kSpanHistory; ++i) {
    const std::uint64_t t = i * 2'000'000;
    retained = rec.begin_batch(t, t);
    rec.record_admitted(retained, i + 1, t, 1, 1, false);
    rec.on_view_published(i + 1, t + (i == kSpanHistory ? 1'000'000 : 10));
  }
  const SpanSnapshot snap = rec.snapshot();
  ASSERT_EQ(snap.evicted, 1u);
  ASSERT_NE(snap.spans.front().id, slow);
  const std::string report = format_tail_report(snap, 99.0);
  const auto lines = exemplar_lines(report);
  ASSERT_EQ(lines.size(), 2u) << report;  // the 10 ns bucket, then the slow one
  EXPECT_NE(lines[1].find(trace_hex(retained)), std::string::npos) << report;
  EXPECT_NE(lines[1].find("value 1.000ms"), std::string::npos) << report;
  EXPECT_EQ(report.find(trace_hex(slow)), std::string::npos) << report;
}

TEST(TailReport, EmptySnapshotDoesNotCrash) {
  const SpanSnapshot snap;
  const std::string report = format_tail_report(snap);
  EXPECT_NE(report.find("0 batches"), std::string::npos) << report;
}

}  // namespace
}  // namespace remo::obs::test
