// Write-path spans: request-level tracing from submission to readability.
//
// Every batch the serving plane's WriteGate admits gets a TraceId (the
// CauseId [origin:8][sequence:24] layout with a reserved origin, so span
// ids never collide with lineage causes) and a SpanRecorder entry that
// accumulates per-stage durations as the batch moves down the write path:
//
//   kQueue      submit() of the batch's oldest event -> pump pickup
//   kPartition  ConflictPartitioner::plan()
//   kDispatch   wave orchestration: fan-out, inter-wave barriers
//   kInject     the pumping thread's own Engine::inject_edge time
//   kDrain      admission complete -> an epoch cut covering the batch drains
//   kPublish    drain -> a StateView covering the batch is swapped in
//
// The sum — oldest submit to first readable view — is the batch's
// **write-to-readable freshness**, the serving plane's core SLO. Spans are
// closed by watermark comparison, not by identity: the gate stamps each
// span with the engine's ingested watermark right after its last
// injection, and every published view carries the watermark sampled before
// its cut, so "view watermark >= span watermark" proves the view contains
// the whole batch (events are counted into the watermark only after their
// in-flight registration, see Engine::sample_gauges()'s soundness note).
//
// Aggregation: freshness and per-stage LatencyHistograms (the shared
// log-bucketing of histogram.hpp), plus a ring of the most recent
// completed spans with their full milestone records. The tail report links
// each slow freshness bucket to an **exemplar** — the largest retained span
// in that bucket — so a slow percentile names a concrete traced batch.
// Completed spans also stream into an owned TraceBuffer as Perfetto flow
// slices (flow id = TraceId), exported alongside the engine's rank tracks.
// `remo_cli trace-analyze --tail` renders format_tail_report(): the
// per-stage attribution of p99+ write-to-readable latency.
//
// Threading: one mutex guards everything. Recording happens at batch
// granularity (a batch is hundreds-to-thousands of events), so the lock is
// far off the per-event hot path; the A/B budget for spans-on is ≤3%.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/histogram.hpp"
#include "obs/lineage.hpp"
#include "obs/trace.hpp"

namespace remo::obs {

/// Same 32-bit layout as CauseId; origin kSpanOrigin marks write-path
/// spans. 0 means "no span" (begin_batch dropped the batch: open table full).
using TraceId = CauseId;

/// Reserved origin byte for span TraceIds (kMainOrigin - 1; rank origins
/// are rank ids, far below).
inline constexpr std::uint32_t kSpanOrigin = 0xFE;

enum class WriteStage : std::uint8_t {
  kQueue = 0,
  kPartition,
  kDispatch,
  kInject,
  kDrain,
  kPublish,
};
inline constexpr std::size_t kWriteStageCount = 6;

const char* write_stage_name(WriteStage s) noexcept;

/// One batch's milestone record. All timestamps are engine-relative
/// (Engine::obs_now()); stages are durations.
struct WriteSpan {
  TraceId id = 0;
  std::uint64_t queued_ns = 0;     ///< oldest submit() in the batch
  std::uint64_t begin_ns = 0;      ///< pump pickup
  std::uint64_t admitted_ns = 0;   ///< last injection done, watermark stamped
  std::uint64_t drained_ns = 0;    ///< epoch cut covering the batch drained
  std::uint64_t published_ns = 0;  ///< covering view swapped in
  std::uint64_t watermark = 0;     ///< ingested watermark at admission
  std::uint64_t events = 0;
  std::uint32_t waves = 0;
  bool serial_fallback = false;
  std::array<std::uint64_t, kWriteStageCount> stage_ns{};
  std::uint64_t total_ns = 0;  ///< queued -> published (freshness)

  Json to_json() const;
};

/// Full recorder state (schema "remo-spans-1"): counters, the freshness
/// and per-stage histograms, and the retained completed spans (oldest
/// first) that the tail report draws its exemplars from.
struct SpanSnapshot {
  std::uint64_t batches_seen = 0;     ///< begin_batch calls
  std::uint64_t batches_sampled = 0;  ///< spans opened
  std::uint64_t completed = 0;        ///< spans closed (published)
  std::uint64_t open = 0;             ///< spans still in flight at snapshot
  std::uint64_t dropped_open = 0;     ///< batches dropped (open-table full)
  std::uint64_t evicted = 0;          ///< completed spans evicted from the ring
  HistogramSnapshot freshness;
  std::array<HistogramSnapshot, kWriteStageCount> stages;
  std::vector<WriteSpan> spans;

  Json to_json() const;
  static bool from_json(const Json& doc, SpanSnapshot& out, std::string* error);
};

/// Open spans beyond this are dropped at begin_batch (counted). Bounds
/// memory if views stop publishing while writes continue.
inline constexpr std::size_t kSpanMaxOpen = 4096;
/// Completed spans retained for the tail report's exemplars.
inline constexpr std::size_t kSpanHistory = 4096;
/// Perfetto flow-slice ring capacity (4 slices per completed span).
inline constexpr std::size_t kSpanTraceCapacity = std::size_t{1} << 14;

/// Cheap live summary for gauge sampling (no span copies).
struct SpanCounts {
  std::uint64_t batches_seen = 0;
  std::uint64_t batches_sampled = 0;
  std::uint64_t completed = 0;
  std::uint64_t open = 0;
  std::uint64_t dropped_open = 0;
  std::uint64_t freshness_p50_ns = 0;
  std::uint64_t freshness_p99_ns = 0;
};

/// Spans every batch: batches are coarse, so that is affordable, and it is
/// the configuration the ≤3% A/B budget is measured at.
class SpanRecorder {
 public:
  SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // --- Gate side (the pumping thread) -------------------------------------

  /// Open a span for a batch picked up at `now_ns` whose oldest event was
  /// submitted at `queued_ns`. Returns 0 when the open table is full;
  /// callers skip further calls on 0. kQueue is recorded here.
  TraceId begin_batch(std::uint64_t queued_ns, std::uint64_t now_ns);

  /// Add `dur_ns` to one stage of an open span (kPartition/kDispatch/kInject).
  void stage(TraceId id, WriteStage s, std::uint64_t dur_ns);

  /// The batch's last injection returned: stamp the admission watermark
  /// (see file comment for why watermark comparison closes spans soundly).
  /// `watermark` must be nonzero — it is at least the batch's own injected
  /// events — and a nonzero watermark is what marks the span admitted.
  void record_admitted(TraceId id, std::uint64_t watermark, std::uint64_t now_ns,
                       std::uint64_t events, std::uint32_t waves,
                       bool serial_fallback);

  // --- Engine / serving side ----------------------------------------------

  /// An epoch cut with ingested watermark `watermark` finished draining at
  /// `ns` (Engine epoch-drain hook). Closes kDrain for covered spans.
  void on_epoch_drained(std::uint64_t watermark, std::uint64_t ns);

  /// A view with watermark `watermark` became readable at `ns`. Completes
  /// every covered span (recording kDrain at the publish instant when no
  /// drain notification arrived first — conservative by at most the gap
  /// between the two, which the same publish bounds).
  void on_view_published(std::uint64_t watermark, std::uint64_t ns);

  // --- Read side ----------------------------------------------------------

  SpanCounts counts() const;
  SpanSnapshot snapshot() const;

  /// The completed spans' flow slices as one exportable track (pass to
  /// Engine::write_trace as an extra track).
  TraceTrack trace_track(std::uint32_t tid) const;

 private:
  void complete_locked(WriteSpan span, std::uint64_t published_ns);

  mutable std::mutex mu_;
  std::uint32_t next_seq_ = 1;
  std::uint64_t batches_seen_ = 0;
  std::uint64_t batches_sampled_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_open_ = 0;
  std::uint64_t evicted_ = 0;
  std::vector<WriteSpan> open_;
  std::deque<WriteSpan> done_;
  LatencyHistogram freshness_;
  std::array<LatencyHistogram, kWriteStageCount> stages_;
  TraceBuffer trace_;
};

/// The `trace-analyze --tail` report: freshness percentiles, per-stage
/// attribution over the spans at or above `tail_percentile`, and one
/// exemplar per tail freshness bucket: the largest retained span in it,
/// the earliest on ties (deterministic under replay).
std::string format_tail_report(const SpanSnapshot& snap,
                               double tail_percentile = 99.0);

}  // namespace remo::obs
