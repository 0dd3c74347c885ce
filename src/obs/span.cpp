#include "obs/span.hpp"

#include <algorithm>
#include <map>

#include "common/strfmt.hpp"

namespace remo::obs {

const char* write_stage_name(WriteStage s) noexcept {
  switch (s) {
    case WriteStage::kQueue: return "queue";
    case WriteStage::kPartition: return "partition";
    case WriteStage::kDispatch: return "dispatch";
    case WriteStage::kInject: return "inject";
    case WriteStage::kDrain: return "drain";
    case WriteStage::kPublish: return "publish";
  }
  return "?";
}

namespace {

std::uint64_t json_u64(const Json& j, const char* key) {
  const Json* f = j.find(key);
  return f && f->is_number() ? f->as_uint() : 0;
}

// A remo-spans-1 histogram: the percentile summary plus the nonempty
// buckets as [index, count] pairs, so a reader can recompute any
// percentile.
Json histogram_json(const HistogramSnapshot& hist) {
  Json j = Json::object();
  j["count"] = hist.count;
  j["sum_ns"] = hist.sum;
  j["min_ns"] = hist.empty() ? 0 : hist.min;
  j["max_ns"] = hist.max;
  j["p50_ns"] = hist.p50();
  j["p90_ns"] = hist.p90();
  j["p99_ns"] = hist.p99();
  j["p999_ns"] = hist.p999();
  Json buckets = Json::array();
  for (std::uint32_t b = 0; b < hist.counts.size(); ++b) {
    if (hist.counts[b] == 0) continue;
    Json pair = Json::array();
    pair.push_back(std::uint64_t{b});
    pair.push_back(hist.counts[b]);
    buckets.push_back(std::move(pair));
  }
  j["buckets"] = std::move(buckets);
  return j;
}

bool parse_histogram(const Json& doc, HistogramSnapshot& out,
                     std::string* error) {
  const auto fail = [&](const char* msg) {
    if (error) *error = msg;
    return false;
  };
  if (!doc.is_object()) return fail("histogram entry is not an object");
  out = HistogramSnapshot{};
  out.count = json_u64(doc, "count");
  out.sum = json_u64(doc, "sum_ns");
  out.max = json_u64(doc, "max_ns");
  out.min = out.count ? json_u64(doc, "min_ns") : ~std::uint64_t{0};
  if (const Json* buckets = doc.find("buckets"); buckets && buckets->is_array()) {
    for (const Json& pair : buckets->items()) {
      if (!pair.is_array() || pair.size() != 2) return fail("malformed bucket pair");
      const auto b = static_cast<std::uint32_t>(pair.items()[0].as_uint());
      if (b >= hist_detail::kBucketCount) return fail("bucket index out of range");
      if (out.counts.empty()) out.counts.assign(hist_detail::kBucketCount, 0);
      out.counts[b] = pair.items()[1].as_uint();
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// WriteSpan / SpanSnapshot JSON
// ---------------------------------------------------------------------------

Json WriteSpan::to_json() const {
  Json j = Json::object();
  j["trace"] = std::uint64_t{id};
  j["queued_ns"] = queued_ns;
  j["begin_ns"] = begin_ns;
  j["admitted_ns"] = admitted_ns;
  j["drained_ns"] = drained_ns;
  j["published_ns"] = published_ns;
  j["watermark"] = watermark;
  j["events"] = events;
  j["waves"] = std::uint64_t{waves};
  j["serial_fallback"] = serial_fallback;
  j["total_ns"] = total_ns;
  Json stages = Json::object();
  for (std::size_t s = 0; s < kWriteStageCount; ++s)
    stages[write_stage_name(static_cast<WriteStage>(s))] = stage_ns[s];
  j["stages"] = std::move(stages);
  return j;
}

Json SpanSnapshot::to_json() const {
  Json j = Json::object();
  j["schema"] = "remo-spans-1";
  j["batches_seen"] = batches_seen;
  j["batches_sampled"] = batches_sampled;
  j["completed"] = completed;
  j["open"] = open;
  j["dropped_open"] = dropped_open;
  j["evicted"] = evicted;
  j["freshness"] = histogram_json(freshness);
  Json stages = Json::object();
  for (std::size_t s = 0; s < kWriteStageCount; ++s)
    stages[write_stage_name(static_cast<WriteStage>(s))] =
        histogram_json(this->stages[s]);
  j["stages"] = std::move(stages);
  Json spans_json = Json::array();
  for (const WriteSpan& s : spans) spans_json.push_back(s.to_json());
  j["spans"] = std::move(spans_json);
  return j;
}

bool SpanSnapshot::from_json(const Json& doc, SpanSnapshot& out,
                             std::string* error) {
  const auto fail = [&](const char* msg) {
    if (error) *error = msg;
    return false;
  };
  const Json* schema = doc.find("schema");
  if (!schema || !schema->is_string() || schema->as_string() != "remo-spans-1")
    return fail("not a remo-spans-1 document");
  out = SpanSnapshot{};
  out.batches_seen = json_u64(doc, "batches_seen");
  out.batches_sampled = json_u64(doc, "batches_sampled");
  out.completed = json_u64(doc, "completed");
  out.open = json_u64(doc, "open");
  out.dropped_open = json_u64(doc, "dropped_open");
  out.evicted = json_u64(doc, "evicted");
  if (const Json* f = doc.find("freshness"))
    if (!parse_histogram(*f, out.freshness, error)) return false;
  if (const Json* stages = doc.find("stages"); stages && stages->is_object()) {
    for (std::size_t s = 0; s < kWriteStageCount; ++s) {
      const Json* js = stages->find(write_stage_name(static_cast<WriteStage>(s)));
      if (js && !parse_histogram(*js, out.stages[s], error)) return false;
    }
  }
  if (const Json* spans = doc.find("spans"); spans && spans->is_array()) {
    for (const Json& js : spans->items()) {
      if (!js.is_object()) return fail("span entry is not an object");
      WriteSpan w;
      w.id = static_cast<TraceId>(json_u64(js, "trace"));
      if (w.id == 0) return fail("span entry without a trace id");
      w.queued_ns = json_u64(js, "queued_ns");
      w.begin_ns = json_u64(js, "begin_ns");
      w.admitted_ns = json_u64(js, "admitted_ns");
      w.drained_ns = json_u64(js, "drained_ns");
      w.published_ns = json_u64(js, "published_ns");
      w.watermark = json_u64(js, "watermark");
      w.events = json_u64(js, "events");
      w.waves = static_cast<std::uint32_t>(json_u64(js, "waves"));
      if (const Json* sf = js.find("serial_fallback"))
        w.serial_fallback = sf->is_bool() && sf->as_bool();
      w.total_ns = json_u64(js, "total_ns");
      if (const Json* st = js.find("stages"); st && st->is_object())
        for (std::size_t s = 0; s < kWriteStageCount; ++s)
          w.stage_ns[s] = json_u64(*st, write_stage_name(static_cast<WriteStage>(s)));
      out.spans.push_back(w);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------------

SpanRecorder::SpanRecorder() : trace_(kSpanTraceCapacity) {}

TraceId SpanRecorder::begin_batch(std::uint64_t queued_ns, std::uint64_t now_ns) {
  std::lock_guard guard(mu_);
  ++batches_seen_;
  if (open_.size() >= kSpanMaxOpen) {
    ++dropped_open_;
    return 0;
  }
  ++batches_sampled_;
  std::uint32_t seq = next_seq_;
  next_seq_ = (next_seq_ + 1) & kCauseSeqMask;
  if (next_seq_ == 0) next_seq_ = 1;
  WriteSpan span;
  span.id = make_cause(kSpanOrigin, seq);
  span.queued_ns = std::min(queued_ns, now_ns);
  span.begin_ns = now_ns;
  span.stage_ns[static_cast<std::size_t>(WriteStage::kQueue)] =
      now_ns - span.queued_ns;
  open_.push_back(span);
  return span.id;
}

void SpanRecorder::stage(TraceId id, WriteStage s, std::uint64_t dur_ns) {
  if (id == 0) return;
  std::lock_guard guard(mu_);
  // Newest-first: the pumping thread always touches the span it just opened.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->id != id) continue;
    it->stage_ns[static_cast<std::size_t>(s)] += dur_ns;
    return;
  }
}

void SpanRecorder::record_admitted(TraceId id, std::uint64_t watermark,
                                   std::uint64_t now_ns, std::uint64_t events,
                                   std::uint32_t waves, bool serial_fallback) {
  if (id == 0) return;
  std::lock_guard guard(mu_);
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->id != id) continue;
    it->admitted_ns = std::max(now_ns, it->begin_ns);
    it->watermark = watermark;
    it->events = events;
    it->waves = waves;
    it->serial_fallback = serial_fallback;
    return;
  }
}

void SpanRecorder::on_epoch_drained(std::uint64_t watermark, std::uint64_t ns) {
  std::lock_guard guard(mu_);
  for (WriteSpan& s : open_) {
    // watermark != 0 is the "admitted" marker: a real admission always
    // stamps the ingested count, which is >= the batch's own events (>= 1).
    // admitted_ns cannot serve — engine-relative time starts at 0.
    if (s.watermark == 0 || s.drained_ns != 0 || s.watermark > watermark)
      continue;
    s.drained_ns = std::max(ns, s.admitted_ns);
    s.stage_ns[static_cast<std::size_t>(WriteStage::kDrain)] =
        s.drained_ns - s.admitted_ns;
  }
}

void SpanRecorder::on_view_published(std::uint64_t watermark, std::uint64_t ns) {
  std::lock_guard guard(mu_);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < open_.size(); ++i) {
    WriteSpan& s = open_[i];
    if (s.watermark != 0 && s.watermark <= watermark) {
      complete_locked(s, ns);
      continue;
    }
    if (kept != i) open_[kept] = s;
    ++kept;
  }
  open_.resize(kept);
}

void SpanRecorder::complete_locked(WriteSpan span, std::uint64_t published_ns) {
  if (span.drained_ns == 0) {
    // No epoch-drain notification reached us before the covering view (the
    // hook is optional): charge the whole wait to kDrain at the publish
    // instant — conservative, and bounded by the same publish.
    span.drained_ns = std::max(published_ns, span.admitted_ns);
    span.stage_ns[static_cast<std::size_t>(WriteStage::kDrain)] =
        span.drained_ns - span.admitted_ns;
  }
  span.published_ns = std::max(published_ns, span.drained_ns);
  span.stage_ns[static_cast<std::size_t>(WriteStage::kPublish)] =
      span.published_ns - span.drained_ns;
  span.total_ns = span.published_ns - span.queued_ns;
  ++completed_;

  freshness_.record(span.total_ns);
  for (std::size_t s = 0; s < kWriteStageCount; ++s)
    stages_[s].record(span.stage_ns[s]);

  // Perfetto flow chain: queue -> admit -> drain -> publish, linked by the
  // TraceId so the whole write path of one batch lights up in the UI.
  trace_.emit_flow("wp:queue", span.queued_ns, span.begin_ns - span.queued_ns,
                   span.id, FlowPhase::kStart, "events", span.events);
  trace_.emit_flow("wp:admit", span.begin_ns, span.admitted_ns - span.begin_ns,
                   span.id, FlowPhase::kStep, "waves", span.waves);
  trace_.emit_flow("wp:drain", span.admitted_ns,
                   span.drained_ns - span.admitted_ns, span.id, FlowPhase::kStep);
  trace_.emit_flow("wp:publish", span.drained_ns,
                   span.published_ns - span.drained_ns, span.id, FlowPhase::kEnd,
                   "watermark", span.watermark);

  done_.push_back(span);
  while (done_.size() > kSpanHistory) {
    done_.pop_front();
    ++evicted_;
  }
}

SpanCounts SpanRecorder::counts() const {
  std::lock_guard guard(mu_);
  SpanCounts c;
  c.batches_seen = batches_seen_;
  c.batches_sampled = batches_sampled_;
  c.completed = completed_;
  c.open = open_.size();
  c.dropped_open = dropped_open_;
  const HistogramSnapshot freshness = freshness_.snapshot();
  c.freshness_p50_ns = freshness.p50();
  c.freshness_p99_ns = freshness.p99();
  return c;
}

SpanSnapshot SpanRecorder::snapshot() const {
  std::lock_guard guard(mu_);
  SpanSnapshot s;
  s.batches_seen = batches_seen_;
  s.batches_sampled = batches_sampled_;
  s.completed = completed_;
  s.open = open_.size();
  s.dropped_open = dropped_open_;
  s.evicted = evicted_;
  s.freshness = freshness_.snapshot();
  for (std::size_t i = 0; i < kWriteStageCount; ++i)
    s.stages[i] = stages_[i].snapshot();
  s.spans.assign(done_.begin(), done_.end());
  return s;
}

TraceTrack SpanRecorder::trace_track(std::uint32_t tid) const {
  std::lock_guard guard(mu_);
  return TraceTrack{"write-path spans", tid, trace_.events()};
}

// ---------------------------------------------------------------------------
// Tail attribution report
// ---------------------------------------------------------------------------

namespace {

std::string ms_str(std::uint64_t ns) {
  return strfmt("%.3fms", static_cast<double>(ns) / 1e6);
}

std::string ms_str(double ns) { return strfmt("%.3fms", ns / 1e6); }

}  // namespace

std::string format_tail_report(const SpanSnapshot& snap, double tail_percentile) {
  std::string out;
  const HistogramSnapshot& h = snap.freshness;
  out += strfmt(
      "write-to-readable freshness: %llu batches completed (%llu sampled, "
      "%llu still open, %llu dropped)\n",
      static_cast<unsigned long long>(snap.completed),
      static_cast<unsigned long long>(snap.batches_sampled),
      static_cast<unsigned long long>(snap.open),
      static_cast<unsigned long long>(snap.dropped_open));
  if (h.empty()) {
    out += "  no completed spans — nothing to attribute\n";
    return out;
  }
  out += strfmt("  p50 %s  p90 %s  p99 %s  p99.9 %s  max %s\n",
                ms_str(h.p50()).c_str(), ms_str(h.p90()).c_str(),
                ms_str(h.p99()).c_str(), ms_str(h.p999()).c_str(),
                ms_str(h.max).c_str());

  const std::uint64_t threshold = h.percentile(tail_percentile);
  std::vector<const WriteSpan*> tail;
  for (const WriteSpan& s : snap.spans)
    if (s.total_ns >= threshold) tail.push_back(&s);
  out += strfmt("\ntail: spans at or above p%.4g = %s (%zu of %zu retained%s)\n",
                tail_percentile, ms_str(threshold).c_str(), tail.size(),
                snap.spans.size(),
                snap.evicted ? strfmt(", %llu evicted",
                                      static_cast<unsigned long long>(snap.evicted))
                                   .c_str()
                             : "");

  if (!tail.empty()) {
    double total_mean = 0.0;
    std::array<double, kWriteStageCount> stage_mean{};
    for (const WriteSpan* s : tail) {
      total_mean += static_cast<double>(s->total_ns);
      for (std::size_t i = 0; i < kWriteStageCount; ++i)
        stage_mean[i] += static_cast<double>(s->stage_ns[i]);
    }
    total_mean /= static_cast<double>(tail.size());
    for (auto& m : stage_mean) m /= static_cast<double>(tail.size());

    out += strfmt("\n%-10s %12s %8s %12s %12s\n", "stage", "tail mean", "share",
                  "overall p50", "overall p99");
    for (std::size_t i = 0; i < kWriteStageCount; ++i) {
      const HistogramSnapshot& sh = snap.stages[i];
      const double share =
          total_mean > 0.0 ? 100.0 * stage_mean[i] / total_mean : 0.0;
      out += strfmt("%-10s %12s %7.1f%% %12s %12s\n",
                    write_stage_name(static_cast<WriteStage>(i)),
                    ms_str(stage_mean[i]).c_str(), share,
                    ms_str(sh.p50()).c_str(), ms_str(sh.p99()).c_str());
    }
    out += strfmt("%-10s %12s\n", "total", ms_str(total_mean).c_str());
  }

  // Buckets that can hold the threshold or anything larger, ascending.
  // Strict > keeps the earliest of equal spans.
  std::map<std::uint32_t, const WriteSpan*> exemplars;
  for (const WriteSpan& s : snap.spans) {
    const std::uint32_t b = hist_detail::bucket_of(s.total_ns);
    if (hist_detail::bucket_upper(b) <= threshold) continue;
    const WriteSpan*& e = exemplars[b];
    if (e == nullptr || s.total_ns > e->total_ns) e = &s;
  }
  out += strfmt("\nexemplars (p%.4g+ buckets):\n", tail_percentile);
  if (exemplars.empty()) out += "  none\n";
  for (const auto& [b, s] : exemplars) {
    out += strfmt("  bucket [%s, %s) trace 0x%08x value %s",
                  ms_str(hist_detail::bucket_lower(b)).c_str(),
                  ms_str(hist_detail::bucket_upper(b)).c_str(), s->id,
                  ms_str(s->total_ns).c_str());
    out += strfmt("\n    span: events=%llu waves=%u%s",
                  static_cast<unsigned long long>(s->events), s->waves,
                  s->serial_fallback ? " (serial fallback)" : "");
    for (std::size_t i = 0; i < kWriteStageCount; ++i)
      out += strfmt(" %s=%s", write_stage_name(static_cast<WriteStage>(i)),
                    ms_str(s->stage_ns[i]).c_str());
    out += "\n";
  }
  return out;
}

}  // namespace remo::obs
