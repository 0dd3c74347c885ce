#include "serve/write_gate.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/span.hpp"

namespace remo::serve {

namespace {

/// Waves narrower than this run inline on the pumping thread (fan-out
/// overhead would exceed the win). Skewed batches degrade gracefully: a
/// hub vertex's long conflict chain becomes a tail of narrow waves that
/// inject inline while the wide head waves still fan out.
constexpr std::size_t kMinWaveParallel = 4;
/// Whole-batch fallback: when the mean events-per-wave drops below this
/// (conflict-dominated batch, e.g. one pair's history), wave barriers
/// would serialise admission anyway, so the batch is injected serially
/// in-order instead.
constexpr double kMinOccupancy = 2.0;

}  // namespace

Json WriteGateStats::to_json() const {
  Json j = Json::object();
  j["events_submitted"] = events_submitted;
  j["events_dispatched"] = events_dispatched;
  j["batches"] = batches;
  j["waves"] = waves;
  j["parallel_waves"] = parallel_waves;
  j["serial_fallback_batches"] = serial_fallback_batches;
  j["max_wave_size"] = max_wave_size;
  j["mean_wave_occupancy"] = mean_wave_occupancy;
  return j;
}

WriteGate::WriteGate(Engine& engine, WriteGateConfig cfg)
    : engine_(engine), cfg_(cfg) {
  REMO_CHECK(cfg_.batch_limit > 0);
  REMO_CHECK(cfg_.dispatch_threads > 0);
}

WriteGate::~WriteGate() {
  flush();
  {
    std::lock_guard guard(work_mutex_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void WriteGate::submit(const EdgeEvent& e) {
  std::unique_lock guard(pending_mutex_);
  if (cfg_.spans && pending_.empty()) pending_oldest_ns_ = engine_.obs_now();
  pending_.push_back(e);
  {
    std::lock_guard stats_guard(stats_mutex_);
    ++stats_.events_submitted;
  }
  if (pending_.size() >= cfg_.batch_limit && !pump_active_) pump_locked(guard);
}

void WriteGate::submit_batch(const std::vector<EdgeEvent>& events) {
  std::unique_lock guard(pending_mutex_);
  if (cfg_.spans && pending_.empty() && !events.empty())
    pending_oldest_ns_ = engine_.obs_now();
  pending_.insert(pending_.end(), events.begin(), events.end());
  {
    std::lock_guard stats_guard(stats_mutex_);
    stats_.events_submitted += events.size();
  }
  if (pending_.size() >= cfg_.batch_limit && !pump_active_) pump_locked(guard);
}

std::size_t WriteGate::flush() {
  std::unique_lock guard(pending_mutex_);
  std::size_t dispatched = 0;
  for (;;) {
    if (pump_active_) {
      // Another thread is pumping: wait for it, then re-check — events it
      // admits were submitted before ours, so order is preserved.
      pump_cv_.wait(guard, [this] { return !pump_active_; });
      continue;
    }
    if (pending_.empty()) return dispatched;
    dispatched += pump_locked(guard);
  }
}

std::size_t WriteGate::pump_locked(std::unique_lock<std::mutex>& guard) {
  // Precondition: guard holds pending_mutex_ and no pump is active. A
  // single pump at a time keeps batch admission in submission order.
  pump_active_ = true;
  std::size_t dispatched = 0;
  std::vector<EdgeEvent> local, chunk;
  while (!pending_.empty()) {
    local.clear();
    local.swap(pending_);
    // Every chunk of this swap inherits the swap's oldest-submit stamp —
    // later chunks have waited at least that long, so kQueue never
    // under-reports.
    const std::uint64_t queued_ns = pending_oldest_ns_;
    pending_oldest_ns_ = 0;
    guard.unlock();
    for (std::size_t off = 0; off < local.size(); off += cfg_.batch_limit) {
      const std::size_t n = std::min(cfg_.batch_limit, local.size() - off);
      chunk.assign(local.begin() + static_cast<std::ptrdiff_t>(off),
                   local.begin() + static_cast<std::ptrdiff_t>(off + n));
      dispatch_batch(chunk, queued_ns);
    }
    dispatched += local.size();
    guard.lock();
  }
  pump_active_ = false;
  pump_cv_.notify_all();
  return dispatched;
}

void WriteGate::dispatch_batch(const std::vector<EdgeEvent>& batch,
                               std::uint64_t queued_ns) {
  if (batch.empty()) return;
  obs::SpanRecorder* rec = cfg_.spans;
  const std::uint64_t t_begin = rec ? engine_.obs_now() : 0;
  const obs::TraceId span =
      rec ? rec->begin_batch(queued_ns ? queued_ns : t_begin, t_begin) : 0;

  const WavePlan plan =
      ConflictPartitioner::plan(batch, engine_.config().undirected);
  std::uint64_t t_plan = t_begin;
  if (span) {
    t_plan = engine_.obs_now();
    rec->stage(span, obs::WriteStage::kPartition, t_plan - t_begin);
  }

  if (plan.mean_occupancy() < kMinOccupancy) {
    // Conflict-dominated batch (e.g. a hot pair's history): wave barriers
    // would serialise it anyway, so skip straight to in-order injection.
    for (const EdgeEvent& e : batch) engine_.inject_edge(e);
    if (span) {
      const std::uint64_t t_done = engine_.obs_now();
      rec->stage(span, obs::WriteStage::kInject, t_done - t_plan);
      rec->record_admitted(span, engine_.ingested_watermark(), t_done,
                           batch.size(),
                           static_cast<std::uint32_t>(plan.num_waves()), true);
    }
    std::lock_guard stats_guard(stats_mutex_);
    ++stats_.batches;
    ++stats_.serial_fallback_batches;
    stats_.events_dispatched += batch.size();
    return;
  }

  std::uint64_t inject_ns = 0;  // the pumping thread's own injection time
  std::uint64_t* inj = span ? &inject_ns : nullptr;
  std::uint64_t parallel_waves = 0;
  for (std::size_t w = 0; w < plan.num_waves(); ++w) {
    const std::uint32_t* idx = plan.order.data() + plan.wave_begin[w];
    const std::size_t n = plan.wave_size(w);
    if (n < kMinWaveParallel || cfg_.dispatch_threads <= 1) {
      inject_slice_timed(batch, idx, n, inj);
    } else {
      dispatch_wave_parallel(batch, idx, n, inj);
      ++parallel_waves;
    }
  }
  if (span) {
    // The wave barrier has completed every worker's injections (their
    // watermark bumps happen-before this read), so the watermark stamped
    // here covers the whole batch. Dispatch = orchestration wall time the
    // pumping thread did NOT spend injecting: fan-out plus barrier waits.
    const std::uint64_t t_done = engine_.obs_now();
    const std::uint64_t wall = t_done - t_plan;
    rec->stage(span, obs::WriteStage::kInject, inject_ns);
    rec->stage(span, obs::WriteStage::kDispatch,
               wall > inject_ns ? wall - inject_ns : 0);
    rec->record_admitted(span, engine_.ingested_watermark(), t_done,
                         batch.size(),
                         static_cast<std::uint32_t>(plan.num_waves()), false);
  }

  std::lock_guard stats_guard(stats_mutex_);
  ++stats_.batches;
  stats_.events_dispatched += batch.size();
  stats_.waves += plan.num_waves();
  stats_.parallel_waves += parallel_waves;
  stats_.max_wave_size = std::max<std::uint64_t>(stats_.max_wave_size,
                                                 plan.max_wave_size());
  occupancy_waves_ += plan.num_waves();
  occupancy_events_ += batch.size();
}

void WriteGate::inject_slice(const std::vector<EdgeEvent>& batch,
                             const std::uint32_t* idx, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) engine_.inject_edge(batch[idx[i]]);
}

void WriteGate::inject_slice_timed(const std::vector<EdgeEvent>& batch,
                                   const std::uint32_t* idx, std::size_t n,
                                   std::uint64_t* inject_ns) {
  if (!inject_ns) {
    inject_slice(batch, idx, n);
    return;
  }
  const std::uint64_t t0 = engine_.obs_now();
  inject_slice(batch, idx, n);
  *inject_ns += engine_.obs_now() - t0;
}

void WriteGate::ensure_workers() {
  if (!workers_.empty()) return;
  const std::size_t helpers = cfg_.dispatch_threads - 1;
  jobs_.resize(helpers);
  workers_.reserve(helpers);
  for (std::size_t w = 0; w < helpers; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
}

void WriteGate::dispatch_wave_parallel(const std::vector<EdgeEvent>& batch,
                                       const std::uint32_t* idx, std::size_t n,
                                       std::uint64_t* inject_ns) {
  ensure_workers();
  const std::size_t threads = std::min(cfg_.dispatch_threads, n);
  const std::size_t per = (n + threads - 1) / threads;
  {
    std::lock_guard guard(work_mutex_);
    wave_remaining_ = 0;
    for (std::size_t t = 1; t < threads; ++t) {
      const std::size_t begin = per * t;
      if (begin >= n) break;
      jobs_[t - 1] = WaveJob{&batch, idx + begin, std::min(per, n - begin)};
      ++wave_remaining_;
    }
    ++wave_generation_;
  }
  work_cv_.notify_all();
  // This thread takes slice 0.
  inject_slice_timed(batch, idx, std::min(per, n), inject_ns);
  // The inter-wave barrier: same-key events live in different waves, so
  // the next wave must not start until every injection of this one is in
  // its destination mailbox (FIFO per rank ⇒ per-pair order preserved).
  std::unique_lock guard(work_mutex_);
  done_cv_.wait(guard, [this] { return wave_remaining_ == 0; });
}

void WriteGate::worker_main(std::size_t worker) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    WaveJob job;
    {
      std::unique_lock guard(work_mutex_);
      work_cv_.wait(guard, [&] {
        return workers_stop_ ||
               (wave_generation_ != seen_generation && jobs_[worker].n > 0);
      });
      if (workers_stop_) return;
      seen_generation = wave_generation_;
      job = jobs_[worker];
      jobs_[worker].n = 0;
    }
    inject_slice(*job.batch, job.idx, job.n);
    {
      std::lock_guard guard(work_mutex_);
      --wave_remaining_;
    }
    done_cv_.notify_one();
  }
}

WriteGateStats WriteGate::stats() const {
  std::lock_guard guard(stats_mutex_);
  WriteGateStats out = stats_;
  out.mean_wave_occupancy =
      occupancy_waves_ == 0
          ? 0.0
          : static_cast<double>(occupancy_events_) /
                static_cast<double>(occupancy_waves_);
  return out;
}

}  // namespace remo::serve
