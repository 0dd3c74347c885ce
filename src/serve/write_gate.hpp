// WriteGate — conflict-scheduled concurrent update admission
// (docs/SERVING.md, "the write side").
//
// Applications on the serving plane produce updates from many threads. The
// gate batches pending events, partitions each batch into conflict-free
// waves (ConflictPartitioner: distinct canonical-target vertices within a
// wave, per-key order preserved across waves), and injects each wave's
// events into the engine concurrently — Engine::inject_edge is
// multi-thread-safe and the in-flight accounting counts an injection
// before it becomes visible, so quiescence detection and lineage stamping
// stay exact. A barrier between waves plus the engine's FIFO per-rank
// admission queue keeps every unordered pair's history serialised, which
// is the exact precondition of the engine's determinism contract; the
// result is observationally equivalent to serial in-order injection.
//
// Degenerate batches (everything conflicting on one vertex) fall back to
// plain serial injection rather than paying wave overhead — the
// "batch fallback on conflict" path, pinned by tests/serve/test_write_gate.cpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/engine.hpp"
#include "gen/stream.hpp"
#include "runtime/conflict.hpp"

namespace remo::obs {
class SpanRecorder;
}

namespace remo::serve {

struct WriteGateConfig {
  /// Events pulled per pump; submit() auto-pumps when pending reaches this.
  std::size_t batch_limit = 1024;
  /// Concurrent injector threads per wave (1 = always serial). The pumping
  /// thread is one of them; dispatch_threads-1 workers are spawned lazily.
  std::size_t dispatch_threads = 2;
  /// Write-path span recorder (docs/OBSERVABILITY.md §spans). When set,
  /// every dispatched batch gets a TraceId and per-stage timing
  /// (queue/partition/dispatch/inject), stamped on the engine's clock. The
  /// recorder must outlive the gate. nullptr = zero instrumentation cost.
  obs::SpanRecorder* spans = nullptr;
};

struct WriteGateStats {
  std::uint64_t events_submitted = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t batches = 0;
  std::uint64_t waves = 0;           ///< waves dispatched (incl. inline ones)
  std::uint64_t parallel_waves = 0;  ///< waves fanned out across injectors
  std::uint64_t serial_fallback_batches = 0;
  std::uint64_t max_wave_size = 0;
  /// Mean events per wave over all non-fallback batches — the
  /// conflict-batch occupancy gauge (docs/OBSERVABILITY.md §serving).
  double mean_wave_occupancy = 0.0;

  Json to_json() const;
};

class WriteGate {
 public:
  /// The engine must outlive the gate; the gate reads
  /// engine.config().undirected for conflict keying.
  explicit WriteGate(Engine& engine, WriteGateConfig cfg = {});
  ~WriteGate();  // flushes pending events, then stops the injectors

  WriteGate(const WriteGate&) = delete;
  WriteGate& operator=(const WriteGate&) = delete;

  /// Enqueue one event (any thread). May pump a full batch inline.
  void submit(const EdgeEvent& e);
  void submit_batch(const std::vector<EdgeEvent>& events);

  /// Dispatch everything pending; returns events injected. The events are
  /// admitted (in the engine's mailboxes) on return, not yet converged —
  /// pair with Engine::drain()/await_quiescence() as usual.
  std::size_t flush();

  WriteGateStats stats() const;

 private:
  std::size_t pump_locked(std::unique_lock<std::mutex>& pending_guard);
  void dispatch_batch(const std::vector<EdgeEvent>& batch,
                      std::uint64_t queued_ns);
  void dispatch_wave_parallel(const std::vector<EdgeEvent>& batch,
                              const std::uint32_t* idx, std::size_t n,
                              std::uint64_t* inject_ns);
  void inject_slice(const std::vector<EdgeEvent>& batch,
                    const std::uint32_t* idx, std::size_t n);
  /// inject_slice, accumulating its wall time into *inject_ns when the
  /// dispatched batch has a span (inject_ns nonnull).
  void inject_slice_timed(const std::vector<EdgeEvent>& batch,
                          const std::uint32_t* idx, std::size_t n,
                          std::uint64_t* inject_ns);
  void ensure_workers();
  void worker_main(std::size_t worker);

  Engine& engine_;
  WriteGateConfig cfg_;

  std::mutex pending_mutex_;
  std::vector<EdgeEvent> pending_;
  /// Submit instant of the oldest event in `pending_` (engine clock),
  /// stamped on the empty->nonempty transition — the span kQueue origin.
  /// 0 when pending_ is empty or spans are off.
  std::uint64_t pending_oldest_ns_ = 0;
  bool pump_active_ = false;  // one pump at a time keeps batches in order
  std::condition_variable pump_cv_;

  // Lazily-started persistent injector workers; a wave is split into
  // slices, workers count down `wave_remaining_` and the pumping thread
  // waits on it (the inter-wave barrier).
  struct WaveJob {
    const std::vector<EdgeEvent>* batch = nullptr;
    const std::uint32_t* idx = nullptr;
    std::size_t n = 0;
  };
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<WaveJob> jobs_;       // one slot per worker
  std::uint64_t wave_generation_ = 0;
  std::size_t wave_remaining_ = 0;
  bool workers_stop_ = false;
  std::vector<std::thread> workers_;

  mutable std::mutex stats_mutex_;
  WriteGateStats stats_;
  std::uint64_t occupancy_waves_ = 0;   // waves counted into the occupancy mean
  std::uint64_t occupancy_events_ = 0;  // events in those waves
};

}  // namespace remo::serve
