// Hardware-counter profiling with phase-level cycle attribution.
//
// RisGraph-class per-update latencies live or die on micro-architectural
// behavior — cache residency, IPC, branch predictability — which wall-clock
// phase timers cannot see. This layer opens a per-rank group of hardware
// counters (cycles, instructions, LLC loads/misses, branch misses, stalled
// cycles, task-clock) via perf_event_open and snapshots deltas at the
// *existing* phase-timer boundaries in Engine::rank_main, attributing each
// delta across the phases that elapsed since the previous read in
// proportion to their wall-clock share. The result is a per-rank ×
// per-phase (ingest / propagate / quiesce / snapshot-drain) IPC and
// miss-rate breakdown: "where do the cycles go" at the granularity the
// phase timers already established.
//
// Backends are pluggable and degrade gracefully:
//
//   perf_event  full counter group (Linux, perf_event_paranoid <= 2)
//   rusage      RUSAGE_THREAD task-clock only (no perf_event access)
//   noop        structure intact, all counters zero (non-Linux / CI)
//   scripted    deterministic timelines for unit tests
//
// `kAuto` probes in that order at engine construction. Anything but
// perf_event is reported as *degraded* so downstream consumers (BENCH
// JSON, trace-analyze) can banner it instead of silently comparing zeros.
//
// Cost model: on_phase() is called at loop-iteration granularity (the
// phase-timer boundaries), and only every 2^sample_shift-th boundary pays
// the group-read syscall; between reads it just accumulates pending
// nanoseconds. The shipped default shift keeps prof-on overhead within the
// repo's ≤3% A/B budget (see bench/results/BENCH_fig3_prof_{off,on}.json).
//
// A sampled on-CPU profile mode (StackSampler) rides along: a sampler
// thread periodically signals registered rank threads with SIGPROF, the
// handler captures a backtrace into a scratch slot, and stacks are folded
// into flamegraph-compatible "frame;frame;frame count" lines.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/obs_config.hpp"
#include "obs/phase_timer.hpp"

namespace remo::obs {

// ---------------------------------------------------------------------------
// Counter catalog

enum class ProfCounter : std::uint8_t {
  kCycles = 0,
  kInstructions,
  kLlcLoads,
  kLlcMisses,
  kBranchMisses,
  kStalledCycles,
  kDtlbLoads,     ///< dTLB load accesses (the huge-page A/B evidence pair)
  kDtlbMisses,    ///< dTLB load misses
  kMinorFaults,   ///< software counter; also fed by the rusage fallback
  kMajorFaults,   ///< software counter; also fed by the rusage fallback
  kTaskClockNs,   ///< software counter; nanoseconds on-CPU
};
inline constexpr std::size_t kProfCounterCount = 11;

/// JSON key (and `remo_prof_<name>_total` Prometheus family; a `_ns`
/// counter renders as `_seconds`) and help text of a counter.
const char* prof_counter_name(ProfCounter c) noexcept;
const char* prof_counter_help(ProfCounter c) noexcept;

/// One reading (or delta) of every counter. Counters a backend cannot
/// provide stay zero; `available` masks tell consumers which are real.
struct CounterSet {
  std::array<std::uint64_t, kProfCounterCount> v{};

  std::uint64_t operator[](ProfCounter c) const noexcept {
    return v[static_cast<std::size_t>(c)];
  }
  std::uint64_t& operator[](ProfCounter c) noexcept {
    return v[static_cast<std::size_t>(c)];
  }

  CounterSet& operator+=(const CounterSet& o) noexcept {
    for (std::size_t i = 0; i < kProfCounterCount; ++i) v[i] += o.v[i];
    return *this;
  }
  /// Per-counter saturating subtraction (counter wraps/resets clamp to 0).
  CounterSet delta_since(const CounterSet& prev) const noexcept {
    CounterSet d;
    for (std::size_t i = 0; i < kProfCounterCount; ++i)
      d.v[i] = v[i] >= prev.v[i] ? v[i] - prev.v[i] : 0;
    return d;
  }
};

inline constexpr std::uint32_t prof_counter_bit(ProfCounter c) noexcept {
  return 1u << static_cast<std::uint32_t>(c);
}
inline constexpr std::uint32_t kAllProfCounters =
    (1u << kProfCounterCount) - 1;

// ---------------------------------------------------------------------------
// Backends

/// A source of cumulative per-thread counter readings. One instance per
/// profiled thread; open() and read() are called on that thread only.
class CounterBackend {
 public:
  virtual ~CounterBackend() = default;

  virtual const char* name() const noexcept = 0;
  /// Bitmask of ProfCounter bits this backend actually reads (valid after
  /// a successful open()).
  virtual std::uint32_t available() const noexcept = 0;
  /// Acquire resources on the profiled thread. False = backend unusable;
  /// the profiler stays inert (zeros, degraded).
  virtual bool open() = 0;
  /// Cumulative totals since open(). False = transient failure (counted,
  /// never fatal).
  virtual bool read(CounterSet& out) = 0;
};

const char* prof_backend_name(ProfBackendKind k) noexcept;

/// Resolve kAuto to the best backend this process can actually use
/// (probes perf_event with a throwaway counter, then rusage, then noop).
/// Non-auto kinds pass through unchanged.
ProfBackendKind resolve_prof_backend(ProfBackendKind requested) noexcept;

/// Instantiate a backend. kAuto is resolved internally; callers that need
/// to know what was picked resolve first and pass the result.
std::unique_ptr<CounterBackend> make_counter_backend(ProfBackendKind kind);

/// Deterministic backend for tests: read() walks a fixed timeline of
/// cumulative readings, clamping at the final entry.
class ScriptedBackend final : public CounterBackend {
 public:
  explicit ScriptedBackend(std::vector<CounterSet> timeline,
                           std::uint32_t available_mask = kAllProfCounters);

  const char* name() const noexcept override { return "scripted"; }
  std::uint32_t available() const noexcept override { return available_; }
  bool open() override;
  bool read(CounterSet& out) override;

  std::size_t reads_issued() const noexcept { return next_; }
  /// The next `n` read() calls fail (transient-failure injection).
  void fail_next_reads(std::size_t n) noexcept { fail_reads_ = n; }
  void set_open_fails(bool fails) noexcept { open_fails_ = fails; }

 private:
  std::vector<CounterSet> timeline_;
  std::uint32_t available_;
  std::size_t next_ = 0;
  std::size_t fail_reads_ = 0;
  bool open_fails_ = false;
};

// ---------------------------------------------------------------------------
// Per-rank profiler

/// One rank's accumulated attribution. rank == kProfTotalsRank marks a
/// cross-rank merge.
inline constexpr std::uint32_t kProfTotalsRank = ~std::uint32_t{0};

struct RankProfSnapshot {
  std::uint32_t rank = 0;
  /// Counter deltas attributed to each phase.
  std::array<CounterSet, kPhaseCount> phase{};
  /// Wall-clock nanoseconds each phase contributed to attributed reads.
  std::array<std::uint64_t, kPhaseCount> attributed_ns{};
  std::uint64_t boundaries = 0;     ///< on_phase() calls observed
  std::uint64_t reads = 0;          ///< successful counter reads
  std::uint64_t read_failures = 0;  ///< failed counter reads

  CounterSet total() const noexcept;
  std::uint64_t total_attributed_ns() const noexcept;
  void merge(const RankProfSnapshot& o) noexcept;
};

/// Whole-engine profiling state; schema "remo-prof-1" over the wire.
struct ProfSnapshot {
  bool enabled = false;
  std::string backend;  ///< prof_backend_name of the resolved backend
  bool degraded = false;  ///< true unless backend == perf_event
  std::uint32_t sample_shift = 0;
  std::uint32_t available = 0;  ///< ProfCounter bitmask
  std::vector<RankProfSnapshot> per_rank;

  RankProfSnapshot totals() const;

  Json to_json() const;
  static bool from_json(const Json& doc, ProfSnapshot& out,
                        std::string* error);
};

// Derived metrics (0.0 whenever the denominator is 0).
double prof_ipc(const CounterSet& c) noexcept;
double prof_llc_miss_rate(const CounterSet& c) noexcept;
double prof_branch_miss_per_kinst(const CounterSet& c) noexcept;
double prof_stalled_frac(const CounterSet& c) noexcept;
double prof_dtlb_miss_rate(const CounterSet& c) noexcept;

/// The derived ratios every per-phase block reports, declared once: JSON
/// key (and `remo_prof_<name>` Prometheus family), help text, formula.
struct ProfRatio {
  const char* name;
  const char* help;
  double (*of)(const CounterSet&) noexcept;
};
inline constexpr std::size_t kProfRatioCount = 3;
extern const ProfRatio kProfRatios[kProfRatioCount];

/// One phase's attribution block: every counter, `attributed_ns`, then the
/// ratios (the per-phase object of remo-prof-1 and of the gauge stream).
Json phase_block_json(const CounterSet& c, std::uint64_t attributed_ns);

/// Per-rank counter-group owner. Single-writer (the owning rank thread)
/// for on_phase(); accumulators are relaxed atomics so snapshot() can run
/// concurrently from the main thread.
class RankProfiler {
 public:
  /// `sample_shift`: pay the backend read() only every 2^shift-th phase
  /// boundary; pending wall-clock is attributed proportionally at the next
  /// read. 0 reads at every boundary (exact attribution, highest cost).
  RankProfiler(std::uint32_t rank, std::unique_ptr<CounterBackend> backend,
               std::uint32_t sample_shift);

  RankProfiler(const RankProfiler&) = delete;
  RankProfiler& operator=(const RankProfiler&) = delete;

  /// Call once on the profiled thread before the loop: opens the backend
  /// and takes the baseline reading. Safe to skip — the profiler just
  /// stays inert.
  void attach();

  /// Backend opened successfully and counters are flowing.
  bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }
  const char* backend_name() const noexcept { return backend_->name(); }
  std::uint32_t available() const noexcept { return backend_->available(); }

  /// Phase-boundary hook (rank thread only): `ns` wall-clock just spent in
  /// phase `p`. The engine calls it together with PhaseTimers::add, from
  /// its one phase clock.
  void on_phase(Phase p, std::uint64_t ns) noexcept;

  /// Force a counter read now, attributing all pending wall-clock (rank
  /// thread only; used at loop exit so tails are not lost).
  void flush() noexcept;

  RankProfSnapshot snapshot() const;

 private:
  void sample_now() noexcept;

  const std::uint32_t rank_;
  std::unique_ptr<CounterBackend> backend_;
  const std::uint64_t sample_mask_;
  std::atomic<bool> active_{false};
  bool open_ = false;  // rank-thread view of active_

  // Rank-thread-only state between reads.
  CounterSet last_{};
  std::array<std::uint64_t, kPhaseCount> pending_ns_{};
  std::uint64_t boundary_seq_ = 0;

  // Cross-thread-readable accumulators.
  std::array<std::array<std::atomic<std::uint64_t>, kProfCounterCount>,
             kPhaseCount>
      acc_{};
  std::array<std::atomic<std::uint64_t>, kPhaseCount> attributed_ns_{};
  std::atomic<std::uint64_t> boundaries_{0};
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> read_failures_{0};
};

// ---------------------------------------------------------------------------
// Process rusage (always available; the BENCH JSON floor every report
// carries even when perf_event is not usable)

struct ProcRusage {
  std::uint64_t user_ns = 0;
  std::uint64_t sys_ns = 0;
  std::uint64_t max_rss_kb = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_ctx_switches = 0;
  std::uint64_t involuntary_ctx_switches = 0;
};

/// RUSAGE_SELF reading (zeros where the platform lacks getrusage).
ProcRusage read_proc_rusage() noexcept;
Json proc_rusage_json(const ProcRusage& r);

// ---------------------------------------------------------------------------
// Sampled on-CPU stacks (folded / flamegraph output)

/// Periodically interrupts registered threads with SIGPROF, captures their
/// backtraces, and folds them into "label;frame;frame count" lines
/// (root-first — `flamegraph.pl` / speedscope compatible). At most one
/// instance may be running at a time (the signal handler needs a global
/// scratch slot). Symbolication happens once, at fold time.
struct StackSamplerConfig {
  std::uint32_t period_us = 1000;  ///< sampling period per target thread
  std::uint32_t max_depth = 48;
};

class StackSampler {
 public:
  using Config = StackSamplerConfig;

  /// Platform support (Linux with <execinfo.h>); false => start() refuses.
  static bool supported() noexcept;

  explicit StackSampler(Config cfg = {});
  ~StackSampler();

  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  /// Spawn the sampler thread. False when unsupported or another sampler
  /// is already running.
  bool start();
  /// Stop sampling and join the sampler thread (idempotent). Must happen
  /// before any registered thread exits.
  void stop();
  bool running() const noexcept;

  /// Register the calling thread as a sampling target under `label`
  /// (used as the folded stack's root frame).
  void register_current_thread(std::string label);

  std::uint64_t samples() const noexcept;
  std::uint64_t missed() const noexcept;  ///< signals with no capture in time

  /// Stop (if running) and render the folded, symbolised stacks, sorted
  /// for determinism.
  std::string folded();
  bool write_folded(const std::string& path);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------------------------------------
// Reports

struct SpanSnapshot;  // obs/span.hpp; joined report only dereferences it in
                      // prof.cpp

/// The `trace-analyze --prof` report: per-rank × per-phase IPC / LLC
/// miss-rate attribution, a degraded-backend banner when applicable, and —
/// when `spans` is given — a join against the write-path span stages so
/// engine-side cycle attribution and write-path latency attribution read
/// side by side.
std::string format_prof_report(const ProfSnapshot& snap,
                               const SpanSnapshot* spans = nullptr);

}  // namespace remo::obs
