// Observability switches, embedded in EngineConfig as `obs`.
#pragma once

#include <cstdint>

namespace remo::obs {

/// Which counter source the profiling layer (obs/prof.hpp) uses. kAuto
/// probes at engine construction: perf_event when the kernel allows
/// self-profiling, else rusage task-clock, else an inert no-op — so the
/// same binary runs in locked-down CI containers.
enum class ProfBackendKind : std::uint8_t {
  kAuto = 0,
  kPerfEvent,
  kRusage,
  kNoop,
};

/// Per-update latency histograms (one per rank, merged on snapshot) and
/// per-phase wall-clock accounting are always on; their costs are the
/// sampled clock reads described below and two clock reads per loop
/// iteration. Ring and table capacities are constants (kTraceCapacity in
/// obs/trace.hpp, kLineageCapacity in obs/lineage.hpp).
struct ObsConfig {
  /// Sample every 2^shift-th topology event into the latency histogram.
  /// 0 records every event and costs ~2 clock reads per event — measured
  /// at 10-18% of saturation ingest throughput on the bench host, which
  /// is why the default amortises to every 64th event (<0.5% overhead;
  /// the uniform stride keeps the percentiles statistically valid).
  std::uint32_t latency_sample_shift = 6;

  /// Chrome-trace event capture. Off by default: the hot path then costs
  /// one branch per loop iteration. (Compile with -DREMO_OBS_NO_TRACE to
  /// remove even that.)
  bool trace = false;

  /// Causal lineage tracing (obs/lineage.hpp): stamp sampled topology
  /// events with a CauseId and account the full derived cascade (visitors,
  /// depth, ranks, wall-clock span) per cause. Off by default; when on,
  /// the hot path pays a counter+mask check per topology event and table
  /// updates only for sampled causes' cascades.
  bool lineage = false;

  /// Sample every 2^shift-th topology event into the lineage table. The
  /// default matches the latency sampler: every 64th event keeps the
  /// stamping + table work under a few percent of ingest throughput while
  /// the uniform stride keeps amplification percentiles valid.
  std::uint32_t lineage_sample_shift = 6;

  /// Hardware-counter profiling (obs/prof.hpp): per-rank counter groups
  /// read at phase boundaries, attributing cycles / instructions / LLC
  /// misses to ingest / propagate / quiesce / snapshot-drain. Off by
  /// default; when on, the loop pays one branch per phase boundary plus a
  /// group-read syscall every 2^prof_sample_shift-th boundary.
  bool prof = false;

  /// Read counters every 2^shift-th phase boundary; pending wall-clock is
  /// attributed proportionally at the next read. The default keeps the
  /// prof-on A/B overhead within the repo's ≤3% budget (see
  /// bench/results/BENCH_fig3_prof_{off,on}.json); 0 reads every boundary.
  std::uint32_t prof_sample_shift = 4;

  /// Counter source; kAuto probes perf_event → rusage → noop.
  ProfBackendKind prof_backend = ProfBackendKind::kAuto;

  /// Sampled on-CPU stacks (folded/flamegraph output) alongside the
  /// counters. Requires prof; costs a SIGPROF + backtrace per rank every
  /// prof_stack_period_us.
  bool prof_stacks = false;

  /// Stack sampling period per rank thread, microseconds.
  std::uint32_t prof_stack_period_us = 1000;
};

}  // namespace remo::obs
