// Observability switches, embedded in EngineConfig as `obs`.
#pragma once

#include <cstdint>

namespace remo::obs {

/// Sample every 2^shift-th topology event into the per-update latency
/// histogram. Timing every event costs ~2 clock reads per event — measured
/// at 10-18% of saturation ingest throughput on the bench host — while
/// every 64th stays under 0.5%; the uniform stride keeps the percentiles
/// statistically valid.
inline constexpr std::uint32_t kLatencySampleShift = 6;

/// Sample every 2^shift-th topology event into the lineage table: the same
/// stride as the latency sampler keeps the stamping and table work under a
/// few percent of ingest throughput.
inline constexpr std::uint32_t kLineageSampleShift = 6;

/// Per-update latency histograms (one per rank, merged on snapshot) and
/// per-phase wall-clock accounting are always on; their costs are the
/// sampled clock reads above and two clock reads per loop iteration.
/// Sampling strides and ring and table capacities are constants
/// (kTraceCapacity in obs/trace.hpp, kLineageCapacity in obs/lineage.hpp,
/// kProfSampleShift and kStackSamplePeriodUs in obs/prof.hpp), so each
/// feature below is one on/off switch.
struct ObsConfig {
  /// Chrome-trace event capture. Off by default: the hot path then costs
  /// one branch per loop iteration.
  bool trace = false;

  /// Causal lineage tracing (obs/lineage.hpp): stamp every
  /// 2^kLineageSampleShift-th topology event with a CauseId and account the
  /// full derived cascade (visitors, depth, ranks, wall-clock span) per
  /// cause. Off by default; when on, the hot path pays a counter+mask check
  /// per topology event and table updates only for sampled causes'
  /// cascades.
  bool lineage = false;

  /// Hardware-counter profiling (obs/prof.hpp): per-rank counter groups
  /// read at phase boundaries, attributing cycles / instructions / LLC
  /// misses to ingest / propagate / quiesce / snapshot-drain. The counter
  /// source is probed at engine construction (perf_event, else rusage,
  /// else an inert no-op). Off by default; when on, the loop pays one
  /// branch per phase boundary plus a group-read syscall every
  /// 2^kProfSampleShift-th boundary.
  bool prof = false;

  /// Sampled on-CPU stacks (folded/flamegraph output) alongside the
  /// counters. Requires prof; costs a SIGPROF + backtrace per rank every
  /// kStackSamplePeriodUs.
  bool prof_stacks = false;
};

}  // namespace remo::obs
