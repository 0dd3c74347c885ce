// Golden render test: the exact bytes every observability output format
// produces for one scripted stats snapshot and one scripted gauge sample.
// The renderers are driven by metric tables; this pins key order, names,
// help text, units and number formatting so a table edit that changes any
// emitted byte shows up here.
#include <gtest/gtest.h>

#include <string>

#include "obs/gauges.hpp"
#include "obs/span.hpp"
#include "obs/stats.hpp"
#include "serve/query_service.hpp"
#include "serve/serving_gauges.hpp"
#include "serve/write_gate.hpp"

namespace remo::obs::test {
namespace {

CounterSet counters(std::uint64_t base) {
  CounterSet c;
  for (std::size_t i = 0; i < kProfCounterCount; ++i) c.v[i] = base * (i + 1);
  return c;
}

RankProfSnapshot prof_rank(std::uint32_t rank) {
  RankProfSnapshot p;
  p.rank = rank;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    p.phase[i] = counters(100 * (rank + 1) + 10 * i);
    p.attributed_ns[i] = 1000 * (rank + 1) + i;
  }
  p.boundaries = 40 + rank;
  p.reads = 10 + rank;
  p.read_failures = rank;
  return p;
}

MetricsSnapshot scripted_snapshot() {
  MetricsSnapshot s;
  for (std::uint64_t r = 0; r < 2; ++r) {
    RankObs ro;
    ro.counters.topology_events = 1000 + r;
    ro.counters.algorithm_events = 2000 + r;
    ro.counters.messages_sent = 3000 + r;
    ro.counters.remote_messages = 400 + r;
    ro.counters.local_messages = 2500 + r;
    ro.counters.edges_stored = 5000 + r;
    ro.counters.control_messages = 100 + r;
    ro.counters.coalesced_sends = 7 + r;
    ro.counters.ring_overflows = 9 + r;
    LatencyHistogram h;
    for (std::uint64_t v : {5u, 150u, 2'000u, 40'000u, 3'000'000u})
      h.record(v * (r + 1));
    ro.update_latency_ns = h.snapshot();
    ro.phases.ns = {1'000'000 * (r + 1), 2'000'000'000 * (r + 1), 3'000 + r, 40 + r};
    s.update_latency_ns.merge(ro.update_latency_ns);
    s.phases.merge(ro.phases);
    s.per_rank.push_back(std::move(ro));
  }
  s.counters.topology_events = 2001;
  s.counters.algorithm_events = 4001;
  s.counters.messages_sent = 6004;
  s.counters.remote_messages = 801;
  s.counters.local_messages = 5001;
  s.counters.edges_stored = 10001;
  s.counters.control_messages = 204;
  s.counters.coalesced_sends = 15;
  s.counters.ring_overflows = 19;
  s.lineage_enabled = true;
  s.lineage.sampled = 31;
  s.lineage.dropped = 2;
  s.lineage.spawned = 600;
  s.lineage.remote_spawned = 150;
  s.lineage.applied = 580;
  s.lineage.visitors_p50 = 12;
  s.lineage.visitors_p99 = 90;
  s.lineage.depth_p50 = 3;
  s.lineage.depth_p99 = 7;
  s.lineage.cross_rank_ratio = 0.25;
  s.prof.enabled = true;
  s.prof.backend = "scripted";
  s.prof.degraded = true;
  s.prof.sample_shift = 4;
  s.prof.available = kAllProfCounters;
  s.prof.per_rank = {prof_rank(0), prof_rank(1)};
  return s;
}

GaugeSample scripted_sample() {
  GaugeSample s;
  s.sample_ns = 2'500'000'000;
  s.events_ingested = 5000;
  s.events_applied = 4800;
  s.converged_through = 4500;
  s.convergence_lag_events = 500;
  s.staleness_ns = 125'000'000;
  s.in_flight = -3;
  s.queue_depth = 21;
  s.idle_ranks = 1;
  s.idle_ratio = 0.5;
  s.quiescent = false;
  s.safra_mode = true;
  s.safra_generation = 4;
  s.safra_probe_rounds = 17;
  s.safra_probe_active = true;
  s.safra_terminated = false;
  s.per_rank.resize(2);
  s.per_rank[0] = RankGaugeSample{.queue_depth = 20,
                                  .ring_occupancy = 15,
                                  .overflow_depth = 5,
                                  .events_ingested = 3000,
                                  .events_applied = 2900,
                                  .converged_through = 2700,
                                  .staleness_ns = 90'000'000,
                                  .trace_emitted = 33,
                                  .idle = false};
  s.per_rank[1] = RankGaugeSample{.queue_depth = 1,
                                  .events_ingested = 2000,
                                  .events_applied = 1900,
                                  .converged_through = 1900,
                                  .idle = true};

  serve::ServeStats st;
  st.queries_served = 123456;
  st.refreshes = 78;
  st.served_programs = 2;
  st.read_epoch_lag_events = 640;
  st.view_age_ns = 4'500'000;
  serve::WriteGateStats gs;
  gs.events_submitted = 9000;
  gs.events_dispatched = 8800;
  gs.batches = 44;
  gs.waves = 120;
  gs.serial_fallback_batches = 3;
  gs.mean_wave_occupancy = 73.25;
  SpanCounts sc;
  sc.batches_sampled = 40;
  sc.completed = 38;
  sc.open = 2;
  sc.dropped_open = 1;
  sc.freshness_p50_ns = 3'000'000;
  sc.freshness_p99_ns = 27'500'000;
  serve::append_serving_metrics(s, st, &gs, &sc);

  s.prof_backend = "scripted";
  s.prof_degraded = true;
  s.prof = prof_rank(0);
  s.prof.merge(prof_rank(1));
  return s;
}

const char* const kStatsJson =
    R"({"schema":"remo-stats-1","ranks":2,"counters":{"topology_events":2001,)"
    R"("algorithm_events":4001,"messages_sent":6004,"remote_messages":801,)"
    R"("local_messages":5001,"control_messages":204,"edges_stored":10001,)"
    R"("coalesced_sends":15,"ring_overflows":19},)"
    R"("update_latency":{"count":10,"min_ns":5,"mean_ns":912646.5,)"
    R"("p50_ns":2047,"p90_ns":3014655,"p99_ns":6000000,"p999_ns":6000000,)"
    R"("max_ns":6000000},"phases":{"ingest_ns":3000000,)"
    R"("propagate_ns":6000000000,"quiesce_ns":6001,"snapshot_drain_ns":81},)"
    R"("lineage":{"sampled":31,"dropped":2,"spawned":600,"remote_spawned":150,)"
    R"("applied":580,"visitors_p50":12,"visitors_p99":90,"depth_p50":3,)"
    R"("depth_p99":7,"cross_rank_ratio":0.25},"prof":{"schema":"remo-prof-1",)"
    R"("enabled":true,"backend":"scripted","degraded":true,"sample_shift":4,)"
    R"("counters":["cycles","instructions","llc_loads","llc_misses",)"
    R"("branch_misses","stalled_cycles","dtlb_loads","dtlb_misses",)"
    R"("minor_faults","major_faults","task_clock_ns"],"per_rank":[{"rank":0,)"
    R"("boundaries":40,"reads":10,"read_failures":0,)"
    R"("phases":{"ingest":{"cycles":100,"instructions":200,"llc_loads":300,)"
    R"("llc_misses":400,"branch_misses":500,"stalled_cycles":600,)"
    R"("dtlb_loads":700,"dtlb_misses":800,"minor_faults":900,)"
    R"("major_faults":1000,"task_clock_ns":1100,"attributed_ns":1000,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("propagate":{"cycles":110,"instructions":220,"llc_loads":330,)"
    R"("llc_misses":440,"branch_misses":550,"stalled_cycles":660,)"
    R"("dtlb_loads":770,"dtlb_misses":880,"minor_faults":990,)"
    R"("major_faults":1100,"task_clock_ns":1210,"attributed_ns":1001,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("quiesce":{"cycles":120,"instructions":240,"llc_loads":360,)"
    R"("llc_misses":480,"branch_misses":600,"stalled_cycles":720,)"
    R"("dtlb_loads":840,"dtlb_misses":960,"minor_faults":1080,)"
    R"("major_faults":1200,"task_clock_ns":1320,"attributed_ns":1002,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("snapshot_drain":{"cycles":130,"instructions":260,"llc_loads":390,)"
    R"("llc_misses":520,"branch_misses":650,"stalled_cycles":780,)"
    R"("dtlb_loads":910,"dtlb_misses":1040,"minor_faults":1170,)"
    R"("major_faults":1300,"task_clock_ns":1430,"attributed_ns":1003,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286}}},)"
    R"({"rank":1,"boundaries":41,"reads":11,"read_failures":1,)"
    R"("phases":{"ingest":{"cycles":200,"instructions":400,"llc_loads":600,)"
    R"("llc_misses":800,"branch_misses":1000,"stalled_cycles":1200,)"
    R"("dtlb_loads":1400,"dtlb_misses":1600,"minor_faults":1800,)"
    R"("major_faults":2000,"task_clock_ns":2200,"attributed_ns":2000,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("propagate":{"cycles":210,"instructions":420,"llc_loads":630,)"
    R"("llc_misses":840,"branch_misses":1050,"stalled_cycles":1260,)"
    R"("dtlb_loads":1470,"dtlb_misses":1680,"minor_faults":1890,)"
    R"("major_faults":2100,"task_clock_ns":2310,"attributed_ns":2001,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("quiesce":{"cycles":220,"instructions":440,"llc_loads":660,)"
    R"("llc_misses":880,"branch_misses":1100,"stalled_cycles":1320,)"
    R"("dtlb_loads":1540,"dtlb_misses":1760,"minor_faults":1980,)"
    R"("major_faults":2200,"task_clock_ns":2420,"attributed_ns":2002,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("snapshot_drain":{"cycles":230,"instructions":460,"llc_loads":690,)"
    R"("llc_misses":920,"branch_misses":1150,"stalled_cycles":1380,)"
    R"("dtlb_loads":1610,"dtlb_misses":1840,"minor_faults":2070,)"
    R"("major_faults":2300,"task_clock_ns":2530,"attributed_ns":2003,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286}}}],)"
    R"("totals":{"boundaries":81,"reads":21,"read_failures":1,)"
    R"("phases":{"ingest":{"cycles":300,"instructions":600,"llc_loads":900,)"
    R"("llc_misses":1200,"branch_misses":1500,"stalled_cycles":1800,)"
    R"("dtlb_loads":2100,"dtlb_misses":2400,"minor_faults":2700,)"
    R"("major_faults":3000,"task_clock_ns":3300,"attributed_ns":3000,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("propagate":{"cycles":320,"instructions":640,"llc_loads":960,)"
    R"("llc_misses":1280,"branch_misses":1600,"stalled_cycles":1920,)"
    R"("dtlb_loads":2240,"dtlb_misses":2560,"minor_faults":2880,)"
    R"("major_faults":3200,"task_clock_ns":3520,"attributed_ns":3002,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("quiesce":{"cycles":340,"instructions":680,"llc_loads":1020,)"
    R"("llc_misses":1360,"branch_misses":1700,"stalled_cycles":2040,)"
    R"("dtlb_loads":2380,"dtlb_misses":2720,"minor_faults":3060,)"
    R"("major_faults":3400,"task_clock_ns":3740,"attributed_ns":3004,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("snapshot_drain":{"cycles":360,"instructions":720,"llc_loads":1080,)"
    R"("llc_misses":1440,"branch_misses":1800,"stalled_cycles":2160,)"
    R"("dtlb_loads":2520,"dtlb_misses":2880,"minor_faults":3240,)"
    R"("major_faults":3600,"task_clock_ns":3960,"attributed_ns":3006,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286}}}},)"
    R"("per_rank":[{"rank":0,"counters":{"topology_events":1000,)"
    R"("algorithm_events":2000,"messages_sent":3000,"remote_messages":400,)"
    R"("local_messages":2500,"control_messages":100,"edges_stored":5000,)"
    R"("coalesced_sends":7,"ring_overflows":9},)"
    R"("update_latency":{"count":5,"min_ns":5,"mean_ns":608431,"p50_ns":2047,)"
    R"("p90_ns":3000000,"p99_ns":3000000,"p999_ns":3000000,"max_ns":3000000},)"
    R"("phases":{"ingest_ns":1000000,"propagate_ns":2000000000,)"
    R"("quiesce_ns":3000,"snapshot_drain_ns":40}},{"rank":1,)"
    R"("counters":{"topology_events":1001,"algorithm_events":2001,)"
    R"("messages_sent":3001,"remote_messages":401,"local_messages":2501,)"
    R"("control_messages":101,"edges_stored":5001,"coalesced_sends":8,)"
    R"("ring_overflows":10},"update_latency":{"count":5,)"
    R"("min_ns":10,"mean_ns":1216862,"p50_ns":4095,"p90_ns":6000000,)"
    R"("p99_ns":6000000,"p999_ns":6000000,"max_ns":6000000},)"
    R"("phases":{"ingest_ns":2000000,"propagate_ns":4000000000,)"
    R"("quiesce_ns":3001,"snapshot_drain_ns":41}}]})";

const char* const kStatsText = R"golden(counters (2 ranks):
  topology_events   2,001
  algorithm_events  4,001
  messages_sent     6,004 (5,001 local, 801 remote, 204 control)
  edges_stored      10,001
  coalesced         15 send-side (19 ring overflows)
per-update latency (10 samples):
  p50 2.05 us   p90 3.01 ms   p99 6.00 ms   p99.9 6.00 ms
  min 5 ns   mean 912.65 us   max 6.00 ms
phase time (summed across ranks):
  ingest          3.00 ms
  propagate       6.00 s
  quiesce         6.00 us
  snapshot_drain  81 ns
lineage (31 causes sampled, 2 dropped):
  visitors/update p50 12 p99 90   depth p50 3 p99 7   cross-rank ratio 0.250
hardware counters (backend scripted, DEGRADED):
  ingest          ipc 2.00   llc-miss 133.3%   cycles 300
  propagate       ipc 2.00   llc-miss 133.3%   cycles 320
  quiesce         ipc 2.00   llc-miss 133.3%   cycles 340
  snapshot_drain  ipc 2.00   llc-miss 133.3%   cycles 360
)golden";

const char* const kGaugeJson =
    R"({"schema":"remo-gauges-1","ts_ns":2500000000,"events_ingested":5000,)"
    R"("events_applied":4800,"converged_through":4500,)"
    R"("convergence_lag_events":500,"staleness_ns":125000000,"in_flight":-3,)"
    R"("queue_depth":21,"idle_ranks":1,"idle_ratio":0.5,"quiescent":false,)"
    R"("termination":{"mode":"safra","generation":4,"probe_rounds":17,)"
    R"("probe_active":true,"terminated":false},)"
    R"("serving":{"queries_served":123456,"refreshes":78,"served_programs":2,)"
    R"("read_epoch_lag_events":640,"view_age_ns":4500000,)"
    R"("write_gate":{"events_submitted":9000,"events_dispatched":8800,)"
    R"("batches":44,"waves":120,"serial_fallback_batches":3,)"
    R"("mean_wave_occupancy":73.25},"spans":{"sampled":40,"completed":38,)"
    R"("open":2,"dropped":1,"freshness_p50_ns":3000000,)"
    R"("freshness_p99_ns":27500000}},"prof":{"backend":"scripted",)"
    R"("degraded":true,"reads":21,"read_failures":1,)"
    R"("phases":{"ingest":{"cycles":300,"instructions":600,"llc_loads":900,)"
    R"("llc_misses":1200,"branch_misses":1500,"stalled_cycles":1800,)"
    R"("dtlb_loads":2100,"dtlb_misses":2400,"minor_faults":2700,)"
    R"("major_faults":3000,"task_clock_ns":3300,"attributed_ns":3000,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("propagate":{"cycles":320,"instructions":640,"llc_loads":960,)"
    R"("llc_misses":1280,"branch_misses":1600,"stalled_cycles":1920,)"
    R"("dtlb_loads":2240,"dtlb_misses":2560,"minor_faults":2880,)"
    R"("major_faults":3200,"task_clock_ns":3520,"attributed_ns":3002,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("quiesce":{"cycles":340,"instructions":680,"llc_loads":1020,)"
    R"("llc_misses":1360,"branch_misses":1700,"stalled_cycles":2040,)"
    R"("dtlb_loads":2380,"dtlb_misses":2720,"minor_faults":3060,)"
    R"("major_faults":3400,"task_clock_ns":3740,"attributed_ns":3004,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286},)"
    R"("snapshot_drain":{"cycles":360,"instructions":720,"llc_loads":1080,)"
    R"("llc_misses":1440,"branch_misses":1800,"stalled_cycles":2160,)"
    R"("dtlb_loads":2520,"dtlb_misses":2880,"minor_faults":3240,)"
    R"("major_faults":3600,"task_clock_ns":3960,"attributed_ns":3006,"ipc":2,)"
    R"("llc_miss_rate":1.33333333333,"dtlb_miss_rate":1.14285714286}}},)"
    R"("per_rank":[{"rank":0,"queue_depth":20,"ring_occupancy":15,)"
    R"("overflow_depth":5,"events_ingested":3000,"events_applied":2900,)"
    R"("converged_through":2700,"staleness_ns":90000000,"idle":false,)"
    R"("trace_emitted":33},{"rank":1,"queue_depth":1,"ring_occupancy":0,)"
    R"("overflow_depth":0,"events_ingested":2000,"events_applied":1900,)"
    R"("converged_through":1900,"staleness_ns":0,"idle":true}]})";

const char* const kGaugeProm = R"golden(# HELP remo_events_ingested_total Topology events accepted into the system
# TYPE remo_events_ingested_total counter
remo_events_ingested_total 5000
# HELP remo_events_applied_total Topology events applied (store mutation + local callbacks)
# TYPE remo_events_applied_total counter
remo_events_applied_total 4800
# HELP remo_converged_through Ingested-event watermark through which state is converged
# TYPE remo_converged_through gauge
remo_converged_through 4500
# HELP remo_convergence_lag_events Events ingested but not yet reflected in converged state
# TYPE remo_convergence_lag_events gauge
remo_convergence_lag_events 500
# HELP remo_staleness_seconds Wall-clock age of the converged watermark (0 when caught up)
# TYPE remo_staleness_seconds gauge
remo_staleness_seconds 0.125000000
# HELP remo_in_flight_messages Basic visitors injected but not fully processed
# TYPE remo_in_flight_messages gauge
remo_in_flight_messages -3
# HELP remo_idle_ranks Ranks currently parked waiting for work
# TYPE remo_idle_ranks gauge
remo_idle_ranks 1
# HELP remo_termination_probe_rounds_total Safra token circuits completed (0 in counting mode)
# TYPE remo_termination_probe_rounds_total counter
remo_termination_probe_rounds_total 17
# HELP remo_queue_depth Undrained ingress visitors (mailbox + loop-back)
# TYPE remo_queue_depth gauge
remo_queue_depth{rank="0"} 20
remo_queue_depth{rank="1"} 1
# HELP remo_ring_occupancy Visitors parked in the mailbox SPSC rings
# TYPE remo_ring_occupancy gauge
remo_ring_occupancy{rank="0"} 15
remo_ring_occupancy{rank="1"} 0
# HELP remo_overflow_depth Visitors in the mailbox overflow segment
# TYPE remo_overflow_depth gauge
remo_overflow_depth{rank="0"} 5
remo_overflow_depth{rank="1"} 0
# HELP remo_rank_events_applied_total Topology events applied by each rank
# TYPE remo_rank_events_applied_total counter
remo_rank_events_applied_total{rank="0"} 2900
remo_rank_events_applied_total{rank="1"} 1900
# HELP remo_rank_idle 1 while the rank is parked
# TYPE remo_rank_idle gauge
remo_rank_idle{rank="0"} 0
remo_rank_idle{rank="1"} 1
# HELP remo_serve_queries_total Catalog queries answered
# TYPE remo_serve_queries_total counter
remo_serve_queries_total 123456
# HELP remo_serve_refreshes_total Views published (all programs)
# TYPE remo_serve_refreshes_total counter
remo_serve_refreshes_total 78
# HELP remo_serve_programs Active serving slots
# TYPE remo_serve_programs gauge
remo_serve_programs 2
# HELP remo_serve_read_epoch_lag_events Accepted events the stalest published view may be missing
# TYPE remo_serve_read_epoch_lag_events gauge
remo_serve_read_epoch_lag_events 640
# HELP remo_serve_view_age_seconds Age of the oldest active published view
# TYPE remo_serve_view_age_seconds gauge
remo_serve_view_age_seconds 0.004500000
# HELP remo_gate_events_submitted_total Events enqueued at the write gate
# TYPE remo_gate_events_submitted_total counter
remo_gate_events_submitted_total 9000
# HELP remo_gate_events_dispatched_total Events the gate injected into the engine
# TYPE remo_gate_events_dispatched_total counter
remo_gate_events_dispatched_total 8800
# HELP remo_gate_batches_total Batches the gate dispatched
# TYPE remo_gate_batches_total counter
remo_gate_batches_total 44
# HELP remo_gate_waves_total Conflict-free waves dispatched
# TYPE remo_gate_waves_total counter
remo_gate_waves_total 120
# HELP remo_gate_serial_fallback_batches_total Batches injected serially (conflict-dominated)
# TYPE remo_gate_serial_fallback_batches_total counter
remo_gate_serial_fallback_batches_total 3
# HELP remo_gate_mean_wave_occupancy Mean events per wave over non-fallback batches
# TYPE remo_gate_mean_wave_occupancy gauge
remo_gate_mean_wave_occupancy 73.250000000
# HELP remo_spans_completed_total Write-path spans closed (batch became readable)
# TYPE remo_spans_completed_total counter
remo_spans_completed_total 38
# HELP remo_spans_open Write-path spans still in flight
# TYPE remo_spans_open gauge
remo_spans_open 2
# HELP remo_freshness_p50_seconds Median write-to-readable freshness
# TYPE remo_freshness_p50_seconds gauge
remo_freshness_p50_seconds 0.003000000
# HELP remo_freshness_p99_seconds p99 write-to-readable freshness
# TYPE remo_freshness_p99_seconds gauge
remo_freshness_p99_seconds 0.027500000
# HELP remo_prof_backend_info Resolved profiling backend (1 = active; degraded label set unless perf_event)
# TYPE remo_prof_backend_info gauge
remo_prof_backend_info{backend="scripted"} 1
# HELP remo_prof_reads_total Successful counter-group reads
# TYPE remo_prof_reads_total counter
remo_prof_reads_total 21
# HELP remo_prof_read_failures_total Failed counter-group reads
# TYPE remo_prof_read_failures_total counter
remo_prof_read_failures_total 1
# HELP remo_prof_cycles_total CPU cycles attributed per phase
# TYPE remo_prof_cycles_total counter
# HELP remo_prof_instructions_total Instructions retired attributed per phase
# TYPE remo_prof_instructions_total counter
# HELP remo_prof_llc_loads_total LLC read accesses per phase
# TYPE remo_prof_llc_loads_total counter
# HELP remo_prof_llc_misses_total LLC read misses per phase
# TYPE remo_prof_llc_misses_total counter
# HELP remo_prof_branch_misses_total Branch misses per phase
# TYPE remo_prof_branch_misses_total counter
# HELP remo_prof_stalled_cycles_total Backend-stalled cycles per phase
# TYPE remo_prof_stalled_cycles_total counter
# HELP remo_prof_dtlb_loads_total dTLB read accesses per phase
# TYPE remo_prof_dtlb_loads_total counter
# HELP remo_prof_dtlb_misses_total dTLB read misses per phase
# TYPE remo_prof_dtlb_misses_total counter
# HELP remo_prof_minor_faults_total Minor page faults attributed per phase
# TYPE remo_prof_minor_faults_total counter
# HELP remo_prof_major_faults_total Major page faults attributed per phase
# TYPE remo_prof_major_faults_total counter
# HELP remo_prof_task_clock_seconds_total On-CPU time attributed per phase
# TYPE remo_prof_task_clock_seconds_total counter
# HELP remo_prof_ipc Instructions per cycle per phase
# TYPE remo_prof_ipc gauge
# HELP remo_prof_llc_miss_rate LLC read miss rate per phase
# TYPE remo_prof_llc_miss_rate gauge
# HELP remo_prof_dtlb_miss_rate dTLB read miss rate per phase
# TYPE remo_prof_dtlb_miss_rate gauge
remo_prof_cycles_total{phase="ingest"} 300
remo_prof_instructions_total{phase="ingest"} 600
remo_prof_llc_loads_total{phase="ingest"} 900
remo_prof_llc_misses_total{phase="ingest"} 1200
remo_prof_branch_misses_total{phase="ingest"} 1500
remo_prof_stalled_cycles_total{phase="ingest"} 1800
remo_prof_dtlb_loads_total{phase="ingest"} 2100
remo_prof_dtlb_misses_total{phase="ingest"} 2400
remo_prof_minor_faults_total{phase="ingest"} 2700
remo_prof_major_faults_total{phase="ingest"} 3000
remo_prof_task_clock_seconds_total{phase="ingest"} 0.000003300
remo_prof_ipc{phase="ingest"} 2.000000000
remo_prof_llc_miss_rate{phase="ingest"} 1.333333333
remo_prof_dtlb_miss_rate{phase="ingest"} 1.142857143
remo_prof_cycles_total{phase="propagate"} 320
remo_prof_instructions_total{phase="propagate"} 640
remo_prof_llc_loads_total{phase="propagate"} 960
remo_prof_llc_misses_total{phase="propagate"} 1280
remo_prof_branch_misses_total{phase="propagate"} 1600
remo_prof_stalled_cycles_total{phase="propagate"} 1920
remo_prof_dtlb_loads_total{phase="propagate"} 2240
remo_prof_dtlb_misses_total{phase="propagate"} 2560
remo_prof_minor_faults_total{phase="propagate"} 2880
remo_prof_major_faults_total{phase="propagate"} 3200
remo_prof_task_clock_seconds_total{phase="propagate"} 0.000003520
remo_prof_ipc{phase="propagate"} 2.000000000
remo_prof_llc_miss_rate{phase="propagate"} 1.333333333
remo_prof_dtlb_miss_rate{phase="propagate"} 1.142857143
remo_prof_cycles_total{phase="quiesce"} 340
remo_prof_instructions_total{phase="quiesce"} 680
remo_prof_llc_loads_total{phase="quiesce"} 1020
remo_prof_llc_misses_total{phase="quiesce"} 1360
remo_prof_branch_misses_total{phase="quiesce"} 1700
remo_prof_stalled_cycles_total{phase="quiesce"} 2040
remo_prof_dtlb_loads_total{phase="quiesce"} 2380
remo_prof_dtlb_misses_total{phase="quiesce"} 2720
remo_prof_minor_faults_total{phase="quiesce"} 3060
remo_prof_major_faults_total{phase="quiesce"} 3400
remo_prof_task_clock_seconds_total{phase="quiesce"} 0.000003740
remo_prof_ipc{phase="quiesce"} 2.000000000
remo_prof_llc_miss_rate{phase="quiesce"} 1.333333333
remo_prof_dtlb_miss_rate{phase="quiesce"} 1.142857143
remo_prof_cycles_total{phase="snapshot_drain"} 360
remo_prof_instructions_total{phase="snapshot_drain"} 720
remo_prof_llc_loads_total{phase="snapshot_drain"} 1080
remo_prof_llc_misses_total{phase="snapshot_drain"} 1440
remo_prof_branch_misses_total{phase="snapshot_drain"} 1800
remo_prof_stalled_cycles_total{phase="snapshot_drain"} 2160
remo_prof_dtlb_loads_total{phase="snapshot_drain"} 2520
remo_prof_dtlb_misses_total{phase="snapshot_drain"} 2880
remo_prof_minor_faults_total{phase="snapshot_drain"} 3240
remo_prof_major_faults_total{phase="snapshot_drain"} 3600
remo_prof_task_clock_seconds_total{phase="snapshot_drain"} 0.000003960
remo_prof_ipc{phase="snapshot_drain"} 2.000000000
remo_prof_llc_miss_rate{phase="snapshot_drain"} 1.333333333
remo_prof_dtlb_miss_rate{phase="snapshot_drain"} 1.142857143
)golden";

const char* const kGaugeWatch = R"golden(t=2.5s     ingested 5,000  applied 4,800  lag 500 ev / 125ms  in-flight -3  idle 1/2
  rank 0   busy  queue 20        applied 2,900        stale 90ms
  rank 1   idle  queue 1         applied 1,900        stale 0ns
)golden";

TEST(RenderGolden, StatsJson) {
  EXPECT_EQ(scripted_snapshot().to_json().dump(), kStatsJson);
}

TEST(RenderGolden, StatsText) {
  EXPECT_EQ(scripted_snapshot().to_text(), kStatsText);
}

TEST(RenderGolden, GaugeJson) {
  EXPECT_EQ(scripted_sample().to_json().dump(), kGaugeJson);
}

TEST(RenderGolden, GaugePrometheus) {
  EXPECT_EQ(scripted_sample().to_prometheus(), kGaugeProm);
}

TEST(RenderGolden, GaugeWatchView) {
  EXPECT_EQ(scripted_sample().watch_view(), kGaugeWatch);
}

}  // namespace
}  // namespace remo::obs::test
