// Hardware-counter profiling layer (obs/prof.hpp): scripted-backend
// attribution math, sampling stride, failure handling, JSON round trip,
// Prometheus exposition, rusage floor, and the stack sampler.
#include <gtest/gtest.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/gauges.hpp"
#include "obs/prof.hpp"
#include "obs/span.hpp"

namespace remo::obs::test {
namespace {

CounterSet make_set(std::uint64_t cycles, std::uint64_t instructions,
                    std::uint64_t llc_loads = 0, std::uint64_t llc_misses = 0,
                    std::uint64_t branch_misses = 0,
                    std::uint64_t stalled = 0, std::uint64_t task_ns = 0) {
  CounterSet c;
  c[ProfCounter::kCycles] = cycles;
  c[ProfCounter::kInstructions] = instructions;
  c[ProfCounter::kLlcLoads] = llc_loads;
  c[ProfCounter::kLlcMisses] = llc_misses;
  c[ProfCounter::kBranchMisses] = branch_misses;
  c[ProfCounter::kStalledCycles] = stalled;
  c[ProfCounter::kTaskClockNs] = task_ns;
  return c;
}

TEST(CounterSet, DeltaSaturatesOnWrap) {
  const CounterSet a = make_set(100, 50);
  const CounterSet b = make_set(40, 80);  // cycles went "backwards"
  const CounterSet d = b.delta_since(a);
  EXPECT_EQ(d[ProfCounter::kCycles], 0u);
  EXPECT_EQ(d[ProfCounter::kInstructions], 30u);
}

TEST(ScriptedBackend, WalksTimelineAndClamps) {
  ScriptedBackend b({make_set(10, 20), make_set(30, 60)});
  ASSERT_TRUE(b.open());
  CounterSet c;
  ASSERT_TRUE(b.read(c));
  EXPECT_EQ(c[ProfCounter::kCycles], 10u);
  ASSERT_TRUE(b.read(c));
  EXPECT_EQ(c[ProfCounter::kCycles], 30u);
  ASSERT_TRUE(b.read(c));  // clamped at last entry
  EXPECT_EQ(c[ProfCounter::kCycles], 30u);
  EXPECT_EQ(b.reads_issued(), 3u);
}

// shift 0: every boundary reads, so each phase gets exactly the delta
// between consecutive timeline entries.
TEST(RankProfiler, ExactAttributionAtShiftZero) {
  auto backend = std::make_unique<ScriptedBackend>(std::vector<CounterSet>{
      make_set(0, 0),        // baseline at attach
      make_set(1000, 2000),  // after first boundary
      make_set(1500, 2600),  // after second
  });
  RankProfiler prof(0, std::move(backend), /*sample_shift=*/0);
  prof.attach();
  ASSERT_TRUE(prof.active());
  prof.on_phase(Phase::kIngest, 100);
  prof.on_phase(Phase::kPropagate, 100);
  const RankProfSnapshot s = prof.snapshot();
  EXPECT_EQ(s.phase[static_cast<std::size_t>(Phase::kIngest)]
             [ProfCounter::kCycles], 1000u);
  EXPECT_EQ(s.phase[static_cast<std::size_t>(Phase::kPropagate)]
             [ProfCounter::kCycles], 500u);
  EXPECT_EQ(s.phase[static_cast<std::size_t>(Phase::kPropagate)]
             [ProfCounter::kInstructions], 600u);
  EXPECT_EQ(s.boundaries, 2u);
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.read_failures, 0u);
}

// shift 1: the read at the 2nd boundary covers both phases; the delta is
// split proportionally to pending wall-clock and conserves exactly.
TEST(RankProfiler, ProportionalAttributionConserves) {
  auto backend = std::make_unique<ScriptedBackend>(std::vector<CounterSet>{
      make_set(0, 0),
      make_set(900, 9000),
  });
  RankProfiler prof(0, std::move(backend), /*sample_shift=*/1);
  prof.attach();
  prof.on_phase(Phase::kIngest, 100);     // no read yet
  prof.on_phase(Phase::kPropagate, 200);  // read covers 300 ns pending
  const RankProfSnapshot s = prof.snapshot();
  const auto ingest = static_cast<std::size_t>(Phase::kIngest);
  const auto prop = static_cast<std::size_t>(Phase::kPropagate);
  EXPECT_EQ(s.phase[ingest][ProfCounter::kCycles], 300u);  // 900 * 100/300
  EXPECT_EQ(s.phase[prop][ProfCounter::kCycles], 600u);    // 900 * 200/300
  // Exact conservation even when the split does not divide evenly.
  EXPECT_EQ(s.total()[ProfCounter::kCycles], 900u);
  EXPECT_EQ(s.total()[ProfCounter::kInstructions], 9000u);
  EXPECT_EQ(s.attributed_ns[ingest], 100u);
  EXPECT_EQ(s.attributed_ns[prop], 200u);
}

TEST(RankProfiler, ConservationWithUnevenSplit) {
  // 1000 cycles over pending {3, 3, 1} ns: integer shares 428/428/142 leave
  // a remainder of 2 which must land somewhere (largest pending phase), not
  // vanish.
  auto backend = std::make_unique<ScriptedBackend>(std::vector<CounterSet>{
      make_set(0, 0),
      make_set(1000, 0),
  });
  RankProfiler prof(0, std::move(backend), /*sample_shift=*/2);
  prof.attach();
  prof.on_phase(Phase::kIngest, 3);
  prof.on_phase(Phase::kPropagate, 3);
  prof.on_phase(Phase::kQuiesce, 1);
  prof.flush();
  const RankProfSnapshot s = prof.snapshot();
  EXPECT_EQ(s.total()[ProfCounter::kCycles], 1000u);
  EXPECT_EQ(s.total_attributed_ns(), 7u);
}

TEST(RankProfiler, SamplingStrideReadsEveryNth) {
  std::vector<CounterSet> timeline(10);
  for (std::size_t i = 0; i < timeline.size(); ++i)
    timeline[i] = make_set(i * 100, i * 200);
  auto owned = std::make_unique<ScriptedBackend>(std::move(timeline));
  ScriptedBackend* backend = owned.get();
  RankProfiler prof(0, std::move(owned), /*sample_shift=*/2);
  prof.attach();  // 1 baseline read
  for (int i = 0; i < 8; ++i) prof.on_phase(Phase::kPropagate, 10);
  const RankProfSnapshot s = prof.snapshot();
  EXPECT_EQ(s.boundaries, 8u);
  EXPECT_EQ(s.reads, 2u);  // boundaries 4 and 8 only
  EXPECT_EQ(backend->reads_issued(), 3u);  // baseline + 2 samples
}

TEST(RankProfiler, ReadFailuresAreCountedNotFatal) {
  auto owned = std::make_unique<ScriptedBackend>(std::vector<CounterSet>{
      make_set(0, 0),
      make_set(500, 500),
  });
  ScriptedBackend* backend = owned.get();
  RankProfiler prof(0, std::move(owned), /*sample_shift=*/0);
  prof.attach();
  backend->fail_next_reads(1);
  prof.on_phase(Phase::kIngest, 10);  // read fails; pending carries over
  prof.on_phase(Phase::kIngest, 10);  // succeeds, attributes both
  const RankProfSnapshot s = prof.snapshot();
  EXPECT_EQ(s.read_failures, 1u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.total()[ProfCounter::kCycles], 500u);
  EXPECT_EQ(s.attributed_ns[static_cast<std::size_t>(Phase::kIngest)], 20u);
}

TEST(RankProfiler, OpenFailureLeavesProfilerInert) {
  auto owned = std::make_unique<ScriptedBackend>(std::vector<CounterSet>{
      make_set(1, 1)});
  owned->set_open_fails(true);
  RankProfiler prof(0, std::move(owned), 0);
  prof.attach();
  EXPECT_FALSE(prof.active());
  prof.on_phase(Phase::kIngest, 10);  // must not crash or read
  prof.flush();
  const RankProfSnapshot s = prof.snapshot();
  EXPECT_EQ(s.reads, 0u);
  EXPECT_EQ(s.total()[ProfCounter::kCycles], 0u);
}

TEST(RankProfiler, MergeAggregatesRanks) {
  RankProfSnapshot a, b;
  a.rank = 0;
  a.phase[0] = make_set(100, 200);
  a.boundaries = 4;
  a.reads = 2;
  b.rank = 1;
  b.phase[0] = make_set(50, 70);
  b.boundaries = 3;
  b.read_failures = 1;
  a.merge(b);
  EXPECT_EQ(a.phase[0][ProfCounter::kCycles], 150u);
  EXPECT_EQ(a.boundaries, 7u);
  EXPECT_EQ(a.reads, 2u);
  EXPECT_EQ(a.read_failures, 1u);
}

TEST(ProfSnapshot, JsonRoundTrip) {
  ProfSnapshot snap;
  snap.enabled = true;
  snap.backend = "scripted";
  snap.degraded = true;
  snap.sample_shift = 3;
  snap.available = kAllProfCounters;
  RankProfSnapshot r0;
  r0.rank = 0;
  r0.phase[static_cast<std::size_t>(Phase::kIngest)] =
      make_set(1000, 2500, 80, 20, 5, 300, 12345);
  r0.attributed_ns[static_cast<std::size_t>(Phase::kIngest)] = 777;
  r0.boundaries = 12;
  r0.reads = 3;
  r0.read_failures = 1;
  snap.per_rank.push_back(r0);

  const Json doc = snap.to_json();
  // Re-parse through text to exercise the serialised form, not the tree.
  std::string error;
  const Json reparsed = Json::parse(doc.dump(2), &error);
  ASSERT_TRUE(error.empty()) << error;

  ProfSnapshot back;
  ASSERT_TRUE(ProfSnapshot::from_json(reparsed, back, &error)) << error;
  EXPECT_TRUE(back.enabled);
  EXPECT_EQ(back.backend, "scripted");
  EXPECT_TRUE(back.degraded);
  EXPECT_EQ(back.sample_shift, 3u);
  EXPECT_EQ(back.available, kAllProfCounters);
  ASSERT_EQ(back.per_rank.size(), 1u);
  const RankProfSnapshot& r = back.per_rank[0];
  EXPECT_EQ(r.phase[static_cast<std::size_t>(Phase::kIngest)].v,
            r0.phase[static_cast<std::size_t>(Phase::kIngest)].v);
  EXPECT_EQ(r.attributed_ns[static_cast<std::size_t>(Phase::kIngest)], 777u);
  EXPECT_EQ(r.boundaries, 12u);
  EXPECT_EQ(r.reads, 3u);
  EXPECT_EQ(r.read_failures, 1u);
}

TEST(ProfSnapshot, FromJsonRejectsWrongSchema) {
  Json doc = Json::object();
  doc["schema"] = "remo-lineage-1";
  ProfSnapshot out;
  std::string error;
  EXPECT_FALSE(ProfSnapshot::from_json(doc, out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ProfSnapshot, TotalsMergeAllRanks) {
  ProfSnapshot snap;
  snap.enabled = true;
  for (std::uint32_t r = 0; r < 3; ++r) {
    RankProfSnapshot rs;
    rs.rank = r;
    rs.phase[0] = make_set(100, 100);
    snap.per_rank.push_back(rs);
  }
  const RankProfSnapshot t = snap.totals();
  EXPECT_EQ(t.rank, kProfTotalsRank);
  EXPECT_EQ(t.phase[0][ProfCounter::kCycles], 300u);
}

TEST(ProfDerived, RatiosGuardZeroDenominators) {
  EXPECT_EQ(prof_ipc(make_set(0, 100)), 0.0);
  EXPECT_DOUBLE_EQ(prof_ipc(make_set(100, 250)), 2.5);
  EXPECT_EQ(prof_llc_miss_rate(make_set(0, 0, 0, 5)), 0.0);
  EXPECT_DOUBLE_EQ(prof_llc_miss_rate(make_set(0, 0, 100, 25)), 0.25);
  EXPECT_EQ(prof_branch_miss_per_kinst(make_set(0, 0)), 0.0);
  EXPECT_DOUBLE_EQ(prof_branch_miss_per_kinst(make_set(0, 2000, 0, 0, 6)),
                   3.0);
  EXPECT_DOUBLE_EQ(prof_stalled_frac(make_set(100, 0, 0, 0, 0, 40)), 0.4);
}

// --- Prometheus exposition --------------------------------------------------

GaugeSample sample_with_prof() {
  GaugeSample s;
  s.prof_backend = "scripted";
  s.prof_degraded = true;
  s.prof.phase[static_cast<std::size_t>(Phase::kPropagate)] =
      make_set(1000, 2000, 100, 10, 4, 200, 5000);
  s.prof.attributed_ns[static_cast<std::size_t>(Phase::kPropagate)] = 5000;
  s.prof.reads = 7;
  s.prof.read_failures = 1;
  return s;
}

TEST(ProfPrometheus, FamiliesPresentWithDedupedHeaders) {
  const std::string text = sample_with_prof().to_prometheus();
  for (const char* family :
       {"remo_prof_cycles_total", "remo_prof_instructions_total",
        "remo_prof_llc_loads_total", "remo_prof_llc_misses_total",
        "remo_prof_branch_misses_total", "remo_prof_stalled_cycles_total",
        "remo_prof_task_clock_seconds_total", "remo_prof_ipc",
        "remo_prof_llc_miss_rate", "remo_prof_backend_info",
        "remo_prof_reads_total", "remo_prof_read_failures_total"}) {
    EXPECT_NE(text.find(std::string("# HELP ") + family), std::string::npos)
        << family;
    // Exactly one HELP line per family even with one series per phase.
    const std::string help = std::string("# HELP ") + family + " ";
    const auto first = text.find(help);
    ASSERT_NE(first, std::string::npos) << family;
    EXPECT_EQ(text.find(help, first + 1), std::string::npos) << family;
  }
  EXPECT_NE(text.find("remo_prof_cycles_total{phase=\"propagate\"} 1000"),
            std::string::npos);
  EXPECT_NE(text.find("remo_prof_backend_info{backend=\"scripted\"} 1"),
            std::string::npos);
}

TEST(ProfPrometheus, AbsentWhenNotPresent) {
  GaugeSample s;
  EXPECT_EQ(s.to_prometheus().find("remo_prof_"), std::string::npos);
}

TEST(ProfGaugesJson, BlockEmittedOnlyWhenPresent) {
  const Json with = sample_with_prof().to_json();
  ASSERT_NE(with.find("prof"), nullptr);
  const Json* phases = with.find("prof")->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_NE(phases->find("propagate"), nullptr);
  EXPECT_EQ(phases->find("propagate")->find("cycles")->as_uint(), 1000u);

  GaugeSample off;
  EXPECT_EQ(off.to_json().find("prof"), nullptr);
}

// --- Process rusage (the always-available floor) ----------------------------

TEST(ProcRusageTest, ReadsSaneValues) {
  // Touch some memory so max RSS is definitely nonzero.
  std::vector<char> ballast(1 << 20, 1);
  ballast.back() = 2;
  const ProcRusage r = read_proc_rusage();
  EXPECT_GT(r.max_rss_kb, 0u);
  EXPECT_GT(r.user_ns + r.sys_ns, 0u);

  const Json j = proc_rusage_json(r);
  for (const char* key :
       {"user_ns", "sys_ns", "max_rss_kb", "minor_faults", "major_faults",
        "voluntary_ctx_switches", "involuntary_ctx_switches"})
    EXPECT_NE(j.find(key), nullptr) << key;
}

// --- Backend resolution ------------------------------------------------------

TEST(BackendResolution, AutoNeverStaysAuto) {
  const ProfBackendKind k = resolve_prof_backend(ProfBackendKind::kAuto);
  EXPECT_NE(k, ProfBackendKind::kAuto);
  // Explicit kinds pass through.
  EXPECT_EQ(resolve_prof_backend(ProfBackendKind::kNoop),
            ProfBackendKind::kNoop);
  EXPECT_EQ(resolve_prof_backend(ProfBackendKind::kRusage),
            ProfBackendKind::kRusage);
}

TEST(BackendResolution, NoopBackendIsInert) {
  auto b = make_counter_backend(ProfBackendKind::kNoop);
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->open());
  EXPECT_EQ(b->available(), 0u);
}

TEST(BackendResolution, RusageBackendProvidesTaskClock) {
  auto b = make_counter_backend(ProfBackendKind::kRusage);
  ASSERT_NE(b, nullptr);
  if (!b->open()) GTEST_SKIP() << "no thread rusage on this platform";
  EXPECT_EQ(b->available(),
            prof_counter_bit(ProfCounter::kTaskClockNs) |
                prof_counter_bit(ProfCounter::kMinorFaults) |
                prof_counter_bit(ProfCounter::kMajorFaults));
  CounterSet before, after;
  ASSERT_TRUE(b->read(before));
  // Burn a little CPU so the task clock must advance.
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 20'000'000; ++i) sink = sink + i;
  ASSERT_TRUE(b->read(after));
  EXPECT_GE(after[ProfCounter::kTaskClockNs],
            before[ProfCounter::kTaskClockNs]);
  EXPECT_GT(after[ProfCounter::kTaskClockNs], 0u);
}

// --- Report formatting -------------------------------------------------------

TEST(ProfReport, DegradedBackendBanner) {
  ProfSnapshot snap;
  snap.enabled = true;
  snap.backend = "rusage";
  snap.degraded = true;
  snap.available = prof_counter_bit(ProfCounter::kTaskClockNs);
  RankProfSnapshot r;
  r.attributed_ns[0] = 1000;
  snap.per_rank.push_back(r);
  const std::string report = format_prof_report(snap);
  EXPECT_NE(report.find("degraded backend"), std::string::npos);
  EXPECT_NE(report.find("rusage"), std::string::npos);
}

TEST(ProfReport, HardwareTableShowsIpc) {
  ProfSnapshot snap;
  snap.enabled = true;
  snap.backend = "perf_event";
  snap.available = kAllProfCounters;
  RankProfSnapshot r;
  r.phase[static_cast<std::size_t>(Phase::kPropagate)] =
      make_set(1000, 2500, 100, 10, 4, 200, 5000);
  r.attributed_ns[static_cast<std::size_t>(Phase::kPropagate)] = 5000;
  r.reads = 1;
  snap.per_rank.push_back(r);
  const std::string report = format_prof_report(snap);
  EXPECT_EQ(report.find("degraded backend"), std::string::npos);
  EXPECT_NE(report.find("propagate"), std::string::npos);
  EXPECT_NE(report.find("2.50"), std::string::npos);  // IPC column
}

TEST(ProfReport, JoinsSpanStages) {
  ProfSnapshot snap;
  snap.enabled = true;
  snap.backend = "perf_event";
  snap.available = kAllProfCounters;
  RankProfSnapshot r;
  r.phase[static_cast<std::size_t>(Phase::kPropagate)] = make_set(1000, 2000);
  r.attributed_ns[static_cast<std::size_t>(Phase::kPropagate)] = 5000;
  snap.per_rank.push_back(r);

  SpanSnapshot spans;
  spans.completed = 3;
  for (std::size_t i = 0; i < kWriteStageCount; ++i) {
    LatencyHistogram h;
    h.record(1000 * (i + 1));
    spans.stages[i].hist = h.snapshot();
  }
  const std::string report = format_prof_report(snap, &spans);
  EXPECT_NE(report.find("write-path"), std::string::npos);
  EXPECT_NE(report.find(write_stage_name(static_cast<WriteStage>(0))),
            std::string::npos);
}

// --- Stack sampler -----------------------------------------------------------

TEST(StackSamplerTest, FoldedOutputFromBusyThread) {
  if (!StackSampler::supported())
    GTEST_SKIP() << "stack sampling unsupported on this platform";
  StackSampler sampler(StackSamplerConfig{/*period_us=*/200, /*max_depth=*/48});
  ASSERT_TRUE(sampler.start());
  std::atomic<bool> stop{false};
  std::thread busy([&] {
    sampler.register_current_thread("busy");
    volatile std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed))
      for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  });
  // Let it collect for a while.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::string folded = sampler.folded();  // stops the sampler
  stop.store(true);
  busy.join();
  EXPECT_FALSE(sampler.running());
  if (sampler.samples() == 0)
    GTEST_SKIP() << "no samples landed (loaded CI box)";
  EXPECT_NE(folded.find("busy"), std::string::npos);
  // Every line is "frames count" with a positive trailing count.
  std::istringstream in(folded);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_GT(std::strtoull(line.c_str() + sp + 1, nullptr, 10), 0u) << line;
  }
}

// A target that cannot take its sample leaves SIGPROF pending. stop() must
// discard it: under the default action a late SIGPROF kills the process.
TEST(StackSamplerTest, StopDiscardsPendingSamples) {
  if (!StackSampler::supported()) GTEST_SKIP();
  StackSampler sampler(StackSamplerConfig{/*period_us=*/200, /*max_depth=*/48});
  ASSERT_TRUE(sampler.start());
  std::atomic<bool> registered{false};
  std::atomic<bool> stopped{false};
  std::thread target([&] {
    sigset_t prof;
    sigemptyset(&prof);
    sigaddset(&prof, SIGPROF);
    pthread_sigmask(SIG_BLOCK, &prof, nullptr);
    sampler.register_current_thread("blocked");
    registered.store(true);
    while (!stopped.load()) std::this_thread::yield();
    pthread_sigmask(SIG_UNBLOCK, &prof, nullptr);  // a pending one lands here
  });
  while (!registered.load()) std::this_thread::yield();
  while (sampler.missed() == 0) std::this_thread::yield();
  sampler.stop();
  stopped.store(true);
  target.join();
  EXPECT_EQ(sampler.samples(), 0u);
  EXPECT_FALSE(sampler.running());
}

TEST(StackSamplerTest, OnlyOneInstanceRuns) {
  if (!StackSampler::supported()) GTEST_SKIP();
  StackSampler first;
  ASSERT_TRUE(first.start());
  StackSampler second;
  EXPECT_FALSE(second.start());
  first.stop();
  // Slot freed: a new sampler may start again.
  StackSampler third;
  EXPECT_TRUE(third.start());
  third.stop();
}

}  // namespace
}  // namespace remo::obs::test
