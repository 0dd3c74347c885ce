#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/exporter.hpp"
#include "obs/gauges.hpp"
#include "obs/watchdog.hpp"

namespace remo::obs::test {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

GaugeSample make_sample() {
  GaugeSample s;
  s.sample_ns = 1'500'000'000;
  s.events_ingested = 1000;
  s.events_applied = 900;
  s.converged_through = 800;
  s.convergence_lag_events = 200;
  s.staleness_ns = 250'000'000;
  s.in_flight = 42;
  s.queue_depth = 17;
  s.idle_ranks = 1;
  s.idle_ratio = 0.5;
  s.quiescent = false;
  s.safra_mode = true;
  s.safra_generation = 3;
  s.safra_probe_rounds = 12;
  s.safra_probe_active = true;
  s.per_rank.resize(2);
  s.per_rank[0] = RankGaugeSample{.queue_depth = 12,
                                  .ring_occupancy = 9,
                                  .overflow_depth = 3,
                                  .events_ingested = 600,
                                  .events_applied = 500,
                                  .converged_through = 480,
                                  .staleness_ns = 100'000'000,
                                  .trace_emitted = 7,
                                  .idle = false};
  s.per_rank[1] = RankGaugeSample{.queue_depth = 5,
                                  .events_ingested = 400,
                                  .events_applied = 400,
                                  .converged_through = 400,
                                  .trace_emitted = 3,
                                  .idle = true};
  return s;
}

TEST(GaugeSample, JsonRecordHasSchemaAndAllGauges) {
  const Json j = make_sample().to_json();
  EXPECT_EQ(j.find("schema")->as_string(), "remo-gauges-1");
  EXPECT_EQ(j.find("events_ingested")->as_uint(), 1000u);
  EXPECT_EQ(j.find("events_applied")->as_uint(), 900u);
  EXPECT_EQ(j.find("converged_through")->as_uint(), 800u);
  EXPECT_EQ(j.find("convergence_lag_events")->as_uint(), 200u);
  EXPECT_EQ(j.find("staleness_ns")->as_uint(), 250'000'000u);
  EXPECT_EQ(j.find("in_flight")->as_int(), 42);
  EXPECT_EQ(j.find("queue_depth")->as_uint(), 17u);
  EXPECT_FALSE(j.find("quiescent")->as_bool());
  const Json* det = j.find("termination");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->find("mode")->as_string(), "safra");
  EXPECT_EQ(det->find("probe_rounds")->as_uint(), 12u);
  const Json* ranks = j.find("per_rank");
  ASSERT_NE(ranks, nullptr);
  ASSERT_EQ(ranks->size(), 2u);
  EXPECT_EQ(ranks->items()[0].find("queue_depth")->as_uint(), 12u);
  EXPECT_EQ(ranks->items()[0].find("ring_occupancy")->as_uint(), 9u);
  EXPECT_EQ(ranks->items()[0].find("overflow_depth")->as_uint(), 3u);
  EXPECT_TRUE(ranks->items()[1].find("idle")->as_bool());

  // Round-trips through the parser and honours include_per_rank = false.
  std::string err;
  Json::parse(j.dump(), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(make_sample().to_json(false).find("per_rank"), nullptr);
}

TEST(GaugeSample, CountingModeOmitsSafraDetail) {
  GaugeSample s = make_sample();
  s.safra_mode = false;
  const Json j = s.to_json();
  const Json* det = j.find("termination");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->find("mode")->as_string(), "counting");
  EXPECT_EQ(det->find("probe_rounds"), nullptr);
}

TEST(GaugeSample, PrometheusExpositionIsWellFormed) {
  const std::string text = make_sample().to_prometheus();
  // Every metric line is "name[{labels}] value"; HELP/TYPE precede values.
  EXPECT_NE(text.find("# HELP remo_convergence_lag_events"), std::string::npos);
  EXPECT_NE(text.find("# TYPE remo_events_ingested_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("remo_events_ingested_total 1000\n"), std::string::npos);
  EXPECT_NE(text.find("remo_convergence_lag_events 200\n"), std::string::npos);
  EXPECT_NE(text.find("remo_staleness_seconds 0.250000000\n"), std::string::npos);
  EXPECT_NE(text.find("remo_in_flight_messages 42\n"), std::string::npos);
  EXPECT_NE(text.find("remo_queue_depth{rank=\"0\"} 12\n"), std::string::npos);
  EXPECT_NE(text.find("remo_queue_depth{rank=\"1\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("remo_ring_occupancy{rank=\"0\"} 9\n"), std::string::npos);
  EXPECT_NE(text.find("remo_overflow_depth{rank=\"0\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("remo_rank_idle{rank=\"1\"} 1\n"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(PromSanitize, MapsIllegalCharsOntoExpositionCharset) {
  EXPECT_EQ(prom_sanitize_name("remo_ok_name:total"), "remo_ok_name:total");
  EXPECT_EQ(prom_sanitize_name("remo-queue.depth"), "remo_queue_depth");
  EXPECT_EQ(prom_sanitize_name("9lives"), "_9lives");
  EXPECT_EQ(prom_sanitize_name(""), "_");
  EXPECT_EQ(prom_sanitize_name("a b/c"), "a_b_c");
}

TEST(PromWriter, SanitizesNamesAndEmitsHeadersOncePerMetric) {
  PromWriter w;
  w.header("remo-flaky.metric", "help text", "gauge");
  w.value("remo-flaky.metric", std::uint64_t{1});
  w.header("remo-flaky.metric", "help text", "gauge");  // literal duplicate
  w.header("remo_flaky_metric", "other", "counter");    // post-sanitize duplicate
  w.value("remo-flaky.metric", std::uint64_t{2}, "rank", "0");
  const std::string& text = w.str();

  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count("# HELP remo_flaky_metric"), 1u);
  EXPECT_EQ(count("# TYPE remo_flaky_metric"), 1u);
  EXPECT_NE(text.find("remo_flaky_metric 1\n"), std::string::npos);
  EXPECT_NE(text.find("remo_flaky_metric{rank=\"0\"} 2\n"), std::string::npos);
  // The raw (illegal) spelling never reaches the exposition.
  EXPECT_EQ(text.find("remo-flaky.metric"), std::string::npos);
}

TEST(GaugeSample, WatchViewRendersHeaderAndOneLinePerRank) {
  const std::string view = make_sample().watch_view();
  std::size_t lines = 0;
  for (char c : view) lines += c == '\n';
  EXPECT_EQ(lines, 3u);  // header + 2 ranks
  EXPECT_NE(view.find("lag 200 ev"), std::string::npos);
  EXPECT_NE(view.find("rank 0"), std::string::npos);
  EXPECT_NE(view.find("rank 1"), std::string::npos);
  EXPECT_NE(view.find("idle"), std::string::npos);
  EXPECT_NE(view.find("busy"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricsExporter against scripted samplers
// ---------------------------------------------------------------------------

TEST(MetricsExporter, JsonlEmitsOneParsableRecordPerSample) {
  const std::string path = temp_path("remo_gauges_test.jsonl");
  std::atomic<std::uint64_t> calls{0};
  {
    MetricsExporter::Config cfg;
    cfg.period = std::chrono::milliseconds(2);
    cfg.path = path;
    MetricsExporter exporter(
        [&] {
          GaugeSample s = make_sample();
          s.events_ingested = 1000 + calls.fetch_add(1, std::memory_order_relaxed);
          return s;
        },
        cfg);
    while (exporter.samples() < 3)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(exporter.last_sample().events_ingested, 1000u);
  }  // destructor stops + flushes the final sample

  std::istringstream in(slurp(path));
  std::string line;
  std::uint64_t records = 0, prev_ingested = 0;
  while (std::getline(in, line)) {
    std::string err;
    const Json j = Json::parse(line, &err);
    ASSERT_TRUE(err.empty()) << "line " << records << ": " << err;
    EXPECT_EQ(j.find("schema")->as_string(), "remo-gauges-1");
    const std::uint64_t ingested = j.find("events_ingested")->as_uint();
    EXPECT_GE(ingested, prev_ingested);  // scripted monotone counter
    prev_ingested = ingested;
    ++records;
  }
  EXPECT_GE(records, 4u);  // >= 3 periodic + 1 final
  std::remove(path.c_str());
}

TEST(MetricsExporter, PrometheusRewritesFileAtomically) {
  const std::string path = temp_path("remo_gauges_test.prom");
  {
    MetricsExporter::Config cfg;
    cfg.period = std::chrono::milliseconds(2);
    cfg.format = MetricsExporter::Format::kPrometheus;
    cfg.path = path;
    MetricsExporter exporter([] { return make_sample(); }, cfg);
    while (exporter.samples() < 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string text = slurp(path);
  EXPECT_NE(text.find("remo_events_ingested_total 1000\n"), std::string::npos);
  // The rename target replaced the tmp file; no half-written residue.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(MetricsExporter, StopTakesExactlyOneFinalSample) {
  std::atomic<std::uint64_t> calls{0};
  MetricsExporter::Config cfg;
  cfg.period = std::chrono::hours(1);  // never ticks on its own
  cfg.path = temp_path("remo_gauges_final.jsonl");
  MetricsExporter exporter(
      [&] {
        calls.fetch_add(1, std::memory_order_relaxed);
        return make_sample();
      },
      cfg);
  exporter.stop();
  exporter.stop();  // idempotent
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(exporter.samples(), 1u);
  std::remove(cfg.path.c_str());
}

// ---------------------------------------------------------------------------
// StallWatchdog against scripted samplers
// ---------------------------------------------------------------------------

struct ScriptedRank {
  std::uint64_t queue = 0;
  std::uint64_t applied = 0;
};

/// Sampler backed by a mutable script: each call renders the current rank
/// states into a GaugeSample.
class StallScript {
 public:
  explicit StallScript(std::size_t ranks) : ranks_(ranks) {}

  void set(std::size_t r, std::uint64_t queue, std::uint64_t applied) {
    std::lock_guard lock(mutex_);
    ranks_[r] = ScriptedRank{queue, applied};
  }

  GaugeSample operator()() {
    std::lock_guard lock(mutex_);
    GaugeSample s;
    s.per_rank.resize(ranks_.size());
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      s.per_rank[r].queue_depth = ranks_[r].queue;
      s.per_rank[r].events_applied = ranks_[r].applied;
      s.events_applied += ranks_[r].applied;
      s.queue_depth += ranks_[r].queue;
    }
    return s;
  }

 private:
  std::mutex mutex_;
  std::vector<ScriptedRank> ranks_;
};

struct ReportLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<StallWatchdog::Report> reports;

  void push(const StallWatchdog::Report& r) {
    std::lock_guard lock(mutex);
    reports.push_back(r);
    cv.notify_all();
  }

  StallWatchdog::Report wait_for_report(std::size_t index) {
    std::unique_lock lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return reports.size() > index; }));
    return reports.at(index);
  }
};

TEST(StallWatchdog, FlagsRankAfterExactlyStallPeriodsAndRecovers) {
  auto script = std::make_shared<StallScript>(3);
  script->set(0, 0, 100);  // idle, empty queue: never flagged
  script->set(1, 5, 0);    // backlog, applied frozen: the stalled rank
  script->set(2, 9, 0);    // backlog but advancing (below): never flagged
  std::atomic<std::uint64_t> advancing{0};

  ReportLog log;
  StallWatchdog::Config cfg;
  cfg.period = std::chrono::milliseconds(2);
  cfg.stall_periods = 3;
  cfg.extra_dump = [](std::uint32_t r) {
    return std::string("extra-dump-for-rank-") + std::to_string(r) + "\n";
  };
  StallWatchdog dog(
      [&] {
        // Rank 2 makes progress on every sample; rank 1 never does.
        script->set(2, 9, advancing.fetch_add(1, std::memory_order_relaxed) + 1);
        return (*script)();
      },
      cfg, [&](const StallWatchdog::Report& r) { log.push(r); });

  const StallWatchdog::Report first = log.wait_for_report(0);
  EXPECT_EQ(first.rank, 1u);
  EXPECT_EQ(first.periods, 3u);  // flagged on exactly the 3rd no-progress sample
  EXPECT_FALSE(first.recovered);
  EXPECT_NE(first.dump.find("rank 1 made no progress for 3"), std::string::npos);
  EXPECT_NE(first.dump.find("extra-dump-for-rank-1"), std::string::npos);
  EXPECT_EQ(dog.stalls_detected(), 1u);
  EXPECT_TRUE(dog.rank_flagged(1));
  EXPECT_FALSE(dog.rank_flagged(0));
  EXPECT_FALSE(dog.rank_flagged(2));

  // Unwedge rank 1: the next sample shows progress -> recovery report.
  script->set(1, 2, 50);
  const StallWatchdog::Report second = log.wait_for_report(1);
  EXPECT_EQ(second.rank, 1u);
  EXPECT_TRUE(second.recovered);
  EXPECT_FALSE(dog.rank_flagged(1));
  EXPECT_EQ(dog.stalls_detected(), 1u);  // recoveries are not stalls
  dog.stop();
}

TEST(StallWatchdog, EmptyQueueNeverFlagsEvenWithoutProgress) {
  auto script = std::make_shared<StallScript>(1);
  script->set(0, 0, 0);  // nothing to do != stalled
  StallWatchdog::Config cfg;
  cfg.period = std::chrono::milliseconds(1);
  cfg.stall_periods = 2;
  std::atomic<std::uint64_t> samples{0};
  StallWatchdog dog(
      [&] {
        samples.fetch_add(1, std::memory_order_relaxed);
        return (*script)();
      },
      cfg, [](const StallWatchdog::Report&) { FAIL() << "spurious stall"; });
  while (samples.load(std::memory_order_relaxed) < 10)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(dog.stalls_detected(), 0u);
  dog.stop();
}

TEST(StallWatchdog, HoldsWhileSafraTokenInFlight) {
  // While a Safra probe circulates, a rank may legitimately sit on backlog
  // with frozen counters (the token needs whole ring circuits). The
  // watchdog must hold its no-progress counters — no accumulation, no
  // reset — and resume the count once the probe ends.
  auto script = std::make_shared<StallScript>(1);
  script->set(0, 7, 0);  // backlog, frozen applied: stall candidate
  std::atomic<std::uint64_t> samples{0};
  std::atomic<bool> probing{true};
  ReportLog log;
  StallWatchdog::Config cfg;
  cfg.period = std::chrono::milliseconds(1);
  cfg.stall_periods = 3;
  StallWatchdog dog(
      [&] {
        samples.fetch_add(1, std::memory_order_relaxed);
        GaugeSample s = (*script)();
        s.safra_mode = true;
        s.safra_probe_active = probing.load(std::memory_order_relaxed);
        return s;
      },
      cfg, [&](const StallWatchdog::Report& r) { log.push(r); });

  // Many probing samples, all showing backlog + no progress: no report.
  while (samples.load(std::memory_order_relaxed) < 20)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(dog.stalls_detected(), 0u);
  EXPECT_FALSE(dog.rank_flagged(0));

  // Probe ends without the rank progressing: accumulation starts from zero
  // and flags after exactly stall_periods further samples.
  probing.store(false, std::memory_order_relaxed);
  const StallWatchdog::Report rep = log.wait_for_report(0);
  EXPECT_EQ(rep.rank, 0u);
  EXPECT_EQ(rep.periods, 3u);
  EXPECT_FALSE(rep.recovered);
  dog.stop();
}

TEST(StallWatchdog, TerminatedProbeDoesNotSuppressDetection) {
  // probe_active can stay latched in a terminated sample; termination means
  // the detector finished, so suppression must not apply.
  auto script = std::make_shared<StallScript>(1);
  script->set(0, 4, 0);
  ReportLog log;
  StallWatchdog::Config cfg;
  cfg.period = std::chrono::milliseconds(1);
  cfg.stall_periods = 2;
  StallWatchdog dog(
      [&] {
        GaugeSample s = (*script)();
        s.safra_mode = true;
        s.safra_probe_active = true;
        s.safra_terminated = true;
        return s;
      },
      cfg, [&](const StallWatchdog::Report& r) { log.push(r); });
  const StallWatchdog::Report rep = log.wait_for_report(0);
  EXPECT_EQ(rep.rank, 0u);
  EXPECT_EQ(rep.periods, 2u);
  dog.stop();
}

TEST(StallWatchdog, FormatDumpShowsWatermarksAndFlaggedRank) {
  GaugeSample s = make_sample();
  const std::string dump = StallWatchdog::format_dump(s, 0, 4);
  EXPECT_NE(dump.find("rank 0 made no progress for 4"), std::string::npos);
  EXPECT_NE(dump.find("ingested 1,000"), std::string::npos);
  EXPECT_NE(dump.find("lag 200 events"), std::string::npos);
  EXPECT_NE(dump.find("<<<"), std::string::npos);
  EXPECT_NE(dump.find("safra generation 3"), std::string::npos);
}

}  // namespace
}  // namespace remo::obs::test
