// Shared helpers for the figure/table harnesses.
//
// Environment knobs (apply to every bench binary; gen/datasets.hpp parses
// them and rejects malformed values):
//   REMO_BENCH_SCALE   dataset scale shift (default 0; -2 quarters sizes)
//   REMO_BENCH_RANKS   space-separated rank counts (default "1 2 4")
//   REMO_BENCH_REPEATS runs per configuration, averaged (default 3; the
//                      paper averaged 10)
#pragma once

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "remo/remo.hpp"

namespace remo::bench {

/// Machine-readable harness output (docs/OBSERVABILITY.md, "BENCH_*.json").
/// Each harness builds one report and writes `BENCH_<name>.json` into
/// $REMO_BENCH_OUT_DIR (default: the working directory) alongside its
/// human-readable stdout table.
class BenchReport {
 public:
  /// `name` is the file stem ("fig3" -> BENCH_fig3.json).
  BenchReport(std::string name, std::string title);

  Json& doc() { return doc_; }
  void set(const std::string& key, Json value) { doc_[key] = std::move(value); }
  void add_run(Json row) { doc_["runs"].push_back(std::move(row)); }

  std::string path() const;

  /// Serialise to BENCH_<name>.json and report the path on stdout.
  bool write() const;

 private:
  std::string name_;
  Json doc_;
};

/// Standard run row: dataset / ranks / throughput triple every harness
/// emits. Harnesses append extra fields via operator[].
Json run_row(const std::string& dataset, RankId ranks, std::uint64_t events,
             double seconds, double events_per_second);

/// Latency percentiles + message counters of a (quiescent) engine in the
/// stats-JSON shape — attach as a run row's "latency"/"messages"/"phases".
/// Includes a "gauges" section: the final live-telemetry sample, whose
/// convergence_lag_events must be 0 at quiescence (CI's bench-smoke job
/// asserts this). When lineage tracing is on, a "lineage" amplification
/// summary block rides along (sampled causes, visitors/update p50/p99,
/// depth percentiles, cross-rank hop ratio).
Json engine_obs_json(const Engine& engine);

/// Apply observability env switches to an engine config (the lineage- and
/// prof-overhead A/B arms and CI's lineage-/prof-smoke jobs):
///   REMO_OBS_LINEAGE  "1" enables lineage tracing ("0"/unset: off)
///   REMO_OBS_PROF     "1" enables hardware-counter profiling
void apply_obs_env(EngineConfig& cfg);

/// The comm hot-path settings every harness runs with (EngineConfig's
/// defaults), recorded in each BenchReport's "config" block. The other
/// arms run through `remo ingest --batch-size/--no-coalesce`.
Json comm_config_json();

/// When $REMO_LINEAGE_OUT is set and `engine` has lineage tracing on, dump
/// the merged remo-lineage-1 snapshot there for `remo_cli trace-analyze`.
/// Call at quiescence (after ingest returns). No-op otherwise.
void write_lineage_from_env(const Engine& engine);

/// Attach a live-telemetry exporter when $REMO_METRICS_OUT is set (the
/// bench-overhead A/B knob and CI's bench-smoke job):
///   REMO_METRICS_OUT        output path ("-" = stdout JSONL)
///   REMO_METRICS_PERIOD_MS  sampling period (default 100)
///   REMO_METRICS_FORMAT     "jsonl" (default) or "prom"
/// Returns null when the knob is unset. The exporter samples `engine`, so
/// destroy it before the engine (declare it after).
std::unique_ptr<obs::MetricsExporter> exporter_from_env(Engine& engine);

/// Mean of a sample vector.
double mean(const std::vector<double>& xs);

/// Print a header block for a harness: figure id + what the paper showed.
void print_banner(const std::string& figure, const std::string& description);

/// "1.3e9" style events/s formatting.
std::string rate(double events_per_second);

/// Count distinct vertices in an edge list.
std::uint64_t distinct_vertices(const EdgeList& edges);

/// Run one saturation ingest of `dataset` with `programs` pre-attached by
/// the caller via the callback (invoked once, before ingestion). Returns
/// mean events/s over `repeats` fresh engines.
struct SaturationResult {
  double events_per_second = 0;
  double seconds = 0;
  std::uint64_t events = 0;
  /// Observability sections (latency / messages / phases) captured from the
  /// final repeat's engine, ready to merge into a BenchReport run row.
  Json obs = Json::object();
};

template <typename Setup>
SaturationResult measure_saturation(const EdgeList& edges, RankId ranks, int repeats,
                                    Setup&& setup, bool undirected = true) {
  SaturationResult out;
  std::vector<double> rates, secs;
  for (int rep = 0; rep < repeats; ++rep) {
    EngineConfig cfg;
    cfg.num_ranks = ranks;
    cfg.undirected = undirected;
    apply_obs_env(cfg);
    Engine engine(cfg);
    setup(engine);
    const auto exporter = exporter_from_env(engine);
    const StreamSet streams =
        make_streams(edges, ranks, StreamOptions{.seed = 7 + static_cast<std::uint64_t>(rep)});
    const IngestStats stats = engine.ingest(streams);
    rates.push_back(stats.events_per_second);
    secs.push_back(stats.seconds);
    out.events = stats.events;
    if (rep == repeats - 1) {
      out.obs = engine_obs_json(engine);
      write_lineage_from_env(engine);
    }
  }
  out.events_per_second = mean(rates);
  out.seconds = mean(secs);
  return out;
}

}  // namespace remo::bench
