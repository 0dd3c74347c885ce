// Live telemetry gauges: watermarks, convergence lag, queue depths, and
// termination-detector state — readable at any time without stopping the
// engine.
//
// The recording side is spread across the structures that already own the
// numbers: `LiveRankMetrics` (applied-event counters), `Mailbox`/`Comm`
// (queue depths, in-flight), `SafraRing` (probe rounds), and a small
// `RankGauges` cell block per rank (ingest watermark, passive watermark,
// idle flag). Everything is a relaxed atomic updated on writes the hot
// path already performs; `Engine::sample_gauges()` assembles one coherent
//-enough `GaugeSample` from those cells on demand.
//
// Watermark semantics (docs/OBSERVABILITY.md has the full treatment):
//  * `events_ingested`  — topology events accepted into the system (stream
//    pulls + API injections). Monotone.
//  * `events_applied`   — topology events whose store mutation + local
//    callbacks have executed. Monotone; equals ingested at quiescence.
//  * `converged_through`— the ingested-count watermark through which the
//    algorithm state is known converged. Observer-advanced: whenever a
//    sample finds the engine quiescent (no in-flight work, empty queues,
//    passive streams), the watermark jumps to the ingested count read
//    *before* the quiescence checks — those events have provably settled.
//  * `convergence_lag_events = events_ingested - converged_through` — the
//    paper's "how far behind is the answer?" in events.
//  * `staleness_ns`     — wall-clock form: 0 when lag is 0, otherwise time
//    since the converged watermark last advanced.
//
// Rendering: `GaugeSample` is a plain struct the engine fills. The metric
// tables in gauges.cpp declare each engine gauge once (JSON key,
// Prometheus family, help, type, unit) and feed both `to_json()` and
// `to_prometheus()`. Layers above obs append declared `Metric` rows — the
// serving plane's table lives in serve/serving_gauges.hpp — which render
// generically, so obs never depends on them.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/json.hpp"
#include "obs/phase_timer.hpp"
#include "obs/prof.hpp"

namespace remo::obs {

/// Prometheus type of a declared metric.
enum class MetricType : std::uint8_t { kCounter, kGauge };

/// Unit of a declared metric. JSON carries the raw value; Prometheus
/// renders nanoseconds in its base unit, seconds.
enum class MetricUnit : std::uint8_t { kCount, kNanoseconds };

/// One exported metric, declared once: its JSON key, its Prometheus family
/// (empty = JSON only), help text, type and unit. Every output format
/// renders from this declaration. The views must outlive every rendering
/// of a sample that carries them; the tables use string literals.
struct MetricDef {
  std::string_view key;
  std::string_view prom = {};
  std::string_view help = {};
  MetricType type = MetricType::kGauge;
  MetricUnit unit = MetricUnit::kCount;
};

/// A sampled value: integers stay exact, ratios stay real.
using MetricValue = std::variant<std::uint64_t, std::int64_t, double, bool>;

/// A declared metric with its sampled value. `group` nests it one level
/// down in its JSON block (nullptr = the block itself).
struct Metric {
  MetricDef def;
  MetricValue value;
  const char* group = nullptr;
};

/// Map a metric name onto the Prometheus exposition charset
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): '-', '.', and anything else illegal become
/// '_', and a leading digit gains a '_' prefix.
std::string prom_sanitize_name(std::string_view name);

/// Prometheus text-exposition builder with promtool-strict hygiene: every
/// name passes through prom_sanitize_name(), and the HELP/TYPE header for
/// a metric is emitted exactly once per exposition no matter how many
/// sample lines reference it (duplicated headers are a parse error under
/// strict checkers).
class PromWriter {
 public:
  /// Emit `# HELP` / `# TYPE` for `name` unless already emitted.
  void header(std::string_view name, std::string_view help, std::string_view type);
  void header(const MetricDef& d);

  /// One sample line: `name v`, or `name{key="label"} v` when `key` is set.
  void value(std::string_view name, const MetricValue& v,
             std::string_view key = {}, std::string_view label = {});

  /// A declared metric in one call: its header (once) and one sample line.
  /// Nanosecond values render as seconds; JSON-only metrics emit nothing.
  void metric(const MetricDef& d, const MetricValue& v,
              std::string_view key = {}, std::string_view label = {});

  const std::string& str() const noexcept { return out_; }

 private:
  std::string out_;
  std::vector<std::string> headers_emitted_;
};

/// Per-rank live cells beyond what LiveRankMetrics already tracks. Single
/// writer (the owning rank), relaxed-atomic, padded onto their own line so
/// sampler reads never contend with neighbouring hot state.
struct alignas(64) RankGauges {
  /// Stream events this rank pulled (whether applied locally or routed).
  std::atomic<std::uint64_t> events_ingested{0};
  /// events_applied value at the last instant this rank was locally
  /// passive (ingress empty, nothing buffered, streams drained or paused).
  std::atomic<std::uint64_t> converged_through{0};
  /// Engine-relative time of the last locally-passive instant.
  std::atomic<std::uint64_t> last_passive_ns{0};
  /// True while the rank is parked waiting for work.
  std::atomic<bool> idle{false};
};

/// One rank's row in a gauge sample.
struct RankGaugeSample {
  std::uint64_t queue_depth = 0;        ///< mailbox + loop-back + held tokens
  std::uint64_t ring_occupancy = 0;     ///< visitors parked in the SPSC rings
  std::uint64_t overflow_depth = 0;     ///< visitors in the overflow segment
  std::uint64_t events_ingested = 0;    ///< stream events pulled by this rank
  std::uint64_t events_applied = 0;     ///< topology events applied here
  std::uint64_t converged_through = 0;  ///< applied watermark at last passive
  std::uint64_t staleness_ns = 0;       ///< 0 when idle; else now - last passive
  std::uint64_t trace_emitted = 0;      ///< trace slices emitted (0 if off)
  bool idle = false;                    ///< parked right now
};

/// A point-in-time reading of every live gauge (schema "remo-gauges-1").
struct GaugeSample {
  std::uint64_t sample_ns = 0;  ///< engine-relative monotonic sample time

  // Watermarks & convergence lag.
  std::uint64_t events_ingested = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t converged_through = 0;
  std::uint64_t convergence_lag_events = 0;
  std::uint64_t staleness_ns = 0;

  // Runtime gauges.
  std::int64_t in_flight = 0;      ///< counting detector's live message count
  std::uint64_t queue_depth = 0;   ///< total ingress backlog across ranks
  std::uint32_t idle_ranks = 0;
  double idle_ratio = 0.0;         ///< idle_ranks / ranks
  bool quiescent = false;          ///< this sample observed full quiescence

  // Termination detector.
  bool safra_mode = false;  ///< false = counting detector
  std::uint64_t safra_generation = 0;
  std::uint64_t safra_probe_rounds = 0;
  bool safra_probe_active = false;
  bool safra_terminated = false;

  std::vector<RankGaugeSample> per_rank;

  /// Serving-plane metrics, rendered as the "serving" block; empty unless
  /// the serving layer appended them (serve/serving_gauges.hpp).
  std::vector<Metric> serving;

  /// Hardware-counter block: the resolved backend name (empty unless
  /// profiling is enabled), whether it is degraded (not perf_event), and
  /// the attribution summed across ranks.
  std::string prof_resolved_backend;
  bool prof_degraded = false;
  RankProfSnapshot prof;

  /// One flight-recorder record (schema "remo-gauges-1"); `dump()` of this
  /// is one JSONL line.
  Json to_json(bool include_per_rank = true) const;

  /// Prometheus text exposition (one scrape's worth, HELP/TYPE included).
  std::string to_prometheus() const;

  /// Refreshing live view: a header plus one line per rank (the CLI's
  /// --watch rendering).
  std::string watch_view() const;
};

}  // namespace remo::obs
