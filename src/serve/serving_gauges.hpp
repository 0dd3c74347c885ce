// The serving plane's metrics in the gauge stream. This table declares each
// one once — JSON key, Prometheus family (empty = JSON only), help text,
// type, unit, and the ServeStats / WriteGateStats / SpanCounts field it
// reads — and appends the rows to GaugeSample::serving, which the obs
// layer renders generically (the "serving" JSONL block and the
// remo_serve_* / remo_gate_* / remo_spans_* / remo_freshness_* families).
// Lives in src/serve (not src/obs) so the dependency points the right way.
// Adding a serving metric is one row here plus one doc row in
// docs/OBSERVABILITY.md.
#pragma once

#include "obs/gauges.hpp"
#include "obs/span.hpp"
#include "serve/query_service.hpp"
#include "serve/write_gate.hpp"

namespace remo::serve {

/// Append the serving rows: the QueryService block always, the write_gate
/// and spans groups when their stats are given.
inline void append_serving_metrics(obs::GaugeSample& sample, const ServeStats& st,
                                   const WriteGateStats* gs,
                                   const obs::SpanCounts* sc) {
  constexpr auto kCounter = obs::MetricType::kCounter;
  constexpr auto kGauge = obs::MetricType::kGauge;
  constexpr auto kNs = obs::MetricUnit::kNanoseconds;
  auto& rows = sample.serving;
  rows.insert(rows.end(), {
      {{"queries_served", "remo_serve_queries_total", "Catalog queries answered",
        kCounter}, st.queries_served},
      {{"refreshes", "remo_serve_refreshes_total", "Views published (all programs)",
        kCounter}, st.refreshes},
      {{"served_programs", "remo_serve_programs", "Active serving slots"},
       st.served_programs},
      {{"read_epoch_lag_events", "remo_serve_read_epoch_lag_events",
        "Accepted events the stalest published view may be missing"},
       st.read_epoch_lag_events},
      {{"view_age_ns", "remo_serve_view_age_seconds",
        "Age of the oldest active published view", kGauge, kNs}, st.view_age_ns},
  });
  if (gs) {
    const char* const g = "write_gate";
    rows.insert(rows.end(), {
        {{"events_submitted", "remo_gate_events_submitted_total",
          "Events enqueued at the write gate", kCounter}, gs->events_submitted, g},
        {{"events_dispatched", "remo_gate_events_dispatched_total",
          "Events the gate injected into the engine", kCounter},
         gs->events_dispatched, g},
        {{"batches", "remo_gate_batches_total", "Batches the gate dispatched",
          kCounter}, gs->batches, g},
        {{"waves", "remo_gate_waves_total", "Conflict-free waves dispatched",
          kCounter}, gs->waves, g},
        {{"serial_fallback_batches", "remo_gate_serial_fallback_batches_total",
          "Batches injected serially (conflict-dominated)", kCounter},
         gs->serial_fallback_batches, g},
        {{"mean_wave_occupancy", "remo_gate_mean_wave_occupancy",
          "Mean events per wave over non-fallback batches"},
         gs->mean_wave_occupancy, g},
    });
  }
  if (sc) {
    const char* const g = "spans";
    rows.insert(rows.end(), {
        {{"sampled"}, sc->batches_sampled, g},
        {{"completed", "remo_spans_completed_total",
          "Write-path spans closed (batch became readable)", kCounter},
         sc->completed, g},
        {{"open", "remo_spans_open", "Write-path spans still in flight"}, sc->open, g},
        {{"dropped"}, sc->dropped_open, g},
        {{"freshness_p50_ns", "remo_freshness_p50_seconds",
          "Median write-to-readable freshness", kGauge, kNs},
         sc->freshness_p50_ns, g},
        {{"freshness_p99_ns", "remo_freshness_p99_seconds",
          "p99 write-to-readable freshness", kGauge, kNs},
         sc->freshness_p99_ns, g},
    });
  }
}

/// Read whichever serving components exist (any may be nullptr) and
/// append their rows; nothing when all are absent. Each source is a
/// lock-protected stats read — cheap at exporter cadence, not per-event.
inline void fill_serving_gauges(obs::GaugeSample& sample,
                                const QueryService* service,
                                const WriteGate* gate,
                                const obs::SpanRecorder* spans) {
  if (!service && !gate && !spans) return;
  const WriteGateStats gs = gate ? gate->stats() : WriteGateStats{};
  const obs::SpanCounts sc = spans ? spans->counts() : obs::SpanCounts{};
  append_serving_metrics(sample, service ? service->stats() : ServeStats{},
                         gate ? &gs : nullptr, spans ? &sc : nullptr);
}

}  // namespace remo::serve
