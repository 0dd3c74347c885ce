#include "obs/gauges.hpp"

#include <array>

#include "common/strfmt.hpp"

namespace remo::obs {

namespace {

constexpr MetricType kCounter = MetricType::kCounter;
constexpr MetricUnit kNs = MetricUnit::kNanoseconds;

// The engine-filled gauges, declared once each in JSON order. Prometheus
// renders the ones that name a family.

std::array<Metric, 10> sample_metrics(const GaugeSample& s) {
  return {{
      {{"events_ingested", "remo_events_ingested_total",
        "Topology events accepted into the system", kCounter},
       s.events_ingested},
      {{"events_applied", "remo_events_applied_total",
        "Topology events applied (store mutation + local callbacks)", kCounter},
       s.events_applied},
      {{"converged_through", "remo_converged_through",
        "Ingested-event watermark through which state is converged"},
       s.converged_through},
      {{"convergence_lag_events", "remo_convergence_lag_events",
        "Events ingested but not yet reflected in converged state"},
       s.convergence_lag_events},
      {{"staleness_ns", "remo_staleness_seconds",
        "Wall-clock age of the converged watermark (0 when caught up)",
        MetricType::kGauge, kNs},
       s.staleness_ns},
      {{"in_flight", "remo_in_flight_messages",
        "Basic visitors injected but not fully processed"},
       s.in_flight},
      {{"queue_depth"}, s.queue_depth},
      {{"idle_ranks", "remo_idle_ranks", "Ranks currently parked waiting for work"},
       std::uint64_t{s.idle_ranks}},
      {{"idle_ratio"}, s.idle_ratio},
      {{"quiescent"}, s.quiescent},
  }};
}

// Safra detail; JSON shows it in Safra mode only.
std::array<Metric, 4> safra_metrics(const GaugeSample& s) {
  return {{
      {{"generation"}, s.safra_generation},
      {{"probe_rounds", "remo_termination_probe_rounds_total",
        "Safra token circuits completed (0 in counting mode)", kCounter},
       s.safra_probe_rounds},
      {{"probe_active"}, s.safra_probe_active},
      {{"terminated"}, s.safra_terminated},
  }};
}

// One rank's row; Prometheus labels each family by rank.
std::array<Metric, 8> rank_metrics(const RankGaugeSample& g) {
  return {{
      {{"queue_depth", "remo_queue_depth",
        "Undrained ingress visitors (mailbox + loop-back)"},
       g.queue_depth},
      {{"ring_occupancy", "remo_ring_occupancy",
        "Visitors parked in the mailbox SPSC rings"},
       g.ring_occupancy},
      {{"overflow_depth", "remo_overflow_depth",
        "Visitors in the mailbox overflow segment"},
       g.overflow_depth},
      {{"events_ingested"}, g.events_ingested},
      {{"events_applied", "remo_rank_events_applied_total",
        "Topology events applied by each rank", kCounter},
       g.events_applied},
      {{"converged_through"}, g.converged_through},
      {{"staleness_ns"}, g.staleness_ns},
      {{"idle", "remo_rank_idle", "1 while the rank is parked"}, g.idle},
  }};
}

Json json_of(const MetricValue& v) {
  return std::visit([](auto x) { return Json(x); }, v);
}

template <class Metrics>
void put_json(Json& obj, const Metrics& metrics) {
  for (const Metric& m : metrics)
    (m.group ? obj[m.group] : obj)[std::string(m.def.key)] = json_of(m.value);
}

}  // namespace

Json GaugeSample::to_json(bool include_per_rank) const {
  Json j = Json::object();
  j["schema"] = "remo-gauges-1";
  j["ts_ns"] = sample_ns;
  put_json(j, sample_metrics(*this));
  Json det = Json::object();
  det["mode"] = safra_mode ? "safra" : "counting";
  if (safra_mode) put_json(det, safra_metrics(*this));
  j["termination"] = std::move(det);
  if (!serving.empty()) put_json(j["serving"], serving);
  if (!prof_resolved_backend.empty()) {
    Json p = Json::object();
    p["backend"] = prof_resolved_backend;
    p["degraded"] = prof_degraded;
    p["reads"] = prof.reads;
    p["read_failures"] = prof.read_failures;
    Json phases = Json::object();
    for (std::size_t i = 0; i < kPhaseCount; ++i)
      phases[phase_name(static_cast<Phase>(i))] =
          phase_block_json(prof.phase[i], prof.attributed_ns[i]);
    p["phases"] = std::move(phases);
    j["prof"] = std::move(p);
  }
  if (include_per_rank) {
    Json ranks = Json::array();
    for (std::size_t r = 0; r < per_rank.size(); ++r) {
      Json jr = Json::object();
      jr["rank"] = r;
      put_json(jr, rank_metrics(per_rank[r]));
      if (per_rank[r].trace_emitted) jr["trace_emitted"] = per_rank[r].trace_emitted;
      ranks.push_back(std::move(jr));
    }
    j["per_rank"] = std::move(ranks);
  }
  return j;
}

std::string prom_sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

void PromWriter::header(std::string_view name, std::string_view help,
                        std::string_view type) {
  const std::string clean = prom_sanitize_name(name);
  for (const std::string& seen : headers_emitted_)
    if (seen == clean) return;
  headers_emitted_.push_back(clean);
  out_ += strfmt("# HELP %s %.*s\n", clean.c_str(), static_cast<int>(help.size()),
                 help.data());
  out_ += strfmt("# TYPE %s %.*s\n", clean.c_str(), static_cast<int>(type.size()),
                 type.data());
}

void PromWriter::header(const MetricDef& d) {
  header(d.prom, d.help, d.type == MetricType::kCounter ? "counter" : "gauge");
}

void PromWriter::value(std::string_view name, const MetricValue& v,
                       std::string_view key, std::string_view label) {
  out_ += prom_sanitize_name(name);
  if (!key.empty())
    out_ += strfmt("{%.*s=\"%.*s\"}", static_cast<int>(key.size()), key.data(),
                   static_cast<int>(label.size()), label.data());
  if (const auto* u = std::get_if<std::uint64_t>(&v))
    out_ += strfmt(" %llu\n", static_cast<unsigned long long>(*u));
  else if (const auto* i = std::get_if<std::int64_t>(&v))
    out_ += strfmt(" %lld\n", static_cast<long long>(*i));
  else if (const auto* d = std::get_if<double>(&v))
    out_ += strfmt(" %.9f\n", *d);
  else
    out_ += std::get<bool>(v) ? " 1\n" : " 0\n";
}

void PromWriter::metric(const MetricDef& d, const MetricValue& v,
                        std::string_view key, std::string_view label) {
  if (d.prom.empty()) return;
  header(d);
  if (d.unit == MetricUnit::kNanoseconds)
    value(d.prom, static_cast<double>(std::get<std::uint64_t>(v)) / 1e9, key, label);
  else
    value(d.prom, v, key, label);
}

std::string GaugeSample::to_prometheus() const {
  PromWriter w;
  for (const Metric& m : sample_metrics(*this)) w.metric(m.def, m.value);
  for (const Metric& m : safra_metrics(*this)) w.metric(m.def, m.value);
  // Family-major: each per-rank family's header, then one line per rank.
  const auto families = rank_metrics(RankGaugeSample{});
  for (std::size_t k = 0; k < families.size(); ++k) {
    if (families[k].def.prom.empty()) continue;
    w.header(families[k].def);
    for (std::size_t r = 0; r < per_rank.size(); ++r)
      w.metric(families[k].def, rank_metrics(per_rank[r])[k].value, "rank",
               strfmt("%zu", r));
  }
  for (const Metric& m : serving) w.metric(m.def, m.value);
  if (!prof_resolved_backend.empty()) {
    w.metric({"backend", "remo_prof_backend_info",
              "Resolved profiling backend (1 = active; degraded label set "
              "unless perf_event)"},
             std::uint64_t{1}, "backend", prof_resolved_backend);
    w.metric({"reads", "remo_prof_reads_total", "Successful counter-group reads",
              kCounter},
             prof.reads);
    w.metric({"read_failures", "remo_prof_read_failures_total",
              "Failed counter-group reads", kCounter},
             prof.read_failures);
    // One family per ProfCounter and per ProfRatio, all headers first, then
    // each phase's samples.
    std::array<std::string, kProfCounterCount + kProfRatioCount> names;
    std::array<MetricDef, kProfCounterCount + kProfRatioCount> defs;
    for (std::size_t k = 0; k < kProfCounterCount; ++k) {
      const auto c = static_cast<ProfCounter>(k);
      std::string_view name = prof_counter_name(c);
      const bool ns = name.ends_with("_ns");
      if (ns) name.remove_suffix(3);
      names[k] = strfmt("remo_prof_%.*s%s_total", static_cast<int>(name.size()),
                        name.data(), ns ? "_seconds" : "");
      defs[k] = {prof_counter_name(c), names[k], prof_counter_help(c), kCounter,
                 ns ? kNs : MetricUnit::kCount};
    }
    for (std::size_t k = 0; k < kProfRatioCount; ++k) {
      names[kProfCounterCount + k] = strfmt("remo_prof_%s", kProfRatios[k].name);
      defs[kProfCounterCount + k] = {kProfRatios[k].name, names[kProfCounterCount + k],
                                     kProfRatios[k].help};
    }
    for (const MetricDef& d : defs) w.header(d);
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      const char* ph = phase_name(static_cast<Phase>(i));
      const CounterSet& c = prof.phase[i];
      for (std::size_t k = 0; k < kProfCounterCount; ++k)
        w.metric(defs[k], c.v[k], "phase", ph);
      for (std::size_t k = 0; k < kProfRatioCount; ++k)
        w.metric(defs[kProfCounterCount + k], kProfRatios[k].of(c), "phase", ph);
    }
  }
  return w.str();
}

namespace {

std::string ns_short(std::uint64_t ns) {
  if (ns >= 10'000'000'000ull)
    return strfmt("%.0fs", static_cast<double>(ns) / 1e9);
  if (ns >= 1'000'000'000ull)
    return strfmt("%.1fs", static_cast<double>(ns) / 1e9);
  if (ns >= 1'000'000ull) return strfmt("%.0fms", static_cast<double>(ns) / 1e6);
  if (ns >= 1'000ull) return strfmt("%.0fus", static_cast<double>(ns) / 1e3);
  return strfmt("%lluns", static_cast<unsigned long long>(ns));
}

}  // namespace

std::string GaugeSample::watch_view() const {
  std::string out;
  out += strfmt(
      "t=%-8s ingested %s  applied %s  lag %s ev / %s  in-flight %lld  idle "
      "%u/%zu%s\n",
      ns_short(sample_ns).c_str(), with_commas(events_ingested).c_str(),
      with_commas(events_applied).c_str(),
      with_commas(convergence_lag_events).c_str(),
      ns_short(staleness_ns).c_str(), static_cast<long long>(in_flight),
      idle_ranks, per_rank.size(), quiescent ? "  [quiescent]" : "");
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    const RankGaugeSample& g = per_rank[r];
    out += strfmt("  rank %-3zu %-5s queue %-9s applied %-12s stale %s\n", r,
                  g.idle ? "idle" : "busy", with_commas(g.queue_depth).c_str(),
                  with_commas(g.events_applied).c_str(),
                  ns_short(g.staleness_ns).c_str());
  }
  return out;
}

}  // namespace remo::obs
