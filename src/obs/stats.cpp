#include "obs/stats.hpp"

#include "common/strfmt.hpp"

namespace remo::obs {

Json histogram_to_json(const HistogramSnapshot& h) {
  Json j = Json::object();
  j["count"] = h.count;
  if (h.count > 0) {
    j["min_ns"] = h.min;
    j["mean_ns"] = h.mean();
    j["p50_ns"] = h.p50();
    j["p90_ns"] = h.p90();
    j["p99_ns"] = h.p99();
    j["p999_ns"] = h.p999();
    j["max_ns"] = h.max;
  }
  return j;
}

Json phases_to_json(const PhaseSnapshot& p) {
  Json j = Json::object();
  for (std::size_t i = 0; i < kPhaseCount; ++i)
    j[std::string(phase_name(static_cast<Phase>(i))) + "_ns"] = p.ns[i];
  return j;
}

namespace {

Json counters_json(const MetricsSummary& c) {
  Json j = Json::object();
  for (const CounterField& f : kCounterFields) j[f.name] = c.*f.value;
  return j;
}

}  // namespace

Json MetricsSnapshot::to_json(bool include_per_rank) const {
  Json j = Json::object();
  j["schema"] = "remo-stats-1";
  j["ranks"] = per_rank.size();
  j["counters"] = counters_json(counters);
  j["update_latency"] = histogram_to_json(update_latency_ns);
  j["phases"] = phases_to_json(phases);
  if (lineage_enabled) j["lineage"] = lineage.to_json();
  if (prof.enabled) j["prof"] = prof.to_json();
  if (include_per_rank) {
    Json ranks = Json::array();
    for (std::size_t r = 0; r < per_rank.size(); ++r) {
      Json jr = Json::object();
      jr["rank"] = r;
      jr["counters"] = counters_json(per_rank[r].counters);
      jr["update_latency"] = histogram_to_json(per_rank[r].update_latency_ns);
      jr["phases"] = phases_to_json(per_rank[r].phases);
      ranks.push_back(std::move(jr));
    }
    j["per_rank"] = std::move(ranks);
  }
  return j;
}

namespace {

std::string ns_human(std::uint64_t ns) {
  if (ns >= 1'000'000'000) return strfmt("%.2f s", static_cast<double>(ns) / 1e9);
  if (ns >= 1'000'000) return strfmt("%.2f ms", static_cast<double>(ns) / 1e6);
  if (ns >= 1'000) return strfmt("%.2f us", static_cast<double>(ns) / 1e3);
  return strfmt("%llu ns", static_cast<unsigned long long>(ns));
}

}  // namespace

std::string MetricsSnapshot::to_text() const {
  std::string out;
  out += strfmt("counters (%zu ranks):\n", per_rank.size());
  out += strfmt("  topology_events   %s\n", with_commas(counters.topology_events).c_str());
  out += strfmt("  algorithm_events  %s\n", with_commas(counters.algorithm_events).c_str());
  out += strfmt("  messages_sent     %s (%s local, %s remote, %s control)\n",
                with_commas(counters.messages_sent).c_str(),
                with_commas(counters.local_messages).c_str(),
                with_commas(counters.remote_messages).c_str(),
                with_commas(counters.control_messages).c_str());
  out += strfmt("  edges_stored      %s\n", with_commas(counters.edges_stored).c_str());
  if (counters.coalesced_sends || counters.ring_overflows) {
    out += strfmt("  coalesced         %s send-side (%s ring overflows)\n",
                  with_commas(counters.coalesced_sends).c_str(),
                  with_commas(counters.ring_overflows).c_str());
  }
  const HistogramSnapshot& h = update_latency_ns;
  if (h.count > 0) {
    out += strfmt("per-update latency (%s samples):\n", with_commas(h.count).c_str());
    out += strfmt("  p50 %s   p90 %s   p99 %s   p99.9 %s\n",
                  ns_human(h.p50()).c_str(), ns_human(h.p90()).c_str(),
                  ns_human(h.p99()).c_str(), ns_human(h.p999()).c_str());
    out += strfmt("  min %s   mean %s   max %s\n", ns_human(h.min).c_str(),
                  ns_human(static_cast<std::uint64_t>(h.mean())).c_str(),
                  ns_human(h.max).c_str());
  } else {
    out += "per-update latency: no samples (histograms disabled?)\n";
  }
  out += "phase time (summed across ranks):\n";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto p = static_cast<Phase>(i);
    out += strfmt("  %-15s %s\n", phase_name(p), ns_human(phases[p]).c_str());
  }
  if (lineage_enabled) {
    out += strfmt(
        "lineage (%s causes sampled, %s dropped):\n",
        with_commas(lineage.sampled).c_str(), with_commas(lineage.dropped).c_str());
    out += strfmt(
        "  visitors/update p50 %s p99 %s   depth p50 %u p99 %u   cross-rank "
        "ratio %.3f\n",
        with_commas(lineage.visitors_p50).c_str(),
        with_commas(lineage.visitors_p99).c_str(), lineage.depth_p50,
        lineage.depth_p99, lineage.cross_rank_ratio);
  }
  if (prof.enabled) {
    const RankProfSnapshot t = prof.totals();
    out += strfmt("hardware counters (backend %s%s):\n", prof.backend.c_str(),
                  prof.degraded ? ", DEGRADED" : "");
    const bool hw =
        (prof.available & prof_counter_bit(ProfCounter::kCycles)) != 0;
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      const CounterSet& c = t.phase[i];
      if (hw) {
        out += strfmt("  %-15s ipc %.2f   llc-miss %.1f%%   cycles %s\n",
                      phase_name(static_cast<Phase>(i)), prof_ipc(c),
                      100.0 * prof_llc_miss_rate(c),
                      with_commas(c[ProfCounter::kCycles]).c_str());
      } else {
        out += strfmt("  %-15s task-clock %s\n",
                      phase_name(static_cast<Phase>(i)),
                      ns_human(c[ProfCounter::kTaskClockNs]).c_str());
      }
    }
  }
  return out;
}

}  // namespace remo::obs
