#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

namespace pb {

using namespace remo;

namespace {

/// Nearest-rank quantile of an already sorted sample: the ceil(q * n)-th
/// smallest value.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

}  // namespace

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

Dist summarize(std::vector<double> xs) {
  Dist d;
  d.n = xs.size();
  if (xs.empty()) return d;
  d.p50 = median(xs);
  std::sort(xs.begin(), xs.end());
  d.p99 = quantile_sorted(xs, 0.99);
  return d;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
std::vector<std::string>& span_names() {
  static std::vector<std::string> names;
  return names;
}
}  // namespace

std::uint32_t Tracer::name_id(const char* name) {
  static std::mutex mu;
  std::lock_guard guard(mu);
  auto& names = span_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return static_cast<std::uint32_t>(i);
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (!s.parent) continue;
    const Span& p = spans_[s.parent - 1];
    const std::uint64_t lo = std::max(s.start, p.start);
    const std::uint64_t hi = std::min(s.end, p.end);
    if (hi > lo) child_ns[s.parent - 1] += hi - lo;
  }
  std::map<std::string, double> out;
  const auto& names = span_names();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end <= s.start) continue;
    const std::uint64_t dur = s.end - s.start;
    const std::uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    const std::string& n = names[s.name];
    out[n.substr(0, n.find('.'))] += static_cast<double>(self) / 1e9;
  }
  return out;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start;
  const auto& names = span_names();
  std::fprintf(f, "name\tid\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    const std::uint64_t st = s.start >= base ? s.start - base : 0;
    const std::uint64_t en = s.end >= base ? s.end - base : 0;
    std::fprintf(f, "%s\t%llu\t%u\t%llu\t%llu\n", names[s.name].c_str(),
                 static_cast<unsigned long long>(s.id), s.parent,
                 static_cast<unsigned long long>(st),
                 static_cast<unsigned long long>(en));
  }
  return std::fclose(f) == 0;
}

namespace {

void engine_layer_metrics(const Engine& engine, Result& r) {
  const obs::MetricsSnapshot snap = engine.metrics_snapshot();
  const MetricsSummary& m = snap.counters;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double topo = static_cast<double>(m.topology_events);
  const double sent = static_cast<double>(m.messages_sent);
  r.layers["runtime.msgs_per_event"] = ratio(sent, topo);
  r.layers["runtime.remote_frac"] =
      ratio(static_cast<double>(m.remote_messages), sent);
  r.layers["runtime.spill_frac"] =
      ratio(static_cast<double>(m.ring_overflows), sent);
  r.layers["core.visitors_per_event"] =
      ratio(static_cast<double>(m.algorithm_events), topo);
  r.layers["core.phase_ingest_s"] =
      static_cast<double>(snap.phases[obs::Phase::kIngest]) / 1e9;
  r.layers["core.phase_propagate_s"] =
      static_cast<double>(snap.phases[obs::Phase::kPropagate]) / 1e9;
  r.layers["core.phase_quiesce_s"] =
      static_cast<double>(snap.phases[obs::Phase::kQuiesce]) / 1e9;
  r.layers["storage.bytes_per_edge"] =
      ratio(static_cast<double>(engine.store_memory_bytes()),
            static_cast<double>(engine.total_stored_edges()));
  Json c = Json::object();
  c["topology_events"] = m.topology_events;
  c["algorithm_events"] = m.algorithm_events;
  c["messages_sent"] = m.messages_sent;
  c["remote_messages"] = m.remote_messages;
  c["local_messages"] = m.local_messages;
  c["control_messages"] = m.control_messages;
  c["ring_overflows"] = m.ring_overflows;
  c["coalesced_sends"] = m.coalesced_sends;
  r.detail["engine_counters"] = c;
}

/// Per-rank ns per visitor through a standalone 4-rank Comm: every rank
/// sends kPerRank visitors round-robin to the others, flushes, and drains
/// its own mailbox until it has received as many (wall time / kPerRank).
double comm_visitor_ns() {
  constexpr RankId kRanks = 4;
  constexpr std::uint64_t kPerRank = 1 << 21;
  std::vector<double> per_pass;
  for (int pass = 0; pass < 3; ++pass) {
    Comm comm(kRanks);
    std::vector<std::thread> threads;
    const std::uint64_t t0 = now_ns();
    for (RankId r = 0; r < kRanks; ++r) {
      threads.emplace_back([&comm, r] {
        std::vector<Visitor> in;
        std::uint64_t received = 0;
        std::uint64_t sent = 0;
        while (sent < kPerRank || received < kPerRank) {
          for (int k = 0; k < 256 && sent < kPerRank; ++k, ++sent) {
            Visitor v;
            v.target = sent;
            v.kind = VisitKind::kUpdate;
            comm.send(r, static_cast<RankId>((r + 1 + sent % (kRanks - 1)) % kRanks), v);
          }
          comm.flush(r);
          if (comm.drain(r, in)) received += in.size();
        }
      });
    }
    for (auto& t : threads) t.join();
    per_pass.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(kPerRank));
  }
  return median(per_pass);
}

}  // namespace

void common_layer_probes(Engine& engine, const EdgeList& topology,
                         const std::vector<EdgeEvent>& updates, Result& r,
                         Tracer& tr) {
  engine_layer_metrics(engine, r);
  const Partitioner part(engine.num_ranks());
  {
    Scope s(tr, PB_SPAN_ID("storage.replay_rank0"));
    std::vector<Edge> share;
    for (const Edge& e : topology) {
      if (part.owner(e.src) == 0) share.push_back(e);
      if (part.owner(e.dst) == 0) share.push_back(Edge{e.dst, e.src, e.weight});
    }
    std::vector<EdgeEvent> probes;
    for (const EdgeEvent& e : updates)
      if (part.owner(e.src) == 0) probes.push_back(e);
    std::vector<double> insert_ns, lookup_ns;
    std::uint64_t sink = 0;
    for (int pass = 0; pass < 3; ++pass) {
      DegAwareStore store;
      const std::uint64_t t0 = now_ns();
      for (const Edge& e : share) store.insert_edge(e.src, e.dst, e.weight);
      const std::uint64_t t1 = now_ns();
      for (const EdgeEvent& e : probes)
        sink += store.edge_weight(e.src, e.dst) + store.has_edge(e.src, e.dst);
      const std::uint64_t t2 = now_ns();
      insert_ns.push_back(static_cast<double>(t1 - t0) /
                          static_cast<double>(std::max<std::size_t>(1, share.size())));
      lookup_ns.push_back(static_cast<double>(t2 - t1) /
                          static_cast<double>(std::max<std::size_t>(1, 2 * probes.size())));
    }
    r.layers["storage.insert_ns"] = median(insert_ns);
    r.layers["storage.lookup_ns"] = median(lookup_ns);
    r.detail["lookup_checksum"] = sink;
  }
  {
    Scope s(tr, PB_SPAN_ID("runtime.comm_standalone"));
    r.layers["runtime.mailbox_ns"] = comm_visitor_ns();
  }
  {
    std::vector<double> us;
    for (std::size_t i = 0; i < 200 && !topology.empty(); ++i) {
      const Edge& e = topology[i * 7919 % topology.size()];
      const StreamSet one =
          split_events({EdgeEvent{e.src, e.dst, e.weight, EdgeOp::kAdd}}, 1);
      Scope s(tr, PB_SPAN_ID("core.ingest_roundtrip"));
      const std::uint64_t t0 = now_ns();
      engine.ingest(one);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    r.layers["runtime.roundtrip_us"] = median(us);
  }
  {
    Scope s(tr, PB_SPAN_ID("obs.sample_gauges"));
    std::vector<double> us;
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t t0 = now_ns();
      (void)engine.sample_gauges();
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    r.layers["obs.sample_gauges_us"] = median(us);
  }
}

EdgeList rmat(std::uint32_t scale, std::uint64_t seed) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 16;
  p.seed = seed;
  return generate_rmat(p);
}

EdgeList rmat_dedup_weighted(std::uint32_t scale, std::uint64_t seed) {
  const EdgeList raw = rmat(scale, seed);
  Xoshiro256 rng(hash_combine(seed, 0x5eed));
  RobinHoodMap<std::uint64_t, std::uint8_t> seen;
  EdgeList out;
  for (const Edge& e : raw) {
    if (e.src == e.dst) continue;
    auto [slot, fresh] = seen.find_or_emplace(
        event_pair_key(EdgeEvent{e.src, e.dst, 1, EdgeOp::kAdd}),
        [] { return std::uint8_t{1}; });
    if (fresh)
      out.push_back(Edge{e.src, e.dst, static_cast<Weight>(1 + rng.bounded(8))});
  }
  return out;
}

WorkCounters counters_of(const Engine& engine) {
  const MetricsSummary m = engine.metrics();
  return {m.topology_events, m.algorithm_events,
          m.local_messages + m.remote_messages};
}

void check_deterministic(Result& r, const char* what, const WorkCounters& a,
                         const WorkCounters& b) {
  r.check(a == b,
          strfmt("%s: 1-rank work counters differ between two runs "
                 "(algorithm events %llu vs %llu, messages %llu vs %llu)",
                 what, static_cast<unsigned long long>(a.algorithm_events),
                 static_cast<unsigned long long>(b.algorithm_events),
                 static_cast<unsigned long long>(a.basic_messages),
                 static_cast<unsigned long long>(b.basic_messages)));
  const auto ratio = [](std::uint64_t x, std::uint64_t y) {
    return y ? static_cast<double>(x) / static_cast<double>(y) : 0.0;
  };
  r.layers["core.visitors_per_event_1rank"] =
      ratio(a.algorithm_events, a.topology_events);
  r.layers["runtime.msgs_per_event_1rank"] =
      ratio(a.basic_messages, a.topology_events);
  Json j = Json::object();
  j["topology_events"] = a.topology_events;
  j["algorithm_events"] = a.algorithm_events;
  j["basic_messages"] = a.basic_messages;
  j["identical_across_two_runs"] = a == b;
  r.detail["work_counters_1rank"] = j;
}

}  // namespace pb
