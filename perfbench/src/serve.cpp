// Workload `serve`: the on-line use case — writes beside reads. RMAT-17
// (2,097,152 add events, shuffled): the first half is preloaded during
// set-up, the second half is written by one open-loop client thread through
// WriteGate (dispatch_threads = 1) at a fixed 100k adds/s. The same client
// issues 100k point queries/s on its own schedule (40% distance, 40%
// component_of, 20% connected) against QueryService views of DynamicBfs +
// DynamicCc + DegreeTracker on 2 ranks, refreshed every 10 ms so that cut
// cost, not the timer, sets freshness. Threads: 2 ranks + refresher +
// client = 4.
//
// Every request is timed from its due time, so a stall in the client (an
// inline gate pump) shows as latency of the requests queued behind it.
#include <algorithm>
#include <array>
#include <cstdio>
#include <chrono>
#include <memory>
#include <thread>

#include "harness.hpp"

namespace pb {

using namespace remo;

namespace {

constexpr std::uint32_t kScale = 17;
constexpr RankId kRanks = 2;
constexpr VertexId kSource = 0;  // RMAT's densest corner: the hub
constexpr int kSetups = 3;
constexpr std::uint64_t kWriteRate = 100'000;  // adds per second
constexpr std::uint64_t kQueryRate = 100'000;  // queries per second
constexpr std::uint32_t kRefreshMs = 10;
constexpr std::uint64_t kPollEvery = 8;         // queries between view polls
constexpr std::uint64_t kAnswerSampleEvery = 8; // queries between kept answers
constexpr std::uint64_t kGaugeEvery = 1000;     // queries between gauge samples

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

struct Plane {
  std::unique_ptr<Engine> engine;  // declared first: destroyed last
  std::unique_ptr<serve::QueryService> qs;
  ProgramId bfs = 0, cc = 0, deg = 0;
};

Plane make_plane(RankId ranks, Tracer& tr) {
  Scope s(tr, PB_SPAN_ID("core.engine_ctor"));
  Plane p;
  EngineConfig cfg;
  cfg.num_ranks = ranks;
  p.engine = std::make_unique<Engine>(cfg);
  p.bfs = p.engine->attach_make<DynamicBfs>(kSource).first;
  p.cc = p.engine->attach_make<DynamicCc>().first;
  p.deg = p.engine->attach_make<DegreeTracker>().first;
  p.engine->inject_init(p.bfs, kSource);
  return p;
}

/// The service holds a reference to the engine: stop it first.
void reset(Plane& p) {
  p.qs.reset();
  p.engine.reset();
}

void start_serving(Plane& p, Tracer& tr) {
  Scope s(tr, PB_SPAN_ID("serve.start"));
  p.qs = std::make_unique<serve::QueryService>(
      *p.engine, serve::QueryServiceConfig{.refresh_period_ms = kRefreshMs});
  p.qs->serve(p.bfs, serve::ViewRole::kDistance);
  p.qs->serve(p.cc, serve::ViewRole::kComponent);
  p.qs->serve(p.deg, serve::ViewRole::kDegree);
  p.qs->start();
}

struct ViewSeen {
  std::uint64_t watermark;
  std::uint64_t publish_ns;
};

enum class QueryKind : std::uint8_t { kDistance, kComponent, kConnected };

struct Answer {
  QueryKind kind;
  VertexId u, v;
  StateWord value;
};

/// Distinct-neighbour degree per dense vertex (the store collapses parallel
/// edges, so DegreeTracker counts each neighbour once).
std::vector<StateWord> oracle_degrees(const CsrGraph& g) {
  std::vector<StateWord> deg(g.num_vertices());
  std::vector<CsrGraph::Dense> nb;
  for (CsrGraph::Dense v = 0; v < g.num_vertices(); ++v) {
    const auto n = g.neighbours(v);
    nb.assign(n.begin(), n.end());
    std::sort(nb.begin(), nb.end());
    deg[v] = static_cast<StateWord>(std::unique(nb.begin(), nb.end()) - nb.begin());
  }
  return deg;
}

}  // namespace

Result run_serve(const Options& opts, Tracer& tr) {
  Result r;

  // --- set-up, repeated: generation, engine, preload, serving plane -------
  std::vector<EdgeEvent> events;
  StreamSet preload;
  std::vector<double> setup_s, gen_s, preload_eps;
  Plane plane;
  for (int i = 0; i < kSetups; ++i) {
    reset(plane);
    const std::uint64_t t0 = now_ns();
    {
      Scope s(tr, PB_SPAN_ID("gen.rmat"));
      const EdgeList edges = rmat(kScale, opts.seed);
      events.clear();
      events.reserve(edges.size());
      for (const Edge& e : edges) events.push_back({e.src, e.dst, e.weight, EdgeOp::kAdd});
    }
    gen_s.push_back(secs_since(t0));
    {
      Scope s(tr, PB_SPAN_ID("gen.streams"));
      events = split_events(std::move(events), 1, /*shuffle=*/true, opts.seed)
                   .stream(0)
                   .events();
      preload = split_events({events.begin(), events.begin() + events.size() / 2},
                             kRanks, /*shuffle=*/false, opts.seed);
    }
    plane = make_plane(kRanks, tr);
    const std::uint64_t tl = now_ns();
    {
      Scope s(tr, PB_SPAN_ID("core.ingest_preload"));
      plane.engine->ingest(preload);
    }
    preload_eps.push_back(static_cast<double>(preload.total_events()) / secs_since(tl));
    start_serving(plane, tr);
    setup_s.push_back(secs_since(t0));
  }
  r.e2e["setup_s"] = median(setup_s);
  r.e2e["ingest_eps"] = median(preload_eps);
  r.layers["gen.rmat_s"] = median(gen_s);
  Engine& engine = *plane.engine;
  serve::QueryService& qs = *plane.qs;
  const std::array<ProgramId, 3> progs{plane.bfs, plane.cc, plane.deg};

  std::vector<VertexId> vertices;
  {
    RobinHoodMap<VertexId, std::uint8_t> known;
    for (const EdgeEvent& e : events)
      for (const VertexId v : {e.src, e.dst})
        if (known.find_or_emplace(v, [] { return std::uint8_t{1}; }).second)
          vertices.push_back(v);
  }
  const std::size_t preloaded = events.size() / 2;
  const std::size_t n_writes = std::min<std::size_t>(
      events.size() - preloaded,
      static_cast<std::size_t>(opts.seconds * static_cast<double>(kWriteRate)));
  const auto n_queries =
      static_cast<std::uint64_t>(opts.seconds * static_cast<double>(kQueryRate));
  std::printf("serve: rmat-%u, %zu preloaded, %zu writes + %llu queries over "
              "%.1f s, %u ranks, set-up %.3f s\n",
              kScale, preloaded, n_writes,
              static_cast<unsigned long long>(n_queries), opts.seconds, kRanks,
              r.e2e["setup_s"]);

  // --- open loop ------------------------------------------------------------
  serve::WriteGate gate(engine, serve::WriteGateConfig{.dispatch_threads = 1});
  const std::uint64_t write_period = 1'000'000'000ULL / kWriteRate;
  const std::uint64_t query_period = 1'000'000'000ULL / kQueryRate;

  std::vector<std::uint64_t> write_due(n_writes), write_cover(n_writes, 0);
  std::vector<double> late_ns, query_ns, query_call_ns, submit_ns, pump_ns, gauge_ns;
  std::vector<double> view_lag;
  late_ns.reserve(n_writes + n_queries);
  query_ns.reserve(n_queries);
  query_call_ns.reserve(n_queries);
  submit_ns.reserve(n_writes);
  std::vector<Answer> answers;
  answers.reserve(n_queries / kAnswerSampleEvery + 1);
  std::array<std::vector<ViewSeen>, 3> seen;
  std::array<std::uint64_t, 3> last_version{};
  struct LagSample {
    std::uint64_t t;
    std::uint64_t lag;
  };
  std::vector<LagSample> lag_samples;

  const auto poll_views = [&] {
    Scope s(tr, PB_SPAN_ID("serve.view_poll"));
    std::uint64_t min_wm = ~0ULL;
    for (std::size_t i = 0; i < progs.size(); ++i) {
      const auto v = qs.view(progs[i]);
      if (v->version() != last_version[i]) {
        last_version[i] = v->version();
        seen[i].push_back({v->watermark(), v->publish_ns()});
      }
      min_wm = std::min(min_wm, v->watermark());
    }
    return min_wm;
  };
  poll_views();

  // Write-batch root spans: one per gate batch, from the first write's due
  // time to the publish that covers the batch (closed after the run).
  std::vector<std::uint32_t> batch_span;
  std::vector<std::size_t> batch_first;  // first write index of each batch
  bool batch_open = false;
  std::uint64_t last_wm = engine.ingested_watermark();
  std::size_t uncovered = 0;
  std::uint64_t backlog_end = 0;

  Xoshiro256 rng(hash_combine(opts.seed, 0x5e7e));
  const std::uint64_t t_start = now_ns() + 1'000'000;
  std::size_t wi = 0;
  std::uint64_t qi = 0;
  while (wi < n_writes || qi < n_queries) {
    const std::uint64_t wdue = t_start + wi * write_period;
    const std::uint64_t qdue = t_start + qi * query_period + query_period / 2;
    const bool is_write = wi < n_writes && (qi >= n_queries || wdue <= qdue);
    const std::uint64_t due = is_write ? wdue : qdue;
    std::uint64_t t = now_ns();
    while (t < due) {
      cpu_relax();
      t = now_ns();
    }
    late_ns.push_back(static_cast<double>(t - due));

    if (is_write) {
      if (!batch_open) {
        batch_first.push_back(wi);
        batch_span.push_back(tr.open(PB_SPAN_ID("loadgen.write_batch"),
                                     batch_first.size() - 1, 0, due));
        batch_open = true;
      }
      write_due[wi] = due;
      const EdgeEvent& e = events[preloaded + wi];
      {
        Scope s(tr, PB_SPAN_ID("serve.submit"), batch_first.size() - 1,
                batch_span.back());
        gate.submit(e);
      }
      const std::uint64_t done = now_ns();
      submit_ns.push_back(static_cast<double>(done - t));
      ++wi;
      const std::uint64_t wm = engine.ingested_watermark();
      if (wm != last_wm) {  // this submit pumped the pending batch
        pump_ns.push_back(submit_ns.back());
        for (; uncovered < wi; ++uncovered) write_cover[uncovered] = wm;
        last_wm = wm;
        batch_open = false;
      }
    } else {
      const std::uint32_t root =
          tr.open(PB_SPAN_ID("loadgen.query"), qi, 0, due);
      const auto u = vertices[rng.bounded(vertices.size())];
      const auto v = vertices[rng.bounded(vertices.size())];
      const std::uint64_t kind_roll = rng.bounded(100);
      Answer a{};
      a.u = u;
      a.v = v;
      const std::uint64_t c0 = now_ns();
      {
        Scope s(tr, PB_SPAN_ID("serve.query"), qi, root);
        if (kind_roll < 40) {
          a.kind = QueryKind::kDistance;
          a.value = qs.distance(plane.bfs, u);
        } else if (kind_roll < 80) {
          a.kind = QueryKind::kComponent;
          a.value = qs.component_of(plane.cc, u);
        } else {
          a.kind = QueryKind::kConnected;
          a.value = qs.connected(plane.cc, u, v) ? 1 : 0;
        }
      }
      const std::uint64_t done = now_ns();
      tr.close(root, done);
      query_call_ns.push_back(static_cast<double>(done - c0));
      query_ns.push_back(static_cast<double>(done - due));
      if (qi % kAnswerSampleEvery == 0) answers.push_back(a);
      if (qi % kPollEvery == 0) {
        const std::uint64_t min_wm = poll_views();
        const std::uint64_t wm = engine.ingested_watermark();
        view_lag.push_back(static_cast<double>(wm - seen[0].back().watermark));
        lag_samples.push_back({done, wm - std::min(wm, min_wm)});
      }
      if (qi % kGaugeEvery == 0) {
        Scope s(tr, PB_SPAN_ID("obs.sample_gauges"));
        const std::uint64_t g0 = now_ns();
        (void)engine.sample_gauges();
        gauge_ns.push_back(static_cast<double>(now_ns() - g0));
      }
      ++qi;
    }
  }
  const std::uint64_t t_end = now_ns();
  const double final_late_ms = late_ns.empty() ? 0 : late_ns.back() / 1e6;
  {
    const std::uint64_t wm = engine.ingested_watermark();
    backlog_end = wm - std::min(wm, poll_views());
  }

  // Admit the last partial batch, then wait for views covering everything.
  {
    Scope s(tr, PB_SPAN_ID("serve.flush"));
    gate.flush();
  }
  const std::uint64_t final_wm = engine.ingested_watermark();
  for (; uncovered < n_writes; ++uncovered) write_cover[uncovered] = final_wm;
  bool covered = false;
  const std::uint64_t wait0 = now_ns();
  while (!(covered = poll_views() >= final_wm) && secs_since(wait0) < 10)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  r.check(covered, "published views never covered the final write");
  {
    Scope s(tr, PB_SPAN_ID("serve.stop"));
    qs.stop();
  }
  {
    Scope s(tr, PB_SPAN_ID("core.drain"));
    engine.drain();
  }

  // --- freshness: due time -> first publish of all three views covering it
  std::vector<double> fresh_ms;
  fresh_ms.reserve(n_writes);
  {
    std::array<std::size_t, 3> j{};
    std::vector<std::uint64_t> covered_at(n_writes, 0);
    for (std::size_t k = 0; k < n_writes; ++k) {
      std::uint64_t pub = 0;
      bool ok = true;
      for (std::size_t p = 0; p < 3; ++p) {
        while (j[p] < seen[p].size() && seen[p][j[p]].watermark < write_cover[k]) ++j[p];
        if (j[p] == seen[p].size()) {
          ok = false;
          break;
        }
        pub = std::max(pub, seen[p][j[p]].publish_ns);
      }
      if (!ok) break;  // reported above as never covered
      fresh_ms.push_back(static_cast<double>(pub - write_due[k]) / 1e6);
      covered_at[k] = pub;
    }
    for (std::size_t b = 0; b < batch_first.size(); ++b) {
      const std::size_t last =
          (b + 1 < batch_first.size() ? batch_first[b + 1] : n_writes) - 1;
      tr.close(batch_span[b], covered_at[last]);
    }
  }

  // --- backlog: the published watermark must keep pace with the writes ---
  // Mean lag in the last quarter of the run against the second quarter
  // (the first is warm-up); a lag that doubles and grows by more than half
  // a second of writes, or a client that ends more than a second behind
  // its schedule, is a backlog and fails the run.
  bool backlog_growing = final_late_ms > 1000;
  {
    const std::uint64_t span = t_end - t_start;
    double sum[4] = {0, 0, 0, 0};
    double cnt[4] = {0, 0, 0, 0};
    for (const auto& s : lag_samples) {
      if (s.t < t_start) continue;
      const auto q = std::min<std::uint64_t>(3, (s.t - t_start) * 4 / span);
      sum[q] += static_cast<double>(s.lag);
      cnt[q] += 1;
    }
    if (cnt[1] > 0 && cnt[3] > 0 &&
        sum[3] / cnt[3] > 2 * sum[1] / cnt[1] + 0.5 * kWriteRate)
      backlog_growing = true;
  }
  r.check(!backlog_growing, "growing backlog: published views fell behind the writes");

  // --- checks against the static oracles on the final graph --------------
  // (CSR build + static BFS and CC is also the recompute-from-scratch
  // baseline.)
  EdgeList final_edges;
  final_edges.reserve(preloaded + n_writes);
  for (std::size_t k = 0; k < preloaded + n_writes; ++k)
    final_edges.push_back({events[k].src, events[k].dst, events[k].weight});
  double scratch_ms = 0;
  {
    Scope s(tr, PB_SPAN_ID("graph.oracles"));
    const std::uint64_t t0 = now_ns();
    const CsrGraph g = CsrGraph::build(with_reverse_edges(final_edges));
    const CsrGraph::Dense src = g.dense_of(kSource);
    r.check(src != CsrGraph::kNoVertex, "BFS source missing from the graph");
    const std::vector<StateWord> bfs =
        src != CsrGraph::kNoVertex ? static_bfs(g, src)
                                   : std::vector<StateWord>(g.num_vertices(), kInfiniteState);
    const std::vector<StateWord> cc = static_cc_union_find(g);
    scratch_ms = static_cast<double>(now_ns() - t0) / 1e6;
    const std::vector<StateWord> deg = oracle_degrees(g);
    Scope reads(tr, PB_SPAN_ID("core.state_of_all"));
    for (CsrGraph::Dense d = 0; d < g.num_vertices(); ++d) {
      const VertexId x = g.external_of(d);
      const StateWord got[3] = {engine.state_of(plane.bfs, x),
                                engine.state_of(plane.cc, x),
                                engine.state_of(plane.deg, x)};
      const StateWord want[3] = {bfs[d], cc[d], deg[d]};
      static const char* const names[3] = {"bfs", "cc", "degree"};
      for (int p = 0; p < 3; ++p)
        r.check(got[p] == want[p],
                strfmt("%s vertex %llu: got %llu, oracle %llu", names[p],
                       static_cast<unsigned long long>(x),
                       static_cast<unsigned long long>(got[p]),
                       static_cast<unsigned long long>(want[p])));
    }
    // Add-only bound on every kept served answer: a served distance is
    // never below the final one, a served label never above the final
    // (maximum) label, and a served "connected" stays true. A vertex no
    // write reached must have been served as untouched.
    constexpr CsrGraph::Dense kNone = CsrGraph::kNoVertex;
    const auto final_bfs = [&](VertexId x) {
      const CsrGraph::Dense d = g.dense_of(x);
      return d == kNone ? kInfiniteState : bfs[d];
    };
    const auto final_cc = [&](VertexId x) {
      const CsrGraph::Dense d = g.dense_of(x);
      return d == kNone ? StateWord{0} : cc[d];
    };
    for (const Answer& a : answers) {
      const auto u = static_cast<unsigned long long>(a.u);
      switch (a.kind) {
        case QueryKind::kDistance:
          r.check(a.value >= final_bfs(a.u),
                  strfmt("served distance %llu of %llu below final %llu",
                         static_cast<unsigned long long>(a.value), u,
                         static_cast<unsigned long long>(final_bfs(a.u))));
          break;
        case QueryKind::kComponent:
          r.check(a.value <= final_cc(a.u),
                  strfmt("served label of %llu above final", u));
          break;
        case QueryKind::kConnected:
          r.check(!a.value || (final_cc(a.u) != 0 && final_cc(a.u) == final_cc(a.v)),
                  strfmt("served connected(%llu, %llu) false at the end", u,
                         static_cast<unsigned long long>(a.v)));
          break;
      }
    }
    r.detail["vertices"] = static_cast<std::uint64_t>(g.num_vertices());
    r.detail["answers_checked"] = static_cast<std::uint64_t>(answers.size());
  }

  const Dist fresh = summarize(fresh_ms);
  const Dist query = summarize(query_ns);
  const Dist late = summarize(late_ns);
  r.layers["loadgen.update_p50_ms"] = fresh.p50;
  r.layers["loadgen.update_p99_ms"] = fresh.p99;
  r.e2e["read_p50_us"] = query.p50 / 1e3;
  r.layers["loadgen.read_p99_us"] = query.p99 / 1e3;

  Json sizes = Json::object();
  sizes["rmat_scale"] = kScale;
  sizes["preloaded_events"] = static_cast<std::uint64_t>(preloaded);
  sizes["writes"] = static_cast<std::uint64_t>(n_writes);
  sizes["queries"] = n_queries;
  sizes["write_rate_per_s"] = kWriteRate;
  sizes["query_rate_per_s"] = kQueryRate;
  sizes["refresh_period_ms"] = kRefreshMs;
  r.detail["sizes"] = sizes;
  Json threads = Json::object();
  threads["ranks"] = kRanks;
  threads["refresher"] = 1;
  threads["client"] = 1;
  threads["gate_dispatch_threads"] = 1;
  r.detail["threads"] = threads;
  Json named = Json::object();
  named["fresh_p50_ms"] = fresh.p50;
  named["fresh_p99_ms"] = fresh.p99;
  named["fresh_samples"] = static_cast<std::uint64_t>(fresh.n);
  named["query_p50_us"] = query.p50 / 1e3;
  named["query_p99_us"] = query.p99 / 1e3;
  named["query_samples"] = static_cast<std::uint64_t>(query.n);
  named["preload_eps"] = r.e2e["ingest_eps"];
  named["late_p50_us"] = late.p50 / 1e3;
  named["late_p99_us"] = late.p99 / 1e3;
  const double late_max_ms =
      (late_ns.empty() ? 0 : *std::max_element(late_ns.begin(), late_ns.end())) / 1e6;
  named["late_max_ms"] = late_max_ms;
  named["late_final_ms"] = final_late_ms;
  named["backlog_events_end"] = backlog_end;
  named["backlog_growing"] = backlog_growing;
  named["sample_gauges_us_live"] = median(gauge_ns) / 1e3;
  r.detail["named"] = named;

  const serve::WriteGateStats gs = gate.stats();
  r.detail["write_gate"] = gs.to_json();
  r.detail["query_service"] = qs.stats().to_json();

  if (!tr.on()) return r;

  // --- traced run: layer metrics ------------------------------------------
  common_layer_probes(engine, final_edges,
                      {events.begin() + static_cast<std::ptrdiff_t>(preloaded),
                       events.begin() + static_cast<std::ptrdiff_t>(preloaded + n_writes)},
                      r, tr);
  const Dist pump = summarize(pump_ns);
  r.layers["core.batch_ingest_ms_p50"] = pump.p50 / 1e6;
  r.layers["core.batch_ingest_ms_p99"] = pump.p99 / 1e6;
  r.layers["graph.scratch_batch_ms"] = scratch_ms;
  std::vector<double> gaps_ms;
  for (std::size_t i = 1; i < seen[0].size(); ++i)
    gaps_ms.push_back(static_cast<double>(seen[0][i].publish_ns - seen[0][i - 1].publish_ns) / 1e6);
  const Dist gaps = summarize(gaps_ms);
  const Dist call = summarize(query_call_ns);
  const Dist submit = summarize(submit_ns);
  r.layers["serve.publish_gap_ms_p50"] = gaps.p50;
  r.layers["serve.publish_gap_ms_p99"] = gaps.p99;
  r.layers["serve.view_lag_events_p50"] = median(view_lag);
  r.layers["serve.query_call_ns_p50"] = call.p50;
  r.layers["serve.query_call_ns_p99"] = call.p99;
  r.layers["serve.submit_us_p50"] = submit.p50 / 1e3;
  r.layers["serve.submit_us_p99"] = submit.p99 / 1e3;
  r.layers["serve.wave_occupancy"] = gs.mean_wave_occupancy;
  r.layers["serve.fallback_frac"] =
      gs.batches ? static_cast<double>(gs.serial_fallback_batches) /
                       static_cast<double>(gs.batches)
                 : 0.0;
  r.layers["serve.backlog_events_end"] = static_cast<double>(backlog_end);
  r.layers["loadgen.late_p99_us"] = late.p99 / 1e3;
  r.layers["loadgen.late_max_ms"] = late_max_ms;

  // Exact work counters: 1 rank, fixed input (rmat-14, seed 1), the same
  // three programs, preload then the second half — twice.
  {
    const EdgeList fixed = rmat(14, 1);
    std::vector<EdgeEvent> ev;
    for (const Edge& e : fixed) ev.push_back({e.src, e.dst, e.weight, EdgeOp::kAdd});
    const std::size_t half = ev.size() / 2;
    const StreamSet a = split_events({ev.begin(), ev.begin() + half}, 1);
    const StreamSet b = split_events({ev.begin() + half, ev.end()}, 1);
    WorkCounters c[2];
    for (auto& ci : c) {
      Plane one = make_plane(1, tr);
      Scope s(tr, PB_SPAN_ID("core.ingest_1rank_fixed"));
      one.engine->ingest(a);
      one.engine->ingest(b);
      ci = counters_of(*one.engine);
    }
    check_deterministic(r, "serve", c[0], c[1]);
  }
  return r;
}

}  // namespace pb
