// Workload `ingest`: the paper's saturation methodology (Section V-A,
// Figs. 3 and 6). RMAT Graph500 scale 18, edge factor 16 (4,194,304 add
// events), shuffled into 4 streams and ingested by 4 ranks with DynamicBfs
// attached. A closed loop: each repetition ingests the whole stream into a
// fresh engine and reads the converged answer back with one quiescent
// collection; the next starts when the previous is done. Storage inserts,
// mailbox traffic and monotone propagation do the work; serving, versioned
// snapshots and repair do none.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "harness.hpp"

namespace pb {

using namespace remo;

namespace {

constexpr std::uint32_t kScale = 18;
constexpr RankId kRanks = 4;
constexpr VertexId kSource = 0;  // RMAT's densest corner: the hub
constexpr int kSetups = 3;
constexpr int kMinReps = 3;
constexpr int kReads = 8;  // answer collections after each ingest

struct Loaded {
  std::unique_ptr<Engine> engine;
  ProgramId bfs = 0;
};

Loaded make_engine(RankId ranks, Tracer& tr) {
  Scope s(tr, PB_SPAN_ID("core.engine_ctor"));
  Loaded l;
  EngineConfig cfg;
  cfg.num_ranks = ranks;
  l.engine = std::make_unique<Engine>(cfg);
  l.bfs = l.engine->attach_make<DynamicBfs>(kSource).first;
  l.engine->inject_init(l.bfs, kSource);
  return l;
}

}  // namespace

Result run_ingest(const Options& opts, Tracer& tr) {
  Result r;

  // --- set-up, repeated: generation, streams, engine construction --------
  std::vector<double> setup_s, gen_s;
  EdgeList edges;
  StreamSet streams;
  Loaded first;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t t0 = now_ns();
    {
      Scope s(tr, PB_SPAN_ID("gen.rmat"));
      edges = rmat(kScale, opts.seed);
    }
    gen_s.push_back(secs_since(t0));
    {
      Scope s(tr, PB_SPAN_ID("gen.streams"));
      streams = make_streams(edges, kRanks, StreamOptions{.seed = opts.seed});
    }
    first = make_engine(kRanks, tr);
    setup_s.push_back(secs_since(t0));
    if (i + 1 < kSetups) first = {};
  }
  r.e2e["setup_s"] = median(setup_s);
  r.layers["gen.rmat_s"] = median(gen_s);
  std::printf("ingest: rmat-%u, %zu events, %u ranks, set-up %.3f s\n", kScale,
              streams.total_events(), kRanks, r.e2e["setup_s"]);

  // --- closed loop: whole-stream ingests until the time budget is spent --
  // Each repetition ends with the client reading the converged answer back
  // kReads times with a quiescent collection of the BFS state (read_p50_us).
  std::vector<double> rates, walls_ms, collect_us;
  Snapshot answer;
  Loaded cur = std::move(first);
  const std::uint64_t start = now_ns();
  for (int rep = 0;; ++rep) {
    if (!cur.engine) cur = make_engine(kRanks, tr);
    const auto id = static_cast<std::uint64_t>(rep);
    Scope request(tr, PB_SPAN_ID("loadgen.rep"), id);
    const std::uint64_t t0 = now_ns();
    {
      Scope s(tr, PB_SPAN_ID("core.ingest"), id, request.handle());
      cur.engine->ingest(streams);
    }
    const double wall = secs_since(t0);
    rates.push_back(static_cast<double>(streams.total_events()) / wall);
    walls_ms.push_back(wall * 1e3);
    for (int k = 0; k < kReads; ++k) {
      const std::uint64_t c0 = now_ns();
      Scope s(tr, PB_SPAN_ID("core.collect_quiescent"), id, request.handle());
      answer = cur.engine->collect_quiescent(cur.bfs);
      collect_us.push_back(static_cast<double>(now_ns() - c0) / 1e3);
    }
    std::printf("  rep %d: %.3f s, %.0f events/s\n", rep, wall, rates.back());
    if (rep + 1 >= kMinReps && secs_since(start) >= opts.seconds) break;
    Scope s(tr, PB_SPAN_ID("core.engine_dtor"), id, request.handle());
    cur.engine.reset();
  }
  Engine& engine = *cur.engine;

  const Dist wall = summarize(walls_ms);
  r.e2e["ingest_eps"] = median(rates);
  r.layers["loadgen.update_p50_ms"] = wall.p50;
  r.layers["loadgen.update_p99_ms"] = wall.p99;

  // --- checks: every vertex of the last answer against static BFS --------
  // (CSR build + static BFS is also the recompute-from-scratch baseline.)
  double scratch_ms = 0;
  {
    Scope s(tr, PB_SPAN_ID("graph.oracle_bfs"));
    const std::uint64_t t0 = now_ns();
    const CsrGraph g = CsrGraph::build(with_reverse_edges(edges));
    const CsrGraph::Dense src = g.dense_of(kSource);
    r.check(src != CsrGraph::kNoVertex, "BFS source missing from the graph");
    const std::vector<StateWord> oracle =
        src != CsrGraph::kNoVertex ? static_bfs(g, src)
                                   : std::vector<StateWord>(g.num_vertices(), kInfiniteState);
    scratch_ms = static_cast<double>(now_ns() - t0) / 1e6;
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      const StateWord got = answer.at(g.external_of(v));
      r.check(got == oracle[v],
              strfmt("bfs vertex %llu: got %llu, oracle %llu",
                     static_cast<unsigned long long>(g.external_of(v)),
                     static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(oracle[v])));
    }
    r.detail["vertices"] = static_cast<std::uint64_t>(g.num_vertices());
  }
  const Dist reads = summarize(collect_us);
  r.e2e["read_p50_us"] = reads.p50;
  r.layers["loadgen.read_p99_us"] = reads.p99;

  Json sizes = Json::object();
  sizes["rmat_scale"] = kScale;
  sizes["edge_factor"] = 16;
  sizes["events"] = static_cast<std::uint64_t>(streams.total_events());
  sizes["streams"] = kRanks;
  r.detail["sizes"] = sizes;
  Json threads = Json::object();
  threads["ranks"] = kRanks;
  threads["client"] = 1;
  r.detail["threads"] = threads;
  Json named = Json::object();
  named["ingest_eps"] = r.e2e["ingest_eps"];
  named["ingest_reps"] = static_cast<std::uint64_t>(rates.size());
  named["ingest_wall_ms_p50"] = wall.p50;
  named["ingest_wall_ms_p99"] = wall.p99;
  named["collect_us_p50"] = reads.p50;
  named["collect_us_p99"] = reads.p99;
  r.detail["named"] = named;

  if (!tr.on()) return r;

  // --- traced run: layer metrics ------------------------------------------
  common_layer_probes(engine, edges, streams.stream(0).events(), r, tr);
  cur = {};
  r.layers["core.batch_ingest_ms_p50"] = wall.p50;
  r.layers["core.batch_ingest_ms_p99"] = wall.p99;
  r.layers["graph.scratch_batch_ms"] = scratch_ms;

  // Single-rank baseline on the same stream.
  {
    Loaded one = make_engine(1, tr);
    const StreamSet single =
        make_streams(edges, 1, StreamOptions{.seed = opts.seed});
    const std::uint64_t t0 = now_ns();
    {
      Scope s(tr, PB_SPAN_ID("core.ingest_1rank"));
      one.engine->ingest(single);
    }
    const double eps1 = static_cast<double>(single.total_events()) / secs_since(t0);
    r.layers["runtime.speedup_4v1"] = r.e2e["ingest_eps"] / eps1;
    r.detail["named"]["ingest_eps_1rank"] = eps1;
  }

  // Exact work counters: 1 rank, fixed input (rmat-16, seed 1), twice.
  {
    const EdgeList fixed = rmat(16, 1);
    const StreamSet fs = make_streams(fixed, 1, StreamOptions{.seed = 1});
    WorkCounters c[2];
    for (auto& ci : c) {
      Loaded one = make_engine(1, tr);
      Scope s(tr, PB_SPAN_ID("core.ingest_1rank_fixed"));
      one.engine->ingest(fs);
      ci = counters_of(*one.engine);
    }
    check_deterministic(r, "ingest", c[0], c[1]);
  }
  return r;
}

}  // namespace pb
