// Figure 4 — global algorithm state collection for BFS during RMAT
// ingestion. At each interval: (left bar) the latency of an on-the-fly
// versioned collection, issued while the next stream segment is already
// ingesting; (right bar) the time to run the algorithm statically from
// scratch on the same topology; plus the graph size at the interval.
// The paper's intervals are 15 s of cluster ingest; we scale to event-count
// segments. Expected shape: collection latency in the milliseconds range,
// orders of magnitude below the static recompute.
#include <cstdio>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

int main() {
  const DatasetScale scale = bench_scale_from_env();
  const RankId ranks = bench_ranks_from_env({2})[0];
  constexpr int kIntervals = 6;

  RmatParams p;
  p.scale = static_cast<std::uint32_t>(16 + scale.scale_shift);
  p.edge_factor = 16;
  const EdgeList edges = generate_rmat(p);

  print_banner("Figure 4 — global state collection vs static recompute",
               strfmt("RMAT scale %u (|E|=%s), %u ranks, %d intervals", p.scale,
                      with_commas(edges.size()).c_str(), ranks, kIntervals));

  // Source: most frequent endpoint of the first events (always connected
  // early in a scrambled RMAT stream).
  const VertexId source = edges.front().src;

  EngineConfig cfg{.num_ranks = ranks};
  apply_obs_env(cfg);
  Engine engine(cfg);
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
  engine.inject_init(id, source);

  const std::size_t seg = edges.size() / kIntervals;
  std::printf("%-10s %14s %16s %18s %12s\n", "interval", "|E| stored",
              "collect_ms", "static_bfs_ms", "speedup");

  BenchReport report("fig4", "global state collection vs static recompute");
  const std::string dataset = strfmt("rmat-%u", p.scale);

  for (int i = 0; i < kIntervals; ++i) {
    EdgeList segment(edges.begin() + static_cast<std::ptrdiff_t>(i * seg),
                     i + 1 == kIntervals
                         ? edges.end()
                         : edges.begin() + static_cast<std::ptrdiff_t>((i + 1) * seg));
    const StreamSet streams = make_streams(segment, ranks, StreamOptions{.seed = 7});

    // Start the interval's ingestion, then immediately request the global
    // state at "now" — the collection runs while events keep flowing.
    engine.ingest_async(streams);
    Timer t;
    const Snapshot snap = engine.collect_versioned(id);
    const double collect_ms = t.millis();
    engine.await_quiescence();

    // Static reference: recompute from scratch on the same topology (the
    // topology is already in memory, as the paper notes — a snapshotting
    // system would pay load time on top).
    t.reset();
    const auto levels = static_bfs_on_store(engine, source);
    const double static_ms = t.millis();
    (void)levels;

    std::printf("%-10d %14s %16.2f %18.2f %11.1fx\n", i + 1,
                with_commas(engine.total_stored_edges()).c_str(), collect_ms,
                static_ms, static_ms / (collect_ms > 0 ? collect_ms : 1e-9));
    (void)snap;

    Json row = Json::object();
    row["dataset"] = dataset;
    row["ranks"] = static_cast<std::uint64_t>(ranks);
    row["interval"] = i + 1;
    row["edges_stored"] = static_cast<std::uint64_t>(engine.total_stored_edges());
    row["collect_ms"] = collect_ms;
    row["static_bfs_ms"] = static_ms;
    report.add_run(std::move(row));
  }
  report.set("final_obs", engine_obs_json(engine));
  report.write();
  return 0;
}
