// Ablation — decremental strategy (Section VI-B): incremental
// invalidate/probe repair vs the "trivial, yet costly" full recompute
// (reset the program, re-init, re-converge). Sweeps the delete fraction;
// the crossover illustrates when the generational-style repair pays off.
#include <cstdio>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

int main() {
  const int repeats = bench_repeats_from_env();
  const RankId ranks = bench_ranks_from_env({2})[0];
  const EdgeList edges = [] {
    PrefAttachParams p;
    p.num_vertices = std::uint64_t{1}
                     << (14 + bench_scale_from_env().scale_shift);
    p.edges_per_vertex = 8;
    return generate_pref_attach(p);
  }();

  print_banner("Ablation — delete handling: incremental repair vs full recompute",
               strfmt("pref-attach |E|=%s, %u ranks, BFS, %d repeats",
                      with_commas(edges.size()).c_str(), ranks, repeats));

  const VertexId source = edges.front().src;

  std::printf("%-12s %14s %18s %18s %10s\n", "delete %", "#deletes", "repair_ms",
              "recompute_ms", "ratio");

  BenchReport report("abl_deletes", "incremental repair vs full recompute");
  for (const int pct : {1, 5, 10, 25, 50}) {
    std::vector<double> repair_ms, recompute_ms;
    std::uint64_t n_deletes = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      // Build once per rep, with delete support on.
      Engine engine(EngineConfig{.num_ranks = ranks});
      auto [id, bfs] = engine.attach_make<DynamicBfs>(
          source, DynamicBfs::Options{.support_deletes = true});
      engine.inject_init(id, source);
      engine.ingest(make_streams(edges, ranks, StreamOptions{.seed = 7}));

      Xoshiro256 rng(100 + static_cast<std::uint64_t>(rep));
      std::vector<EdgeEvent> deletes;
      for (const Edge& e : edges)
        if (rng.bounded(100) < static_cast<std::uint64_t>(pct))
          deletes.push_back({e.src, e.dst, e.weight, EdgeOp::kDelete});
      n_deletes = deletes.size();
      engine.ingest(split_events(deletes, ranks, /*shuffle=*/true, 3));

      Timer t;
      engine.repair(id);
      repair_ms.push_back(t.millis());

      // Full recompute on the same post-delete topology.
      t.reset();
      engine.reset_program(id);
      engine.inject_init(id, source);
      engine.drain();
      recompute_ms.push_back(t.millis());
    }
    std::printf("%-12d %14s %18.2f %18.2f %9.2fx\n", pct,
                with_commas(n_deletes).c_str(), mean(repair_ms), mean(recompute_ms),
                mean(recompute_ms) / mean(repair_ms));
    Json row = Json::object();
    row["dataset"] = "pref-attach";
    row["ranks"] = static_cast<std::uint64_t>(ranks);
    row["delete_pct"] = pct;
    row["deletes"] = n_deletes;
    row["repair_ms"] = mean(repair_ms);
    row["recompute_ms"] = mean(recompute_ms);
    report.add_run(std::move(row));
  }
  report.write();
  return 0;
}
