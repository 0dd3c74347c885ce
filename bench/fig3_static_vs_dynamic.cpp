// Figure 3 — static vs dynamic strategies (1 node, Twitter in the paper;
// synth-twitter here). Three stacked bars:
//   (a) static construction (CSR build incl. compression) + static BFS
//   (b) dynamic construction (engine ingest, no programs) + static BFS
//       executed over the dynamic store
//   (c) dynamic construction overlapped with dynamic BFS (live queryable
//       state throughout)
// Expected shape (paper §V-B): (a) construction ~2x faster than (b);
// static-BFS-on-dynamic slower than static-on-CSR; (c) total ≈ (b)'s
// construction bar — the live algorithm rides along nearly for free.
#include <cstdio>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

int main() {
  const int repeats = bench_repeats_from_env();
  const Dataset data = make_synth_twitter(bench_scale_from_env());
  const RankId ranks = bench_ranks_from_env({2})[0];

  print_banner("Figure 3 — static vs dynamic strategies",
               strfmt("dataset %s (|E|=%s), %u ranks, %d repeats", data.name.c_str(),
                      with_commas(data.edges.size()).c_str(), ranks, repeats));

  const CsrGraph probe = CsrGraph::build(with_reverse_edges(data.edges));
  // Paper methodology: a source known to lie in the largest component.
  const auto cc = static_cc_union_find(probe);
  RobinHoodMap<StateWord, std::uint64_t> sizes;
  for (const StateWord l : cc) ++sizes.get_or_insert(l);
  StateWord best_label = 0;
  std::uint64_t best = 0;
  sizes.for_each([&](const StateWord& l, std::uint64_t& n) {
    if (n > best) {
      best = n;
      best_label = l;
    }
  });
  VertexId source = 0;
  for (CsrGraph::Dense v = 0; v < probe.num_vertices(); ++v)
    if (cc[v] == best_label) {
      source = probe.external_of(v);
      break;
    }

  std::vector<double> a_con, a_alg, b_con, b_alg, c_tot;
  std::uint64_t stream_events = 0;
  Json b_obs = Json::object(), c_obs = Json::object();
  for (int rep = 0; rep < repeats; ++rep) {
    {  // (a) static CSR + static BFS
      Timer t;
      const CsrGraph g = CsrGraph::build(with_reverse_edges(data.edges));
      a_con.push_back(t.seconds());
      t.reset();
      const auto levels = static_bfs(g, g.dense_of(source));
      a_alg.push_back(t.seconds());
      (void)levels;
    }
    {  // (b) dynamic construction, then static BFS over the dynamic store
      EngineConfig cfg{.num_ranks = ranks};
      apply_obs_env(cfg);
      Engine engine(cfg);
      const auto exporter = exporter_from_env(engine);
      Timer t;
      const IngestStats st = engine.ingest(make_streams(
          data.edges, ranks, StreamOptions{.seed = 7 + static_cast<std::uint64_t>(rep)}));
      b_con.push_back(t.seconds());
      stream_events = st.events;
      t.reset();
      const auto levels = static_bfs_on_store(engine, source);
      b_alg.push_back(t.seconds());
      (void)levels;
      if (rep == repeats - 1) b_obs = engine_obs_json(engine);
    }
    {  // (c) dynamic construction overlapped with dynamic BFS
      EngineConfig cfg{.num_ranks = ranks};
      apply_obs_env(cfg);
      Engine engine(cfg);
      const auto exporter = exporter_from_env(engine);
      auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
      engine.inject_init(id, source);
      Timer t;
      engine.ingest(make_streams(data.edges, ranks,
                                 StreamOptions{.seed = 7 + static_cast<std::uint64_t>(rep)}));
      c_tot.push_back(t.seconds());
      if (rep == repeats - 1) {
        c_obs = engine_obs_json(engine);
        write_lineage_from_env(engine);  // (c) has live propagation: richest dump
      }
    }
  }

  std::printf("%-42s %12s %12s %12s\n", "Strategy", "construct_s", "algorithm_s",
              "total_s");
  std::printf("%-42s %12.3f %12.3f %12.3f\n", "(a) static CSR + static BFS",
              mean(a_con), mean(a_alg), mean(a_con) + mean(a_alg));
  std::printf("%-42s %12.3f %12.3f %12.3f\n",
              "(b) dynamic construct + static BFS on store", mean(b_con), mean(b_alg),
              mean(b_con) + mean(b_alg));
  std::printf("%-42s %12.3f %12.3f %12.3f\n",
              "(c) dynamic construct || dynamic BFS (live)", mean(c_tot), 0.0,
              mean(c_tot));
  std::printf("\nkey ratios: dyn/static construction = %.2fx, overlap overhead "
              "(c vs b-construct) = %.2fx\n",
              mean(b_con) / mean(a_con), mean(c_tot) / mean(b_con));

  BenchReport report("fig3", "static vs dynamic strategies");
  const auto strategy_row = [&](const char* strategy, double construct_s,
                                double algorithm_s, const Json& obs) {
    const double total = construct_s + algorithm_s;
    Json row = run_row(data.name, ranks, stream_events, total,
                       total > 0 ? static_cast<double>(stream_events) / total : 0.0);
    row["strategy"] = strategy;
    row["construct_seconds"] = construct_s;
    row["algorithm_seconds"] = algorithm_s;
    for (const auto& [key, value] : obs.members()) row[key] = value;
    return row;
  };
  report.add_run(strategy_row("static_csr_static_bfs", mean(a_con), mean(a_alg),
                              Json::object()));
  report.add_run(strategy_row("dynamic_construct_static_bfs", mean(b_con),
                              mean(b_alg), b_obs));
  report.add_run(strategy_row("dynamic_construct_dynamic_bfs", mean(c_tot), 0.0,
                              c_obs));
  report.set("dyn_over_static_construction", mean(b_con) / mean(a_con));
  report.set("overlap_overhead", mean(c_tot) / mean(b_con));
  report.write();
  return 0;
}
