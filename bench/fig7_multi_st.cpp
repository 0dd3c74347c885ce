// Figure 7 — Multi S-T connectivity: events/s vs rank count for source
// counts 0 (construction only), 1, 2, 4, ..., 64 on the Twitter stand-in.
// Paper shapes to reproduce: the first few sources are nearly free (1->2
// under 10% cost), doubling the source set eventually nearly halves the
// rate.
#include <cstdio>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

int main() {
  const int repeats = bench_repeats_from_env();
  const auto ranks_list = bench_ranks_from_env();
  const Dataset data = make_synth_twitter(bench_scale_from_env());

  print_banner("Figure 7 — Multi S-T source-count scaling",
               strfmt("dataset %s (|E|=%s); %d repeats", data.name.c_str(),
                      with_commas(data.edges.size()).c_str(), repeats));

  // Deterministic, distinct sources: the highest-degree vertices make the
  // flows overlap heavily, matching the stress intent.
  RobinHoodMap<VertexId, std::uint64_t> degree;
  for (const Edge& e : data.edges) {
    ++degree.get_or_insert(e.src);
    ++degree.get_or_insert(e.dst);
  }
  std::vector<std::pair<std::uint64_t, VertexId>> by_degree;
  degree.for_each([&](const VertexId& v, std::uint64_t& d) {
    by_degree.emplace_back(d, v);
  });
  std::sort(by_degree.rbegin(), by_degree.rend());

  const int source_counts[] = {0, 1, 2, 4, 8, 16, 32, 64};
  BenchReport report("fig7", "Multi S-T source-count scaling");

  // Two engine configurations: the paper's raw exchange (no redundancy
  // filter — Algorithm 7 exactly as written, whose messaging grows with
  // the source count), and with remo's neighbour-cache filter (which
  // suppresses most repeat mask broadcasts and flattens the curve).
  for (const bool filter : {false, true}) {
    std::printf("\n[nbr-cache filter %s]\n", filter ? "ON" : "OFF (paper behaviour)");
    std::printf("%-10s", "sources");
    for (const RankId r : ranks_list) std::printf(" %10u rk", r);
    std::printf("\n");

    for (const int n_sources : source_counts) {
      std::vector<VertexId> sources;
      for (int i = 0; i < n_sources; ++i)
        sources.push_back(by_degree[static_cast<std::size_t>(i)].second);

      std::printf("%-10d", n_sources);
      for (const RankId ranks : ranks_list) {
        std::vector<double> rates_acc;
        Json obs = Json::object();
        std::uint64_t events = 0;
        for (int rep = 0; rep < repeats; ++rep) {
          EngineConfig cfg;
          cfg.num_ranks = ranks;
          cfg.nbr_cache_filter = filter;
          Engine engine(cfg);
          if (!sources.empty()) {
            auto [id, prog] = engine.attach_make<MultiStConnectivity>(sources);
            inject_st_sources(engine, id, *prog);
          }
          const StreamSet streams = make_streams(
              data.edges, ranks, StreamOptions{.seed = 7 + static_cast<std::uint64_t>(rep)});
          const IngestStats st = engine.ingest(streams);
          rates_acc.push_back(st.events_per_second);
          events = st.events;
          if (rep == repeats - 1) obs = engine_obs_json(engine);
        }
        std::printf(" %12s", rate(mean(rates_acc)).c_str());
        const double eps = mean(rates_acc);
        Json row = run_row(data.name, ranks, events,
                           eps > 0 ? static_cast<double>(events) / eps : 0.0, eps);
        row["sources"] = n_sources;
        row["nbr_cache_filter"] = filter;
        for (const auto& [key, value] : obs.members()) row[key] = value;
        report.add_run(std::move(row));
      }
      std::printf("\n");
    }
  }
  report.write();
  return 0;
}
