// Figure 5 — events/s for each query on the "real-world" datasets, scaling
// the rank count. Columns CON (construction only) / BFS / SSSP / CC / ST
// per dataset, one bar per rank count. The paper's observations to
// reproduce: maintaining a live algorithm costs little over CON (updates
// amortise onto construction messaging), and per-dataset structure shifts
// the absolute rates.
#include <cstdio>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

namespace {

VertexId source_in_largest_cc(const EdgeList& edges) {
  const CsrGraph g = CsrGraph::build(with_reverse_edges(edges));
  const auto cc = static_cc_union_find(g);
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
  for (CsrGraph::Dense v = 0; v < g.num_vertices(); ++v)
    if (cc[v] == best_label) return g.external_of(v);
  return 0;
}

}  // namespace

int main() {
  const int repeats = bench_repeats_from_env();
  const auto ranks_list = bench_ranks_from_env();
  const auto datasets = table1_datasets(bench_scale_from_env());

  print_banner("Figure 5 — per-algorithm event rates on real-graph stand-ins",
               strfmt("queries: CON/BFS/SSSP/CC/ST; ranks swept; %d repeats",
                      repeats));

  std::printf("%-18s %6s %14s %14s %14s %14s %14s\n", "dataset", "ranks", "CON",
              "BFS", "SSSP", "CC", "ST");

  BenchReport report("fig5", "per-algorithm event rates on real-graph stand-ins");
  const auto record = [&](const std::string& dataset, RankId ranks,
                          const char* query, const SaturationResult& res) {
    Json row = run_row(dataset, ranks, res.events, res.seconds,
                       res.events_per_second);
    row["query"] = query;
    for (const auto& [key, value] : res.obs.members()) row[key] = value;
    report.add_run(std::move(row));
  };

  for (const Dataset& d : datasets) {
    const VertexId source = source_in_largest_cc(d.edges);
    for (const RankId ranks : ranks_list) {
      const auto con = measure_saturation(d.edges, ranks, repeats, [](Engine&) {});
      const auto bfs =
          measure_saturation(d.edges, ranks, repeats, [&](Engine& e) {
            auto [id, prog] = e.attach_make<DynamicBfs>(source);
            e.inject_init(id, source);
          });
      const auto sssp =
          measure_saturation(d.edges, ranks, repeats, [&](Engine& e) {
            auto [id, prog] = e.attach_make<DynamicSssp>(source);
            e.inject_init(id, source);
          });
      const auto cc = measure_saturation(d.edges, ranks, repeats, [](Engine& e) {
        e.attach_make<DynamicCc>();
      });
      const auto st = measure_saturation(d.edges, ranks, repeats, [&](Engine& e) {
        auto [id, prog] =
            e.attach_make<MultiStConnectivity>(std::vector<VertexId>{source});
        inject_st_sources(e, id, *prog);
      });
      std::printf("%-18s %6u %14s %14s %14s %14s %14s\n", d.name.c_str(), ranks,
                  rate(con.events_per_second).c_str(),
                  rate(bfs.events_per_second).c_str(),
                  rate(sssp.events_per_second).c_str(),
                  rate(cc.events_per_second).c_str(),
                  rate(st.events_per_second).c_str());
      record(d.name, ranks, "con", con);
      record(d.name, ranks, "bfs", bfs);
      record(d.name, ranks, "sssp", sssp);
      record(d.name, ranks, "cc", cc);
      record(d.name, ranks, "st", st);
    }
  }
  report.write();
  return 0;
}
