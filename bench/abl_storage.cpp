// Ablation — storage backend: DegAwareStore (two-tier Robin Hood) vs the
// std::unordered_map baseline (Section III-B: DegAwareRHH "significantly
// improves the performance over a baseline implementation").
// Measures raw directed-edge insert throughput and full neighbour-scan
// throughput on a skewed RMAT workload.
#include <cstdio>

#include "bench_util.hpp"
#include "storage/std_store.hpp"

using namespace remo;
using namespace remo::bench;

namespace {

template <typename Store>
std::pair<double, double> run(const EdgeList& edges, int repeats) {
  std::vector<double> ins, scan;
  for (int rep = 0; rep < repeats; ++rep) {
    Store store;
    Timer t;
    for (const Edge& e : edges) store.insert_edge(e.src, e.dst, e.weight);
    ins.push_back(static_cast<double>(edges.size()) / t.seconds());

    // Neighbour scan: iterate every stored arc once.
    t.reset();
    std::uint64_t touched = 0;
    if constexpr (requires(Store& s) { s.for_each_vertex([](VertexId, TwoTierAdjacency&) {}); }) {
      store.for_each_vertex([&](VertexId, TwoTierAdjacency& adj) {
        adj.for_each([&](VertexId, EdgeProp&) { ++touched; });
      });
    } else {
      for (const Edge& e : edges)
        store.for_each_neighbour(e.src, [&](VertexId, EdgeProp&) { ++touched; });
    }
    scan.push_back(static_cast<double>(touched) / t.seconds());
  }
  return {mean(ins), mean(scan)};
}

}  // namespace

int main() {
  const int repeats = bench_repeats_from_env();
  RmatParams p;
  p.scale = static_cast<std::uint32_t>(16 + bench_scale_from_env().scale_shift);
  p.edge_factor = 16;
  const EdgeList edges = generate_rmat(p);

  print_banner("Ablation — storage backend (DegAwareStore vs std::unordered_map)",
               strfmt("RMAT scale %u, |E|=%s, %d repeats", p.scale,
                      with_commas(edges.size()).c_str(), repeats));

  const auto [da_ins, da_scan] = run<DegAwareStore>(edges, repeats);
  const auto [std_ins, std_scan] = run<StdStore>(edges, repeats);

  std::printf("%-24s %16s %16s\n", "backend", "insert", "scan");
  std::printf("%-24s %16s %16s\n", "DegAwareStore", rate(da_ins).c_str(),
              rate(da_scan).c_str());
  std::printf("%-24s %16s %16s\n", "std::unordered_map", rate(std_ins).c_str(),
              rate(std_scan).c_str());
  std::printf("\nspeedup: insert %.2fx, scan %.2fx\n", da_ins / std_ins,
              da_scan / std_scan);

  BenchReport report("abl_storage", "storage backend: DegAwareStore vs std");
  const std::string dataset = strfmt("rmat-%u", p.scale);
  const auto backend_row = [&](const char* backend, double ins, double scan) {
    Json row = Json::object();
    row["dataset"] = dataset;
    row["backend"] = backend;
    row["insert_edges_per_second"] = ins;
    row["scan_edges_per_second"] = scan;
    return row;
  };
  report.add_run(backend_row("degaware", da_ins, da_scan));
  report.add_run(backend_row("std_unordered_map", std_ins, std_scan));
  report.write();
  return 0;
}
