// Ablation — the low/high-degree promotion threshold of the two-tier
// adjacency. Small thresholds push everything into Robin Hood edge
// tables; huge thresholds keep heavy hitters in linear-scan arrays. The
// sweet spot in a scale-free graph sits at a small constant.
#include <cstdio>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

int main() {
  const int repeats = bench_repeats_from_env();
  RmatParams p;
  p.scale = static_cast<std::uint32_t>(15 + bench_scale_from_env().scale_shift);
  p.edge_factor = 16;
  const EdgeList edges = generate_rmat(p);

  print_banner("Ablation — degree-aware promotion threshold",
               strfmt("RMAT scale %u, |E|=%s, %d repeats", p.scale,
                      with_commas(edges.size()).c_str(), repeats));

  std::printf("%-12s %16s %16s %14s\n", "threshold", "insert", "lookup",
              "store bytes");
  BenchReport report("abl_degree_threshold", "two-tier promotion threshold sweep");
  const std::string dataset = strfmt("rmat-%u", p.scale);
  for (const std::uint32_t thresh : {0u, 2u, 4u, 8u, 16u, 64u, 1024u}) {
    std::vector<double> ins, look;
    std::size_t bytes = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      DegAwareStore store(StoreConfig{.promote_threshold = thresh});
      Timer t;
      for (const Edge& e : edges) store.insert_edge(e.src, e.dst, e.weight);
      ins.push_back(static_cast<double>(edges.size()) / t.seconds());

      t.reset();
      std::uint64_t hits = 0;
      for (const Edge& e : edges) hits += store.has_edge(e.src, e.dst);
      look.push_back(static_cast<double>(edges.size()) / t.seconds());
      bytes = store.memory_bytes();
      (void)hits;
    }
    std::printf("%-12u %16s %16s %14s\n", thresh, rate(mean(ins)).c_str(),
                rate(mean(look)).c_str(), human_bytes(bytes).c_str());
    Json row = Json::object();
    row["dataset"] = dataset;
    row["promote_threshold"] = thresh;
    row["insert_edges_per_second"] = mean(ins);
    row["lookup_edges_per_second"] = mean(look);
    row["store_bytes"] = static_cast<std::uint64_t>(bytes);
    report.add_run(std::move(row));
  }
  report.write();
  return 0;
}
