// Figure 6 — strong & weak scaling on RMAT while maintaining BFS during
// construction. Rows: RMAT scale; columns: rank count; cells: events/s.
// Paper take-aways to reproduce: (strong) event rate grows with rank count
// for a fixed graph; (weak) for a fixed rank count, graph size barely
// moves the event rate — rate tracks structure, not scale. Strong scaling
// needs at least as many cores as the largest rank count.
#include <cstdio>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

int main() {
  const int repeats = repeats_from_env();
  const auto ranks_list = ranks_from_env();
  const DatasetScale scale = bench_scale_from_env();
  const std::uint32_t base = static_cast<std::uint32_t>(13 + scale.scale_shift);

  print_banner("Figure 6 — RMAT scaling, BFS maintained during construction",
               strfmt("scales %u..%u; events/s per (scale, ranks) cell; %d repeats",
                      base, base + 2, repeats));

  std::printf("%-12s %14s", "dataset", "|E|");
  for (const RankId r : ranks_list) std::printf(" %10u rk", r);
  std::printf("\n");

  BenchReport report("fig6", "RMAT scaling, BFS maintained during construction");

  for (std::uint32_t s = base; s <= base + 2; ++s) {
    RmatParams p;
    p.scale = s;
    p.edge_factor = 16;
    const EdgeList edges = generate_rmat(p);
    const VertexId source = edges.front().src;

    std::printf("rmat-%-7u %14s", s, with_commas(edges.size()).c_str());
    for (const RankId ranks : ranks_list) {
      const auto res = measure_saturation(edges, ranks, repeats, [&](Engine& e) {
        auto [id, prog] = e.attach_make<DynamicBfs>(source);
        e.inject_init(id, source);
      });
      std::printf(" %12s", rate(res.events_per_second).c_str());
      Json row = run_row(strfmt("rmat-%u", s), ranks, res.events, res.seconds,
                         res.events_per_second);
      for (const auto& [key, value] : res.obs.members()) row[key] = value;
      report.add_run(std::move(row));
    }
    std::printf("\n");
  }
  std::printf("\nweak scaling read: fix a column, go down rows (graph 4x bigger "
              "per row) — rates should stay flat.\nstrong scaling read: fix a "
              "row, go right.\n");
  report.write();
  return 0;
}
