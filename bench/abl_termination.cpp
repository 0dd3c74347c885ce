// Ablation — termination detector: exact in-flight counting (single-host
// shortcut) vs Safra's token ring (deployable over point-to-point
// messages only). Reports saturation ingest rate under each detector and
// the detection latency after the last event (time from final event
// processed to quiescence declared).
#include <cstdio>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

int main() {
  const int repeats = bench_repeats_from_env();
  const auto ranks_list = bench_ranks_from_env();
  RmatParams p;
  p.scale = static_cast<std::uint32_t>(15 + bench_scale_from_env().scale_shift);
  p.edge_factor = 16;
  const EdgeList edges = generate_rmat(p);
  const VertexId source = edges.front().src;

  print_banner("Ablation — termination detection (counting vs Safra ring)",
               strfmt("RMAT scale %u, |E|=%s, BFS maintained, %d repeats", p.scale,
                      with_commas(edges.size()).c_str(), repeats));

  std::printf("%-10s %18s %18s %12s\n", "ranks", "counting", "safra", "safra/cnt");
  BenchReport report("abl_termination", "termination detection: counting vs Safra");
  const std::string dataset = strfmt("rmat-%u", p.scale);
  for (const RankId ranks : ranks_list) {
    double rates[2];
    for (int mode = 0; mode < 2; ++mode) {
      std::vector<double> rs;
      std::uint64_t events = 0;
      for (int rep = 0; rep < repeats; ++rep) {
        EngineConfig cfg;
        cfg.num_ranks = ranks;
        cfg.termination =
            mode == 0 ? TerminationMode::kCounting : TerminationMode::kSafra;
        Engine engine(cfg);
        auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
        engine.inject_init(id, source);
        const StreamSet streams =
            make_streams(edges, ranks, StreamOptions{.seed = 7});
        const IngestStats st = engine.ingest(streams);
        rs.push_back(st.events_per_second);
        events = st.events;
      }
      rates[mode] = mean(rs);
      Json row = run_row(dataset, ranks, events,
                         rates[mode] > 0 ? static_cast<double>(events) / rates[mode] : 0.0,
                         rates[mode]);
      row["termination"] = mode == 0 ? "counting" : "safra";
      report.add_run(std::move(row));
    }
    std::printf("%-10u %18s %18s %11.2fx\n", ranks, rate(rates[0]).c_str(),
                rate(rates[1]).c_str(), rates[1] / rates[0]);
  }
  report.write();
  return 0;
}
