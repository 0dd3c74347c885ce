// Ablation — vertex placement: the paper's consistent hashing vs naive
// modulo placement. Reports the saturation event rate and the edge-count
// imbalance across ranks (max/mean); the paper notes hashing balances
// vertices but the power-law edge distribution still skews edges
// (Section III-C) — modulo placement on structured id spaces is worse on
// both axes.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

namespace {

struct Outcome {
  double rate = 0;
  double edge_imbalance = 0;  // max/mean stored arcs per rank
  double vertex_imbalance = 0;
};

Outcome run(const EdgeList& edges, RankId ranks, PartitionMode mode, int repeats) {
  Outcome out;
  std::vector<double> rates;
  for (int rep = 0; rep < repeats; ++rep) {
    EngineConfig cfg;
    cfg.num_ranks = ranks;
    cfg.partition = mode;
    Engine engine(cfg);
    rates.push_back(
        engine
            .ingest(make_streams(edges, ranks,
                                 StreamOptions{.seed = 7 + static_cast<std::uint64_t>(rep)}))
            .events_per_second);
    if (rep == 0) {
      std::vector<double> e_per_rank, v_per_rank;
      for (RankId r = 0; r < ranks; ++r) {
        e_per_rank.push_back(static_cast<double>(engine.store(r).edge_count()));
        v_per_rank.push_back(static_cast<double>(engine.store(r).vertex_count()));
      }
      out.edge_imbalance = *std::max_element(e_per_rank.begin(), e_per_rank.end()) /
                           (mean(e_per_rank) + 1e-9);
      out.vertex_imbalance =
          *std::max_element(v_per_rank.begin(), v_per_rank.end()) /
          (mean(v_per_rank) + 1e-9);
    }
  }
  out.rate = mean(rates);
  return out;
}

}  // namespace

int main() {
  const int repeats = bench_repeats_from_env();
  const RankId ranks = bench_ranks_from_env({4})[0];
  const Dataset data = make_synth_twitter(bench_scale_from_env());

  // Two id spaces: the generator's dense sequential ids (benign for both
  // placements), and a strided relabelling (id * 4096 — think padded or
  // region-prefixed identifiers, ubiquitous in real datasets). Consistent
  // hashing is oblivious to id structure; modulo placement collapses the
  // strided space onto a fraction of the ranks.
  EdgeList strided = data.edges;
  for (Edge& e : strided) {
    e.src *= 4096;
    e.dst *= 4096;
  }

  print_banner("Ablation — vertex placement (consistent hash vs modulo)",
               strfmt("dataset %s (|E|=%s), %u ranks, %d repeats",
                      data.name.c_str(), with_commas(data.edges.size()).c_str(),
                      ranks, repeats));

  std::printf("%-14s %-12s %16s %18s %18s\n", "placement", "id space", "rate",
              "edge max/mean", "vertex max/mean");
  const struct {
    const char* placement;
    const char* ids;
    const EdgeList* edges;
    PartitionMode mode;
  } rows[] = {
      {"hash (paper)", "sequential", &data.edges, PartitionMode::kHash},
      {"modulo", "sequential", &data.edges, PartitionMode::kModulo},
      {"hash (paper)", "strided", &strided, PartitionMode::kHash},
      {"modulo", "strided", &strided, PartitionMode::kModulo},
  };
  BenchReport report("abl_partitioner", "vertex placement: hash vs modulo");
  for (const auto& row : rows) {
    const Outcome o = run(*row.edges, ranks, row.mode, repeats);
    std::printf("%-14s %-12s %16s %18.3f %18.3f\n", row.placement, row.ids,
                rate(o.rate).c_str(), o.edge_imbalance, o.vertex_imbalance);
    Json jr = Json::object();
    jr["dataset"] = data.name;
    jr["ranks"] = static_cast<std::uint64_t>(ranks);
    jr["placement"] = row.mode == PartitionMode::kHash ? "hash" : "modulo";
    jr["id_space"] = row.ids;
    jr["events_per_second"] = o.rate;
    jr["edge_imbalance"] = o.edge_imbalance;
    jr["vertex_imbalance"] = o.vertex_imbalance;
    report.add_run(std::move(jr));
  }
  report.write();
  return 0;
}
