// Ablation — the neighbour-cache redundancy filter. Algorithm 3's
// per-edge `nbrs` values let the engine prove an update_all_nbrs send
// useless (the neighbour's monotone state is already no-worse). This
// bench toggles the filter and reports saturation event rate plus the
// total message volume per algorithm.
#include <cstdio>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

namespace {

struct Outcome {
  double rate = 0;
  std::uint64_t messages = 0;
};

template <typename Setup>
Outcome run(const EdgeList& edges, RankId ranks, bool filter, int repeats,
            Setup&& setup) {
  Outcome out;
  std::vector<double> rates;
  for (int rep = 0; rep < repeats; ++rep) {
    EngineConfig cfg;
    cfg.num_ranks = ranks;
    cfg.nbr_cache_filter = filter;
    Engine engine(cfg);
    setup(engine);
    const StreamSet streams = make_streams(edges, ranks, StreamOptions{.seed = 7});
    rates.push_back(engine.ingest(streams).events_per_second);
    out.messages = engine.metrics().messages_sent;
  }
  out.rate = mean(rates);
  return out;
}

}  // namespace

int main() {
  const int repeats = bench_repeats_from_env();
  const RankId ranks = bench_ranks_from_env({2})[0];
  const Dataset data = make_synth_twitter(bench_scale_from_env());
  const VertexId source = data.edges.front().src;

  print_banner("Ablation — neighbour-cache redundancy filter",
               strfmt("dataset %s (|E|=%s), %u ranks, %d repeats",
                      data.name.c_str(), with_commas(data.edges.size()).c_str(),
                      ranks, repeats));

  struct Algo {
    const char* name;
    std::function<void(Engine&)> setup;
  };
  const Algo algos[] = {
      {"bfs",
       [&](Engine& e) {
         auto [id, p] = e.attach_make<DynamicBfs>(source);
         e.inject_init(id, source);
       }},
      {"sssp",
       [&](Engine& e) {
         auto [id, p] = e.attach_make<DynamicSssp>(source);
         e.inject_init(id, source);
       }},
      {"cc", [](Engine& e) { e.attach_make<DynamicCc>(); }},
      {"st",
       [&](Engine& e) {
         auto [id, p] =
             e.attach_make<MultiStConnectivity>(std::vector<VertexId>{source});
         inject_st_sources(e, id, *p);
       }},
  };

  std::printf("%-8s %16s %16s %16s %16s %10s\n", "algo", "rate(off)", "rate(on)",
              "msgs(off)", "msgs(on)", "msg cut");
  BenchReport report("abl_cache_filter", "neighbour-cache redundancy filter");
  for (const Algo& a : algos) {
    const Outcome off = run(data.edges, ranks, false, repeats, a.setup);
    const Outcome on = run(data.edges, ranks, true, repeats, a.setup);
    std::printf("%-8s %16s %16s %16s %16s %9.1f%%\n", a.name, rate(off.rate).c_str(),
                rate(on.rate).c_str(), with_commas(off.messages).c_str(),
                with_commas(on.messages).c_str(),
                100.0 * (1.0 - static_cast<double>(on.messages) /
                                   static_cast<double>(off.messages)));
    for (const bool filter : {false, true}) {
      const Outcome& o = filter ? on : off;
      Json row = Json::object();
      row["dataset"] = data.name;
      row["ranks"] = static_cast<std::uint64_t>(ranks);
      row["query"] = a.name;
      row["nbr_cache_filter"] = filter;
      row["events_per_second"] = o.rate;
      row["messages_sent"] = o.messages;
      report.add_run(std::move(row));
    }
  }
  report.write();
  return 0;
}
