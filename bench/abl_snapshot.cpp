// Ablation — global state collection strategy (Section III-D): the simple
// quiescent drain (pauses stream pulls) vs the versioned Chandy-Lamport
// style collection (streams keep flowing). Reports collection latency and
// the end-to-end ingestion slowdown caused by collecting four times, once
// each as ingestion passes 20, 40, 60 and 80% of the stream.
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

namespace {

struct Outcome {
  double collect_ms = 0;
  double total_s = 0;
};

Outcome run(const EdgeList& edges, RankId ranks, bool versioned, int collections) {
  Engine engine(EngineConfig{.num_ranks = ranks});
  const VertexId source = edges.front().src;
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
  engine.inject_init(id, source);

  const StreamSet streams = make_streams(edges, ranks, StreamOptions{.seed = 7});
  const std::uint64_t stream_events = streams.total_events();
  Timer total;
  engine.ingest_async(streams);
  std::vector<double> lat;
  for (int i = 0; i < collections; ++i) {
    // Spread the collections over the stream (20/40/60/80% for four), so
    // each one cuts a partly built state while ingestion is live.
    const std::uint64_t due =
        stream_events * static_cast<std::uint64_t>(i + 1) /
        static_cast<std::uint64_t>(collections + 1);
    while (engine.ingested_watermark() < due)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    Timer t;
    const Snapshot s =
        versioned ? engine.collect_versioned(id) : engine.collect_quiescent(id);
    lat.push_back(t.millis());
    (void)s;
  }
  engine.await_quiescence();
  return {mean(lat), total.seconds()};
}

}  // namespace

int main() {
  const int repeats = bench_repeats_from_env();
  const RankId ranks = bench_ranks_from_env({2})[0];
  RmatParams p;
  p.scale = static_cast<std::uint32_t>(16 + bench_scale_from_env().scale_shift);
  p.edge_factor = 16;
  const EdgeList edges = generate_rmat(p);

  print_banner("Ablation — snapshot strategy (quiescent pause vs versioned)",
               strfmt("RMAT scale %u, |E|=%s, %u ranks, collections at 20/40/60/80%% of ingest",
                      p.scale, with_commas(edges.size()).c_str(), ranks));

  // Baseline: no collections at all.
  std::vector<double> base;
  for (int rep = 0; rep < repeats; ++rep)
    base.push_back(run(edges, ranks, true, 0).total_s);

  std::vector<double> q_lat, q_tot, v_lat, v_tot;
  for (int rep = 0; rep < repeats; ++rep) {
    const Outcome q = run(edges, ranks, /*versioned=*/false, 4);
    const Outcome v = run(edges, ranks, /*versioned=*/true, 4);
    q_lat.push_back(q.collect_ms);
    q_tot.push_back(q.total_s);
    v_lat.push_back(v.collect_ms);
    v_tot.push_back(v.total_s);
  }

  std::printf("%-28s %16s %18s %14s\n", "strategy", "collect_ms", "ingest_total_s",
              "slowdown");
  std::printf("%-28s %16s %18.3f %14s\n", "no collection", "-", mean(base), "1.00x");
  std::printf("%-28s %16.2f %18.3f %13.2fx\n", "quiescent (pauses streams)",
              mean(q_lat), mean(q_tot), mean(q_tot) / mean(base));
  std::printf("%-28s %16.2f %18.3f %13.2fx\n", "versioned (Chandy-Lamport)",
              mean(v_lat), mean(v_tot), mean(v_tot) / mean(base));

  BenchReport report("abl_snapshot", "snapshot strategy: quiescent vs versioned");
  const std::string dataset = strfmt("rmat-%u", p.scale);
  const auto strategy_row = [&](const char* strategy, double collect_ms,
                                double total_s) {
    Json row = Json::object();
    row["dataset"] = dataset;
    row["ranks"] = static_cast<std::uint64_t>(ranks);
    row["strategy"] = strategy;
    if (collect_ms >= 0) row["collect_ms"] = collect_ms;
    row["ingest_total_seconds"] = total_s;
    row["slowdown"] = total_s / mean(base);
    return row;
  };
  report.add_run(strategy_row("none", -1.0, mean(base)));
  report.add_run(strategy_row("quiescent", mean(q_lat), mean(q_tot)));
  report.add_run(strategy_row("versioned", mean(v_lat), mean(v_tot)));
  report.write();
  return 0;
}
