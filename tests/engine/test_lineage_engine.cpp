// Causal lineage end-to-end (docs/OBSERVABILITY.md, "Causal lineage"): a
// scripted edge stream over 4 ranks whose propagation cascade is fully
// deterministic, so the recorded lineage tree — visitor counts, hop depth,
// ranks touched, witness path — can be asserted exactly, and the
// trace-analyze report must name the same critical path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "../support.hpp"

namespace remo::test {
namespace {

/// Directed BFS-style relay. Updates carry the sender's level; a receiver
/// adopts sender+1 when that improves its own and forwards the new level.
/// With a simple chain graph every hop is one visitor — the cascade is a
/// path, so the witness chain IS the critical path, exactly.
class RelayProgram : public VertexProgram {
 public:
  std::string name() const override { return "relay"; }
  StateWord identity() const override { return kInfiniteState; }

  void init(VertexContext& ctx) override { ctx.set_value(0); }

  void on_add(VertexContext& ctx, VertexId nbr, Weight) override {
    if (ctx.value() != identity()) ctx.update_single_nbr(nbr, ctx.value());
  }

  void on_update(VertexContext& ctx, VertexId, StateWord from_val,
                 Weight) override {
    const StateWord cand = from_val + 1;
    if (cand < ctx.value()) {
      ctx.set_value(cand);
      ctx.update_all_nbrs(cand);
    }
  }
};

/// 4 ranks, modulo partitioning: vertex v lives on rank v for v in 0..3.
EngineConfig lineage_config() {
  EngineConfig cfg{.num_ranks = 4};
  cfg.undirected = false;  // no reverse-add traffic muddying the cascade
  cfg.partition = PartitionMode::kModulo;
  cfg.obs.lineage = true;
  return cfg;
}

/// Inject the unsampled API events between two sampled ones: inert adds
/// between vertices far from the chain, which spawn no cascade.
void skip_to_next_sample(Engine& engine) {
  constexpr VertexId kStride = VertexId{1} << obs::kLineageSampleShift;
  for (VertexId i = 1; i < kStride; ++i)
    engine.inject_edge(EdgeEvent{1000 + i, 2000 + i, kDefaultWeight, EdgeOp::kAdd});
}

/// Build the scripted scenario: scaffold chain 1->2->3 (inert — no program
/// state yet), init the relay at vertex 0, then close 0->1. That third
/// sampled topology event re-levels the whole chain: its cascade applies at
/// vertices 0,1,2,3 on ranks 0,1,2,3 at hop depths 0,1,2,3.
void run_scripted_cascade(Engine& engine, ProgramId id) {
  engine.inject_edge(EdgeEvent{1, 2, kDefaultWeight, EdgeOp::kAdd});
  skip_to_next_sample(engine);
  engine.inject_edge(EdgeEvent{2, 3, kDefaultWeight, EdgeOp::kAdd});
  skip_to_next_sample(engine);
  engine.drain();
  engine.inject_init(id, 0);
  engine.drain();
  engine.inject_edge(EdgeEvent{0, 1, kDefaultWeight, EdgeOp::kAdd});
  engine.drain();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(LineageEngine, ScriptedCascadeRecordsExactPropagationTree) {
  Engine engine(lineage_config());
  ASSERT_TRUE(engine.lineage_enabled());
  auto [id, relay] = engine.attach_make<RelayProgram>();
  run_scripted_cascade(engine, id);

  // The relay converged: vertex v holds level v.
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(engine.state_of(id, v), v);

  const obs::LineageSnapshot snap = engine.lineage_snapshot();
  EXPECT_EQ(snap.ranks, 4u);
  EXPECT_EQ(snap.dropped, 0u);
  ASSERT_EQ(snap.records.size(), 3u);  // the three chain events were sampled

  // The injection order fixes the main-thread cause sequence: the traced
  // update is main#3.
  const obs::CauseId c3 = obs::make_cause(obs::kMainOrigin, 3);
  const obs::LineageRecord* rec = nullptr;
  for (const obs::LineageRecord& r : snap.records)
    if (r.cause == c3) rec = &r;
  ASSERT_NE(rec, nullptr);

  // Exact expected tree: the root add at vertex 0 plus one relayed update
  // per chain hop — 4 applications, depth 3, all 4 ranks. Spawns: the
  // injection handoff plus three relays, of which the relays cross ranks.
  EXPECT_EQ(rec->applied, 4u);
  EXPECT_EQ(rec->spawned, 4u);
  EXPECT_EQ(rec->remote_spawned, 3u);
  EXPECT_EQ(rec->max_depth, 3u);
  EXPECT_EQ(rec->ranks_touched, 4u);
  EXPECT_GE(rec->last_ns, rec->first_ns);
  EXPECT_GT(rec->first_ns, 0u);

  // Witness chain = the exact critical path: depth d applied vertex d on
  // rank d, timestamps non-decreasing along the chain.
  ASSERT_EQ(rec->path.size(), 4u);
  std::uint64_t prev_ns = 0;
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(rec->path[d].depth, d);
    EXPECT_EQ(rec->path[d].vertex, d);
    EXPECT_EQ(rec->path[d].rank, d);
    EXPECT_GE(rec->path[d].ns, prev_ns);
    prev_ns = rec->path[d].ns;
  }

  // The scaffold causes (main#1, main#2) were inert adds: one application
  // at their src's rank, the injection handoff as their only spawn.
  for (std::uint32_t seq = 1; seq <= 2; ++seq) {
    const obs::LineageRecord* s = nullptr;
    for (const obs::LineageRecord& r : snap.records)
      if (r.cause == obs::make_cause(obs::kMainOrigin, seq)) s = &r;
    ASSERT_NE(s, nullptr) << "main#" << seq;
    EXPECT_EQ(s->applied, 1u);
    EXPECT_EQ(s->spawned, 1u);
    EXPECT_EQ(s->remote_spawned, 0u);
    EXPECT_EQ(s->max_depth, 0u);
    EXPECT_EQ(s->ranks_touched, 1u);
  }

  // Every sampled cause recorded descendants (the CI smoke gate invariant).
  EXPECT_TRUE(obs::causes_below_descendants(snap, 1).empty());

  // Amplification summary over {1, 1, 4} applications.
  const obs::LineageSummary sum = snap.summary();
  EXPECT_EQ(sum.sampled, 3u);
  EXPECT_EQ(sum.applied, 6u);
  EXPECT_EQ(sum.visitors_p50, 1u);
  EXPECT_EQ(sum.visitors_p99, 4u);
  EXPECT_EQ(sum.depth_p99, 3u);

  // The stats snapshot carries the same block.
  const obs::MetricsSnapshot m = engine.metrics_snapshot();
  ASSERT_TRUE(m.lineage_enabled);
  EXPECT_EQ(m.lineage.sampled, 3u);
  EXPECT_EQ(m.lineage.applied, 6u);
  const Json mj = m.to_json();
  ASSERT_NE(mj.find("lineage"), nullptr);
  EXPECT_EQ(mj.find("lineage")->find("sampled")->as_uint(), 3u);
}

TEST(LineageEngine, DumpAnalyzeRoundTripReportsTheSameCriticalPath) {
  Engine engine(lineage_config());
  auto [id, relay] = engine.attach_make<RelayProgram>();
  run_scripted_cascade(engine, id);

  // Dump exactly as `remo_cli ingest --lineage-out` does, re-read exactly
  // as `remo_cli trace-analyze` does, and check the rendered report names
  // the same chain the in-memory snapshot recorded.
  const std::string path = ::testing::TempDir() + "remo_lineage_engine.json";
  ASSERT_TRUE(engine.write_lineage(path));
  std::string err;
  const Json doc = Json::parse(slurp(path), &err);
  ASSERT_TRUE(err.empty()) << err;
  obs::LineageSnapshot parsed;
  ASSERT_TRUE(obs::LineageSnapshot::from_json(doc, parsed, &err)) << err;
  ASSERT_EQ(parsed.records.size(), 3u);

  const std::string report = obs::analyze_lineage(parsed, 10);
  EXPECT_NE(report.find("lineage: 3 causes sampled"), std::string::npos);
  EXPECT_NE(report.find("main#3"), std::string::npos);
  EXPECT_NE(report.find("d0 v0@r0"), std::string::npos);
  EXPECT_NE(report.find("-> d1 v1@r1"), std::string::npos);
  EXPECT_NE(report.find("-> d2 v2@r2"), std::string::npos);
  EXPECT_NE(report.find("-> d3 v3@r3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LineageEngine, FlowEventsLinkTheCascadeAcrossRankTracks) {
  EngineConfig cfg = lineage_config();
  cfg.obs.trace = true;
  Engine engine(cfg);
  auto [id, relay] = engine.attach_make<RelayProgram>();
  run_scripted_cascade(engine, id);

  const std::string path = ::testing::TempDir() + "remo_lineage_trace.json";
  ASSERT_TRUE(engine.write_trace(path));
  std::string err;
  const Json doc = Json::parse(slurp(path), &err);
  ASSERT_TRUE(err.empty()) << err;
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // The traced cascade's flow: one begin (the hop-0 apply on rank 0's
  // track) and one step per relayed hop, on three distinct other tracks,
  // all sharing the cascade's cause id. No continuation may lack a begin.
  const std::uint64_t c3 = obs::make_cause(obs::kMainOrigin, 3);
  std::set<std::uint64_t> begun;
  std::size_t c3_begins = 0, c3_steps = 0;
  std::set<std::int64_t> c3_tracks;
  for (const Json& ev : events->items()) {
    const std::string ph = ev.find("ph")->as_string();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    const std::uint64_t flow = ev.find("id")->as_uint();
    if (ph == "s") begun.insert(flow);
    else EXPECT_TRUE(begun.count(flow)) << "orphan flow continuation " << flow;
    if (flow != c3) continue;
    c3_tracks.insert(ev.find("tid")->as_int());
    if (ph == "s") ++c3_begins;
    else ++c3_steps;
  }
  EXPECT_EQ(c3_begins, 1u);
  EXPECT_EQ(c3_steps, 3u);
  EXPECT_EQ(c3_tracks.size(), 4u);  // the cascade visibly spans all 4 tracks
  std::remove(path.c_str());
}

}  // namespace
}  // namespace remo::test
