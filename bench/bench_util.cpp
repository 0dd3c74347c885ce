#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>

namespace remo::bench {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

void print_banner(const std::string& figure, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("(scale shift %d; host note: single-node thread-backed ranks —\n"
              " see EXPERIMENTS.md for how shapes map to the paper's cluster)\n",
              bench_scale_from_env().scale_shift);
  std::printf("==============================================================\n");
}

std::string rate(double eps) {
  if (eps >= 1e9) return strfmt("%.2fB ev/s", eps / 1e9);
  if (eps >= 1e6) return strfmt("%.2fM ev/s", eps / 1e6);
  if (eps >= 1e3) return strfmt("%.2fK ev/s", eps / 1e3);
  return strfmt("%.0f ev/s", eps);
}

std::uint64_t distinct_vertices(const EdgeList& edges) {
  RobinHoodMap<VertexId, std::uint8_t> seen;
  for (const Edge& e : edges) {
    seen.insert_or_assign(e.src, 1);
    seen.insert_or_assign(e.dst, 1);
  }
  return seen.size();
}

BenchReport::BenchReport(std::string name, std::string title)
    : name_(std::move(name)), doc_(Json::object()) {
  doc_["schema"] = "remo-bench-1";
  doc_["name"] = name_;
  doc_["title"] = std::move(title);
  doc_["scale_shift"] = bench_scale_from_env().scale_shift;
  doc_["repeats"] = bench_repeats_from_env();
  Json config = comm_config_json();
  config["build"] = build_info_json();
  {
    // Record the observability switches the environment resolved to, so
    // A/B evidence (prof on vs off, lineage on vs off) is self-describing
    // and bench-compare can refuse apples-to-oranges comparisons.
    EngineConfig cfg;
    apply_obs_env(cfg);
    Json obs = Json::object();
    obs["prof"] = cfg.obs.prof;
    obs["lineage"] = cfg.obs.lineage;
    config["obs"] = obs;
  }
  doc_["config"] = std::move(config);
  doc_["runs"] = Json::array();
}

std::string BenchReport::path() const {
  std::string dir = ".";
  if (const char* env = std::getenv("REMO_BENCH_OUT_DIR"); env && *env) dir = env;
  return dir + "/BENCH_" + name_ + ".json";
}

bool BenchReport::write() const {
  const std::string out = path();
  // Process-level resource accounting rides along in every report — the
  // always-available fallback tier of the counter stack (max RSS, context
  // switches, faults) needs no perf_event access. Stamped at write time so
  // it covers the whole harness run.
  Json doc = doc_;
  doc["rusage"] = obs::proc_rusage_json(obs::read_proc_rusage());
  if (const auto dir = std::filesystem::path(out).parent_path(); !dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best effort; fopen reports
  }
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench: cannot open %s\n", out.c_str());
    return false;
  }
  const std::string text = doc.dump(2);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (ok) std::printf("\nmachine-readable results: %s\n", out.c_str());
  return ok;
}

Json run_row(const std::string& dataset, RankId ranks, std::uint64_t events,
             double seconds, double events_per_second) {
  Json row = Json::object();
  row["dataset"] = dataset;
  row["ranks"] = static_cast<std::uint64_t>(ranks);
  row["events"] = events;
  row["seconds"] = seconds;
  row["events_per_second"] = events_per_second;
  return row;
}

Json engine_obs_json(const Engine& engine) {
  const obs::MetricsSnapshot snap = engine.metrics_snapshot();
  const Json full = snap.to_json(/*include_per_rank=*/false);
  Json out = Json::object();
  for (const char* key : {"counters", "update_latency", "phases", "lineage", "prof"})
    if (const Json* sec = full.find(key)) out[key] = *sec;
  out["gauges"] = engine.sample_gauges().to_json(/*include_per_rank=*/false);
  // Achieved arena state (page backing tier, reserved/allocated bytes).
  out["memory"] = engine.memory_json();
  return out;
}

void apply_obs_env(EngineConfig& cfg) {
  if (const char* on = std::getenv("REMO_OBS_LINEAGE"); on && *on && *on != '0')
    cfg.obs.lineage = true;
  if (const char* on = std::getenv("REMO_OBS_PROF"); on && *on && *on != '0')
    cfg.obs.prof = true;
}

Json comm_config_json() {
  const EngineConfig cfg;
  Json j = Json::object();
  j["batch_size"] = static_cast<std::uint64_t>(cfg.batch_size);
  j["coalesce"] = cfg.coalesce;
  j["mailbox_ring_capacity"] = static_cast<std::uint64_t>(cfg.mailbox_ring_capacity);
  return j;
}

void write_lineage_from_env(const Engine& engine) {
  const char* path = std::getenv("REMO_LINEAGE_OUT");
  if (!path || !*path || !engine.lineage_enabled()) return;
  if (engine.write_lineage(path))
    std::printf("lineage dump: %s\n", path);
  else
    std::fprintf(stderr, "bench: cannot write lineage dump %s\n", path);
}

std::unique_ptr<obs::MetricsExporter> exporter_from_env(Engine& engine) {
  const char* path = std::getenv("REMO_METRICS_OUT");
  if (!path || !*path) return nullptr;
  obs::MetricsExporter::Config cfg;
  cfg.path = path;
  if (const char* p = std::getenv("REMO_METRICS_PERIOD_MS")) {
    const int ms = std::atoi(p);
    if (ms > 0) cfg.period = std::chrono::milliseconds(ms);
  }
  if (const char* f = std::getenv("REMO_METRICS_FORMAT")) {
    const std::string fmt = f;
    if (fmt == "prom" || fmt == "prometheus")
      cfg.format = obs::MetricsExporter::Format::kPrometheus;
  }
  return std::make_unique<obs::MetricsExporter>(
      [&engine] { return engine.sample_gauges(); }, cfg);
}

}  // namespace remo::bench
