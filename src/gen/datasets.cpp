#include "gen/datasets.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "gen/pref_attach.hpp"
#include "gen/rmat.hpp"

namespace remo {
namespace {

std::uint64_t shifted(std::uint64_t base, int shift) {
  return shift >= 0 ? base << shift : base >> (-shift);
}

/// The variable's value, or nullptr when it is unset or empty.
const char* env_value(const char* name) {
  const char* env = std::getenv(name);
  return env && *env ? env : nullptr;
}

/// `text` as a whole decimal integer in [lo, hi]; otherwise throws
/// std::invalid_argument naming `name`.
long long parse_env_int(const char* name, const std::string& text, long long lo,
                        long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE ||
      v < lo || v > hi)
    throw std::invalid_argument(std::string(name) + "='" + text +
                                "' is not an integer in [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "]");
  return v;
}

}  // namespace

Dataset make_synth_twitter(const DatasetScale& s) {
  PrefAttachParams p;
  p.num_vertices = shifted(std::uint64_t{1} << 15, s.scale_shift);
  p.edges_per_vertex = 16;
  p.seed = s.seed;
  return Dataset{"synth-twitter", "Twitter [20]", /*undirected=*/true,
                 generate_pref_attach(p)};
}

Dataset make_synth_friendster(const DatasetScale& s) {
  PrefAttachParams p;
  p.num_vertices = shifted(std::uint64_t{1} << 16, s.scale_shift);
  p.edges_per_vertex = 24;
  p.seed = s.seed + 1;
  return Dataset{"synth-friendster", "Friendster [25]", /*undirected=*/true,
                 generate_pref_attach(p)};
}

Dataset make_synth_web(const DatasetScale& s) {
  RmatParams p;
  p.scale = static_cast<std::uint32_t>(15 + s.scale_shift);
  p.edge_factor = 20;
  p.a = 0.65;
  p.b = 0.15;
  p.c = 0.15;
  p.seed = s.seed + 2;
  return Dataset{"synth-web", "SK2005 [26] / Webgraph [27]", /*undirected=*/true,
                 generate_rmat(p)};
}

Dataset make_rmat(std::uint32_t scale, std::uint64_t seed) {
  RmatParams p;
  p.scale = scale;
  p.seed = seed;
  Dataset d{"rmat-" + std::to_string(scale), "RMAT(" + std::to_string(scale) + ")",
            /*undirected=*/true, generate_rmat(p)};
  return d;
}

std::vector<Dataset> table1_datasets(const DatasetScale& s) {
  std::vector<Dataset> out;
  out.push_back(make_synth_friendster(s));
  out.push_back(make_synth_twitter(s));
  out.push_back(make_synth_web(s));
  out.push_back(make_rmat(static_cast<std::uint32_t>(15 + s.scale_shift), s.seed));
  return out;
}

DatasetScale bench_scale_from_env() {
  DatasetScale s;
  if (const char* env = env_value("REMO_BENCH_SCALE"))
    s.scale_shift = static_cast<int>(
        parse_env_int("REMO_BENCH_SCALE", env, -14, kMaxScaleShift));
  return s;
}

std::vector<RankId> bench_ranks_from_env(std::vector<RankId> fallback) {
  const char* env = env_value("REMO_BENCH_RANKS");
  if (!env) return fallback;
  std::vector<RankId> out;
  std::istringstream in(env);
  for (std::string token; in >> token;)
    out.push_back(static_cast<RankId>(parse_env_int(
        "REMO_BENCH_RANKS", token, 1, std::numeric_limits<RankId>::max())));
  if (out.empty())
    throw std::invalid_argument("REMO_BENCH_RANKS='" + std::string(env) +
                                "' names no rank count");
  return out;
}

int bench_repeats_from_env(int fallback) {
  const char* env = env_value("REMO_BENCH_REPEATS");
  if (!env) return fallback;
  return static_cast<int>(parse_env_int("REMO_BENCH_REPEATS", env, 1,
                                        std::numeric_limits<int>::max()));
}

}  // namespace remo
