// Named synthetic dataset registry — the stand-ins for Table I.
//
// The paper evaluates on Friendster, Twitter, SK2005, Webgraph and RMAT.
// The real datasets are not available offline; per DESIGN.md §3 we
// substitute generators that reproduce their structural character (heavy
// power-law tails for the social graphs, deeper/sparser skew for the web
// crawls) at a scale the host can hold. Every dataset accepts a scale knob
// so benches can shrink or grow uniformly (REMO_BENCH_SCALE). An empty
// REMO_BENCH_* variable counts as unset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"

namespace remo {

struct Dataset {
  std::string name;        ///< e.g. "synth-twitter"
  std::string stands_for;  ///< the paper dataset it substitutes
  bool undirected = true;
  EdgeList edges;          ///< directed half; reverse via engine/CSR
};

/// Scale parameter: vertex counts are multiplied by 2^(scale_shift).
/// scale_shift 0 is the default bench size (fits a laptop-class host).
struct DatasetScale {
  int scale_shift = 0;
  std::uint64_t seed = 1;
};

/// synth-twitter: preferential attachment, ~2^16 vertices x 16 edges.
Dataset make_synth_twitter(const DatasetScale& s = {});

/// synth-friendster: preferential attachment, larger and denser tail.
Dataset make_synth_friendster(const DatasetScale& s = {});

/// synth-web: RMAT with stronger skew (a=0.65) — SK2005/Webgraph stand-in.
Dataset make_synth_web(const DatasetScale& s = {});

/// rmat-<scale>: Graph500-parameter RMAT.
Dataset make_rmat(std::uint32_t scale, std::uint64_t seed = 1);

/// All four Table-I-style datasets at the given scale.
std::vector<Dataset> table1_datasets(const DatasetScale& s = {});

/// Largest REMO_BENCH_SCALE: the Table I sizes are at most 2^16 vertices,
/// and a vertex count must stay inside 64 bits.
inline constexpr int kMaxScaleShift = 47;

/// Reads REMO_BENCH_SCALE from the environment (default 0) so every bench
/// binary scales uniformly. Throws std::invalid_argument, naming the
/// variable, unless it is an integer in [-14, kMaxScaleShift]: the
/// smallest RMAT dataset is rmat-(15 + shift), and its scale must be >= 1.
DatasetScale bench_scale_from_env();

/// Reads REMO_BENCH_RANKS, space-separated rank counts (default
/// `fallback`). Throws std::invalid_argument, naming the variable, on a
/// token that is not a rank count >= 1 or on an empty list.
std::vector<RankId> bench_ranks_from_env(std::vector<RankId> fallback = {1, 2, 4});

/// Reads REMO_BENCH_REPEATS, runs per configuration (default `fallback`).
/// Throws std::invalid_argument, naming the variable, unless it is an
/// integer >= 1.
int bench_repeats_from_env(int fallback = 3);

}  // namespace remo
