// Causal propagation lineage: per-update cause tracking across ranks.
//
// A sampled topology event is stamped with a compact CauseId at ingest;
// every visitor derived from it (program updates, reverse-adds, repair
// probes — anything the processing of a caused visitor sends) inherits the
// cause and a hop depth, so the full recursive cascade of one update is
// attributable after the fact. Each rank records what it sees of each
// cause — visitors spawned, visitors applied, max depth, per-depth witness
// vertices, first/last touch times — into its own single-writer
// LineageTable (relaxed-atomic cells, same discipline as the histograms:
// concurrent readers are race-free, and the view is exact at quiescence).
// `merge_lineage()` folds the per-rank tables into global per-cause
// records: work amplification (visitors per update), propagation depth,
// ranks touched, wall-clock span from ingest to the last descendant, and a
// witness chain approximating the critical path (exact when each depth has
// a single frontier vertex).
//
// CauseId layout (32 bits): [origin:8][sequence:24]. Sequence starts at 1
// and wraps within 24 bits; cause 0 means "untraced". Origin is the
// sampling rank, or kMainOrigin (0xFF) for events injected from the main
// thread via Engine::inject_edge.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace remo::obs {

using CauseId = std::uint32_t;

inline constexpr std::uint32_t kMainOrigin = 0xFF;
inline constexpr std::uint32_t kCauseSeqBits = 24;
inline constexpr std::uint32_t kCauseSeqMask = (1u << kCauseSeqBits) - 1;

constexpr CauseId make_cause(std::uint32_t origin, std::uint32_t seq) noexcept {
  return (origin << kCauseSeqBits) | (seq & kCauseSeqMask);
}
constexpr std::uint32_t cause_origin(CauseId c) noexcept {
  return c >> kCauseSeqBits;
}
constexpr std::uint32_t cause_seq(CauseId c) noexcept { return c & kCauseSeqMask; }

/// Depths 0..kWitnessDepths-1 record a witness vertex; deeper hops still
/// count toward max_depth but carry no per-depth witness.
inline constexpr std::uint32_t kWitnessDepths = 16;

inline constexpr std::uint64_t kNoWitness = ~std::uint64_t{0};

/// One rank's view of one cause. All cells are written by the owning
/// thread only (relaxed atomics let snapshots read concurrently).
struct LineageCell {
  std::atomic<std::uint32_t> cause{0};  ///< 0 = empty slot
  std::atomic<std::uint32_t> max_depth{0};
  std::atomic<std::uint64_t> spawned{0};         ///< caused visitors sent
  std::atomic<std::uint64_t> remote_spawned{0};  ///< ... to another rank
  std::atomic<std::uint64_t> applied{0};         ///< caused visitors applied
  std::atomic<std::uint64_t> first_ns{0};  ///< ingest time at origin; else first touch
  std::atomic<std::uint64_t> last_ns{0};   ///< latest apply completion
  struct Witness {
    std::atomic<std::uint64_t> vertex{kNoWitness};
    std::atomic<std::uint64_t> ns{0};  ///< latest apply at this depth
  };
  Witness witness[kWitnessDepths];
};

/// Plain-struct copy of one nonempty cell (plus the recording rank).
struct LineageCellSnapshot {
  CauseId cause = 0;
  std::uint32_t rank = 0;  ///< table owner (kMainOrigin for the main thread)
  std::uint32_t max_depth = 0;
  std::uint64_t spawned = 0;
  std::uint64_t remote_spawned = 0;
  std::uint64_t applied = 0;
  std::uint64_t first_ns = 0;
  std::uint64_t last_ns = 0;
  struct Witness {
    std::uint64_t vertex = kNoWitness;
    std::uint64_t ns = 0;
  };
  Witness witness[kWitnessDepths];
};

/// Per-rank engine lineage table capacity (causes). Overflow is counted
/// and dropped, never blocking the hot path.
inline constexpr std::size_t kLineageCapacity = std::size_t{1} << 12;

/// Fixed-capacity open-addressed cause table. The write side belongs to
/// one thread (each rank owns one table; the engine's main thread owns one
/// for API injections — claims there go through a CAS so concurrent
/// injectors stay safe). When the table fills, further causes are counted
/// in `dropped()` and silently untracked.
class LineageTable {
 public:
  explicit LineageTable(std::size_t capacity);

  /// Record the ingest instant of a cause sampled by this table's owner.
  void record_origin(CauseId cause, std::uint64_t ns) noexcept;

  /// Record one caused visitor sent (child hop depth `depth`).
  void record_spawn(CauseId cause, std::uint32_t depth, bool remote) noexcept;

  /// Record one caused visitor applied at `vertex`, hop depth `depth`,
  /// finishing at `ns`.
  void record_apply(CauseId cause, std::uint32_t depth, std::uint64_t vertex,
                    std::uint64_t ns) noexcept;

  std::size_t capacity() const noexcept { return cells_.size(); }

  /// Lineage operations lost because the table was full (each untracked
  /// record_* call counts once).
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Copy out every nonempty cell, tagging each with `rank`. Callable
  /// concurrently with the writer (exact at quiescence).
  std::vector<LineageCellSnapshot> snapshot(std::uint32_t rank) const;

 private:
  LineageCell* find_or_claim(CauseId cause) noexcept;

  std::vector<LineageCell> cells_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// One step of a cause's witness chain (the deepest-known frontier vertex
/// per hop depth, latest-applied across ranks).
struct WitnessStep {
  std::uint32_t depth = 0;
  std::uint64_t vertex = 0;
  std::uint32_t rank = 0;
  std::uint64_t ns = 0;
};

/// Merged, global view of one cause's cascade.
struct LineageRecord {
  CauseId cause = 0;
  std::uint64_t spawned = 0;         ///< visitors derived from the update
  std::uint64_t remote_spawned = 0;  ///< ... that crossed a rank boundary
  std::uint64_t applied = 0;         ///< visitor applications (incl. the root)
  std::uint32_t max_depth = 0;
  std::uint32_t ranks_touched = 0;   ///< ranks that applied a caused visitor
  std::uint64_t first_ns = 0;        ///< ingest instant
  std::uint64_t last_ns = 0;         ///< last descendant applied
  std::vector<WitnessStep> path;     ///< witness chain, ascending depth

  std::uint64_t span_ns() const noexcept {
    return last_ns > first_ns ? last_ns - first_ns : 0;
  }
};

/// Aggregate amplification statistics over a set of records — the
/// `lineage` block of stats / bench JSON.
struct LineageSummary {
  std::uint64_t sampled = 0;  ///< causes tracked
  std::uint64_t dropped = 0;  ///< causes lost to table overflow
  std::uint64_t spawned = 0;
  std::uint64_t remote_spawned = 0;
  std::uint64_t applied = 0;
  std::uint64_t visitors_p50 = 0;  ///< applied-visitors-per-update percentiles
  std::uint64_t visitors_p99 = 0;
  std::uint32_t depth_p50 = 0;
  std::uint32_t depth_p99 = 0;
  double cross_rank_ratio = 0.0;  ///< remote_spawned / spawned

  Json to_json() const;
};

/// The merged lineage of one run (schema "remo-lineage-1").
struct LineageSnapshot {
  std::uint32_t ranks = 0;
  std::uint64_t dropped = 0;
  std::vector<LineageRecord> records;  ///< sorted by span_ns, descending

  LineageSummary summary() const;

  /// Full dump, schema "remo-lineage-1" (what `remo_cli trace-analyze`
  /// consumes). `max_causes` caps the per-cause array; 0 = no cap.
  Json to_json(std::size_t max_causes = 0) const;

  /// Parse a remo-lineage-1 document. Returns false (and fills `error`)
  /// on schema mismatch.
  static bool from_json(const Json& doc, LineageSnapshot& out, std::string* error);
};

/// Fold per-rank cell snapshots into global per-cause records.
LineageSnapshot merge_lineage(const std::vector<LineageCellSnapshot>& cells,
                              std::uint32_t ranks, std::uint64_t dropped);

/// Render the trace-analyze report: summary line, amplification stats, and
/// the top-`top_k` most expensive causes (by wall-clock span) with their
/// critical paths.
std::string analyze_lineage(const LineageSnapshot& snap, std::size_t top_k);

/// Causes whose cascade never spawned at least `min_descendants` visitors
/// (the CI smoke gate's "zero recorded descendants" check).
std::vector<CauseId> causes_below_descendants(const LineageSnapshot& snap,
                                              std::uint64_t min_descendants);

}  // namespace remo::obs
