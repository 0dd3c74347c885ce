// Shared pieces of the layered benchmark: timing, percentiles, the result
// record every workload fills, and the in-memory span tracer that times the
// benchmark's own calls into each remo layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "remo/remo.hpp"

namespace pb {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secs_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Median and p99 (nearest rank) of a sample. At least ten samples lie
/// beyond the p99 when n >= 1000; smaller samples are reported with n.
struct Dist {
  double p50 = 0;
  double p99 = 0;
  std::size_t n = 0;
};
Dist summarize(std::vector<double> xs);
double median(std::vector<double> xs);

/// Process peak resident set, MiB.
double peak_rss_mb();

// --- Tracing ------------------------------------------------------------------

// A span name is "<layer>.<what>", the layer one of remo's modules
// (storage, runtime, core, serve, graph, gen, obs) or the benchmark's own
// client (loadgen).

/// Spans of one run, kept in memory and written out at the end. Only the
/// thread that drives the workload records (every remo call the benchmark
/// makes comes from that thread). When disabled every call is a single
/// branch and no clock is read.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;  ///< index + 1 of the parent span, 0 = root
    std::uint64_t id = 0;      ///< request id shared by one request's spans
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };

  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 20);
  }
  bool on() const noexcept { return on_; }

  /// Interned id of a span name (call once per call site).
  static std::uint32_t name_id(const char* name);

  /// Open a span now (or at `start`); returns its handle (0 when off).
  std::uint32_t open(std::uint32_t name, std::uint64_t id = 0,
                     std::uint32_t parent = 0, std::uint64_t start = 0) {
    if (!on_) return 0;
    spans_.push_back({name, parent, id, start ? start : now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t handle, std::uint64_t end = 0) {
    if (handle) spans_[handle - 1].end = end ? end : now_ns();
  }
  std::size_t size() const noexcept { return spans_.size(); }

  /// Seconds of self time per layer that recorded a span: each span's
  /// duration minus the part of it its child spans cover.
  std::map<std::string, double> self_seconds() const;

  /// Tab-separated dump: name, id, parent, start_ns, end_ns (times relative
  /// to the first span). Returns false when the file cannot be written.
  bool write_tsv(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& t, std::uint32_t name, std::uint64_t id = 0,
        std::uint32_t parent = 0)
      : t_(t), h_(t.open(name, id, parent)) {}
  ~Scope() { t_.close(h_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint32_t handle() const noexcept { return h_; }

 private:
  Tracer& t_;
  std::uint32_t h_;
};

#define PB_SPAN_ID(literal)                                            \
  ([]() -> std::uint32_t {                                             \
    static const std::uint32_t id = ::pb::Tracer::name_id(literal);    \
    return id;                                                         \
  }())

// --- Results -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  ///< where the traced run writes its spans
};

/// What one workload run reports. `e2e` holds the end-to-end metrics every
/// workload fills; `layers` the per-layer ones (reported by traced runs);
/// `detail` the workload's own named figures, sizes and configuration.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  remo::Json detail = remo::Json::object();

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
};

/// Layer metrics every traced run measures on its own final, quiescent
/// engine and inputs:
///  - runtime.msgs_per_event / remote_frac / spill_frac,
///    core.visitors_per_event, core.phase_*_s, storage.bytes_per_edge from
///    the engine's counters;
///  - storage.insert_ns: DegAwareStore::insert_edge, replaying the directed
///    halves of `topology` rank 0 would own into a standalone store;
///  - storage.lookup_ns: edge_weight + has_edge in that store for the pairs
///    of `updates` rank 0 owns;
///  - runtime.mailbox_ns: a standalone 4-rank Comm send/flush/drain;
///  - runtime.roundtrip_us: one Engine::ingest carrying a single no-op event
///    (a re-add of a `topology` edge with its current weight);
///  - obs.sample_gauges_us: Engine::sample_gauges.
/// `topology` must be the engine's current edge set.
void common_layer_probes(remo::Engine& engine, const remo::EdgeList& topology,
                         const std::vector<remo::EdgeEvent>& updates, Result& r,
                         Tracer& tr);

/// RMAT edge list with Graph500 parameters.
remo::EdgeList rmat(std::uint32_t scale, std::uint64_t seed);

/// Deduplicated RMAT without self-loops, weights uniform in [1, 8] from
/// `seed` — the weighted base graphs of the reweight workload.
remo::EdgeList rmat_dedup_weighted(std::uint32_t scale, std::uint64_t seed);

// --- Workloads -----------------------------------------------------------------

Result run_ingest(const Options& opts, Tracer& tr);
Result run_serve(const Options& opts, Tracer& tr);
Result run_reweight(const Options& opts, Tracer& tr);

/// Exact 1-rank work counters on a fixed input, measured twice; a
/// difference between the two runs is recorded as a failure.
struct WorkCounters {
  std::uint64_t topology_events = 0;
  std::uint64_t algorithm_events = 0;
  std::uint64_t basic_messages = 0;  ///< local + remote (no control)
  bool operator==(const WorkCounters&) const = default;
};
WorkCounters counters_of(const remo::Engine& engine);
void check_deterministic(Result& r, const char* what,
                         const WorkCounters& a, const WorkCounters& b);

}  // namespace pb
