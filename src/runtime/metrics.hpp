// Per-rank counters, cache-line padded, aggregated by the harness.
//
// Two forms: `LiveRankMetrics` is the recording side living inside each
// rank's runtime — single-writer relaxed-atomic cells so the main thread
// (metrics_snapshot, gauge sampling, the metrics exporter) can read them
// at any time without stopping the engine. `MetricsSummary` is the plain
// value form, per rank and merged. `kCounterFields` declares each counter
// once and ties the two forms together.
#pragma once

#include <atomic>
#include <cstdint>

namespace remo {

/// Single-writer monotone counter with racy-read support. The owner
/// increments with plain load+store pairs (relaxed, no lock prefix — on
/// x86 this compiles to the same `inc` a plain uint64 would); any other
/// thread may `load()` concurrently and sees some recent value. This is
/// the documented relaxed-read semantics of `Engine::metrics_snapshot()`:
/// per-cell values are monotone and never torn, but cells read in one
/// snapshot may lag each other by in-flight work.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter&) = delete;
  RelaxedCounter& operator=(const RelaxedCounter&) = delete;

  /// Writer side (owning thread only).
  void operator++() noexcept { add(1); }
  void operator--() noexcept {
    v_.store(v_.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
  }
  void add(std::uint64_t d) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  void store(std::uint64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }

  /// Reader side (any thread).
  std::uint64_t load() const noexcept { return v_.load(std::memory_order_relaxed); }
  operator std::uint64_t() const noexcept { return load(); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Plain value form of the engine's counters: one rank's (snapshots) or
/// the whole engine's (merged). Field names are part of the public API.
struct MetricsSummary {
  std::uint64_t topology_events = 0;
  std::uint64_t algorithm_events = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t local_messages = 0;
  std::uint64_t edges_stored = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t coalesced_sends = 0;
  std::uint64_t ring_overflows = 0;

  inline void merge(const MetricsSummary& other) noexcept;
};

/// Recording side: the MetricsSummary fields a rank's thread counts, as
/// RelaxedCounter cells. Written only by the owning rank's thread;
/// readable by any thread. `ring_overflows` lives in the mailbox, not
/// here — the engine fills it in when it assembles per-rank snapshots.
struct alignas(64) LiveRankMetrics {
  RelaxedCounter topology_events;
  RelaxedCounter algorithm_events;
  RelaxedCounter messages_sent;
  RelaxedCounter remote_messages;
  RelaxedCounter local_messages;
  RelaxedCounter edges_stored;
  RelaxedCounter control_messages;
  RelaxedCounter coalesced_sends;

  /// Racy-read value copy (see RelaxedCounter for the semantics).
  inline MetricsSummary snapshot() const noexcept;
};

/// One engine counter, declared once: its exported name (the JSON key of
/// `remo-stats-1`), its help text, its value field and its live cell
/// (nullptr when the rank thread does not count it). Snapshot, merge and
/// every rendering loop over kCounterFields; adding a counter is one row
/// here plus its two fields.
struct CounterField {
  const char* name;
  const char* help;
  std::uint64_t MetricsSummary::*value;
  RelaxedCounter LiveRankMetrics::*live;
};

/// Rendering order; `control_messages` precedes `edges_stored` in the
/// emitted JSON, unlike the structs.
inline constexpr CounterField kCounterFields[] = {
    {"topology_events", "stream events ingested by this rank",
     &MetricsSummary::topology_events, &LiveRankMetrics::topology_events},
    {"algorithm_events", "visitor callbacks executed",
     &MetricsSummary::algorithm_events, &LiveRankMetrics::algorithm_events},
    {"messages_sent", "visitors sent (local + remote + control)",
     &MetricsSummary::messages_sent, &LiveRankMetrics::messages_sent},
    {"remote_messages", "visitors that crossed ranks",
     &MetricsSummary::remote_messages, &LiveRankMetrics::remote_messages},
    {"local_messages", "self-sends (loop-back fast path)",
     &MetricsSummary::local_messages, &LiveRankMetrics::local_messages},
    {"control_messages", "termination tokens, markers",
     &MetricsSummary::control_messages, &LiveRankMetrics::control_messages},
    {"edges_stored", "directed edges resident",
     &MetricsSummary::edges_stored, &LiveRankMetrics::edges_stored},
    {"coalesced_sends", "visitors merged away in send buffers",
     &MetricsSummary::coalesced_sends, &LiveRankMetrics::coalesced_sends},
    {"ring_overflows", "visitors that spilled past the SPSC rings",
     &MetricsSummary::ring_overflows, nullptr},
};

void MetricsSummary::merge(const MetricsSummary& other) noexcept {
  for (const CounterField& f : kCounterFields) this->*f.value += other.*f.value;
}

MetricsSummary LiveRankMetrics::snapshot() const noexcept {
  MetricsSummary s;
  for (const CounterField& f : kCounterFields)
    if (f.live) s.*f.value = (this->*f.live).load();
  return s;
}

}  // namespace remo
