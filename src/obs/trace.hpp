// Low-overhead event tracer with chrome://tracing JSON export.
//
// Each rank owns one TraceBuffer (single-writer ring); the engine's main
// thread owns another for control operations. Records are fixed-size PODs —
// a static-string name, a start timestamp, a duration, one optional counter
// argument — appended with no allocation or locking. When the ring wraps
// the oldest slices are overwritten (and counted), so a trace of a long run
// keeps its most recent window instead of growing without bound.
//
// Tracing is off unless EngineConfig::obs.trace is set; the hot path then
// costs a single branch on a cached bool.
//
// The exported file is the Trace Event Format's JSON-object form
// ({"traceEvents": [...]}) with complete ("ph":"X") events; one track per
// rank (tid = rank, "main" on its own tid). Load it in chrome://tracing or
// https://ui.perfetto.dev.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace remo::obs {

/// Flow linkage of a slice: chrome-trace flow events ("s"/"t"/"f") connect
/// slices across tracks so a caused cascade is visually traceable.
enum class FlowPhase : std::uint8_t {
  kNone = 0,   ///< plain slice, no flow record
  kStart = 1,  ///< "s" — the root of a flow (e.g. a cause's hop-0 apply)
  kStep = 2,   ///< "t" — a continuation on any rank
  kEnd = 3,    ///< "f" — an explicit terminator
};

/// One complete slice. `name` and `arg_name` must be string literals (or
/// otherwise outlive the buffer).
struct TraceEvent {
  const char* name = nullptr;
  const char* arg_name = nullptr;  // nullptr = no args object
  std::uint64_t ts_ns = 0;         // slice start, engine-relative
  std::uint64_t dur_ns = 0;
  std::uint64_t arg_value = 0;
  std::uint64_t flow_id = 0;       // nonzero when flow != kNone
  FlowPhase flow = FlowPhase::kNone;
};

/// Per-rank engine trace ring capacity (events). When full, the oldest
/// slices are overwritten; the export records how many were dropped.
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 16;

/// Single-writer ring of trace events.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity) : ring_(capacity ? capacity : 1) {}

  /// Writer side (owning thread only).
  void emit(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns,
            const char* arg_name = nullptr, std::uint64_t arg_value = 0) noexcept {
    const std::uint64_t seq = next_.load(std::memory_order_relaxed);
    ring_[seq % ring_.size()] = TraceEvent{name, arg_name, ts_ns, dur_ns, arg_value};
    next_.store(seq + 1, std::memory_order_release);
  }

  /// Emit a slice participating in a flow (`flow_id` nonzero). The export
  /// renders the slice plus a flow record bound to it; continuations whose
  /// flow-start was lost to ring wraparound are filtered at export so the
  /// JSON never contains a flow step/end without its begin.
  void emit_flow(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns,
                 std::uint64_t flow_id, FlowPhase phase,
                 const char* arg_name = nullptr,
                 std::uint64_t arg_value = 0) noexcept {
    const std::uint64_t seq = next_.load(std::memory_order_relaxed);
    ring_[seq % ring_.size()] =
        TraceEvent{name, arg_name, ts_ns, dur_ns, arg_value, flow_id, phase};
    next_.store(seq + 1, std::memory_order_release);
  }

  std::size_t capacity() const noexcept { return ring_.size(); }

  /// Total events emitted over the buffer's lifetime. Readable by any
  /// thread at any time (single writer, atomic sequence).
  std::uint64_t emitted() const noexcept {
    return next_.load(std::memory_order_acquire);
  }

  std::uint64_t dropped() const noexcept {
    const std::uint64_t n = emitted();
    return n > ring_.size() ? n - ring_.size() : 0;
  }

  /// Copy out the retained window in chronological order. Call only while
  /// the writer is quiescent (the engine exports traces at quiescence).
  std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    const std::uint64_t n = emitted();
    const std::uint64_t first = n > ring_.size() ? n - ring_.size() : 0;
    out.reserve(static_cast<std::size_t>(n - first));
    for (std::uint64_t seq = first; seq < n; ++seq)
      out.push_back(ring_[seq % ring_.size()]);
    return out;
  }

  /// Best-effort copy of the newest `max_events` slices, for the stall
  /// watchdog's diagnostic dump. Unlike events(), this may be called while
  /// the writer is live — but it is only coherent when the writer has gone
  /// quiet (the flagged rank in a stall dump is, by definition, the rank
  /// that has stopped emitting). Slices being overwritten mid-copy can
  /// come out mixed; never use for the quiescent export path.
  std::vector<TraceEvent> recent_events(std::size_t max_events) const {
    const std::uint64_t n = emitted();
    const std::uint64_t window = std::min<std::uint64_t>(ring_.size(), n);
    const std::uint64_t first = n - std::min<std::uint64_t>(window, max_events);
    std::vector<TraceEvent> out;
    out.reserve(static_cast<std::size_t>(n - first));
    for (std::uint64_t seq = first; seq < n; ++seq)
      out.push_back(ring_[seq % ring_.size()]);
    return out;
  }

 private:
  std::vector<TraceEvent> ring_;
  std::atomic<std::uint64_t> next_{0};
};

/// One exported track: a label and the buffer's retained events.
struct TraceTrack {
  std::string label;      // e.g. "rank 0", "main"
  std::uint32_t tid = 0;  // chrome-trace thread id
  std::vector<TraceEvent> events;
};

/// Serialise tracks to a chrome://tracing JSON file. Timestamps are
/// converted from nanoseconds to the format's microsecond floats; events
/// within each track are emitted in chronological order. Returns false on
/// I/O failure.
bool write_chrome_trace(const std::string& path, const std::string& process_name,
                        const std::vector<TraceTrack>& tracks);

}  // namespace remo::obs
