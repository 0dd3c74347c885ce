// Visitor messages — the only thing ranks exchange.
//
// The runtime is shared-nothing: algorithm and topology state live strictly
// inside the owning rank, and all coordination happens through these POD
// visitor records (the analogue of HavoqGT's visitor objects serialised
// over MPI, Figure 2 of the paper).
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace remo {

/// The event vocabulary of the programming model (Section III-A) plus the
/// decremental extension (Section VI-B) and runtime-internal control.
enum class VisitKind : std::uint8_t {
  kInit,         ///< algorithm instantiation at a vertex (e.g. BFS source)
  kAdd,          ///< edge add at the owner of the edge source
  kReverseAdd,   ///< second half of an undirected edge add
  kUpdate,       ///< algorithm-generated propagation (no topology change)
  kDelete,       ///< edge delete at the owner of the edge source
  kReverseDelete,///< second half of an undirected edge delete
  kInvalidate,   ///< decremental repair phase A wave (Section VI-B)
  kProbe,        ///< decremental repair phase B support request
  kWeightChange, ///< far side of an in-place edge-weight mutation: `value`
                 ///< carries the old weight, `weight` the new one. Never
                 ///< decomposed into kReverseDelete + kReverseAdd — that
                 ///< pair would race the repair wave (DESIGN.md §8).
  kPublish,      ///< deferred self-visit (a memo-delta publish token): runs
                 ///< at the sender's own vertex after the visitors queued
                 ///< before it; held by Comm while the rank's streams are
                 ///< live (DESIGN.md §8)
  kControl,      ///< runtime-internal (termination tokens, markers)
};

/// Control sub-opcodes carried in Visitor::other when kind == kControl.
enum class ControlOp : std::uint64_t {
  kSafraToken = 1,    ///< value = accumulated count, weight = colour (1 black)
  kHarvest = 2,       ///< gather program `algo`'s snapshot slice
  kRepairAnchors = 3, ///< start repair phase A for program `algo`
  kRepairProbes = 4,  ///< start repair phase B for program `algo`
};

/// Fixed-size visitor record. `value` is the sender's algorithm state at
/// send time (the paper's vis_val); `other` is the sender / far endpoint
/// (vis_ID). For wide payloads (e.g. >64-source S-T sets) programs encode
/// an index into rank-local payload tables — the record itself stays POD.
struct Visitor {
  VertexId target = 0;   ///< vertex being visited (owned by receiving rank)
  VertexId other = 0;    ///< vis_ID: the vertex that generated the event
  StateWord value = 0;   ///< vis_val: sender's state (or control payload)
  Weight weight = kDefaultWeight;
  VisitKind kind = VisitKind::kUpdate;
  std::uint8_t algo = kTopologyAlgo;  ///< destination program slot
  std::uint16_t epoch = 0;            ///< snapshot epoch tag (Section III-D)
  std::uint32_t cause = 0;  ///< lineage CauseId; 0 = untraced (obs/lineage.hpp)
  std::uint16_t hop = 0;    ///< hops from the root topology event

  static constexpr std::uint8_t kTopologyAlgo = 0xFF;
};

static_assert(sizeof(Visitor) <= 40, "visitors should stay compact");

}  // namespace remo
