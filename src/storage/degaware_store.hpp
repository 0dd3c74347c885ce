// DegAwareStore: the per-rank dynamic graph topology store.
//
// One Robin Hood table maps vertex IDs to vertex records; each record owns
// a degree-aware adjacency (TwoTierAdjacency). A rank stores exactly the
// out-edges of the vertices it owns (Section III-C: "the directed edge will
// be co-located with the source vertex"); for undirected graphs the engine
// materialises the reverse edge at the other owner via a Reverse-Add event.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "storage/adjacency.hpp"
#include "storage/robin_hood_map.hpp"

namespace remo {

struct StoreConfig {
  /// Degree at which a vertex's adjacency is promoted from the compact
  /// inline tier to a Robin Hood edge table.
  std::uint32_t promote_threshold = TwoTierAdjacency::kDefaultPromoteThreshold;
};

class DegAwareStore {
 public:
  struct InsertResult {
    bool new_vertex;  ///< the source vertex record was created by this call
    bool new_edge;    ///< the edge did not previously exist
    /// When `new_edge` is false, the weight the edge carried before this
    /// insert overwrote it (last-weight-wins). Re-adds with a different
    /// weight are weight *changes* — the engine routes them to
    /// VertexProgram::on_weight_change rather than on_add, so a mutation
    /// is never split into a delete+add racing the repair wave.
    Weight old_weight = kDefaultWeight;
    /// The source vertex's adjacency and the inserted edge's property slot
    /// — handed back so the ingest hot path does not pay further probes to
    /// re-find what the insert just touched.
    ///
    /// Lifetime (the handle-invalidation contract, audited by the debug
    /// asserts in engine_loop.cpp): BOTH pointers die the moment any other
    /// vertex record is touched — `adj` points into the vertex map, which
    /// can rehash or Robin-Hood-displace records on any insert, and `prop`
    /// points into that (movable) record's inline buffer or edge table.
    /// They are guaranteed valid only while generation() is unchanged;
    /// after interleaved store mutations, re-resolve via adjacency()/find()
    /// or assert no growth happened.
    TwoTierAdjacency* adj;
    EdgeProp* prop;
  };

  DegAwareStore() = default;

  /// `arena` backs the vertex map and every promoted edge table, so the
  /// whole shard lives in its rank's arena (the engine always passes one);
  /// it must outlive the store. nullptr: plain heap (standalone stores).
  explicit DegAwareStore(StoreConfig cfg, Arena* arena = nullptr)
      : cfg_(cfg), arena_(arena), vertices_(arena) {}

  /// Insert directed edge src -> dst with weight w. Creates the source
  /// vertex record on first touch.
  InsertResult insert_edge(VertexId src, VertexId dst, Weight w) {
    auto [record, fresh] = touch(src);
    Weight old_w = kDefaultWeight;
    auto [prop, new_edge] =
        record->adj.insert_get(dst, w, cfg_.promote_threshold, &old_w);
    edge_count_ += new_edge ? 1 : 0;
    return {fresh, new_edge, old_w, &record->adj, prop};
  }

  /// Remove directed edge src -> dst; returns true when it existed.
  /// `erased` (if given) receives the removed edge's properties — delete
  /// events carry only endpoints, but programs must retract the weight and
  /// memoized state the store actually held.
  bool erase_edge(VertexId src, VertexId dst, EdgeProp* erased = nullptr) {
    VertexRecord* rec = vertices_.find(src);
    if (!rec) return false;
    const bool removed = rec->adj.erase(dst, erased);
    edge_count_ -= removed ? 1 : 0;
    return removed;
  }

  /// Ensure a vertex record exists (vertex add without edges).
  bool insert_vertex(VertexId v) { return touch(v).second; }

  bool has_vertex(VertexId v) const noexcept { return vertices_.contains(v); }

  bool has_edge(VertexId src, VertexId dst) const noexcept {
    const VertexRecord* rec = vertices_.find(src);
    return rec && rec->adj.contains(dst);
  }

  std::size_t degree(VertexId v) const noexcept {
    const VertexRecord* rec = vertices_.find(v);
    return rec ? rec->adj.degree() : 0;
  }

  Weight edge_weight(VertexId src, VertexId dst) const noexcept {
    const VertexRecord* rec = vertices_.find(src);
    return rec ? rec->adj.weight_of(dst) : kDefaultWeight;
  }

  /// Mutable adjacency of `v`, or nullptr when the vertex is unknown.
  TwoTierAdjacency* adjacency(VertexId v) noexcept {
    VertexRecord* rec = vertices_.find(v);
    return rec ? &rec->adj : nullptr;
  }

  const TwoTierAdjacency* adjacency(VertexId v) const noexcept {
    const VertexRecord* rec = vertices_.find(v);
    return rec ? &rec->adj : nullptr;
  }

  std::size_t vertex_count() const noexcept { return vertices_.size(); }
  std::size_t edge_count() const noexcept { return edge_count_; }

  /// Handle-stability epoch of the vertex map: while unchanged, every
  /// TwoTierAdjacency* (and the records they live in) handed out by
  /// insert_edge()/adjacency() is still addressable. Bumps whenever vertex
  /// records move (map growth, Robin Hood displacement, erase shift). Note
  /// EdgeProp* handles additionally require the owning adjacency's own
  /// generation() to be unchanged.
  std::uint64_t generation() const noexcept { return vertices_.generation(); }

  /// The backing arena, or nullptr for a heap-backed store.
  Arena* arena() const noexcept { return arena_; }

  /// Visit every owned vertex: `fn(VertexId, TwoTierAdjacency&)`.
  template <typename Fn>
  void for_each_vertex(Fn&& fn) {
    vertices_.for_each([&](const VertexId& v, VertexRecord& rec) { fn(v, rec.adj); });
  }

  template <typename Fn>
  void for_each_vertex(Fn&& fn) const {
    vertices_.for_each(
        [&](const VertexId& v, const VertexRecord& rec) { fn(v, rec.adj); });
  }

  std::size_t memory_bytes() const noexcept {
    std::size_t bytes = vertices_.memory_bytes();
    vertices_.for_each([&](const VertexId&, const VertexRecord& rec) {
      bytes += rec.adj.memory_bytes();
    });
    return bytes;
  }

  const StoreConfig& config() const noexcept { return cfg_; }

 private:
  struct VertexRecord {
    TwoTierAdjacency adj;
  };

  std::pair<VertexRecord*, bool> touch(VertexId v) {
    // Fresh records inherit the store's arena so their promoted edge
    // tables land on the same node as the vertex map.
    return vertices_.find_or_emplace(
        v, [this] { return VertexRecord{TwoTierAdjacency(arena_)}; });
  }

  StoreConfig cfg_{};
  Arena* arena_ = nullptr;
  RobinHoodMap<VertexId, VertexRecord> vertices_;
  std::size_t edge_count_ = 0;
};

}  // namespace remo
