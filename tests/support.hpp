// Shared helpers for the remo test suite.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "remo/remo.hpp"

namespace remo::test {

/// Undirected CSR (reverse edges materialised) from a directed edge list —
/// the static view of what an undirected engine ingests.
inline CsrGraph undirected_csr(const EdgeList& edges) {
  return CsrGraph::build(with_reverse_edges(edges));
}

/// A vertex inside the largest connected component (the paper's sourcing
/// methodology: "a vertex is randomly pre-chosen so that it is known to
/// eventually lie within the largest connected component").
inline VertexId vertex_in_largest_cc(const CsrGraph& g) {
  const auto labels = static_cc_union_find(g);
  // Count component sizes by label.
  RobinHoodMap<StateWord, std::uint64_t> sizes;
  for (const StateWord l : labels) ++sizes.get_or_insert(l);
  StateWord best_label = 0;
  std::uint64_t best = 0;
  sizes.for_each([&](const StateWord& l, std::uint64_t& n) {
    if (n > best) {
      best = n;
      best_label = l;
    }
  });
  for (CsrGraph::Dense v = 0; v < g.num_vertices(); ++v)
    if (labels[v] == best_label) return g.external_of(v);
  return kInvalidVertex;
}

/// Assert that program `p`'s converged state equals a dense oracle over
/// the CSR's vertex set.
inline void expect_matches_oracle(Engine& engine, ProgramId p, const CsrGraph& g,
                                  const std::vector<StateWord>& oracle) {
  ASSERT_EQ(oracle.size(), g.num_vertices());
  std::uint64_t mismatches = 0;
  for (CsrGraph::Dense v = 0; v < g.num_vertices() && mismatches < 10; ++v) {
    const VertexId ext = g.external_of(v);
    const StateWord got = engine.state_of(p, ext);
    if (got != oracle[v]) {
      ++mismatches;
      ADD_FAILURE() << "vertex " << ext << ": dynamic=" << got
                    << " oracle=" << oracle[v];
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Assert a snapshot equals a dense oracle over the CSR's vertex set.
inline void expect_snapshot_matches_oracle(const Snapshot& snap, const CsrGraph& g,
                                           const std::vector<StateWord>& oracle) {
  ASSERT_EQ(oracle.size(), g.num_vertices());
  std::uint64_t mismatches = 0;
  for (CsrGraph::Dense v = 0; v < g.num_vertices() && mismatches < 10; ++v) {
    const VertexId ext = g.external_of(v);
    const StateWord got = snap.at(ext);
    if (got != oracle[v]) {
      ++mismatches;
      ADD_FAILURE() << "vertex " << ext << ": snapshot=" << got
                    << " oracle=" << oracle[v];
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Canonicalise an undirected edge list: drop self-loops and keep one
/// representative per unordered pair. Needed whenever per-edge random
/// weights feed a distance oracle — duplicate arcs with distinct weights
/// would make the converged minimum depend on ingest order.
inline EdgeList dedupe_undirected(const EdgeList& edges) {
  EdgeList out;
  RobinHoodMap<std::uint64_t, std::uint8_t> seen;
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;
    const VertexId lo = e.src < e.dst ? e.src : e.dst;
    const VertexId hi = e.src < e.dst ? e.dst : e.src;
    const std::uint64_t key = hash_combine(splitmix64(lo), hi);
    if (seen.contains(key)) continue;
    seen.insert_or_assign(key, 1);
    out.push_back(e);
  }
  return out;
}

/// Fold a weighted event list per unordered pair (last add wins, delete
/// removes): the topology the engine converges on.
inline EdgeList fold_events(const std::vector<EdgeEvent>& events) {
  RobinHoodMap<std::uint64_t, Edge> live;
  for (const EdgeEvent& e : events) {
    const std::uint64_t key = event_pair_key(e);
    if (e.op == EdgeOp::kAdd)
      live.get_or_insert(key) = Edge{e.src, e.dst, e.weight};
    else
      live.erase(key);
  }
  EdgeList out;
  live.for_each([&](const std::uint64_t&, Edge& e) { out.push_back(e); });
  return out;
}

/// A small deterministic test graph: a path 0-1-2-3 plus a triangle 2-4-5
/// and an isolated pair 6-7.
inline EdgeList small_graph() {
  return {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {2, 4, 1}, {4, 5, 1}, {5, 2, 1}, {6, 7, 1}};
}

}  // namespace remo::test
