// remo — incremental graph processing for on-line analytics.
//
// Umbrella header for the public API. See README.md for a tour and
// DESIGN.md for the system inventory.
#pragma once

// Common utilities
#include "common/bitset.hpp"
#include "common/build_info.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

// Observability (histograms, phase timers, chrome-trace export, live
// telemetry: gauges, metrics exporter, stall watchdog)
#include "obs/bench_compare.hpp"
#include "obs/exporter.hpp"
#include "obs/gauges.hpp"
#include "obs/histogram.hpp"
#include "obs/lineage.hpp"
#include "obs/obs_config.hpp"
#include "obs/phase_timer.hpp"
#include "obs/prof.hpp"
#include "obs/span.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

// Dynamic graph storage (DegAwareRHH-style)
#include "storage/adjacency.hpp"
#include "storage/degaware_store.hpp"
#include "storage/robin_hood_map.hpp"

// Static substrate & oracles
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/static_bfs.hpp"
#include "graph/static_cc.hpp"
#include "graph/static_pagerank.hpp"
#include "graph/static_sssp.hpp"
#include "graph/static_st.hpp"

// Workload generation & streams
#include "gen/datasets.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/pref_attach.hpp"
#include "gen/rmat.hpp"
#include "gen/stream.hpp"

// I/O
#include "io/edge_io.hpp"

// Engine & programming model
#include "core/engine.hpp"
#include "core/engine_config.hpp"
#include "core/query.hpp"
#include "core/snapshot.hpp"
#include "core/static_on_dynamic.hpp"
#include "core/vertex_program.hpp"

// Per-rank THP arenas (the engine's allocator for storage and mailbox rings)
#include "runtime/memory.hpp"

// Query serving plane (epoch-consistent reads, conflict-scheduled writes)
#include "runtime/conflict.hpp"
#include "serve/query_service.hpp"
#include "serve/serving_gauges.hpp"
#include "serve/write_gate.hpp"

// Differential fuzzing & deterministic replay
#include "fuzz/fuzz.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"

// REMO algorithms
#include "core/algorithms/degree_tracker.hpp"
#include "core/algorithms/dynamic_bfs.hpp"
#include "core/algorithms/dynamic_cc.hpp"
#include "core/algorithms/dynamic_sssp.hpp"
#include "core/algorithms/multi_st.hpp"
#include "core/algorithms/pagerank_delta.hpp"
#include "core/algorithms/weighted_sssp.hpp"
#include "core/algorithms/wide_st.hpp"
