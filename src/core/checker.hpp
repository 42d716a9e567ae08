// Exact validation of multilayer layout geometry.
//
// The multilayer grid model (Sec. 2.2) requires the routed edges to be node-
// and edge-disjoint paths in the L-layer 3-D grid, with network nodes on
// layer 1. The checker enforces, point by point:
//   * no grid point is used by wires of two different edges (same-layer
//     crossings are therefore impossible; different-layer crossings never
//     share a point);
//   * vias occupy their whole z-column (ViaRule::kBlocking, the strict
//     model) or only their endpoints (kTransparent, stacked-via technology);
//   * wire points on layer 1 may only touch a node box that is an endpoint
//     of that edge (the terminal);
//   * node boxes are pairwise disjoint and within bounds;
//   * each edge's segments and vias form one connected path that touches
//     both endpoint boxes on layer 1.
//
// Thompson-model layouts (L = 2) are checked by the same rules: a crossing
// of a horizontal and a vertical wire is two different layers and therefore
// point-disjoint, while overlaps and knock-knees would collide.
//
// Occupancy model (DESIGN.md §7.13): each pass partitions the layout's rows
// into y-bands; a band is scanned one layer at a time through a dense owner
// slab indexed by (row, x), so collision detection is one array probe per
// claimed point instead of a hash insert, and the slab stays within a fixed
// cell budget for any frame. Bands are independent and are checked in
// parallel; per-band results are merged in band-index order, so the
// diagnostic sequence is byte-identical for any worker count. Every pass is
// a full check of the current geometry.
#pragma once

#include <cstdint>
#include <string>

#include "core/diagnostics.hpp"
#include "core/geometry.hpp"
#include "core/graph.hpp"
#include "core/multilayer.hpp"

namespace mlvl {

/// Tuning and semantics knobs for a `Checker`.
struct CheckOptions {
  /// Via occupancy model the layout must satisfy.
  ViaRule via_rule = ViaRule::kBlocking;
  /// Band-check worker threads; 1 = serial (the default: the sweep engine
  /// already parallelizes across jobs), 0 = hardware concurrency. Diagnostic
  /// order and point counts are identical for every value.
  std::uint32_t threads = 1;
};

/// Outcome of one check() pass.
struct CheckReport {
  bool ok = false;
  std::string error;  ///< first violation, rendered; empty when ok
  /// Distinct occupied (grid point, edge) claims across the scanned bands.
  std::uint64_t points = 0;
  std::uint32_t bands = 0;  ///< y-bands the grid was split into
  double wall_ms = 0;       ///< wall time of this pass

  explicit operator bool() const { return ok; }
};

/// Band-sharded occupancy checker over one (graph, geometry) pair. The
/// referenced graph and geometry must outlive the Checker; each check()
/// verifies the geometry as it is at that moment. Not thread-safe itself
/// (one checking pass at a time); a pass may use internal worker threads
/// per `CheckOptions::threads`.
class Checker {
 public:
  Checker(const Graph& g, const LayoutGeometry& geom, CheckOptions opt = {});

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Full pass: every band scanned, every edge's connectivity verified.
  /// Violations append to `sink` in deterministic order (frame scan in
  /// record order, then band results in band-index order and layer-major
  /// within a band, then connectivity in edge-id order); producers stop
  /// once the sink is full.
  CheckReport check(DiagnosticSink& sink);
  /// First-failure convenience: capacity-1 sink, report carries the error.
  CheckReport check();

 private:
  const Graph& g_;
  const LayoutGeometry& geom_;
  CheckOptions opt_;
};

}  // namespace mlvl
