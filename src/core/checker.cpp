// Band-sharded occupancy checking (see checker.hpp and DESIGN.md §7.13).
//
// A pass has three phases:
//   1. Frame scan (serial, record-level): coordinate-range gate, node-box
//      bounds/duplicate/overlap checks, segment/via frame checks. No point
//      expansion — box overlap is detected analytically with a per-layer
//      interval sweep, so this phase is O(records log records).
//   2. Band scan (parallel): records are binned into y-bands; each band
//      claims its clipped points into a dense per-worker occupancy
//      slab (owner array indexed by (row, x, layer)) — one probe per point,
//      no hashing, no global sort. Bands whose slab would exceed the budget
//      fall back to the sorted (point, edge) pair detector per band. The
//      path is a pure function of the grid dimensions, so results stay
//      deterministic. Terminal theft is checked by probing the slab under
//      every node box.
//   3. Connectivity (parallel over edges): a per-edge record index (CSR, in
//      geometry order) lets each worker expand one edge at a time into its
//      own reusable scratch, sorted by merging the few ascending runs its
//      records leave. Union-find over the sorted, deduplicated points finds
//      +x neighbours adjacent and +y/+z neighbours by forward cursors.
// Per-band and per-edge results are merged into the sink in band-index /
// edge-id order, which makes the diagnostic sequence independent of the
// worker count.
#include "core/checker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "core/cancel.hpp"
#include "core/gridkey.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlvl {
namespace {

using grid::key3;
using grid::key_x;
using grid::key_y;
using grid::key_z;
using grid::kCoordMax;

/// Per-worker dense slab budget: 4M owner cells (16 MiB). Bands whose
/// (rows × width × layers) slab exceeds this use the sorted fallback.
constexpr std::uint64_t kDenseCellBudget = std::uint64_t{1} << 22;
/// Auto band sizing targets about this many bands.
constexpr std::uint32_t kTargetBands = 64;

Diagnostic at_point(std::uint32_t x, std::uint32_t y, std::uint32_t z,
                    Diagnostic d) {
  d.has_point = true;
  d.x = x;
  d.y = y;
  d.layer = static_cast<std::uint16_t>(z);
  return d;
}

Diagnostic at_key(std::uint64_t k, Diagnostic d) {
  return at_point(key_x(k), key_y(k), key_z(k), std::move(d));
}

/// Fans every violation into the sink while tracking the pass verdict
/// locally: the count and first diagnostic are recorded even for
/// violations the sink has no room for, so `CheckReport::ok` never
/// depends on the sink capacity. Phases stop producing once the sink is
/// full (the sink's documented contract).
struct Reporter {
  DiagnosticSink& sink;
  std::uint64_t found = 0;
  Diagnostic first;

  void operator()(Diagnostic d) {
    if (found++ == 0) first = d;
    if (!sink.full()) sink.report(std::move(d));
  }
};

/// Record-level frame scan results handed to the band and connectivity
/// phases.
struct FrameResult {
  std::vector<const NodeBox*> box_of;      ///< per node, registered box
  std::vector<std::uint32_t> reg_boxes;    ///< geom indices of valid boxes
  std::vector<char> edge_frame_ok;         ///< per edge
};

/// Phase 1: everything checkable without expanding points, reported in
/// record order (boxes, then box overlaps, then segments, then vias). The
/// scan stops once the sink is full (the producers-stop contract).
void frame_scan(const Graph& g, const LayoutGeometry& geom, Reporter& rep,
                FrameResult& fr) {
  fr.box_of.assign(g.num_nodes(), nullptr);
  fr.edge_frame_ok.assign(g.num_edges(), 1);
  fr.reg_boxes.clear();

  if (geom.boxes.size() != g.num_nodes())
    rep({.code = Code::kBoxCountMismatch,
         .detail = std::to_string(geom.boxes.size()) + " boxes for " +
                   std::to_string(g.num_nodes()) + " nodes"});
  for (std::size_t bi = 0; bi < geom.boxes.size(); ++bi) {
    if (rep.sink.full()) return;
    const NodeBox& b = geom.boxes[bi];
    if (b.node >= g.num_nodes()) {
      rep({.code = Code::kBoxUnknownNode,
           .detail = "node id " + std::to_string(b.node)});
      continue;
    }
    if (fr.box_of[b.node]) {
      rep({.code = Code::kBoxDuplicate, .node = b.node});
      continue;
    }
    fr.box_of[b.node] = &b;
    bool frame_ok = true;
    if (b.w == 0 || b.h == 0 ||
        static_cast<std::uint64_t>(b.x) + b.w > geom.width ||
        static_cast<std::uint64_t>(b.y) + b.h > geom.height) {
      rep({.code = Code::kBoxOutOfBounds,
           .has_point = true,
           .x = b.x,
           .y = b.y,
           .layer = b.layer,
           .node = b.node});
      frame_ok = false;
    }
    if (b.layer < 1 || b.layer > geom.num_layers) {
      rep({.code = Code::kBoxLayerRange,
           .has_point = true,
           .x = b.x,
           .y = b.y,
           .layer = b.layer,
           .node = b.node});
      frame_ok = false;
    }
    if (!frame_ok) continue;  // cells unbounded/invalid: do not register
    fr.reg_boxes.push_back(static_cast<std::uint32_t>(bi));
  }

  // Box disjointness: per-layer sweep over the registered boxes sorted by
  // top row, with an active list pruned on row exit. One report per
  // overlapping box (keyed by the later geometry index), placed at the
  // top-left cell of the overlap rectangle — the first cell the classic
  // per-point registration would have found taken.
  {
    std::vector<std::uint32_t> order = fr.reg_boxes;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const NodeBox& A = geom.boxes[a];
                const NodeBox& B = geom.boxes[b];
                return std::tie(A.layer, A.y, a) < std::tie(B.layer, B.y, b);
              });
    struct Hit {
      std::uint32_t later, oy, ox;
    };
    std::vector<Hit> hits;
    std::vector<std::uint32_t> active;
    int cur_layer = -1;
    for (std::uint32_t bi : order) {
      const NodeBox& b = geom.boxes[bi];
      if (static_cast<int>(b.layer) != cur_layer) {
        active.clear();
        cur_layer = b.layer;
      }
      std::erase_if(active, [&](std::uint32_t ai) {
        const NodeBox& a = geom.boxes[ai];
        return a.y + a.h <= b.y;
      });
      for (std::uint32_t ai : active) {
        const NodeBox& a = geom.boxes[ai];
        if (a.x < b.x + b.w && b.x < a.x + a.w)  // rows overlap by sweep
          hits.push_back({std::max(ai, bi), std::max(a.y, b.y),
                          std::max(a.x, b.x)});
      }
      active.push_back(bi);
    }
    std::sort(hits.begin(), hits.end(), [](const Hit& l, const Hit& r) {
      return std::tie(l.later, l.oy, l.ox) < std::tie(r.later, r.oy, r.ox);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      if (i > 0 && hits[i].later == hits[i - 1].later) continue;
      if (rep.sink.full()) return;
      const NodeBox& b = geom.boxes[hits[i].later];
      rep(at_point(hits[i].ox, hits[i].oy, b.layer,
                   {.code = Code::kBoxOverlap, .node = b.node}));
    }
  }

  for (const WireSeg& s : geom.segs) {
    if (rep.sink.full()) return;
    if (s.edge >= g.num_edges()) {
      rep({.code = Code::kSegUnknownEdge,
           .has_point = true,
           .x = s.x1,
           .y = s.y1,
           .layer = s.layer,
           .detail = "edge id " + std::to_string(s.edge)});
      continue;
    }
    bool ok = true;
    if (s.x1 > s.x2 || s.y1 > s.y2 || (s.x1 != s.x2 && s.y1 != s.y2)) {
      rep({.code = Code::kSegMalformed,
           .has_point = true,
           .x = s.x1,
           .y = s.y1,
           .layer = s.layer,
           .edge = s.edge});
      ok = false;
    }
    if (ok && (s.x2 >= geom.width || s.y2 >= geom.height)) {
      rep({.code = Code::kSegOutOfBounds,
           .has_point = true,
           .x = s.x2,
           .y = s.y2,
           .layer = s.layer,
           .edge = s.edge});
      ok = false;
    }
    if (s.layer < 1 || s.layer > geom.num_layers) {
      rep({.code = Code::kSegLayerRange,
           .has_point = true,
           .x = s.x1,
           .y = s.y1,
           .layer = s.layer,
           .edge = s.edge});
      ok = false;
    }
    if (!ok) fr.edge_frame_ok[s.edge] = 0;
  }
  for (const Via& v : geom.vias) {
    if (rep.sink.full()) return;
    if (v.edge >= g.num_edges()) {
      rep({.code = Code::kViaUnknownEdge,
           .has_point = true,
           .x = v.x,
           .y = v.y,
           .layer = v.z1,
           .detail = "edge id " + std::to_string(v.edge)});
      continue;
    }
    bool ok = true;
    if (v.z1 < 1 || v.z2 > geom.num_layers || v.z1 > v.z2) {
      rep({.code = Code::kViaSpanInvalid,
           .has_point = true,
           .x = v.x,
           .y = v.y,
           .layer = v.z1,
           .edge = v.edge});
      ok = false;
    }
    if (v.x >= geom.width || v.y >= geom.height) {
      rep({.code = Code::kViaOutOfBounds,
           .has_point = true,
           .x = v.x,
           .y = v.y,
           .layer = v.z1,
           .edge = v.edge});
      ok = false;
    }
    if (!ok) fr.edge_frame_ok[v.edge] = 0;
  }
}

std::uint32_t resolve_threads(std::uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

/// Run fn(index, worker) for every index in [0, n) on up to `threads`
/// workers pulling from a shared atomic cursor. Each worker re-installs the
/// spawning thread's cancellation token (thread-locals do not inherit); the
/// first exception aborts the remaining work and is rethrown after join.
/// threads <= 1 runs inline with worker id 0.
template <typename Fn>
void parallel_for(std::uint32_t threads, std::size_t n, Fn&& fn) {
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i, std::uint32_t{0});
    return;
  }
  const auto nw =
      static_cast<std::uint32_t>(std::min<std::size_t>(threads, n));
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};
  std::mutex ex_mu;
  std::exception_ptr first_ex;
  const CancelToken* token = current_cancel_token();
  std::vector<std::thread> pool;
  pool.reserve(nw);
  for (std::uint32_t w = 0; w < nw; ++w) {
    pool.emplace_back([&, w] {
      CancelScope scope(token);
      try {
        while (!abort.load(std::memory_order_relaxed)) {
          const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) break;
          fn(i, w);
        }
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(ex_mu);
          if (!first_ex) first_ex = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (first_ex) std::rethrow_exception(first_ex);
}

/// Records binned to one band for this pass (geometry indices).
struct BandInput {
  std::vector<std::uint32_t> segs, vias, boxes;
};

/// One band's scan output, merged into the sink in band-index order.
struct BandResult {
  std::vector<Diagnostic> diags;
  std::uint64_t points = 0;
};

/// Per-worker reusable scratch (never shared between concurrent bands).
struct BandScratch {
  std::vector<std::uint32_t> owner;    ///< dense slab: cell -> edge id + 1
  std::vector<std::uint32_t> touched;  ///< claimed cells, for O(claims) reset
  /// Colliding claims (cell, edge) beyond the slab's first owner — the slab
  /// keeps one owner per cell, but terminal theft must see every claimant.
  std::vector<std::pair<std::uint32_t, EdgeId>> extras;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> occ;  ///< fallback
};

struct BandContext {
  const Graph& g;
  const LayoutGeometry& geom;
  ViaRule rule;
  std::uint32_t rows;
  std::uint32_t height;
  std::uint32_t width;
  std::uint32_t layers;
  std::size_t diag_cap;
};

/// Dense path: claims probe a flat owner slab indexed (row, x, layer);
/// terminal theft probes the slab under each box's cells.
void scan_band_dense(const BandContext& ctx, std::uint32_t band,
                     const BandInput& in, BandResult& out, BandScratch& sc) {
  const std::uint32_t y0 = band * ctx.rows;
  const std::uint32_t y1 = std::min(ctx.height, y0 + ctx.rows);
  const std::uint64_t row_stride =
      static_cast<std::uint64_t>(ctx.width) * ctx.layers;
  const auto slab = static_cast<std::size_t>((y1 - y0) * row_stride);
  if (sc.owner.size() < slab) sc.owner.resize(slab, 0);

  auto cell = [&](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    return static_cast<std::size_t>((y - y0) * row_stride +
                                    static_cast<std::uint64_t>(x) * ctx.layers +
                                    (z - 1));
  };
  auto add_diag = [&](Diagnostic d) {
    if (out.diags.size() < ctx.diag_cap) out.diags.push_back(std::move(d));
  };
  auto claim = [&](std::uint32_t x, std::uint32_t y, std::uint32_t z,
                   EdgeId e) {
    const std::size_t i = cell(x, y, z);
    std::uint32_t& o = sc.owner[i];
    if (o == 0) {
      o = e + 1;
      sc.touched.push_back(static_cast<std::uint32_t>(i));
      ++out.points;
    } else if (o != e + 1) {
      ++out.points;  // a distinct (point, edge) claim that also collides
      sc.extras.emplace_back(static_cast<std::uint32_t>(i), e);
      add_diag(at_point(x, y, z, {.code = Code::kPointCollision,
                                  .edge = o - 1,
                                  .edge2 = e}));
    }
  };

  for (std::uint32_t si : in.segs) {
    poll_cancellation("check");
    const WireSeg& s = ctx.geom.segs[si];
    const std::uint32_t lo = std::max(s.y1, y0);
    const std::uint32_t hi = std::min(s.y2, y1 - 1);
    for (std::uint32_t yy = lo; yy <= hi; ++yy)
      for (std::uint32_t xx = s.x1; xx <= s.x2; ++xx)
        claim(xx, yy, s.layer, s.edge);
  }
  for (std::uint32_t vi : in.vias) {
    const Via& v = ctx.geom.vias[vi];
    if (ctx.rule == ViaRule::kBlocking) {
      for (std::uint32_t zz = v.z1; zz <= v.z2; ++zz)
        claim(v.x, v.y, zz, v.edge);
    } else {
      claim(v.x, v.y, v.z1, v.edge);
      if (v.z2 != v.z1) claim(v.x, v.y, v.z2, v.edge);
    }
  }
  // Wires on an active layer may only touch their endpoints' boxes.
  for (std::uint32_t bi : in.boxes) {
    poll_cancellation("check");
    const NodeBox& b = ctx.geom.boxes[bi];
    const std::uint32_t lo = std::max(b.y, y0);
    const std::uint32_t hi = std::min(b.y + b.h - 1, y1 - 1);
    for (std::uint32_t yy = lo; yy <= hi; ++yy)
      for (std::uint32_t xx = b.x; xx < b.x + b.w; ++xx) {
        const std::uint32_t o = sc.owner[cell(xx, yy, b.layer)];
        if (o == 0) continue;
        const Edge& ed = ctx.g.edge(o - 1);
        if (b.node != ed.u && b.node != ed.v)
          add_diag(at_point(xx, yy, b.layer, {.code = Code::kTerminalTheft,
                                              .edge = o - 1,
                                              .node = b.node}));
      }
  }
  // Colliding claims displaced from the slab get the same theft test: the
  // cell coordinates come back out of the flat index.
  if (!sc.extras.empty()) {
    std::sort(sc.extras.begin(), sc.extras.end());
    sc.extras.erase(std::unique(sc.extras.begin(), sc.extras.end()),
                    sc.extras.end());
    for (const auto& [i, e] : sc.extras) {
      const auto yy =
          static_cast<std::uint32_t>(y0 + i / row_stride);
      const auto rem = static_cast<std::uint32_t>(i % row_stride);
      const std::uint32_t xx = rem / ctx.layers;
      const std::uint32_t zz = rem % ctx.layers + 1;
      const Edge& ed = ctx.g.edge(e);
      for (std::uint32_t bi : in.boxes) {
        const NodeBox& b = ctx.geom.boxes[bi];
        if (b.layer != zz || !b.contains(xx, yy)) continue;
        if (b.node != ed.u && b.node != ed.v)
          add_diag(at_point(xx, yy, zz, {.code = Code::kTerminalTheft,
                                         .edge = e,
                                         .node = b.node}));
      }
    }
    sc.extras.clear();
  }
  for (std::uint32_t i : sc.touched) sc.owner[i] = 0;
  sc.touched.clear();
}

/// Fallback for bands whose dense slab would exceed the budget: the classic
/// sorted (point, edge) pair detector, restricted to one band.
void scan_band_sorted(const BandContext& ctx, std::uint32_t band,
                      const BandInput& in, BandResult& out, BandScratch& sc) {
  const std::uint32_t y0 = band * ctx.rows;
  const std::uint32_t y1 = std::min(ctx.height, y0 + ctx.rows);
  auto add_diag = [&](Diagnostic d) {
    if (out.diags.size() < ctx.diag_cap) out.diags.push_back(std::move(d));
  };
  sc.occ.clear();
  auto claim = [&](std::uint32_t x, std::uint32_t y, std::uint32_t z,
                   EdgeId e) {
    sc.occ.emplace_back(key3(x, y, z), e);
  };
  for (std::uint32_t si : in.segs) {
    poll_cancellation("check");
    const WireSeg& s = ctx.geom.segs[si];
    const std::uint32_t lo = std::max(s.y1, y0);
    const std::uint32_t hi = std::min(s.y2, y1 - 1);
    for (std::uint32_t yy = lo; yy <= hi; ++yy)
      for (std::uint32_t xx = s.x1; xx <= s.x2; ++xx)
        claim(xx, yy, s.layer, s.edge);
  }
  for (std::uint32_t vi : in.vias) {
    const Via& v = ctx.geom.vias[vi];
    if (ctx.rule == ViaRule::kBlocking) {
      for (std::uint32_t zz = v.z1; zz <= v.z2; ++zz)
        claim(v.x, v.y, zz, v.edge);
    } else {
      claim(v.x, v.y, v.z1, v.edge);
      claim(v.x, v.y, v.z2, v.edge);
    }
  }
  std::sort(sc.occ.begin(), sc.occ.end());
  for (std::size_t i = 1; i < sc.occ.size(); ++i)
    if (sc.occ[i].first == sc.occ[i - 1].first &&
        sc.occ[i].second != sc.occ[i - 1].second)
      add_diag(at_key(sc.occ[i].first, {.code = Code::kPointCollision,
                                        .edge = sc.occ[i - 1].second,
                                        .edge2 = sc.occ[i].second}));
  sc.occ.erase(std::unique(sc.occ.begin(), sc.occ.end()), sc.occ.end());
  out.points = sc.occ.size();

  std::vector<std::pair<std::uint64_t, std::uint32_t>> box_cells;
  for (std::uint32_t bi : in.boxes) {
    poll_cancellation("check");
    const NodeBox& b = ctx.geom.boxes[bi];
    const std::uint32_t lo = std::max(b.y, y0);
    const std::uint32_t hi = std::min(b.y + b.h - 1, y1 - 1);
    for (std::uint32_t yy = lo; yy <= hi; ++yy)
      for (std::uint32_t xx = b.x; xx < b.x + b.w; ++xx)
        box_cells.emplace_back(key3(xx, yy, b.layer), bi);
  }
  std::sort(box_cells.begin(), box_cells.end());
  for (const auto& [k, e] : sc.occ) {
    const auto it = std::lower_bound(
        box_cells.begin(), box_cells.end(), k,
        [](const auto& p, std::uint64_t key) { return p.first < key; });
    if (it == box_cells.end() || it->first != k) continue;
    const NodeBox& b = ctx.geom.boxes[it->second];
    const Edge& ed = ctx.g.edge(e);
    if (b.node != ed.u && b.node != ed.v)
      add_diag(at_key(k, {.code = Code::kTerminalTheft,
                          .edge = e,
                          .node = b.node}));
  }
}

/// Per-edge record index for phase 3 (CSR): edge e's records are
/// ids[off[e] .. off[e + 1]) in geometry order. An id below the segment count
/// names a segment; the rest name vias, offset by the segment count.
struct EdgeRecords {
  std::vector<std::uint32_t> off, ids;
};

EdgeRecords index_edge_records(const LayoutGeometry& geom,
                               std::uint32_t num_edges,
                               const std::vector<char>& edge_frame_ok) {
  EdgeRecords idx;
  idx.off.assign(num_edges + 1, 0);
  auto checked = [&](EdgeId e) { return e < num_edges && edge_frame_ok[e]; };
  for (const WireSeg& s : geom.segs)
    if (checked(s.edge)) ++idx.off[s.edge + 1];
  for (const Via& v : geom.vias)
    if (checked(v.edge)) ++idx.off[v.edge + 1];
  for (std::uint32_t e = 0; e < num_edges; ++e) idx.off[e + 1] += idx.off[e];
  idx.ids.resize(idx.off[num_edges]);
  std::vector<std::uint32_t> fill(idx.off.begin(), idx.off.end() - 1);
  const auto nsegs = static_cast<std::uint32_t>(geom.segs.size());
  for (std::uint32_t si = 0; si < nsegs; ++si)
    if (checked(geom.segs[si].edge)) idx.ids[fill[geom.segs[si].edge]++] = si;
  for (std::uint32_t vi = 0; vi < geom.vias.size(); ++vi)
    if (checked(geom.vias[vi].edge))
      idx.ids[fill[geom.vias[vi].edge]++] = nsegs + vi;
  return idx;
}

/// Per-worker reusable phase-3 scratch: one edge's points at a time.
struct EdgeScratch {
  /// (first key, record id, layer): a segment, or one layer of a via.
  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> pieces;
  std::vector<std::uint64_t> pts, merged;
  std::vector<std::uint32_t> runs, parent;
};

/// Fills sc.pts with edge e's points, sorted and deduplicated. Every segment
/// expands to ascending keys, and so does each layer of a via, so the pieces
/// are laid out by first key; what overlap is left splits the array into a
/// few ascending runs, which pairwise merge passes put in order.
void expand_edge(const LayoutGeometry& geom, EdgeId e, const EdgeRecords& idx,
                 EdgeScratch& sc) {
  const auto nsegs = static_cast<std::uint32_t>(geom.segs.size());
  sc.pieces.clear();
  for (std::uint32_t r = idx.off[e]; r < idx.off[e + 1]; ++r) {
    const std::uint32_t id = idx.ids[r];
    if (id < nsegs) {
      const WireSeg& s = geom.segs[id];
      sc.pieces.emplace_back(key3(s.x1, s.y1, s.layer), id, s.layer);
    } else {  // full column: vias always connect
      const Via& v = geom.vias[id - nsegs];
      for (std::uint32_t zz = v.z1; zz <= v.z2; ++zz)
        sc.pieces.emplace_back(key3(v.x, v.y, zz), id, zz);
    }
  }
  std::sort(sc.pieces.begin(), sc.pieces.end());

  std::vector<std::uint64_t>& p = sc.pts;
  p.clear();
  sc.runs.clear();
  for (const auto& [first, id, z] : sc.pieces) {
    if (p.empty() || first < p.back())
      sc.runs.push_back(static_cast<std::uint32_t>(p.size()));
    if (id >= nsegs) {
      p.push_back(first);
      continue;
    }
    const WireSeg& s = geom.segs[id];
    for (std::uint32_t yy = s.y1; yy <= s.y2; ++yy)
      for (std::uint32_t xx = s.x1; xx <= s.x2; ++xx)
        p.push_back(key3(xx, yy, z));
  }
  sc.runs.push_back(static_cast<std::uint32_t>(p.size()));
  while (sc.runs.size() > 2) {  // runs holds run starts plus the end
    sc.merged.resize(p.size());
    std::size_t out = 0;
    for (std::size_t j = 0; j + 1 < sc.runs.size(); j += 2) {
      const std::uint32_t a = sc.runs[j], b = sc.runs[j + 1];
      const std::uint32_t c = j + 2 < sc.runs.size() ? sc.runs[j + 2] : b;
      std::merge(p.begin() + a, p.begin() + b, p.begin() + b, p.begin() + c,
                 sc.merged.begin() + a);
      sc.runs[out++] = a;
    }
    sc.runs[out++] = sc.runs.back();
    sc.runs.resize(out);
    p.swap(sc.merged);
  }
  p.erase(std::unique(p.begin(), p.end()), p.end());
}

/// Phase 3 for one edge: expand its records into the worker's scratch, then
/// union-find over the sorted, deduplicated points. Returns at most one
/// diagnostic (unrouted / disconnected / misses-terminal).
std::optional<Diagnostic> verify_edge(const Graph& g, const LayoutGeometry& geom,
                                      EdgeId e, const EdgeRecords& idx,
                                      const std::vector<const NodeBox*>& box_of,
                                      EdgeScratch& sc) {
  poll_cancellation("check");
  expand_edge(geom, e, idx, sc);
  const std::vector<std::uint64_t>& p = sc.pts;
  if (p.empty()) return Diagnostic{.code = Code::kEdgeUnrouted, .edge = e};

  // Connectivity by union-find over the sorted keys. x sits in the key's low
  // bits, so the +x neighbour (if present) is the next element. The +y and
  // +z neighbours, p[i] + step, grow with i, so each is found by a cursor
  // that only moves forward. Every adjacent pair is seen from its lower
  // endpoint, so three probes per point cover the 6-neighbourhood.
  const auto n = static_cast<std::uint32_t>(p.size());
  std::vector<std::uint32_t>& parent = sc.parent;
  parent.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](std::uint32_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];  // path halving
      i = parent[i];
    }
    return i;
  };
  auto unite = [&](std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };
  auto probe = [&](std::uint32_t i, std::uint32_t& cursor, std::uint64_t want) {
    while (cursor < n && p[cursor] < want) ++cursor;
    if (cursor < n && p[cursor] == want) unite(i, cursor);
  };
  std::uint32_t next_y = 0, next_z = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t k = p[i];
    if (i + 1 < n && p[i + 1] == k + 1 && key_x(k) != kCoordMax)
      unite(i, i + 1);
    if (key_y(k) != kCoordMax)
      probe(i, next_y, k + (1ull << grid::kCoordBits));
    probe(i, next_z, k + (1ull << (2 * grid::kCoordBits)));
  }
  const std::uint32_t root = find(0);
  for (std::uint32_t i = 1; i < n; ++i)
    if (find(i) != root)  // a stranded point: the diagnostic names it
      return at_key(p[i], {.code = Code::kEdgeDisconnected, .edge = e});

  const Edge& ed = g.edge(e);
  const NodeBox* bu = box_of[ed.u];
  const NodeBox* bv = box_of[ed.v];
  bool touch_u = false, touch_v = false;
  for (std::uint32_t i = 0; i < n && !(touch_u && touch_v); ++i) {
    const std::uint32_t xx = key_x(p[i]);
    const std::uint32_t yy = key_y(p[i]);
    const std::uint32_t zz = key_z(p[i]);
    if (bu && zz == bu->layer && bu->contains(xx, yy)) touch_u = true;
    if (bv && zz == bv->layer && bv->contains(xx, yy)) touch_v = true;
  }
  if ((!touch_u && bu) || (!touch_v && bv)) {
    const NodeBox* missing = (!touch_u && bu) ? bu : bv;
    return Diagnostic{.code = Code::kEdgeMissesTerminal,
                      .has_point = true,
                      .x = missing->x,
                      .y = missing->y,
                      .layer = missing->layer,
                      .edge = e,
                      .node = missing->node};
  }
  return std::nullopt;
}

}  // namespace

Checker::Checker(const Graph& g, const LayoutGeometry& geom, CheckOptions opt)
    : g_(g), geom_(geom), opt_(opt) {}

CheckReport Checker::check() {
  DiagnosticSink sink(1);
  return check(sink);
}

CheckReport Checker::check(DiagnosticSink& sink) {
  obs::Span span("check");
  const auto t0 = std::chrono::steady_clock::now();
  CheckReport rep;
  Reporter reporter{sink, 0, {}};
  auto finalize = [&]() -> CheckReport& {
    rep.ok = reporter.found == 0;
    if (!rep.ok) rep.error = reporter.first.to_string();
    rep.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    obs::counter_add("check.bands", rep.bands);
    obs::gauge_set("grid.points", static_cast<double>(rep.points));
    obs::gauge_max("grid.peak_occupancy", static_cast<double>(rep.points));
    return rep;
  };

  if (geom_.width > kCoordMax || geom_.height > kCoordMax ||
      geom_.num_layers > kCoordMax) {
    reporter({.code = Code::kCoordRange});
    return finalize();
  }

  // Phase 1: frame scan.
  FrameResult fr;
  frame_scan(g_, geom_, reporter, fr);
  if (sink.full()) return finalize();

  // Band layout: ~kTargetBands bands, thinned further so one band's dense
  // slab fits the cell budget. When one row's slab alone exceeds the budget
  // (or the grid has no columns), every band takes the sorted path.
  const std::uint32_t h = std::max<std::uint32_t>(geom_.height, 1);
  const std::uint64_t slab = static_cast<std::uint64_t>(geom_.width) *
                             std::max<std::uint32_t>(geom_.num_layers, 1);
  const bool dense = slab != 0 && slab <= kDenseCellBudget;
  std::uint32_t rows =
      std::max<std::uint32_t>(1, (h + kTargetBands - 1) / kTargetBands);
  if (dense)
    rows = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(rows, kDenseCellBudget / slab));
  const std::uint32_t num_bands = (h + rows - 1) / rows;
  rep.bands = num_bands;
  auto band_of = [&](std::uint32_t y) {
    return std::min(y / rows, num_bands - 1);
  };

  // Phase 2: bin records into bands, scan them, merge in band order.
  const std::uint32_t num_edges = g_.num_edges();
  std::vector<BandInput> inputs(num_bands);
  for (std::size_t si = 0; si < geom_.segs.size(); ++si) {
    const WireSeg& s = geom_.segs[si];
    if (s.edge >= num_edges || !fr.edge_frame_ok[s.edge]) continue;
    for (std::uint32_t b = band_of(s.y1); b <= band_of(s.y2); ++b)
      inputs[b].segs.push_back(static_cast<std::uint32_t>(si));
  }
  for (std::size_t vi = 0; vi < geom_.vias.size(); ++vi) {
    const Via& v = geom_.vias[vi];
    if (v.edge >= num_edges || !fr.edge_frame_ok[v.edge]) continue;
    inputs[band_of(v.y)].vias.push_back(static_cast<std::uint32_t>(vi));
  }
  for (std::uint32_t bi : fr.reg_boxes) {
    const NodeBox& b = geom_.boxes[bi];
    for (std::uint32_t bb = band_of(b.y); bb <= band_of(b.y + b.h - 1); ++bb)
      inputs[bb].boxes.push_back(bi);
  }

  const std::uint32_t nthreads = resolve_threads(opt_.threads);
  std::vector<BandResult> results(num_bands);
  const BandContext ctx{g_,
                        geom_,
                        opt_.via_rule,
                        rows,
                        geom_.height,
                        geom_.width,
                        geom_.num_layers,
                        std::max<std::size_t>(sink.capacity(), 1)};
  std::vector<BandScratch> scratch(
      std::max<std::uint32_t>(1, std::min(nthreads, num_bands)));
  parallel_for(nthreads, num_bands, [&](std::size_t b, std::uint32_t w) {
    const auto band = static_cast<std::uint32_t>(b);
    if (dense)
      scan_band_dense(ctx, band, inputs[b], results[b], scratch[w]);
    else
      scan_band_sorted(ctx, band, inputs[b], results[b], scratch[w]);
  });
  for (const BandResult& r : results) {
    rep.points += r.points;
    for (const Diagnostic& d : r.diags) reporter(d);
  }
  if (sink.full()) return finalize();

  // Phase 3: connectivity of every edge whose frame is sound (frame
  // violations were already reported and carry no connectivity verdict).
  std::vector<std::uint32_t> check_list;
  for (EdgeId e = 0; e < num_edges; ++e)
    if (fr.edge_frame_ok[e]) check_list.push_back(e);
  const EdgeRecords idx = index_edge_records(geom_, num_edges, fr.edge_frame_ok);
  std::vector<EdgeScratch> edge_scratch(std::max<std::size_t>(
      1, std::min<std::size_t>(nthreads, check_list.size())));
  std::vector<std::optional<Diagnostic>> conn(check_list.size());
  parallel_for(nthreads, check_list.size(), [&](std::size_t i, std::uint32_t w) {
    conn[i] = verify_edge(g_, geom_, check_list[i], idx, fr.box_of,
                          edge_scratch[w]);
  });
  for (const std::optional<Diagnostic>& d : conn)
    if (d) reporter(*d);
  return finalize();
}

}  // namespace mlvl
