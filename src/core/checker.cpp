// Band-sharded occupancy checking (see checker.hpp and DESIGN.md §7.13).
//
// A pass has three phases:
//   1. Frame scan (serial, record-level): coordinate-range gate, node-box
//      bounds/duplicate/overlap checks, segment/via frame checks. No point
//      expansion — box overlap is detected analytically with a per-layer
//      interval sweep, so this phase is O(records log records).
//   2. Band scan (parallel): records are binned into y-bands; each band
//      walks its layers in ascending order and claims that layer's clipped
//      points into a dense per-worker owner slab indexed by (row, x) — one
//      probe per point, no hashing, no sort of points. A slab never exceeds
//      the cell budget, whatever the frame's width or layer count. Terminal
//      theft is checked by probing the slab under every box of the layer.
//   3. Connectivity (parallel over edges, record-level): a per-edge record
//      index (CSR, in geometry order) hands each worker one edge at a time.
//      Every record is an integer box (a segment [x1,x2]×[y1,y2]×[layer], a
//      via column [x]×[y]×[z1,z2]); two records join when their per-axis
//      gaps sum to at most 1, which is exactly 6-adjacency of some pair of
//      their points. Union-find runs over the records: collinear runs are
//      merged per line, parallel runs on neighbouring lines are paired by a
//      two-pointer walk, and crossing runs by a sort-and-sweep, so an edge
//      costs O(R log R + contacts) and its scratch follows its record count
//      R, never its wire length. The stranded point reported is the smallest
//      key outside the component of the edge's smallest key, both of them
//      record starts.
//   Each phase runs under its own span (check.frame / check.scan /
//   check.connect) on the calling thread.
// Per-band and per-edge results are merged into the sink in band-index /
// edge-id order, which makes the diagnostic sequence independent of the
// worker count.
#include "core/checker.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
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

/// Per-worker slab budget: 4M owner cells (16 MiB). A band's one-layer
/// (rows × width) slab never exceeds it.
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

/// One band's scan output, merged into the sink in band-index order.
struct BandResult {
  std::vector<Diagnostic> diags;
  std::uint64_t points = 0;
};

/// Per-worker reusable scratch (never shared between concurrent bands).
struct BandScratch {
  std::vector<std::uint32_t> owner;    ///< one layer's slab: cell -> edge + 1
  std::vector<std::uint32_t> touched;  ///< claimed cells, for O(claims) reset
  /// Colliding claims (cell, edge) beyond the slab's first owner — the slab
  /// keeps one owner per cell, but terminal theft must see every claimant.
  std::vector<std::pair<std::uint32_t, EdgeId>> extras;
  std::vector<std::uint32_t> live;  ///< kBlocking via ids spanning the layer
};

/// Phase 2 names each record by an id: segments first, then vias, then
/// boxes (geometry index offset by the ranges before it). A via has two
/// ids, its lowest layer's and its top layer's (the second is used only
/// under kTransparent, where a via claims just its two ends), so id order
/// within a layer is segments, vias, boxes, each in geometry order.
enum ItemKind { kSegItem, kViaItem, kBoxItem };

struct BandContext {
  const Graph& g;
  const LayoutGeometry& geom;
  ViaRule rule;
  std::uint32_t rows;
  std::uint32_t height;
  std::uint32_t width;
  std::size_t diag_cap;
  std::uint32_t nsegs, nvias;  ///< id ranges

  ItemKind kind(std::uint32_t id) const {
    return id < nsegs                ? kSegItem
           : id - nsegs < 2 * nvias ? kViaItem
                                    : kBoxItem;
  }
  const Via& via(std::uint32_t id) const {
    return geom.vias[(id - nsegs) / 2];
  }
  const NodeBox& box(std::uint32_t id) const {
    return geom.boxes[id - nsegs - 2 * nvias];
  }
  std::uint32_t layer(std::uint32_t id) const {
    switch (kind(id)) {
      case kSegItem: return geom.segs[id].layer;
      case kViaItem: return (id - nsegs) % 2 ? via(id).z2 : via(id).z1;
      default: return box(id).layer;
    }
  }
  /// The record's first and last row.
  std::pair<std::uint32_t, std::uint32_t> y_extent(std::uint32_t id) const {
    switch (kind(id)) {
      case kSegItem: return {geom.segs[id].y1, geom.segs[id].y2};
      case kViaItem: return {via(id).y, via(id).y};
      default: return {box(id).y, box(id).y + box(id).h - 1};
    }
  }
};

/// Phase 2 for one band, one layer at a time. `items` holds the band's
/// record ids in (layer, id) order. On each layer the segments, then
/// the vias that claim it, claim cells of a (rows × width) owner
/// slab, so a collision is one array probe and every cell sees its
/// claimants in geometry order; the layer's boxes then probe the slab for
/// terminal theft, and the touched cells are reset before the next layer.
void scan_band(const BandContext& ctx, std::uint32_t band,
               const std::vector<std::uint32_t>& items, BandResult& out,
               BandScratch& sc) {
  const std::uint32_t y0 = band * ctx.rows;
  const std::uint32_t y1 = std::min(ctx.height, y0 + ctx.rows);
  const std::size_t slab = static_cast<std::size_t>(y1 - y0) * ctx.width;
  if (sc.owner.size() < slab) sc.owner.resize(slab, 0);

  auto cell = [&](std::uint32_t x, std::uint32_t y) {
    return static_cast<std::size_t>(y - y0) * ctx.width + x;
  };
  auto add_diag = [&](Diagnostic d) {
    if (out.diags.size() < ctx.diag_cap) out.diags.push_back(std::move(d));
  };
  auto claim = [&](std::uint32_t x, std::uint32_t y, std::uint32_t z,
                   EdgeId e) {
    const std::size_t i = cell(x, y);
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
  auto theft = [&](const NodeBox& b, std::uint32_t x, std::uint32_t y,
                   EdgeId e) {
    const Edge& ed = ctx.g.edge(e);
    if (b.node != ed.u && b.node != ed.v)
      add_diag(at_point(x, y, b.layer, {.code = Code::kTerminalTheft,
                                        .edge = e,
                                        .node = b.node}));
  };

  const std::size_t n = items.size();
  std::uint32_t z = 0;
  for (std::size_t i = 0; i < n || !sc.live.empty();) {
    // The next layer with work: the next item's, or the next one a live
    // via column still spans.
    z = sc.live.empty() ? ctx.layer(items[i]) : z + 1;
    poll_cancellation("check");
    for (; i < n && ctx.kind(items[i]) == kSegItem &&
           ctx.layer(items[i]) == z;
         ++i) {
      poll_cancellation("check");
      const WireSeg& s = ctx.geom.segs[items[i]];
      const std::uint32_t lo = std::max(s.y1, y0);
      const std::uint32_t hi = std::min(s.y2, y1 - 1);
      for (std::uint32_t yy = lo; yy <= hi; ++yy)
        for (std::uint32_t xx = s.x1; xx <= s.x2; ++xx)
          claim(xx, yy, z, s.edge);
    }
    // Under kTransparent each via end claims its own layer. Under kBlocking
    // a via joins the live list at its lowest layer, claims every layer of
    // its column, and leaves after its top one.
    const auto joined = static_cast<std::ptrdiff_t>(sc.live.size());
    for (; i < n && ctx.kind(items[i]) == kViaItem &&
           ctx.layer(items[i]) == z;
         ++i) {
      const Via& v = ctx.via(items[i]);
      if (ctx.rule == ViaRule::kBlocking)
        sc.live.push_back(items[i]);
      else
        claim(v.x, v.y, z, v.edge);
    }
    std::inplace_merge(sc.live.begin(), sc.live.begin() + joined,
                       sc.live.end());
    std::size_t kept = 0;
    for (std::size_t k = 0; k < sc.live.size(); ++k) {
      const Via& v = ctx.via(sc.live[k]);
      claim(v.x, v.y, z, v.edge);
      if (v.z2 != z) sc.live[kept++] = sc.live[k];
    }
    sc.live.resize(kept);
    // Wires on an active layer may only touch their endpoints' boxes.
    const std::size_t boxes_begin = i;
    for (; i < n && ctx.layer(items[i]) == z; ++i) {
      poll_cancellation("check");
      const NodeBox& b = ctx.box(items[i]);
      const std::uint32_t lo = std::max(b.y, y0);
      const std::uint32_t hi = std::min(b.y + b.h - 1, y1 - 1);
      for (std::uint32_t yy = lo; yy <= hi; ++yy)
        for (std::uint32_t xx = b.x; xx < b.x + b.w; ++xx)
          if (const std::uint32_t o = sc.owner[cell(xx, yy)]; o != 0)
            theft(b, xx, yy, o - 1);
    }
    // Colliding claims displaced from the slab get the same theft test: the
    // cell coordinates come back out of the flat index.
    if (!sc.extras.empty()) {
      std::sort(sc.extras.begin(), sc.extras.end());
      sc.extras.erase(std::unique(sc.extras.begin(), sc.extras.end()),
                      sc.extras.end());
      for (const auto& [c, e] : sc.extras) {
        const auto yy = static_cast<std::uint32_t>(y0 + c / ctx.width);
        const auto xx = static_cast<std::uint32_t>(c % ctx.width);
        for (std::size_t k = boxes_begin; k < i; ++k) {
          const NodeBox& b = ctx.box(items[k]);
          if (b.contains(xx, yy)) theft(b, xx, yy, e);
        }
      }
      sc.extras.clear();
    }
    for (std::uint32_t c : sc.touched) sc.owner[c] = 0;
    sc.touched.clear();
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

/// One record of an edge as an integer box, inclusive per axis (x, y, z): a
/// segment spans [x1,x2]×[y1,y2]×[layer], a via column [x]×[y]×[z1,z2].
/// `rec` names the record's union-find slot; `order` is its sort key as a
/// run (see `run_order`).
struct RecBox {
  std::array<std::uint32_t, 3> lo, hi;
  std::uint32_t rec;
  std::uint64_t order = 0;
};

/// Distance between two boxes along one axis: 0 when their extents meet.
std::uint32_t axis_gap(const RecBox& a, const RecBox& b, int axis) {
  if (a.lo[axis] > b.hi[axis]) return a.lo[axis] - b.hi[axis];
  if (b.lo[axis] > a.hi[axis]) return b.lo[axis] - a.hi[axis];
  return 0;
}

/// The join rule: some point of `a` and some point of `b` are equal or
/// 6-adjacent exactly when the per-axis gaps sum to at most 1.
bool joins(const RecBox& a, const RecBox& b) {
  return axis_gap(a, b, 0) + axis_gap(a, b, 1) + axis_gap(a, b, 2) <= 1;
}

/// Whether the inclusive range [lo, hi] holds a coordinate c with
/// `c >= start && c < start + len`, the test `NodeBox::contains` makes
/// (including its unsigned wrap-around).
bool range_meets(std::uint32_t lo, std::uint32_t hi, std::uint32_t start,
                 std::uint32_t len) {
  const std::uint32_t c = std::max(lo, start);
  return c <= hi && c < start + len;
}

/// Whether some point of `r` lies on the box's layer inside its footprint.
bool touches(const RecBox& r, const NodeBox& b) {
  return r.lo[2] <= b.layer && b.layer <= r.hi[2] &&
         range_meets(r.lo[0], r.hi[0], b.x, b.w) &&
         range_meets(r.lo[1], r.hi[1], b.y, b.h);
}

/// A run along `axis` sorts by its line, the two fixed coordinates (major
/// first), then by its start: 21 bits each, since x, y < 2^20 and layers
/// < 2^16. `order >> kLineShift` names the line.
constexpr std::array<std::array<int, 2>, 3> kFixedAxes{
    {{2, 1}, {2, 0}, {1, 0}}};
constexpr int kLineShift = 21;

std::uint64_t run_order(const RecBox& r, int axis) {
  const auto [m, n] = kFixedAxes[axis];
  return (std::uint64_t{r.lo[m]} << (2 * kLineShift)) |
         (std::uint64_t{r.lo[n]} << kLineShift) | r.lo[axis];
}

/// Per-worker reusable phase-3 scratch, sized by one edge's record count.
struct EdgeScratch {
  std::array<std::vector<RecBox>, 3> runs;  ///< merged runs by axis
  std::vector<std::uint32_t> parent;
  std::vector<std::uint64_t> look_ups, starts, ends;  ///< sweep events
};

/// Union-find over one edge's record slots.
struct Components {
  std::vector<std::uint32_t>& parent;

  std::uint32_t find(std::uint32_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];  // path halving
      i = parent[i];
    }
    return i;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
};

/// Sorts one axis's runs by line, then by start, and merges the runs of a
/// line that overlap or abut (they join), leaving the line's runs disjoint
/// and at least two apart.
void merge_collinear(std::vector<RecBox>& runs, int axis, Components& cc) {
  auto by_order = [](const RecBox& a, const RecBox& b) {
    return a.order < b.order;
  };
  // A path's records usually come in order; skip the sort when they do.
  if (!std::is_sorted(runs.begin(), runs.end(), by_order))
    std::sort(runs.begin(), runs.end(), by_order);
  std::size_t out = 0;
  for (const RecBox& r : runs) {
    if (out > 0) {
      RecBox& cur = runs[out - 1];
      if (cur.order >> kLineShift == r.order >> kLineShift &&
          r.lo[axis] <= cur.hi[axis] + 1) {
        cur.hi[axis] = std::max(cur.hi[axis], r.hi[axis]);
        cc.unite(cur.rec, r.rec);
        continue;
      }
    }
    runs[out++] = r;
  }
  runs.resize(out);
}

/// Joins merged runs along one axis that lie on neighbouring lines (one
/// fixed coordinate one apart) and overlap along the axis. Lines come in
/// sorted order, so the (m, n + 1) neighbour is the next line and the
/// (m + 1, n) neighbour is found by a forward cursor; each pair of lines is
/// a two-pointer walk over disjoint sorted runs.
void join_parallel(const std::vector<RecBox>& runs, int axis,
                   Components& cc) {
  auto line = [&](std::size_t i) { return runs[i].order >> kLineShift; };
  auto line_end = [&](std::size_t i) {
    const std::uint64_t l = line(i);
    while (i < runs.size() && line(i) == l) ++i;
    return i;
  };
  auto overlap = [&](std::size_t a, std::size_t a_end, std::size_t b,
                     std::size_t b_end) {
    while (a < a_end && b < b_end) {
      if (runs[a].lo[axis] <= runs[b].hi[axis] &&
          runs[b].lo[axis] <= runs[a].hi[axis])
        cc.unite(runs[a].rec, runs[b].rec);
      if (runs[a].hi[axis] < runs[b].hi[axis])
        ++a;
      else
        ++b;
    }
  };
  std::size_t up = 0;  // cursor towards line (m + 1, n)
  for (std::size_t i = 0; i < runs.size();) {
    const std::size_t i_end = line_end(i);
    const std::uint64_t l = line(i);
    if (i_end < runs.size() && line(i_end) == l + 1)
      overlap(i, i_end, i_end, line_end(i_end));
    const std::uint64_t want = l + (std::uint64_t{1} << kLineShift);
    while (up < runs.size() && line(up) < want) up = line_end(up);
    if (up < runs.size() && line(up) == want)
      overlap(i, i_end, up, line_end(up));
    i = i_end;
  }
}

/// Joins runs along axis `a` (P) with runs along axis `b` (Q); `c` is the
/// third axis. A sweep over the b coordinate keeps every Q run active from
/// one before its start to one after its end, keyed by its (c, a)
/// coordinates; each P run (a single b coordinate) looks up the active runs
/// at c − 1, c and c + 1 within one of its a-extent, and `joins` keeps the
/// true contacts. Since the runs of a line are disjoint and two apart, a P
/// run sees O(1) non-joining candidates, and so does a Q run, so the sweep
/// costs O(R log R + contacts), and every contact is a pair of shared or
/// 6-adjacent points.
void join_crossing(const std::vector<RecBox>& P, const std::vector<RecBox>& Q,
                   int a, int b, Components& cc, EdgeScratch& sc) {
  if (P.empty() || Q.empty()) return;
  const int c = 3 - a - b;
  // Sweep events, each (b coordinate << 32) | run, in b order: P runs'
  // look-ups, Q runs' first and last coordinates (often already in order).
  auto events = [](std::vector<std::uint64_t>& out,
                   const std::vector<RecBox>& runs, auto coord) {
    out.resize(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
      out[i] = (std::uint64_t{coord(runs[i])} << 32) | i;
    if (!std::is_sorted(out.begin(), out.end()))
      std::sort(out.begin(), out.end());
  };
  events(sc.look_ups, P, [&](const RecBox& r) { return r.lo[b]; });
  events(sc.starts, Q, [&](const RecBox& r) { return r.lo[b]; });
  events(sc.ends, Q, [&](const RecBox& r) { return r.hi[b]; });
  auto run = [](std::uint64_t ev) { return static_cast<std::uint32_t>(ev); };
  auto at = [](std::uint64_t ev) { return static_cast<std::uint32_t>(ev >> 32); };
  auto key = [](std::uint32_t cz, std::uint32_t az) {
    return (std::uint64_t{cz} << 32) | az;
  };
  using Active = std::pair<std::uint64_t, std::uint32_t>;
  auto entry = [&](std::uint32_t i) {
    return Active{key(Q[i].lo[c], Q[i].lo[a]), i};
  };
  std::set<Active> active;
  std::size_t started = 0, ended = 0;
  for (const std::uint64_t ev : sc.look_ups) {
    const RecBox& p = P[run(ev)];
    const std::uint32_t q = at(ev);
    for (; started < Q.size() && at(sc.starts[started]) <= q + 1; ++started)
      active.insert(entry(run(sc.starts[started])));
    for (; ended < Q.size() && at(sc.ends[ended]) + 1 < q; ++ended)
      active.erase(entry(run(sc.ends[ended])));
    const std::uint32_t a_lo = p.lo[a] == 0 ? 0 : p.lo[a] - 1;
    const std::uint32_t c_lo = p.lo[c] == 0 ? 0 : p.lo[c] - 1;
    auto it = active.lower_bound({key(c_lo, a_lo), 0});
    for (std::uint32_t cz = c_lo; cz <= p.lo[c] + 1 && it != active.end();
         ++cz) {
      if (it->first < key(cz, a_lo))
        it = active.lower_bound({key(cz, a_lo), 0});
      for (; it != active.end() && it->first <= key(cz, p.hi[a] + 1); ++it)
        if (joins(p, Q[it->second])) cc.unite(p.rec, Q[it->second].rec);
    }
  }
}

/// Phase 3 for one edge, on its records, never its points. Collinear runs
/// are merged per line, parallel runs on neighbouring lines are joined by a
/// two-pointer walk and crossing runs of two axes by a sweep, all by the
/// 6-adjacency join rule. Returns at most one diagnostic (unrouted /
/// disconnected / misses-terminal).
std::optional<Diagnostic> verify_edge(const Graph& g, const LayoutGeometry& geom,
                                      EdgeId e, const EdgeRecords& idx,
                                      const std::vector<const NodeBox*>& box_of,
                                      EdgeScratch& sc) {
  poll_cancellation("check");
  const std::uint32_t first = idx.off[e];
  const std::uint32_t n = idx.off[e + 1] - first;
  if (n == 0) return Diagnostic{.code = Code::kEdgeUnrouted, .edge = e};

  const auto nsegs = static_cast<std::uint32_t>(geom.segs.size());
  auto record = [&](std::uint32_t slot) -> RecBox {
    const std::uint32_t id = idx.ids[first + slot];
    if (id < nsegs) {
      const WireSeg& s = geom.segs[id];
      return {{s.x1, s.y1, s.layer}, {s.x2, s.y2, s.layer}, slot};
    }
    const Via& v = geom.vias[id - nsegs];
    return {{v.x, v.y, v.z1}, {v.x, v.y, v.z2}, slot};
  };
  auto axis_of = [](const RecBox& r) {  // a single point counts as an x run
    return r.lo[1] != r.hi[1] ? 1 : r.lo[2] != r.hi[2] ? 2 : 0;
  };
  // Count, then fill, so each run vector grows at most once.
  std::array<std::uint32_t, 3> count{};
  for (std::uint32_t slot = 0; slot < n; ++slot) ++count[axis_of(record(slot))];
  for (int axis = 0; axis < 3; ++axis) {
    sc.runs[axis].clear();
    sc.runs[axis].reserve(count[axis]);
  }
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    RecBox r = record(slot);
    const int axis = axis_of(r);
    r.order = run_order(r, axis);
    sc.runs[axis].push_back(r);
  }

  sc.parent.resize(n);
  std::iota(sc.parent.begin(), sc.parent.end(), 0u);
  Components cc{sc.parent};
  for (int axis = 0; axis < 3; ++axis) {
    merge_collinear(sc.runs[axis], axis, cc);
    join_parallel(sc.runs[axis], axis, cc);
  }
  join_crossing(sc.runs[0], sc.runs[1], 0, 1, cc, sc);
  join_crossing(sc.runs[0], sc.runs[2], 0, 2, cc, sc);
  join_crossing(sc.runs[1], sc.runs[2], 1, 2, cc, sc);

  // The root is the component of the edge's smallest point, and the first
  // stranded point in key order is the smallest point outside it. A merged
  // run starts at the smallest point of the records it absorbed, so both
  // are run starts.
  auto first_key = [](const RecBox& r) {
    return key3(r.lo[0], r.lo[1], r.lo[2]);
  };
  const RecBox* root_run = nullptr;
  for (const std::vector<RecBox>& runs : sc.runs)
    for (const RecBox& r : runs)
      if (!root_run || first_key(r) < first_key(*root_run)) root_run = &r;
  const std::uint32_t root = cc.find(root_run->rec);
  std::optional<std::uint64_t> stranded;
  for (const std::vector<RecBox>& runs : sc.runs)
    for (const RecBox& r : runs)
      if (cc.find(r.rec) != root && (!stranded || first_key(r) < *stranded))
        stranded = first_key(r);
  if (stranded)
    return at_key(*stranded, {.code = Code::kEdgeDisconnected, .edge = e});

  const Edge& ed = g.edge(e);
  const NodeBox* bu = box_of[ed.u];
  const NodeBox* bv = box_of[ed.v];
  bool touch_u = false, touch_v = false;
  for (const std::vector<RecBox>& runs : sc.runs)
    for (const RecBox& r : runs) {
      if (bu && touches(r, *bu)) touch_u = true;
      if (bv && touches(r, *bv)) touch_v = true;
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

  // Each phase runs under its own span on the calling thread.
  std::optional<obs::Span> phase;
  phase.emplace("check.frame");
  // Phase 1: frame scan.
  FrameResult fr;
  frame_scan(g_, geom_, reporter, fr);
  if (sink.full()) return finalize();

  phase.emplace("check.scan");
  // Band layout: ~kTargetBands bands, thinned further so one band's
  // one-layer slab fits the cell budget. Since width <= kCoordMax < 2^20, a
  // band always keeps at least 4 rows.
  const std::uint32_t h = std::max<std::uint32_t>(geom_.height, 1);
  const auto rows = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      (h + kTargetBands - 1) / kTargetBands,
      kDenseCellBudget / std::max<std::uint32_t>(geom_.width, 1)));
  const std::uint32_t num_bands = (h + rows - 1) / rows;
  rep.bands = num_bands;
  auto band_of = [&](std::uint32_t y) {
    return std::min(y / rows, num_bands - 1);
  };

  // Phase 2: bin the ids of the records whose frame is sound into bands in
  // (layer, id) order, the order scan_band walks them (a counting sort by
  // layer keeps id order within a layer); scan, merge in band order.
  const std::uint32_t num_edges = g_.num_edges();
  const BandContext ctx{g_,
                        geom_,
                        opt_.via_rule,
                        rows,
                        geom_.height,
                        geom_.width,
                        std::max<std::size_t>(sink.capacity(), 1),
                        static_cast<std::uint32_t>(geom_.segs.size()),
                        static_cast<std::uint32_t>(geom_.vias.size())};
  auto checked = [&](EdgeId e) {
    return e < num_edges && fr.edge_frame_ok[e] != 0;
  };
  auto each_id = [&](auto&& fn) {
    for (std::uint32_t si = 0; si < ctx.nsegs; ++si)
      if (checked(geom_.segs[si].edge)) fn(si);
    for (std::uint32_t vi = 0; vi < ctx.nvias; ++vi) {
      const Via& v = geom_.vias[vi];
      if (!checked(v.edge)) continue;
      fn(ctx.nsegs + 2 * vi);
      if (opt_.via_rule == ViaRule::kTransparent && v.z2 != v.z1)
        fn(ctx.nsegs + 2 * vi + 1);
    }
    for (std::uint32_t bi : fr.reg_boxes)
      fn(ctx.nsegs + 2 * ctx.nvias + bi);
  };
  std::vector<std::vector<std::uint32_t>> inputs(num_bands);
  {
    std::vector<std::size_t> at(std::size_t{geom_.num_layers} + 2, 0);
    each_id([&](std::uint32_t id) { ++at[ctx.layer(id) + 1]; });
    std::partial_sum(at.begin(), at.end(), at.begin());
    std::vector<std::uint32_t> by_layer(at.back());
    each_id([&](std::uint32_t id) { by_layer[at[ctx.layer(id)]++] = id; });
    for (std::uint32_t id : by_layer) {
      const auto [top, bottom] = ctx.y_extent(id);
      for (std::uint32_t b = band_of(top); b <= band_of(bottom); ++b)
        inputs[b].push_back(id);
    }
  }

  const std::uint32_t nthreads = resolve_threads(opt_.threads);
  std::vector<BandResult> results(num_bands);
  std::vector<BandScratch> scratch(
      std::max<std::uint32_t>(1, std::min(nthreads, num_bands)));
  parallel_for(nthreads, num_bands, [&](std::size_t b, std::uint32_t w) {
    scan_band(ctx, static_cast<std::uint32_t>(b), inputs[b], results[b],
              scratch[w]);
  });
  for (const BandResult& r : results) {
    rep.points += r.points;
    for (const Diagnostic& d : r.diags) reporter(d);
  }
  if (sink.full()) return finalize();

  // Phase 3: connectivity of every edge whose frame is sound (frame
  // violations were already reported and carry no connectivity verdict).
  phase.emplace("check.connect");
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
