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
#include <numeric>
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
