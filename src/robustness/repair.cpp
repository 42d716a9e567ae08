#include "robustness/repair.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include "core/gridkey.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlvl::robustness {
namespace {

using grid::key3;
using grid::key_x;
using grid::key_y;
using grid::key_z;

bool is_frame_code(Code c) {
  switch (c) {
    case Code::kCoordRange:
    case Code::kBoxCountMismatch:
    case Code::kBoxUnknownNode:
    case Code::kBoxDuplicate:
    case Code::kBoxOutOfBounds:
    case Code::kBoxLayerRange:
    case Code::kBoxOverlap:
      return true;
    default:
      return false;
  }
}

/// A route's window may hold this many cells per cell it may discover. The
/// BFS covers a diamond, half of the square window that holds it, so a
/// route reaches the window's edge before its budget only when roughly
/// fewer than a quarter of the window's cells are free to it.
constexpr std::uint64_t kWindowCellsPerSearchCell = 8;

/// Maze router over the free cells of the grid. Occupancy reflects the via
/// rule: blocking vias exclude their whole column, transparent vias only
/// their endpoints (a wire may thread between them). Paths routed in this
/// pass exclude every cell they cross, via interiors included.
///
/// Each attempt searches a window: the source terminal box grown by `r` in
/// x and y, across all layers, clipped to the frame. Occupancy is built by
/// clipping records to the window into a dense byte array, and the search
/// is the plain FIFO BFS (seeds in box order, neighbours -x +x -y +y -z +z)
/// that gives up once it has discovered more than `max_search_cells` cells.
/// While no popped cell looks at an in-frame neighbour outside the window,
/// the windowed search takes exactly the steps the full-frame search would,
/// so its path, or the point where it gives up, is the full-frame one. When
/// one does, `r` doubles and the attempt restarts. `r` stops at the largest
/// window of at most kWindowCellsPerSearchCell * `max_search_cells` cells;
/// a route that needs more fails.
class Router {
 public:
  Router(const Graph& g, const LayoutGeometry& geom, const RepairOptions& opt)
      : g_(g),
        geom_(geom),
        opt_(opt),
        box_of_(g.num_nodes(), nullptr),
        first_routed_via_(geom.vias.size()) {
    for (const NodeBox& b : geom.boxes)
      if (b.node < g.num_nodes() && !box_of_[b.node]) box_of_[b.node] = &b;
  }

  /// Find a free path between the terminal boxes of `e` and append the
  /// resulting segments and vias to `out`. Returns false when no path
  /// exists within the search budget or the window bound.
  bool route(EdgeId e, LayoutGeometry& out) {
    const Edge& ed = g_.edge(e);
    const NodeBox* bu = box_of_[ed.u];
    const NodeBox* bv = box_of_[ed.v];
    if (!bu || !bv) return false;

    // The largest radius whose window fits the bound: the whole frame when
    // it fits, else found by bisection (the volume grows with r).
    const std::uint64_t cap =
        std::min<std::uint64_t>(opt_.max_search_cells,
                                UINT32_MAX / kWindowCellsPerSearchCell) *
        kWindowCellsPerSearchCell;
    auto fits = [&](std::uint64_t r) { return window(*bu, r).volume <= cap; };
    std::uint64_t r_max = std::max(geom_.width, geom_.height);
    if (!fits(r_max)) {
      if (!fits(0)) return false;
      std::uint64_t lo = 0, hi = r_max;  // fits(lo), !fits(hi)
      while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        (fits(mid) ? lo : hi) = mid;
      }
      r_max = lo;
    }

    auto gap = [](std::uint64_t a, std::uint64_t alen, std::uint64_t b,
                  std::uint64_t blen) {
      return a + alen <= b ? b - (a + alen - 1)
                           : (b + blen <= a ? a - (b + blen - 1) : 0);
    };
    // A path is at least the planar gap long and usually detours; starting
    // at twice the gap spares most routes a second attempt.
    const std::uint64_t planar_gap =
        gap(bu->x, bu->w, bv->x, bv->w) + gap(bu->y, bu->h, bv->y, bv->h);
    std::uint64_t r =
        std::min(r_max, std::max<std::uint64_t>(1, 2 * planar_gap));
    for (;;) {
      win_ = window(*bu, r);
      obs::gauge_max("repair.window_cells", static_cast<double>(win_.volume));
      fill(ed, *bv);
      const Outcome o = search(*bu);
      if (o == Outcome::kFound) break;
      if (o == Outcome::kGaveUp || r == r_max) return false;
      r = std::min(2 * r, r_max);
      obs::counter_add("repair.window_grows");
    }

    // Walk the BFS steps back from the goal to a seed, then fold the walk
    // into maximal straight runs: same-layer runs become segments, z-runs
    // become vias.
    const std::int64_t layer = std::int64_t{win_.w} * win_.h;
    const std::int64_t delta[6] = {-1, 1, -std::int64_t{win_.w}, win_.w,
                                   -layer, layer};
    std::vector<std::uint64_t> path;
    for (std::uint32_t i = goal_;;) {
      path.push_back(key_of(i));
      const unsigned step = cells_[i] >> kStepShift;
      if (step == 0) break;  // a seed
      i = static_cast<std::uint32_t>(i - delta[step - 1]);
    }
    std::reverse(path.begin(), path.end());
    emit(path, e, out);
    return true;
  }

 private:
  enum class Outcome { kFound, kGaveUp, kWindowCut };
  // Per-cell state of the window: three flag bits, then the BFS step that
  // discovered the cell (1-6 in neighbour order, 0 for a seed).
  static constexpr std::uint8_t kBlocked = 1;  ///< wire, via or foreign box
  static constexpr std::uint8_t kGoal = 2;     ///< cell of the target box
  static constexpr std::uint8_t kSeen = 4;     ///< discovered by the BFS
  static constexpr unsigned kStepShift = 3;

  /// The box grown by r in x and y, across all layers, clipped to the frame.
  struct Window {
    std::uint32_t x0 = 0, y0 = 0, w = 0, h = 0;
    std::uint64_t volume = 0;  ///< w * h * layers
  };

  [[nodiscard]] Window window(const NodeBox& b, std::uint64_t r) const {
    Window win;
    win.x0 = static_cast<std::uint32_t>(b.x > r ? b.x - r : 0);
    win.y0 = static_cast<std::uint32_t>(b.y > r ? b.y - r : 0);
    const std::uint64_t x1 =
        std::min<std::uint64_t>(geom_.width - 1, b.x + b.w - 1 + r);
    const std::uint64_t y1 =
        std::min<std::uint64_t>(geom_.height - 1, b.y + b.h - 1 + r);
    win.w = static_cast<std::uint32_t>(x1 - win.x0 + 1);
    win.h = static_cast<std::uint32_t>(y1 - win.y0 + 1);
    win.volume = std::uint64_t{win.w} * win.h * geom_.num_layers;
    return win;
  }

  [[nodiscard]] std::uint32_t index(std::uint32_t x, std::uint32_t y,
                                    std::uint32_t z) const {
    return ((z - 1) * win_.h + (y - win_.y0)) * win_.w + (x - win_.x0);
  }
  [[nodiscard]] std::uint64_t key_of(std::uint32_t i) const {
    const std::uint32_t row = i / win_.w;
    return key3(win_.x0 + i % win_.w, win_.y0 + row % win_.h,
                row / win_.h + 1);
  }

  /// Marks `bits` on layer `z` over the window's part of the rectangle
  /// [xa, xb] x [ya, yb].
  void mark(std::uint32_t xa, std::uint32_t ya, std::uint32_t xb,
            std::uint32_t yb, std::uint32_t z, std::uint8_t bits) {
    xa = std::max(xa, win_.x0);
    ya = std::max(ya, win_.y0);
    xb = std::min(xb, win_.x0 + win_.w - 1);
    yb = std::min(yb, win_.y0 + win_.h - 1);
    for (std::uint32_t yy = ya; yy <= yb && xa <= xb; ++yy) {
      std::uint8_t* row = cells_.data() + index(xa, yy, z);
      for (std::uint32_t n = 0; n <= xb - xa; ++n) row[n] |= bits;
    }
  }

  void fill(const Edge& ed, const NodeBox& goal) {
    cells_.assign(win_.volume, 0);
    for (const WireSeg& s : geom_.segs)
      mark(s.x1, s.y1, s.x2, s.y2, s.layer, kBlocked);
    for (std::size_t i = 0; i < geom_.vias.size(); ++i) {
      const Via& v = geom_.vias[i];
      if (v.x < win_.x0 || v.x - win_.x0 >= win_.w || v.y < win_.y0 ||
          v.y - win_.y0 >= win_.h)
        continue;
      if (opt_.rule == ViaRule::kBlocking || i >= first_routed_via_) {
        for (std::uint32_t zz = v.z1; zz <= v.z2; ++zz)
          cells_[index(v.x, v.y, zz)] |= kBlocked;
      } else {
        cells_[index(v.x, v.y, v.z1)] |= kBlocked;
        cells_[index(v.x, v.y, v.z2)] |= kBlocked;
      }
    }
    // The frame check admits only disjoint boxes, one per node.
    for (const NodeBox& b : geom_.boxes)
      if (b.node != ed.u && b.node != ed.v)  // foreign box: terminal theft
        mark(b.x, b.y, b.x + b.w - 1, b.y + b.h - 1, b.layer, kBlocked);
    mark(goal.x, goal.y, goal.x + goal.w - 1, goal.y + goal.h - 1, goal.layer,
         kGoal);
  }

  Outcome search(const NodeBox& src) {
    queue_.clear();
    // The budget check below holds the queue to max_search_cells + 6 cells
    // (fewer when the window is smaller).
    queue_.reserve(std::min<std::uint64_t>(win_.volume,
                                           opt_.max_search_cells + 6));
    for (std::uint32_t yy = src.y; yy < src.y + src.h; ++yy)
      for (std::uint32_t xx = src.x; xx < src.x + src.w; ++xx) {
        const std::uint32_t i = index(xx, yy, src.layer);
        if (cells_[i] & (kBlocked | kSeen)) continue;
        cells_[i] |= kSeen;
        queue_.push_back(i);
      }

    // Discovers free cell j by neighbour step `step`; true when j is in the
    // target box.
    auto visit = [&](std::uint32_t j, unsigned step) {
      if (cells_[j] & (kBlocked | kSeen)) return false;
      cells_[j] |= static_cast<std::uint8_t>(kSeen | step << kStepShift);
      if (cells_[j] & kGoal) {
        goal_ = j;
        return true;
      }
      queue_.push_back(j);
      return false;
    };
    const std::uint32_t w = win_.w, h = win_.h, layer = w * h;
    const bool cut_lo_x = win_.x0 > 0, cut_hi_x = win_.x0 + w < geom_.width;
    const bool cut_lo_y = win_.y0 > 0, cut_hi_y = win_.y0 + h < geom_.height;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      // Every discovered cell but the goal is queued, so this counts them.
      if (queue_.size() > opt_.max_search_cells) return Outcome::kGaveUp;
      const std::uint32_t i = queue_[head];
      const std::uint32_t lx = i % w, row = i / w;
      const std::uint32_t ly = row % h, lz = row / h;
      // Neighbours in BFS order. Off the frame there is none; off the
      // window but inside the frame, this attempt cannot decide.
      if (lx > 0) {
        if (visit(i - 1, 1)) return Outcome::kFound;
      } else if (cut_lo_x) {
        return Outcome::kWindowCut;
      }
      if (lx + 1 < w) {
        if (visit(i + 1, 2)) return Outcome::kFound;
      } else if (cut_hi_x) {
        return Outcome::kWindowCut;
      }
      if (ly > 0) {
        if (visit(i - w, 3)) return Outcome::kFound;
      } else if (cut_lo_y) {
        return Outcome::kWindowCut;
      }
      if (ly + 1 < h) {
        if (visit(i + w, 4)) return Outcome::kFound;
      } else if (cut_hi_y) {
        return Outcome::kWindowCut;
      }
      if (lz > 0 && visit(i - layer, 5)) return Outcome::kFound;
      if (lz + 1 < geom_.num_layers && visit(i + layer, 6))
        return Outcome::kFound;
    }
    return Outcome::kGaveUp;
  }

  void emit(const std::vector<std::uint64_t>& path, EdgeId e,
            LayoutGeometry& out) {
    if (path.size() == 1) {  // degenerate stub (cannot happen between
      const std::uint64_t k = path[0];  // disjoint boxes, kept for safety)
      out.segs.push_back({key_x(k), key_y(k), key_x(k), key_y(k),
                          static_cast<std::uint16_t>(key_z(k)), e});
      return;
    }
    std::size_t i = 0;
    while (i + 1 < path.size()) {
      const bool zrun = key_z(path[i]) != key_z(path[i + 1]);
      std::size_t j = i + 1;
      auto same_kind = [&](std::size_t a, std::size_t b) {
        const bool z = key_z(path[a]) != key_z(path[b]);
        if (z != zrun) return false;
        if (zrun) return true;
        // Same-layer moves extend a run only while the direction holds.
        return (key_x(path[a]) == key_x(path[b])) ==
                   (key_x(path[i]) == key_x(path[j])) &&
               (key_y(path[a]) == key_y(path[b])) ==
                   (key_y(path[i]) == key_y(path[j]));
      };
      while (j + 1 < path.size() && same_kind(j, j + 1)) ++j;
      const std::uint64_t a = path[i], b = path[j];
      if (zrun) {
        out.vias.push_back({key_x(a), key_y(a),
                            static_cast<std::uint16_t>(
                                std::min(key_z(a), key_z(b))),
                            static_cast<std::uint16_t>(
                                std::max(key_z(a), key_z(b))),
                            e});
      } else {
        out.segs.push_back({std::min(key_x(a), key_x(b)),
                            std::min(key_y(a), key_y(b)),
                            std::max(key_x(a), key_x(b)),
                            std::max(key_y(a), key_y(b)),
                            static_cast<std::uint16_t>(key_z(a)), e});
      }
      i = j;
    }
  }

  const Graph& g_;
  const LayoutGeometry& geom_;
  const RepairOptions& opt_;
  std::vector<const NodeBox*> box_of_;
  std::size_t first_routed_via_;  ///< vias from here on were routed this pass
  Window win_;                        ///< the current attempt's window
  std::vector<std::uint8_t> cells_;   ///< flags and step, one byte a cell
  std::vector<std::uint32_t> queue_;  ///< FIFO: a vector and a head index
  std::uint32_t goal_ = 0;
};

/// Delete wire records the checker would reject outright (broken frame) and
/// collect the owning edges for re-routing.
void sanitize(const Graph& g, LayoutGeometry& geom, std::set<EdgeId>& rip) {
  auto bad_seg = [&](const WireSeg& s) {
    if (s.edge >= g.num_edges()) return true;  // ownerless: delete, no rip
    const bool broken = s.x1 > s.x2 || s.y1 > s.y2 ||
                        (s.x1 != s.x2 && s.y1 != s.y2) ||
                        s.x2 >= geom.width || s.y2 >= geom.height ||
                        s.layer < 1 || s.layer > geom.num_layers;
    if (broken) rip.insert(s.edge);
    return broken;
  };
  auto bad_via = [&](const Via& v) {
    if (v.edge >= g.num_edges()) return true;
    const bool broken = v.z1 < 1 || v.z2 > geom.num_layers || v.z1 > v.z2 ||
                        v.x >= geom.width || v.y >= geom.height;
    if (broken) rip.insert(v.edge);
    return broken;
  };
  std::erase_if(geom.segs, bad_seg);
  std::erase_if(geom.vias, bad_via);
}

}  // namespace

RepairReport repair_layout(const Graph& g, LayoutGeometry& geom,
                           const RepairOptions& opt) {
  obs::Span span("repair");
  RepairReport rep;
  std::set<EdgeId> ever_failed;

  const CheckOptions check_opt{.via_rule = opt.rule,
                               .threads = opt.check_threads};
  auto check = [&](DiagnosticSink& sink) {
    obs::Span check_span("repair.check");
    Checker(g, geom, check_opt).check(sink);
  };

  for (std::uint32_t pass = 1; pass <= opt.max_passes; ++pass) {
    rep.passes = pass;
    DiagnosticSink sink(opt.max_diagnostics);
    check(sink);
    if (sink.empty()) {
      rep.ok = true;
      rep.remaining.clear();
      return rep;
    }

    // Frame violations: re-routing cannot move node boxes or grow the grid.
    for (const Diagnostic& d : sink.diagnostics())
      if (is_frame_code(d.code)) rep.unrepairable.push_back(d);
    if (!rep.unrepairable.empty()) {
      rep.remaining = sink.diagnostics();
      return rep;
    }

    std::set<EdgeId> rip;
    sanitize(g, geom, rip);
    for (const Diagnostic& d : sink.diagnostics()) {
      if (d.edge != kNoId && d.edge < g.num_edges()) rip.insert(d.edge);
      if (d.edge2 != kNoId && d.edge2 < g.num_edges()) rip.insert(d.edge2);
    }
    // Edges the router already gave up on stay ripped-out; retrying them
    // each pass would loop without progress.
    for (EdgeId e : ever_failed) rip.erase(e);
    if (rip.empty()) {
      rep.remaining = sink.diagnostics();
      return rep;
    }

    std::vector<bool> ripped(g.num_edges());
    for (EdgeId e : rip) ripped[e] = true;
    std::erase_if(geom.segs, [&](const WireSeg& s) { return ripped[s.edge]; });
    std::erase_if(geom.vias, [&](const Via& v) { return ripped[v.edge]; });
    rep.ripped.insert(rep.ripped.end(), rip.begin(), rip.end());
    obs::counter_add("repair.ripups", rip.size());

    obs::Span route_span("repair.route");
    Router router(g, geom, opt);
    for (EdgeId e : rip) {
      if (router.route(e, geom)) {
        rep.rerouted.push_back(e);
        obs::counter_add("repair.rerouted");
      } else {
        rep.failed.push_back(e);
        ever_failed.insert(e);
      }
    }
  }

  DiagnosticSink final_sink(opt.max_diagnostics);
  check(final_sink);
  rep.remaining = final_sink.diagnostics();
  rep.ok = rep.remaining.empty();
  return rep;
}

}  // namespace mlvl::robustness
