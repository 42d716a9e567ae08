// The ten lint rule bodies. Rules only compute locations and hand raw
// findings to the emitter; policy (enable, severity, baseline) lives in the
// driver. Conventions shared by all rules:
//  * a "run" is a non-degenerate segment (degenerate stubs are the business
//    of zero-length-seg alone, so the other rules skip them);
//  * the documented odd-L construction is not a finding: with an odd layer
//    count the unpaired vertical group rides the top layer and its junction
//    vias span two boundaries (core/multilayer.cpp), which layer-parity and
//    turn-via-group accept and via-span-wide only reports under the strict
//    (blocking) via rule;
//  * rules are robust against unchecked geometry: out-of-range coordinates
//    are clamped or skipped, never trusted (the linter may run before — or
//    instead of — the checker).
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/lint.hpp"
#include "core/gridkey.hpp"

namespace mlvl::analysis::detail {
namespace {

bool is_run(const WireSeg& s) { return s.x1 != s.x2 || s.y1 != s.y2; }

Diagnostic at(std::uint32_t x, std::uint32_t y, std::uint16_t layer) {
  Diagnostic d;
  d.has_point = true;
  d.x = x;
  d.y = y;
  d.layer = layer;
  return d;
}

/// Point -> candidate node boxes, built once per rule call over the boxes
/// `keep` accepts: a uniform bucket grid over the boxes' extent, cells sized
/// to the mean box footprint and coarsened until there are at most about
/// four cells per box. A box spanning more than kMaxCellsPerBox cells goes
/// on a wide list that every lookup also visits, so building stays linear.
/// Candidates come in geom.boxes order, which keeps "first matching box"
/// exact. Safe on unchecked geometry: extents are computed in 64 bits, and a
/// box that NodeBox::contains can never accept (w or h of 0, or an extent
/// that wraps past 2^32) is left out.
class BoxGrid {
 public:
  template <typename Keep>
  BoxGrid(const std::vector<NodeBox>& boxes, Keep keep) {
    constexpr std::uint64_t kWrap = std::uint64_t{1} << 32;
    std::vector<std::uint32_t> kept;
    std::uint64_t sum_w = 0, sum_h = 0;
    for (std::uint32_t i = 0; i < boxes.size(); ++i) {
      const NodeBox& b = boxes[i];
      if (b.w == 0 || b.h == 0 || std::uint64_t{b.x} + b.w >= kWrap ||
          std::uint64_t{b.y} + b.h >= kWrap || !keep(b))
        continue;
      if (kept.empty()) {
        x0_ = b.x, y0_ = b.y, x1_ = b.x + b.w - 1, y1_ = b.y + b.h - 1;
      } else {
        x0_ = std::min<std::uint64_t>(x0_, b.x);
        y0_ = std::min<std::uint64_t>(y0_, b.y);
        x1_ = std::max<std::uint64_t>(x1_, b.x + b.w - 1);
        y1_ = std::max<std::uint64_t>(y1_, b.y + b.h - 1);
      }
      sum_w += b.w;
      sum_h += b.h;
      kept.push_back(i);
    }
    if (kept.empty()) return;
    cw_ = std::max<std::uint64_t>(1, sum_w / kept.size());
    ch_ = std::max<std::uint64_t>(1, sum_h / kept.size());
    const std::uint64_t cap = 4 * std::uint64_t{kept.size()} + 64;
    for (;;) {
      nx_ = (x1_ - x0_) / cw_ + 1;
      ny_ = (y1_ - y0_) / ch_ + 1;
      if (nx_ <= cap / ny_) break;
      (nx_ >= ny_ ? cw_ : ch_) *= 2;
    }
    struct Span {
      std::uint64_t cx0, cx1, cy0, cy1;
    };
    auto span_of = [&](const NodeBox& b) {
      return Span{(b.x - x0_) / cw_, (b.x + b.w - 1 - x0_) / cw_,
                  (b.y - y0_) / ch_, (b.y + b.h - 1 - y0_) / ch_};
    };
    auto wide = [](const Span& s) {
      return (s.cx1 - s.cx0 + 1) * (s.cy1 - s.cy0 + 1) > kMaxCellsPerBox;
    };
    // Counting pass, prefix sum, then a fill pass in index order, so every
    // bucket lists its boxes in geom.boxes order.
    off_.assign(nx_ * ny_ + 1, 0);
    auto for_cells = [&](const Span& s, auto&& fn) {
      for (std::uint64_t cy = s.cy0; cy <= s.cy1; ++cy)
        for (std::uint64_t cx = s.cx0; cx <= s.cx1; ++cx) fn(cy * nx_ + cx);
    };
    for (std::uint32_t i : kept) {
      const Span s = span_of(boxes[i]);
      if (wide(s))
        wide_.push_back(i);
      else
        for_cells(s, [&](std::uint64_t c) { ++off_[c + 1]; });
    }
    for (std::size_t c = 1; c < off_.size(); ++c) off_[c] += off_[c - 1];
    ids_.resize(off_.back());
    std::vector<std::uint32_t> fill(off_.begin(), off_.end() - 1);
    for (std::uint32_t i : kept) {
      const Span s = span_of(boxes[i]);
      if (!wide(s)) for_cells(s, [&](std::uint64_t c) { ids_[fill[c]++] = i; });
    }
  }

  /// Calls fn(box index) for every box that may contain (x, y), in ascending
  /// index order, until fn returns true; returns whether one did.
  template <typename Fn>
  bool any_of(std::uint32_t x, std::uint32_t y, Fn&& fn) const {
    if (nx_ == 0 || x < x0_ || x > x1_ || y < y0_ || y > y1_) return false;
    const std::uint64_t c = (y - y0_) / ch_ * nx_ + (x - x0_) / cw_;
    const std::uint32_t* a = ids_.data() + off_[c];
    const std::uint32_t* a_end = ids_.data() + off_[c + 1];
    const std::uint32_t* w = wide_.data();
    const std::uint32_t* w_end = w + wide_.size();
    while (a != a_end || w != w_end) {
      const bool from_a = w == w_end || (a != a_end && *a < *w);
      if (fn(from_a ? *a++ : *w++)) return true;
    }
    return false;
  }

 private:
  static constexpr std::uint64_t kMaxCellsPerBox = 16;
  std::uint64_t x0_ = 0, y0_ = 0, x1_ = 0, y1_ = 0;  ///< inclusive extent
  std::uint64_t cw_ = 1, ch_ = 1, nx_ = 0, ny_ = 0;  ///< cell size and count
  std::vector<std::uint64_t> off_;                   ///< per cell, into ids_
  std::vector<std::uint32_t> ids_, wide_;
};

// --- discipline conformance -------------------------------------------------

// Horizontal runs on odd layers, vertical runs on even layers (Sec. 2.4
// track partitioning: group g pairs H on 2g+1 with V on 2g+2). Exception:
// with odd L the unpaired vertical group legally rides the top layer.
void layer_parity(const Graph&, const LayoutGeometry& geom,
                  const LintConfig&, const LintEmit& emit) {
  for (const WireSeg& s : geom.segs) {
    if (!is_run(s)) continue;
    const bool odd_layer = (s.layer % 2) == 1;
    bool bad;
    if (s.horizontal()) {
      bad = !odd_layer;
    } else {
      const bool odd_top_exception =
          (geom.num_layers % 2) == 1 && s.layer == geom.num_layers;
      bad = odd_layer && !odd_top_exception;
    }
    if (!bad) continue;
    Diagnostic d = at(s.x1, s.y1, s.layer);
    d.edge = s.edge;
    d.detail = s.horizontal() ? "horizontal run on even layer"
                              : "vertical run on odd layer";
    emit(std::move(d));
  }
}

// A turn via (one that does not rise from an active layer-1 terminal) must
// pair the two layers of a single group: 2g+1 <-> 2g+2. The odd-L junction
// via (top layer <-> layer L-2) is the documented exception.
void turn_via_group(const Graph&, const LayoutGeometry& geom,
                    const LintConfig&, const LintEmit& emit) {
  for (const Via& v : geom.vias) {
    if (v.z1 <= 1 || v.z2 < v.z1) continue;  // terminal riser or invalid span
    const bool same_group = (v.z1 % 2) == 1 && v.z2 == v.z1 + 1;
    const bool odd_top_junction = (geom.num_layers % 2) == 1 &&
                                  v.z2 == geom.num_layers &&
                                  v.z1 + 2 == v.z2;
    if (same_group || odd_top_junction) continue;
    Diagnostic d = at(v.x, v.y, v.z1);
    d.edge = v.edge;
    d.detail = "via spans layers " + std::to_string(v.z1) + ".." +
               std::to_string(v.z2);
    emit(std::move(d));
  }
}

// Under the strict grid model every turn via spans exactly one layer
// boundary; a wider one silently depends on stacked-via technology. Quiet
// under ViaRule::kTransparent, where that technology is the declared target.
void via_span_wide(const Graph&, const LayoutGeometry& geom,
                   const LintConfig& cfg, const LintEmit& emit) {
  if (cfg.via_rule == ViaRule::kTransparent) return;
  for (const Via& v : geom.vias) {
    if (v.z1 <= 1 || v.z2 < v.z1 || v.z2 - v.z1 <= 1) continue;
    Diagnostic d = at(v.x, v.y, v.z1);
    d.edge = v.edge;
    d.detail = "spans " + std::to_string(v.z2 - v.z1) + " boundaries";
    emit(std::move(d));
  }
}

// Thompson model (L = 2): two different edges bending at one (x, y) is a
// knock-knee. The checker cannot see it — each edge owns a different layer
// at that point — but physically both wires turn on the same grid vertex.
// Run endpoints inside node boxes are terminals, not bends.
void thompson_knock_knee(const Graph&, const LayoutGeometry& geom,
                         const LintConfig&, const LintEmit& emit) {
  if (geom.num_layers != 2) return;
  const BoxGrid grid(geom.boxes, [](const NodeBox&) { return true; });
  auto in_some_box = [&](std::uint32_t x, std::uint32_t y) {
    return grid.any_of(x, y, [&](std::uint32_t bi) {
      return geom.boxes[bi].contains(x, y);
    });
  };
  struct Bend {
    std::uint64_t key;  ///< packed (x, y)
    EdgeId edge;
    std::uint16_t layer;
  };
  std::vector<Bend> bends;
  for (const WireSeg& s : geom.segs) {
    if (!is_run(s)) continue;
    for (auto [x, y] : {std::pair{s.x1, s.y1}, std::pair{s.x2, s.y2}}) {
      if (in_some_box(x, y)) continue;
      bends.push_back({grid::key3(x, y, 0), s.edge, s.layer});
    }
  }
  std::sort(bends.begin(), bends.end(), [](const Bend& a, const Bend& b) {
    return a.key != b.key ? a.key < b.key : a.edge < b.edge;
  });
  for (std::size_t i = 1; i < bends.size(); ++i) {
    if (bends[i].key != bends[i - 1].key ||
        bends[i].edge == bends[i - 1].edge)
      continue;
    Diagnostic d = at(grid::key_x(bends[i].key), grid::key_y(bends[i].key),
                      bends[i].layer);
    d.edge = bends[i - 1].edge;
    d.edge2 = bends[i].edge;
    emit(std::move(d));
    // One report per grid point: skip the rest of this key group.
    while (i + 1 < bends.size() && bends[i + 1].key == bends[i].key) ++i;
  }
}

// A riser that drops into the *interior* of a node box missed the box's
// perimeter terminals: wires enter boxes at the boundary track positions the
// realize() terminal allocator hands out, never through the middle.
void terminal_riser_offtrack(const Graph&, const LayoutGeometry& geom,
                             const LintConfig&, const LintEmit& emit) {
  const BoxGrid grid(geom.boxes, [](const NodeBox& b) {
    return b.w > 2 && b.h > 2;  // no interior to land in otherwise
  });
  for (const Via& v : geom.vias) {
    if (v.z2 < v.z1) continue;
    grid.any_of(v.x, v.y, [&](std::uint32_t bi) {
      const NodeBox& b = geom.boxes[bi];
      if (b.layer < v.z1 || b.layer > v.z2) return false;
      if (!b.contains(v.x, v.y)) return false;
      const bool interior = v.x > b.x && v.x + 1 < b.x + b.w && v.y > b.y &&
                            v.y + 1 < b.y + b.h;
      if (!interior) return false;
      Diagnostic d = at(v.x, v.y, b.layer);
      d.edge = v.edge;
      d.node = b.node;
      emit(std::move(d));
      return true;
    });
  }
}

// --- canonical form / area tightness ----------------------------------------

// A single-point segment carries no wire; emitters produce them as sloppy
// stubs. (The geometry model tolerates them, canonical output has none.)
void zero_length_seg(const Graph&, const LayoutGeometry& geom,
                     const LintConfig&, const LintEmit& emit) {
  for (const WireSeg& s : geom.segs) {
    if (is_run(s)) continue;
    Diagnostic d = at(s.x1, s.y1, s.layer);
    d.edge = s.edge;
    emit(std::move(d));
  }
}

// Two collinear runs of one edge on one layer that overlap or abut are one
// canonical run emitted as two records.
void mergeable_runs(const Graph&, const LayoutGeometry& geom,
                    const LintConfig&, const LintEmit& emit) {
  struct Run {
    EdgeId edge;
    std::uint16_t layer;
    std::uint32_t fixed;  ///< y for horizontal runs, x for vertical
    std::uint32_t lo, hi;
  };
  auto scan = [&](bool horizontal) {
    std::vector<Run> runs;
    for (const WireSeg& s : geom.segs) {
      if (!is_run(s) || s.horizontal() != horizontal) continue;
      if (horizontal)
        runs.push_back({s.edge, s.layer, s.y1, s.x1, s.x2});
      else
        runs.push_back({s.edge, s.layer, s.x1, s.y1, s.y2});
    }
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      return std::tie(a.edge, a.layer, a.fixed, a.lo, a.hi) <
             std::tie(b.edge, b.layer, b.fixed, b.lo, b.hi);
    });
    for (std::size_t i = 1; i < runs.size(); ++i) {
      const Run& a = runs[i - 1];
      const Run& b = runs[i];
      if (a.edge != b.edge || a.layer != b.layer || a.fixed != b.fixed)
        continue;
      if (b.lo > a.hi + 1) continue;  // gap: not mergeable
      Diagnostic d = horizontal ? at(b.lo, b.fixed, b.layer)
                                : at(b.fixed, b.lo, b.layer);
      d.edge = b.edge;
      d.detail = horizontal ? "adjacent horizontal runs"
                            : "adjacent vertical runs";
      emit(std::move(d));
    }
  };
  scan(true);
  scan(false);
}

// Two vias of one edge at one (x, y) with overlapping or abutting z-columns
// are one canonical via emitted as two records (exact duplicates included).
void redundant_via(const Graph&, const LayoutGeometry& geom,
                   const LintConfig&, const LintEmit& emit) {
  struct Col {
    EdgeId edge;
    std::uint32_t x, y;
    std::uint16_t z1, z2;
  };
  std::vector<Col> cols;
  cols.reserve(geom.vias.size());
  for (const Via& v : geom.vias) {
    if (v.z2 < v.z1) continue;
    cols.push_back({v.edge, v.x, v.y, v.z1, v.z2});
  }
  std::sort(cols.begin(), cols.end(), [](const Col& a, const Col& b) {
    return std::tie(a.edge, a.x, a.y, a.z1, a.z2) <
           std::tie(b.edge, b.x, b.y, b.z1, b.z2);
  });
  for (std::size_t i = 1; i < cols.size(); ++i) {
    const Col& a = cols[i - 1];
    Col& b = cols[i];
    if (a.edge != b.edge || a.x != b.x || a.y != b.y) continue;
    if (b.z1 > a.z2 + 1) continue;
    Diagnostic d = at(b.x, b.y, b.z1);
    d.edge = b.edge;
    d.detail = "z-columns " + std::to_string(a.z1) + ".." +
               std::to_string(a.z2) + " and " + std::to_string(b.z1) + ".." +
               std::to_string(b.z2) + " overlap or abut";
    emit(std::move(d));
    b.z2 = std::max(a.z2, b.z2);  // extend so a chain reports once per pair
  }
}

/// Content spans: the clamped x- and y-interval of every record, plus the
/// content extent. Clamps to the declared dimensions so corrupt records
/// cannot reach past the frame; cost is O(records), whatever the wire length.
struct Occupancy {
  using Interval = std::pair<std::uint32_t, std::uint32_t>;  ///< inclusive
  std::vector<Interval> cols, rows;  ///< one per record that marks anything
  std::uint32_t minx = 0, maxx = 0, miny = 0, maxy = 0;
  bool any = false;

  explicit Occupancy(const LayoutGeometry& geom) {
    auto mark = [&](std::uint32_t x1, std::uint32_t y1, std::uint32_t x2,
                    std::uint32_t y2) {
      if (geom.width == 0 || geom.height == 0 || x1 > x2 || y1 > y2) return;
      x2 = std::min<std::uint32_t>(x2, geom.width - 1);
      y2 = std::min<std::uint32_t>(y2, geom.height - 1);
      if (x1 > x2 || y1 > y2) return;
      if (!any) {
        minx = x1, maxx = x2, miny = y1, maxy = y2;
        any = true;
      } else {
        minx = std::min(minx, x1), maxx = std::max(maxx, x2);
        miny = std::min(miny, y1), maxy = std::max(maxy, y2);
      }
      cols.emplace_back(x1, x2);
      rows.emplace_back(y1, y2);
    };
    for (const NodeBox& b : geom.boxes)
      if (b.w > 0 && b.h > 0) mark(b.x, b.y, b.x + b.w - 1, b.y + b.h - 1);
    for (const WireSeg& s : geom.segs) mark(s.x1, s.y1, s.x2, s.y2);
    for (const Via& v : geom.vias) mark(v.x, v.y, v.x, v.y);
  }
};

// Frames the checker would reject outright (coord-range) are the doctor's
// business; the frame rules stay quiet on them.
bool frame_too_large(const LayoutGeometry& geom) {
  return geom.width > grid::kCoordMax || geom.height > grid::kCoordMax;
}

// A row or column strictly inside the content extent that holds no geometry
// at all is a wasted track: the layout could be compacted through it.
// Contiguous dead rows/columns are reported as one finding.
void dead_track(const Graph&, const LayoutGeometry& geom, const LintConfig&,
                const LintEmit& emit) {
  if (frame_too_large(geom)) return;
  Occupancy occ(geom);
  if (!occ.any) return;
  // Sorted by start, the intervals cover the extent except for the gaps
  // between one interval's reach (the furthest end so far) and the next
  // start; every gap lies strictly inside the extent.
  auto report_gaps = [&](std::vector<Occupancy::Interval> used, bool is_col) {
    std::sort(used.begin(), used.end());
    std::uint32_t reach = used.front().second;
    for (const auto& [lo, hi] : used) {
      if (lo > reach + 1) {
        Diagnostic d = is_col ? at(reach + 1, 0, 0) : at(0, reach + 1, 0);
        d.detail = std::string(is_col ? "columns " : "rows ") +
                   std::to_string(reach + 1) + ".." + std::to_string(lo - 1) +
                   " carry no geometry";
        emit(std::move(d));
      }
      reach = std::max(reach, hi);
    }
  };
  report_gaps(std::move(occ.cols), true);
  report_gaps(std::move(occ.rows), false);
}

// The declared width/height must hug the content: no blank margin before the
// first occupied row/column or after the last one.
void bbox_slack(const Graph&, const LayoutGeometry& geom, const LintConfig&,
                const LintEmit& emit) {
  if (frame_too_large(geom)) return;
  const Occupancy occ(geom);
  if (!occ.any) return;
  std::string slack;
  auto add = [&](const char* side, std::uint64_t n) {
    if (n == 0) return;
    if (!slack.empty()) slack += ", ";
    slack += std::string(side) + "=" + std::to_string(n);
  };
  add("left", occ.minx);
  add("top", occ.miny);
  add("right", geom.width - 1 - occ.maxx);
  add("bottom", geom.height - 1 - occ.maxy);
  if (slack.empty()) return;
  Diagnostic d;
  d.detail = "blank margin (" + slack + ") around content [" +
             std::to_string(occ.minx) + ".." + std::to_string(occ.maxx) +
             "]x[" + std::to_string(occ.miny) + ".." +
             std::to_string(occ.maxy) + "]";
  emit(std::move(d));
}

}  // namespace

void run_lint_rule(LintRule r, const Graph& g, const LayoutGeometry& geom,
                   const LintConfig& cfg, const LintEmit& emit) {
  switch (r) {
    case LintRule::kLayerParity: return layer_parity(g, geom, cfg, emit);
    case LintRule::kTurnViaGroup: return turn_via_group(g, geom, cfg, emit);
    case LintRule::kViaSpanWide: return via_span_wide(g, geom, cfg, emit);
    case LintRule::kThompsonKnockKnee:
      return thompson_knock_knee(g, geom, cfg, emit);
    case LintRule::kTerminalRiserOfftrack:
      return terminal_riser_offtrack(g, geom, cfg, emit);
    case LintRule::kZeroLengthSeg: return zero_length_seg(g, geom, cfg, emit);
    case LintRule::kMergeableRuns: return mergeable_runs(g, geom, cfg, emit);
    case LintRule::kRedundantVia: return redundant_via(g, geom, cfg, emit);
    case LintRule::kDeadTrack: return dead_track(g, geom, cfg, emit);
    case LintRule::kBboxSlack: return bbox_slack(g, geom, cfg, emit);
  }
}

}  // namespace mlvl::analysis::detail
