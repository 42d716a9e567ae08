// Rip-up and re-route repair: injected single-edge faults must come back
// checker-clean, frame violations must be reported unrepairable rather than
// papered over, and a genuinely unroutable edge must be reported as failed —
// graceful degradation, not silent success. The windowed router must also
// repair exactly as the original whole-frame router does (RepairOracle), and
// its search window must grow, and stop at its budget, as documented.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/checker.hpp"
#include "core/gridkey.hpp"
#include "core/io.hpp"
#include "core/multilayer.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"
#include "obs/metrics.hpp"
#include "robustness/fault_injector.hpp"
#include "robustness/repair.hpp"

namespace mlvl {
namespace {

using robustness::FaultKind;

// Differential oracle: the original repair router (hash-set occupancy, a
// hash-map BFS over the whole frame, one rip pass per edge) and its pass
// loop, kept verbatim apart from instrumentation. The windowed router must
// reproduce its geometry and report byte for byte.
namespace oracle {

using robustness::RepairOptions;
using robustness::RepairReport;
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

/// Maze router over the free cells of the grid. Occupancy reflects the via
/// rule: blocking vias exclude their whole column, transparent vias only
/// their endpoints (a wire may thread between them).
class Router {
 public:
  Router(const Graph& g, const LayoutGeometry& geom, const RepairOptions& opt)
      : g_(g), geom_(geom), opt_(opt), box_of_(g.num_nodes(), nullptr) {
    for (const WireSeg& s : geom.segs)
      for (std::uint32_t yy = s.y1; yy <= s.y2; ++yy)
        for (std::uint32_t xx = s.x1; xx <= s.x2; ++xx)
          occ_.insert(key3(xx, yy, s.layer));
    for (const Via& v : geom.vias) {
      if (opt.rule == ViaRule::kBlocking) {
        for (std::uint32_t zz = v.z1; zz <= v.z2; ++zz)
          occ_.insert(key3(v.x, v.y, zz));
      } else {
        occ_.insert(key3(v.x, v.y, v.z1));
        occ_.insert(key3(v.x, v.y, v.z2));
      }
    }
    for (const NodeBox& b : geom.boxes) {
      if (b.node < g.num_nodes() && !box_of_[b.node]) box_of_[b.node] = &b;
      for (std::uint32_t yy = b.y; yy < b.y + b.h; ++yy)
        for (std::uint32_t xx = b.x; xx < b.x + b.w; ++xx)
          box_cell_.emplace(key3(xx, yy, b.layer), b.node);
    }
  }

  /// Find a free path between the terminal boxes of `e` and append the
  /// resulting segments and vias to `out`. Returns false when no path
  /// exists within the search budget.
  bool route(EdgeId e, LayoutGeometry& out) {
    const Edge& ed = g_.edge(e);
    const NodeBox* bu = box_of_[ed.u];
    const NodeBox* bv = box_of_[ed.v];
    if (!bu || !bv) return false;

    std::unordered_map<std::uint64_t, std::uint64_t> parent;
    std::deque<std::uint64_t> queue;
    auto seed_box = [&](const NodeBox& b) {
      for (std::uint32_t yy = b.y; yy < b.y + b.h; ++yy)
        for (std::uint32_t xx = b.x; xx < b.x + b.w; ++xx) {
          const std::uint64_t k = key3(xx, yy, b.layer);
          if (occ_.count(k)) continue;
          if (parent.emplace(k, k).second) queue.push_back(k);
        }
    };
    auto in_box = [](const NodeBox& b, std::uint64_t k) {
      return key_z(k) == b.layer && b.contains(key_x(k), key_y(k));
    };
    seed_box(*bu);

    std::uint64_t goal = 0;
    bool found = false;
    while (!queue.empty() && !found) {
      if (parent.size() > opt_.max_search_cells) return false;
      const std::uint64_t k = queue.front();
      queue.pop_front();
      const std::uint32_t x = key_x(k), y = key_y(k), z = key_z(k);
      const std::uint64_t nbr[6] = {x > 0 ? key3(x - 1, y, z) : k,
                                    x + 1 < geom_.width ? key3(x + 1, y, z) : k,
                                    y > 0 ? key3(x, y - 1, z) : k,
                                    y + 1 < geom_.height ? key3(x, y + 1, z) : k,
                                    z > 1 ? key3(x, y, z - 1) : k,
                                    z < geom_.num_layers ? key3(x, y, z + 1) : k};
      for (std::uint64_t nk : nbr) {
        if (nk == k || parent.count(nk) || occ_.count(nk)) continue;
        auto bc = box_cell_.find(nk);
        if (bc != box_cell_.end() && bc->second != ed.u && bc->second != ed.v)
          continue;  // foreign box: terminal theft
        parent.emplace(nk, k);
        if (in_box(*bv, nk)) {
          goal = nk;
          found = true;
          break;
        }
        queue.push_back(nk);
      }
    }
    if (!found) return false;

    // Reconstruct source -> goal, then fold the walk into maximal straight
    // runs: same-layer runs become segments, z-runs become vias.
    std::vector<std::uint64_t> path;
    for (std::uint64_t k = goal;; k = parent[k]) {
      path.push_back(k);
      if (parent[k] == k) break;
    }
    std::reverse(path.begin(), path.end());
    emit(path, e, out);
    for (std::uint64_t k : path) occ_.insert(k);
    return true;
  }

 private:
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
  std::unordered_set<std::uint64_t> occ_;
  std::unordered_map<std::uint64_t, NodeId> box_cell_;
  std::vector<const NodeBox*> box_of_;
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

RepairReport repair_layout(const Graph& g, LayoutGeometry& geom,
                           const RepairOptions& opt) {
  RepairReport rep;
  std::set<EdgeId> ever_failed;

  const CheckOptions check_opt{.via_rule = opt.rule,
                               .threads = opt.check_threads};

  for (std::uint32_t pass = 1; pass <= opt.max_passes; ++pass) {
    rep.passes = pass;
    DiagnosticSink sink(opt.max_diagnostics);
    Checker(g, geom, check_opt).check(sink);
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

    for (EdgeId e : rip) {
      std::erase_if(geom.segs, [&](const WireSeg& s) { return s.edge == e; });
      std::erase_if(geom.vias, [&](const Via& v) { return v.edge == e; });
      rep.ripped.push_back(e);
    }

    Router router(g, geom, opt);
    for (EdgeId e : rip) {
      if (router.route(e, geom)) {
        rep.rerouted.push_back(e);
      } else {
        rep.failed.push_back(e);
        ever_failed.insert(e);
      }
    }
  }

  DiagnosticSink final_sink(opt.max_diagnostics);
  Checker(g, geom, check_opt).check(final_sink);
  rep.remaining = final_sink.diagnostics();
  rep.ok = rep.remaining.empty();
  return rep;
}

}  // namespace oracle

/// The operators that damage the wiring of one or two edges without
/// touching the layout frame; repair must restore a checker-clean layout.
constexpr FaultKind kRepairable[] = {
    FaultKind::kShiftSegmentOffTrack, FaultKind::kSwapSegmentLayer,
    FaultKind::kRelabelSegment,       FaultKind::kDiagonalSegment,
    FaultKind::kDropVia,              FaultKind::kDuplicateViaForeign,
    FaultKind::kTruncateViaSpan,      FaultKind::kInvertViaSpan,
    FaultKind::kUnrouteEdge,
};

struct Fixture {
  Orthogonal2Layer o;
  MultilayerLayout ml;

  Fixture() : o(layout::layout_kary(3, 2)), ml(realize(o, {.L = 4})) {
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    EXPECT_TRUE(res.ok) << res.error;
  }
};

TEST(Repair, ValidLayoutIsLeftAlone) {
  Fixture f;
  LayoutGeometry geom = f.ml.geom;
  auto rep = robustness::repair_layout(f.o.graph, geom,
                                       {.rule = f.ml.required_rule});
  EXPECT_TRUE(rep.ok);
  EXPECT_TRUE(rep.ripped.empty());
  EXPECT_TRUE(rep.rerouted.empty());
  EXPECT_TRUE(rep.failed.empty());
  EXPECT_TRUE(rep.unrepairable.empty());
  EXPECT_TRUE(rep.remaining.empty());
}

TEST(Repair, RepairsEverySingleEdgeFaultClass) {
  Fixture f;
  for (FaultKind k : kRepairable) {
    bool tried = false;
    for (std::uint64_t seed : {1ull, 2ull, 5ull, 13ull}) {
      LayoutGeometry geom = f.ml.geom;
      auto fault = robustness::inject(k, f.o.graph, geom, seed);
      if (!fault) continue;
      tried = true;
      ASSERT_FALSE(
          Checker(f.o.graph, geom, {.via_rule = f.ml.required_rule}).check().ok)
          << robustness::fault_name(k);

      auto rep = robustness::repair_layout(f.o.graph, geom,
                                           {.rule = f.ml.required_rule});
      EXPECT_TRUE(rep.ok)
          << robustness::fault_name(k) << " seed " << seed << " ("
          << fault->note << "): " << rep.failed.size() << " failed, "
          << rep.remaining.size() << " remaining";
      CheckReport res =
          Checker(f.o.graph, geom, {.via_rule = f.ml.required_rule}).check();
      EXPECT_TRUE(res.ok) << robustness::fault_name(k) << ": " << res.error;
      EXPECT_FALSE(rep.ripped.empty()) << robustness::fault_name(k);
      EXPECT_FALSE(rep.rerouted.empty()) << robustness::fault_name(k);
      EXPECT_TRUE(rep.unrepairable.empty()) << robustness::fault_name(k);
      break;  // one successful round-trip per fault class
    }
    EXPECT_TRUE(tried) << robustness::fault_name(k)
                       << " applied to no seed on this fixture";
  }
}

TEST(Repair, RepairsCompoundDamage) {
  Fixture f;
  LayoutGeometry geom = f.ml.geom;
  auto a = robustness::inject(FaultKind::kUnrouteEdge, f.o.graph, geom, 3);
  auto b = robustness::inject(FaultKind::kDropVia, f.o.graph, geom, 8);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  auto rep = robustness::repair_layout(f.o.graph, geom,
                                       {.rule = f.ml.required_rule});
  EXPECT_TRUE(rep.ok) << rep.remaining.size() << " remaining";
  EXPECT_GE(rep.rerouted.size(), 2u);
  EXPECT_TRUE(
      Checker(f.o.graph, geom, {.via_rule = f.ml.required_rule}).check().ok);
}

TEST(Repair, FrameViolationsAreUnrepairable) {
  Fixture f;
  for (FaultKind k :
       {FaultKind::kOverlapNodeBoxes, FaultKind::kPushBoxOutOfBounds,
        FaultKind::kDuplicateNodeBox}) {
    LayoutGeometry geom = f.ml.geom;
    auto fault = robustness::inject(k, f.o.graph, geom, 1);
    ASSERT_TRUE(fault.has_value()) << robustness::fault_name(k);

    auto rep = robustness::repair_layout(f.o.graph, geom,
                                         {.rule = f.ml.required_rule});
    EXPECT_FALSE(rep.ok) << robustness::fault_name(k);
    ASSERT_FALSE(rep.unrepairable.empty()) << robustness::fault_name(k);
    // The declared code is among the frame violations (a duplicated box also
    // trips the count mismatch first, which is equally unrepairable).
    const bool declared = std::any_of(
        rep.unrepairable.begin(), rep.unrepairable.end(),
        [&](const Diagnostic& d) { return d.code == fault->expected; });
    EXPECT_TRUE(declared) << robustness::fault_name(k);
    // Re-routing never even starts: moving wires cannot fix the frame.
    EXPECT_TRUE(rep.rerouted.empty()) << robustness::fault_name(k);
    EXPECT_FALSE(rep.remaining.empty()) << robustness::fault_name(k);
  }
}

TEST(Repair, HonestlyReportsUnroutableEdge) {
  // A 4x1 single-layer strip: n1 and n2 sit between n0 and n3, the only edge
  // 0-3 is unrouted, and with L=1 there is no way around the foreign boxes.
  Graph g(4);
  g.add_edge(0, 3);
  LayoutGeometry geom;
  geom.num_layers = 1;
  geom.width = 4;
  geom.height = 1;
  geom.boxes = {{0, 0, 1, 1, 0, 1},
                {1, 0, 1, 1, 1, 1},
                {2, 0, 1, 1, 2, 1},
                {3, 0, 1, 1, 3, 1}};

  auto rep = robustness::repair_layout(g, geom, {.rule = ViaRule::kBlocking});
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.failed.size(), 1u);
  EXPECT_EQ(rep.failed[0], 0u);
  EXPECT_TRUE(rep.rerouted.empty());
  bool still_unrouted = false;
  for (const Diagnostic& d : rep.remaining)
    if (d.code == Code::kEdgeUnrouted && d.edge == 0) still_unrouted = true;
  EXPECT_TRUE(still_unrouted);
}

TEST(Repair, SameStripIsRoutableWithASecondLayer) {
  // The control for the blocked case above: one extra wiring layer gives the
  // router a way over the foreign boxes, and the repair must find it.
  Graph g(4);
  g.add_edge(0, 3);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 4;
  geom.height = 1;
  geom.boxes = {{0, 0, 1, 1, 0, 1},
                {1, 0, 1, 1, 1, 1},
                {2, 0, 1, 1, 2, 1},
                {3, 0, 1, 1, 3, 1}};

  auto rep = robustness::repair_layout(g, geom, {.rule = ViaRule::kBlocking});
  EXPECT_TRUE(rep.ok) << rep.remaining.size() << " remaining";
  ASSERT_EQ(rep.rerouted.size(), 1u);
  EXPECT_EQ(rep.rerouted[0], 0u);
  CheckReport res = Checker(g, geom, {.via_rule = ViaRule::kBlocking}).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Repair, RepairedLayoutRoundTripsThroughSerialization) {
  Fixture f;
  LayoutGeometry geom = f.ml.geom;
  ASSERT_TRUE(
      robustness::inject(FaultKind::kUnrouteEdge, f.o.graph, geom, 11)
          .has_value());
  auto rep = robustness::repair_layout(f.o.graph, geom,
                                       {.rule = f.ml.required_rule});
  ASSERT_TRUE(rep.ok);

  std::ostringstream os;
  io::write_graph(os, f.o.graph);
  io::write_geometry(os, geom);
  std::istringstream is(os.str());
  DiagnosticSink sink;
  auto loaded = io::parse_layout(is, &sink);
  ASSERT_TRUE(loaded.has_value()) << sink.summary();
  CheckReport res =
      Checker(loaded->graph, loaded->geom, {.via_rule = f.ml.required_rule})
          .check();
  EXPECT_TRUE(res.ok) << res.error;
}

// ---------------------------------------------------------------------------
// The windowed router against the oracle.

/// Every field of a report, diagnostics included, one line per item.
std::string render(const robustness::RepairReport& r) {
  std::ostringstream os;
  os << "ok " << r.ok << " passes " << r.passes << '\n';
  auto ids = [&](const char* name, const std::vector<EdgeId>& v) {
    os << name;
    for (EdgeId e : v) os << ' ' << e;
    os << '\n';
  };
  auto diags = [&](const char* name, const std::vector<Diagnostic>& v) {
    for (const Diagnostic& d : v)
      os << name << ' ' << code_name(d.code) << ' ' << int(d.severity) << ' '
         << d.has_point << ' ' << d.x << ' ' << d.y << ' ' << d.layer << ' '
         << d.edge << ' ' << d.edge2 << ' ' << d.node << ' ' << d.line << ' '
         << d.detail << '\n';
  };
  ids("ripped", r.ripped);
  ids("rerouted", r.rerouted);
  ids("failed", r.failed);
  diags("unrepairable", r.unrepairable);
  diags("remaining", r.remaining);
  return os.str();
}

std::string render(const LayoutGeometry& geom) {
  std::ostringstream os;
  io::write_geometry(os, geom);
  return os.str();
}

struct OracleTally {
  std::size_t cases = 0, repaired = 0, rerouted = 0, failed = 0;
};

/// Repairs `damaged` with the windowed router and with the oracle, and
/// requires byte-identical geometry and reports; a repaired layout must
/// also pass a fresh check. Returns the windowed router's report.
robustness::RepairReport expect_matches_oracle(
    const Graph& g, const LayoutGeometry& damaged,
    const robustness::RepairOptions& opt, const std::string& label,
    OracleTally& tally) {
  LayoutGeometry fast = damaged;
  LayoutGeometry slow = damaged;
  const auto rep = robustness::repair_layout(g, fast, opt);
  const auto want = oracle::repair_layout(g, slow, opt);
  EXPECT_EQ(render(rep), render(want)) << label;
  EXPECT_EQ(render(fast), render(slow)) << label;
  ++tally.cases;
  tally.rerouted += rep.rerouted.size();
  tally.failed += rep.failed.size();
  if (!rep.ok) return rep;
  ++tally.repaired;
  CheckReport res = Checker(g, fast, {.via_rule = opt.rule}).check();
  EXPECT_TRUE(res.ok) << label << ": " << res.error;
  return rep;
}

struct OracleFixture {
  std::string name;
  Orthogonal2Layer o;
  MultilayerLayout ml;
};

/// Small layouts of three families, one of them with an odd layer count.
std::vector<OracleFixture> oracle_fixtures() {
  std::vector<OracleFixture> out;
  auto add = [&](std::string name, Orthogonal2Layer o, std::uint32_t L) {
    MultilayerLayout ml = realize(o, {.L = L});
    out.push_back({std::move(name), std::move(o), std::move(ml)});
  };
  add("kary(4,3) L=4", layout::layout_kary(4, 3), 4);
  add("hypercube(6) L=4", layout::layout_hypercube(6), 4);
  add("ccc(5) L=3", layout::layout_ccc(5), 3);
  return out;
}

constexpr ViaRule kRules[] = {ViaRule::kBlocking, ViaRule::kTransparent};

const char* rule_name(ViaRule rule) {
  return rule == ViaRule::kBlocking ? " blocking " : " transparent ";
}

TEST(RepairOracle, SingleFaultsMatchOriginalRouter) {
  OracleTally tally;
  for (const OracleFixture& f : oracle_fixtures())
    for (ViaRule rule : kRules)
      for (FaultKind k : kRepairable)
        for (std::uint64_t seed : {1ull, 2ull}) {
          LayoutGeometry geom = f.ml.geom;
          if (!robustness::inject(k, f.o.graph, geom, seed)) continue;
          const std::string label = f.name + rule_name(rule) +
                                    robustness::fault_name(k) + " seed " +
                                    std::to_string(seed);
          expect_matches_oracle(f.o.graph, geom, {.rule = rule}, label, tally);
        }
  EXPECT_GE(tally.cases, 100u);
  EXPECT_EQ(tally.repaired, tally.cases);
  EXPECT_GE(tally.rerouted, 4 * tally.cases);
}

TEST(RepairOracle, CompoundDamageMatchesOriginalRouter) {
  // Several faults per copy: one pass routes many edges, so later routes
  // must see the earlier ones' paths as taken.
  OracleTally tally;
  for (const OracleFixture& f : oracle_fixtures())
    for (ViaRule rule : kRules)
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        LayoutGeometry geom = f.ml.geom;
        for (std::uint64_t i = 0; i < 6; ++i) {
          const FaultKind k = kRepairable[(seed * 7 + i * 5) % 9];
          (void)robustness::inject(k, f.o.graph, geom, seed * 101 + i);
        }
        const std::string label = f.name + rule_name(rule) +
                                  "compound seed " + std::to_string(seed);
        expect_matches_oracle(f.o.graph, geom, {.rule = rule}, label, tally);
      }
  EXPECT_EQ(tally.cases, 24u);
  EXPECT_EQ(tally.repaired, tally.cases);
  EXPECT_GE(tally.rerouted, 10 * tally.cases);
}

TEST(RepairOracle, FrameFaultsMatchOriginalRouter) {
  OracleTally tally;
  for (const OracleFixture& f : oracle_fixtures())
    for (FaultKind k :
         {FaultKind::kStealTerminal, FaultKind::kOverlapNodeBoxes,
          FaultKind::kDuplicateNodeBox, FaultKind::kPushBoxOutOfBounds,
          FaultKind::kShrinkBoundingBox})
      for (std::uint64_t seed : {1ull, 2ull}) {
        LayoutGeometry geom = f.ml.geom;
        if (!robustness::inject(k, f.o.graph, geom, seed)) continue;
        expect_matches_oracle(
            f.o.graph, geom, {.rule = f.ml.required_rule},
            f.name + " " + robustness::fault_name(k) + " seed " +
                std::to_string(seed),
            tally);
      }
  EXPECT_GE(tally.cases, 20u);
}

TEST(RepairOracle, RandomSmallFramesMatchOriginalRouter) {
  // Tiny frames with boxes scattered over every layer and every edge
  // unrouted: one pass routes them all, so later routes thread between the
  // boxes and the paths routed before them (via interiors included). Each
  // frame is also repaired under a random search budget, where routes must
  // give up exactly where the original router's do. The budget is at least
  // an eighth of the frame, so the window bound (8x the budget) holds the
  // whole frame and the budget alone decides; routes past the window bound
  // are RepairWindow's cases.
  OracleTally tally, budgeted;
  std::mt19937_64 rng(7);
  auto pick = [&](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };
  for (int round = 0; round < 1000; ++round) {
    LayoutGeometry geom;
    geom.num_layers = static_cast<std::uint16_t>(pick(1, 4));
    geom.width = pick(3, 10);
    geom.height = pick(1, 8);
    const std::uint32_t n = pick(
        2, std::clamp(geom.width * geom.height * geom.num_layers / 2, 2u, 10u));
    Graph g(n);
    std::set<std::uint64_t> taken;
    for (NodeId v = 0; v < n; ++v)
      for (;;) {  // a free 1x1 box, anywhere in the frame
        const NodeBox b{pick(0, geom.width - 1), pick(0, geom.height - 1),
                        1, 1, v,
                        static_cast<std::uint16_t>(pick(1, geom.num_layers))};
        if (taken.insert(grid::key3(b.x, b.y, b.layer)).second) {
          geom.boxes.push_back(b);
          break;
        }
      }
    for (std::uint32_t i = pick(1, 2 * n); i > 0; --i) {
      const NodeId u = pick(0, n - 1), v = pick(0, n - 1);
      if (u != v) g.add_edge(u, v);
    }
    for (ViaRule rule : kRules)
      expect_matches_oracle(g, geom, {.rule = rule},
                            "random round " + std::to_string(round), tally);
    const std::uint32_t volume = geom.width * geom.height * geom.num_layers;
    const std::uint32_t budget = pick((volume + 7) / 8, volume);
    expect_matches_oracle(
        g, geom, {.rule = kRules[round % 2], .max_search_cells = budget},
        "random round " + std::to_string(round) + " budget " +
            std::to_string(budget),
        budgeted);
  }
  EXPECT_GE(tally.rerouted, 3000u);
  EXPECT_GE(tally.repaired, 400u);
  EXPECT_GE(budgeted.failed, 500u);
  EXPECT_GE(budgeted.rerouted, 500u);
}

/// Edge 0 joins n0 (2,10) and n1 (12,10) on a single layer, unrouted. Edge
/// 1 (n2-n3) is a wall down column 7 from y=0 through n3's box at y=70, so
/// the only free path runs below the wall, 40 rows past the first search
/// window (radius 20, twice the boxes' gap): rows 0-30, then 0-50, then
/// the whole 20x80 frame.
void detour_layout(Graph& g, LayoutGeometry& geom) {
  g = Graph(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  geom = {};
  geom.num_layers = 1;
  geom.width = 20;
  geom.height = 80;
  geom.boxes = {{2, 10, 1, 1, 0, 1},
                {12, 10, 1, 1, 1, 1},
                {7, 0, 1, 1, 2, 1},
                {7, 70, 1, 1, 3, 1}};
  geom.segs = {{7, 0, 7, 70, 1, 1}};
}

TEST(RepairWindow, DetourOutsideFirstWindowGrowsAndMatchesOracle) {
  Graph g;
  LayoutGeometry geom;
  detour_layout(g, geom);
  obs::MetricsRegistry reg;
  reg.install();
  OracleTally tally;
  expect_matches_oracle(g, geom, {.rule = ViaRule::kBlocking}, "detour",
                        tally);
  obs::MetricsRegistry::uninstall();
  EXPECT_EQ(tally.repaired, 1u);
  EXPECT_EQ(tally.rerouted, 1u);
  EXPECT_EQ(reg.counter("repair.window_grows"), 2u);
  EXPECT_EQ(reg.gauge("repair.window_cells").value_or(0), 20.0 * 80);
}

TEST(RepairWindow, SearchBudgetGivesUpWhereTheOriginalRouterDoes) {
  // max_search_cells counts the cells a route discovers, as it always has:
  // from budgets too small for any path to ones that suffice, the windowed
  // router gives up, or routes, exactly where the original router does.
  Graph g;
  LayoutGeometry geom;
  detour_layout(g, geom);
  OracleTally tally;
  for (std::uint64_t budget = 0; budget <= 1600; budget += 20)
    expect_matches_oracle(
        g, geom, {.rule = ViaRule::kBlocking, .max_search_cells = budget},
        "detour budget " + std::to_string(budget), tally);
  EXPECT_EQ(tally.cases, 81u);
  EXPECT_GT(tally.failed, 50u);
  EXPECT_GE(tally.repaired, 10u);

  auto rep = robustness::repair_layout(
      g, geom, {.rule = ViaRule::kBlocking, .max_search_cells = 500});
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.failed, std::vector<EdgeId>{0});
  EXPECT_TRUE(std::any_of(rep.remaining.begin(), rep.remaining.end(),
                          [](const Diagnostic& d) {
                            return d.code == Code::kEdgeUnrouted && d.edge == 0;
                          }));
}

/// Edge 0 joins n0 (1,18) and n1 (1,22) in a 100x41 single-layer frame,
/// unrouted. Three full-frame walls (edges 1-3, at y = 17, 20 and 23; the
/// middle one stops at x = 97) leave a U-shaped corridor two cells wide:
/// right along y = 18-19, through x = 98-99, back along y = 21-22. The
/// route discovers about 400 cells, while the window it needs is the whole
/// frame, 4100 cells.
void corridor_layout(Graph& g, LayoutGeometry& geom) {
  g = Graph(8);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  g.add_edge(6, 7);
  geom = {};
  geom.num_layers = 1;
  geom.width = 100;
  geom.height = 41;
  geom.boxes = {{1, 18, 1, 1, 0, 1},  {1, 22, 1, 1, 1, 1},
                {0, 17, 1, 1, 2, 1},  {99, 17, 1, 1, 3, 1},
                {0, 20, 1, 1, 4, 1},  {97, 20, 1, 1, 5, 1},
                {0, 23, 1, 1, 6, 1},  {99, 23, 1, 1, 7, 1}};
  geom.segs = {{0, 17, 99, 17, 1, 1},
               {0, 20, 97, 20, 1, 2},
               {0, 23, 99, 23, 1, 3}};
}

TEST(RepairWindow, WindowBoundFailsASparseSearchHonestly) {
  Graph g;
  LayoutGeometry geom;
  corridor_layout(g, geom);
  // Budget 500: windows grow from radius 8 to 64, then stop at radius 95
  // (97x41 = 3977 cells), the largest within 8 x 500; the turn at x = 98
  // lies outside, so the edge fails although it needs only ~400 cells.
  obs::MetricsRegistry reg;
  reg.install();
  auto rep = robustness::repair_layout(
      g, geom, {.rule = ViaRule::kBlocking, .max_search_cells = 500});
  obs::MetricsRegistry::uninstall();
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.failed, std::vector<EdgeId>{0});
  EXPECT_TRUE(rep.rerouted.empty());
  EXPECT_TRUE(std::any_of(rep.remaining.begin(), rep.remaining.end(),
                          [](const Diagnostic& d) {
                            return d.code == Code::kEdgeUnrouted && d.edge == 0;
                          }));
  EXPECT_EQ(reg.gauge("repair.window_cells").value_or(0), 97.0 * 41);
  EXPECT_EQ(reg.counter("repair.window_grows"), 4u);

  // Budget 513: the whole frame fits 8 x 513 cells, and the edge routes as
  // the original router routes it.
  OracleTally tally;
  expect_matches_oracle(
      g, geom, {.rule = ViaRule::kBlocking, .max_search_cells = 513},
      "corridor budget 513", tally);
  EXPECT_EQ(tally.repaired, 1u);
}

TEST(RepairWindow, FarEdgesInFramesPastBothBoundsRouteAsTheOriginalDid) {
  // hypercube(8) at L = 2 (256 x 256 x 2, the Thompson model in small)
  // with one edge unrouted per copy, and a search budget that puts both the
  // budget and the window bound (8 x 4096 cells) far below the frame. A far
  // edge's first window (radius twice the gap) is past the window bound, so
  // its route must search the largest window that fits rather than fail;
  // every copy must still repair exactly as the original router does,
  // budget failures included.
  OracleFixture f{"hypercube(8) L=2", layout::layout_hypercube(8), {}};
  f.ml = realize(f.o, {.L = 2});
  const robustness::RepairOptions opt{.rule = f.ml.required_rule,
                                      .max_search_cells = 4096};
  const std::uint64_t window_bound = 8 * opt.max_search_cells;
  ASSERT_GE(f.ml.geom.volume(), 4 * window_bound);
  std::vector<const NodeBox*> box_of(f.o.graph.num_nodes());
  for (const NodeBox& b : f.ml.geom.boxes) box_of[b.node] = &b;
  auto first_window = [&](EdgeId e) {
    const NodeBox& a = *box_of[f.o.graph.edge(e).u];
    const NodeBox& b = *box_of[f.o.graph.edge(e).v];
    auto gap = [](std::uint64_t p, std::uint64_t plen, std::uint64_t q) {
      return p + plen <= q ? q - (p + plen - 1) : 0;
    };
    const std::uint64_t r = 2 * (gap(a.x, a.w, b.x) + gap(b.x, b.w, a.x) +
                                 gap(a.y, a.h, b.y) + gap(b.y, b.h, a.y));
    return (a.w + 2 * r) * (a.h + 2 * r) * f.ml.geom.num_layers;
  };
  OracleTally tally;
  std::size_t far_rerouted = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    LayoutGeometry geom = f.ml.geom;
    ASSERT_TRUE(robustness::inject(FaultKind::kUnrouteEdge, f.o.graph, geom,
                                   seed));
    obs::MetricsRegistry reg;
    reg.install();
    const auto rep = expect_matches_oracle(
        f.o.graph, geom, opt, f.name + " unroute seed " + std::to_string(seed),
        tally);
    obs::MetricsRegistry::uninstall();
    EXPECT_LE(reg.gauge("repair.window_cells").value_or(0),
              double(window_bound));
    for (EdgeId e : rep.rerouted)
      if (first_window(e) > window_bound) ++far_rerouted;
  }
  EXPECT_EQ(tally.cases, 16u);
  EXPECT_GE(far_rerouted, 5u);
}

TEST(RepairWindow, FarApartBoxesInAMaximalFrameFailWithinBothBounds) {
  // Two boxes at opposite corners of a frame 2^20-1 points on a side: the
  // route searches the largest window that fits the bound and gives up
  // after max_search_cells discoveries, in well under a second, where a
  // search of the whole frame would never end.
  Graph g(2);
  g.add_edge(0, 1);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = grid::kCoordMax;
  geom.height = grid::kCoordMax;
  geom.boxes = {{0, 0, 1, 1, 0, 1},
                {grid::kCoordMax - 1, grid::kCoordMax - 1, 1, 1, 1, 1}};
  const robustness::RepairOptions opt{.rule = ViaRule::kBlocking};

  obs::MetricsRegistry reg;
  reg.install();
  const auto t0 = std::chrono::steady_clock::now();
  auto rep = robustness::repair_layout(g, geom, opt);
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  obs::MetricsRegistry::uninstall();
  EXPECT_LT(s, 1.0);
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.failed, std::vector<EdgeId>{0});
  EXPECT_LE(reg.gauge("repair.window_cells").value_or(0),
            8.0 * double(opt.max_search_cells));
  EXPECT_EQ(reg.counter("repair.window_grows"), 0u);
}

}  // namespace
}  // namespace mlvl
