#include "core/checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "connectivity_oracle.hpp"
#include "core/gridkey.hpp"
#include "core/multilayer.hpp"

namespace mlvl {
namespace {

/// Two nodes side by side joined by one wire on layer 1.
struct Fixture {
  Graph g{2};
  LayoutGeometry geom;

  Fixture() {
    g.add_edge(0, 1);
    geom.num_layers = 2;
    geom.width = 12;
    geom.height = 4;
    geom.boxes = {{0, 1, 2, 2, 0}, {9, 1, 2, 2, 1}};
    geom.segs = {{1, 1, 9, 1, 1, 0}};  // layer-1 wire between the boxes
  }
};

TEST(Checker, AcceptsMinimalLayout) {
  Fixture f;
  CheckReport res = Checker(f.g, f.geom).check();
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.points, 0u);
}

TEST(Checker, RejectsUnroutedEdge) {
  Fixture f;
  f.geom.segs.clear();
  EXPECT_FALSE(Checker(f.g, f.geom).check().ok);
}

TEST(Checker, RejectsDisconnectedWire) {
  Fixture f;
  f.geom.segs = {{1, 1, 3, 1, 1, 0}, {6, 1, 9, 1, 1, 0}};  // gap at x=4..5
  CheckReport res = Checker(f.g, f.geom).check();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("disconnected"), std::string::npos);
}

TEST(Checker, RejectsWireMissingTerminal) {
  Fixture f;
  f.geom.segs = {{1, 1, 7, 1, 1, 0}};  // stops short of node 1's box
  CheckReport res = Checker(f.g, f.geom).check();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("terminals"), std::string::npos);
}

TEST(Checker, RejectsOverlappingWires) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 12;
  geom.height = 6;
  geom.boxes = {{0, 1, 2, 2, 0}, {9, 1, 2, 2, 1}, {9, 4, 2, 2, 2}};
  geom.segs = {{1, 1, 9, 1, 1, 0}, {1, 1, 9, 1, 1, 1}};  // same track!
  CheckReport res = Checker(g, geom).check();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("collision"), std::string::npos);
}

TEST(Checker, DifferentLayersMayCross) {
  // A horizontal wire on layer 1 and a vertical wire on layer 2 crossing at
  // the same (x, y): legal (the Thompson crossing).
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 14;
  geom.height = 14;
  geom.boxes = {{0, 5, 2, 2, 0}, {11, 5, 2, 2, 1}, {5, 0, 2, 2, 2}, {5, 11, 2, 2, 3}};
  geom.segs = {{1, 6, 11, 6, 1, 0},   // horizontal, layer 1
               {6, 1, 6, 12, 2, 1}};  // vertical, layer 2, crosses at (6,6)
  geom.vias = {{6, 1, 1, 2, 1}, {6, 12, 1, 2, 1}};  // terminals for edge 1
  CheckReport res = Checker(g, geom).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Checker, BlockingViaConflictsWithCrossingWire) {
  // Same crossing, but edge 1 drops a via through the crossing point.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 14;
  geom.height = 14;
  geom.boxes = {{0, 5, 2, 2, 0}, {11, 5, 2, 2, 1}, {5, 0, 2, 2, 2}, {5, 11, 2, 2, 3}};
  geom.segs = {{1, 6, 11, 6, 1, 0}, {6, 1, 6, 12, 2, 1}};
  geom.vias = {{6, 6, 1, 2, 1}};  // knock-knee style via at the crossing
  EXPECT_FALSE(Checker(g, geom, {.via_rule = ViaRule::kBlocking}).check().ok);
}

TEST(Checker, TransparentViaSkipsInteriorLayers) {
  // A via from layer 1 to 3 whose column crosses a wire on layer 2: illegal
  // under kBlocking, legal under kTransparent.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  LayoutGeometry geom;
  geom.num_layers = 3;
  geom.width = 14;
  geom.height = 14;
  geom.boxes = {{0, 5, 2, 2, 0},   // node 0
                {11, 5, 2, 2, 1},  // node 1
                {1, 0, 2, 2, 2},   // node 2 (top, above the via column)
                {1, 11, 2, 2, 3}}; // node 3 (bottom)
  geom.segs = {{1, 6, 2, 6, 1, 0},    // edge 0: stub out of box 0 on layer 1
               {2, 6, 11, 6, 3, 0},   // edge 0: run on layer 3
               {2, 1, 2, 12, 2, 1}};  // edge 1: vertical on layer 2 at x=2
  geom.vias = {{2, 6, 1, 3, 0},    // edge 0 climbs 1 -> 3 across layer 2
               {11, 6, 1, 3, 0},   // edge 0 terminal at node 1
               {2, 1, 1, 2, 1},    // edge 1 terminals
               {2, 12, 1, 2, 1}};
  EXPECT_FALSE(Checker(g, geom, {.via_rule = ViaRule::kBlocking}).check().ok);
  CheckReport res =
      Checker(g, geom, {.via_rule = ViaRule::kTransparent}).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Checker, RejectsWireThroughForeignBox) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 12;
  geom.height = 8;
  geom.boxes = {{0, 1, 2, 2, 0}, {9, 1, 2, 2, 1}, {5, 0, 2, 3, 2}};
  geom.segs = {{1, 1, 9, 1, 1, 0},   // edge 0 runs straight through box 2
               {1, 2, 5, 2, 1, 1}};  // edge (0,2) may touch box 2
  CheckReport res = Checker(g, geom).check();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("enters box"), std::string::npos);
}

TEST(Checker, RejectsOutOfBounds) {
  Fixture f;
  f.geom.segs.push_back({0, 0, 20, 0, 1, 0});
  EXPECT_FALSE(Checker(f.g, f.geom).check().ok);
}

TEST(Checker, RejectsBadLayer) {
  Fixture f;
  f.geom.segs[0].layer = 5;
  EXPECT_FALSE(Checker(f.g, f.geom).check().ok);
}

TEST(Checker, RejectsOverlappingBoxes) {
  Fixture f;
  f.geom.boxes[1] = {1, 1, 2, 2, 1};
  EXPECT_FALSE(Checker(f.g, f.geom).check().ok);
}

TEST(Checker, RejectsMissingBox) {
  Fixture f;
  f.geom.boxes.pop_back();
  EXPECT_FALSE(Checker(f.g, f.geom).check().ok);
}

// ---- The redesigned Checker API -------------------------------------------

/// K disjoint edge groups stacked vertically, one per 3-row stripe: 96 rows,
/// which auto band sizing splits into 48 two-row bands, so every pass merges
/// results from many bands.
struct Tall {
  static constexpr std::uint32_t kGroups = 32;
  Graph g{2 * kGroups};
  LayoutGeometry geom;

  Tall() {
    geom.num_layers = 2;
    geom.width = 12;
    geom.height = 3 * kGroups;
    for (std::uint32_t i = 0; i < kGroups; ++i) {
      const std::uint32_t y = 3 * i;
      g.add_edge(2 * i, 2 * i + 1);
      geom.boxes.push_back({0, y, 2, 2, 2 * i});
      geom.boxes.push_back({9, y, 2, 2, 2 * i + 1});
      geom.segs.push_back({1, y, 9, y, 1, i});
    }
  }
};

std::vector<std::string> rendered(const DiagnosticSink& sink) {
  std::vector<std::string> out;
  for (const Diagnostic& d : sink.diagnostics()) out.push_back(d.to_string());
  return out;
}

TEST(CheckerApi, FullCheckReportsBandAccounting) {
  Tall t;
  Checker checker(t.g, t.geom);
  DiagnosticSink sink(256);
  CheckReport rep = checker.check(sink);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(static_cast<bool>(rep));
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(rep.bands, 48u);  // 96 rows / 64 target bands -> 2 rows each
  EXPECT_EQ(rep.points, 9u * Tall::kGroups);  // each wire claims 9 points
}

TEST(CheckerApi, ParallelMatchesSerialByteForByte) {
  // Seed collisions into several bands: each tampered group gains a second
  // wire, owned by the *next* edge, on the same track.
  Tall t;
  for (std::uint32_t i : {3u, 11u, 20u, 30u})
    t.geom.segs.push_back({1, 3 * i, 9, 3 * i, 1, i + 1});

  DiagnosticSink serial_sink(4096);
  Checker serial(t.g, t.geom, {.threads = 1});
  CheckReport serial_rep = serial.check(serial_sink);

  DiagnosticSink parallel_sink(4096);
  Checker parallel(t.g, t.geom, {.threads = 8});
  CheckReport parallel_rep = parallel.check(parallel_sink);

  EXPECT_FALSE(serial_rep.ok);
  EXPECT_GT(serial_rep.bands, 1u);
  EXPECT_EQ(serial_rep.ok, parallel_rep.ok);
  EXPECT_EQ(serial_rep.error, parallel_rep.error);
  EXPECT_EQ(serial_rep.points, parallel_rep.points);
  EXPECT_EQ(rendered(serial_sink), rendered(parallel_sink));
}

TEST(CheckerApi, FirstFailureConvenienceCarriesError) {
  Fixture f;
  f.geom.segs.clear();
  CheckReport rep = Checker(f.g, f.geom).check();
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.error.empty());
  EXPECT_FALSE(static_cast<bool>(rep));
}


// ---- Wide frames -----------------------------------------------------------
// A band's slab covers one layer, so its size depends on the frame width but
// never on the layer count: a frame kCoordMax wide at L = 8 (8.4 M cells per
// row over all layers) is scanned like a narrow one.

/// Three edges on a 16 × 12, L = 8 grid, in a frame `width` wide: edge 0
/// climbs to layer 3 and back; edge 1's layer-3 spur crosses it at (7,1,3),
/// inside node 7's layer-3 box; edge 2 cuts through node 6's box and has a
/// stranded run on layer 8. Each colliding cell is claimed once per edge,
/// lower edge first.
struct WideFrame {
  Graph g{8};
  LayoutGeometry geom;

  explicit WideFrame(std::uint32_t width) {
    g.add_edge(0, 1);
    g.add_edge(2, 3);
    g.add_edge(4, 5);
    geom.num_layers = 8;
    geom.width = width;
    geom.height = 12;
    geom.boxes = {{0, 1, 2, 2, 0},  {12, 1, 2, 2, 1}, {0, 5, 2, 2, 2},
                  {12, 5, 2, 2, 3}, {0, 9, 2, 2, 4},  {12, 9, 2, 2, 5},
                  {5, 7, 2, 1, 6},  {7, 1, 1, 1, 7, 3}};
    geom.segs = {{1, 1, 3, 1, 1, 0},   {3, 1, 10, 1, 3, 0},
                 {10, 1, 12, 1, 1, 0}, {1, 5, 12, 5, 1, 1},
                 {7, 1, 7, 5, 3, 1},   {1, 9, 12, 9, 1, 2},
                 {5, 7, 5, 9, 1, 2},   {2, 11, 4, 11, 8, 2}};
    geom.vias = {{3, 1, 1, 3, 0}, {10, 1, 1, 3, 0}, {7, 5, 1, 3, 1}};
  }
};

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(CheckerWideFrame, MatchesTheSameRecordsInANarrowFrame) {
  const WideFrame wide(grid::kCoordMax), narrow(16);
  for (ViaRule rule : {ViaRule::kBlocking, ViaRule::kTransparent})
    for (std::uint32_t threads : {1u, 4u}) {
      const CheckOptions opt{.via_rule = rule, .threads = threads};
      DiagnosticSink wide_sink(64), narrow_sink(64);
      const CheckReport w = Checker(wide.g, wide.geom, opt).check(wide_sink);
      const CheckReport n =
          Checker(narrow.g, narrow.geom, opt).check(narrow_sink);
      EXPECT_FALSE(w.ok);
      EXPECT_EQ(w.ok, n.ok);
      EXPECT_EQ(w.points, n.points);
      EXPECT_EQ(w.bands, n.bands);
      EXPECT_EQ(sorted(rendered(wide_sink)), sorted(rendered(narrow_sink)));
      // One collision, three thefts (two of them on the colliding cell),
      // one disconnected edge.
      EXPECT_EQ(wide_sink.count(Code::kPointCollision), 1u);
      EXPECT_EQ(wide_sink.count(Code::kTerminalTheft), 3u);
      EXPECT_EQ(wide_sink.count(Code::kEdgeDisconnected), 1u);
      EXPECT_EQ(wide_sink.size(), 5u);
    }
}


// ---- Connectivity edge cases ----------------------------------------------
// Phase 3 works on each edge's records; these pin the point model it must
// keep: 6-neighbour adjacency between any two points of one edge (with or
// without a via), vias as full z-columns, and the first stranded point in key
// order named by the diagnostic.

/// Every diagnostic of a full pass, asserted identical at 1 and 8 workers.
std::vector<std::string> all_diagnostics(const Graph& g,
                                         const LayoutGeometry& geom,
                                         ViaRule rule) {
  DiagnosticSink serial_sink(64);
  Checker(g, geom, {.via_rule = rule, .threads = 1}).check(serial_sink);
  DiagnosticSink parallel_sink(64);
  Checker(g, geom, {.via_rule = rule, .threads = 8}).check(parallel_sink);
  EXPECT_EQ(rendered(serial_sink), rendered(parallel_sink));
  return rendered(serial_sink);
}

using Diags = std::vector<std::string>;

TEST(CheckerConnectivity, AdjacentLayersAtOnePointConnectWithoutAVia) {
  // Layer 1 -> layer 2 at (5,1) and back at (8,1), no via records.
  Fixture f;
  f.geom.segs = {{1, 1, 5, 1, 1, 0}, {5, 1, 8, 1, 2, 0}, {8, 1, 9, 1, 1, 0}};
  EXPECT_EQ(all_diagnostics(f.g, f.geom, ViaRule::kBlocking), Diags{});
  EXPECT_EQ(all_diagnostics(f.g, f.geom, ViaRule::kTransparent), Diags{});
}

TEST(CheckerConnectivity, ParallelRunsOneTrackApartConnect) {
  Fixture f;
  f.geom.segs.push_back({3, 2, 6, 2, 1, 0});  // row 2, under the main run
  EXPECT_EQ(all_diagnostics(f.g, f.geom, ViaRule::kBlocking), Diags{});
}

/// Main path: a layer-1 stub out of node 0's box, up a via, along layer 2
/// and down into node 1's box, so its largest key is on layer 2.
Fixture climbing_fixture() {
  Fixture f;
  f.geom.segs = {{1, 1, 2, 1, 1, 0}, {2, 1, 9, 1, 2, 0}};
  f.geom.vias = {{2, 1, 1, 2, 0}, {9, 1, 1, 2, 0}};
  return f;
}

TEST(CheckerConnectivity, StrandedPieceInsideThePathsKeyRangeIsNamed) {
  // The stranded run on layer 1, row 3 sorts after the path's layer-1 keys
  // and before its layer-2 keys; its first point is the one reported.
  Fixture f = climbing_fixture();
  f.geom.segs.push_back({3, 3, 5, 3, 1, 0});
  EXPECT_EQ(all_diagnostics(f.g, f.geom, ViaRule::kBlocking),
            Diags{"edge 0 wire is disconnected at (3,3,1)"});
}

TEST(CheckerConnectivity, StrandedPieceHoldingTheSmallestKeyIsTheRoot) {
  // The stranded run on row 0 holds the edge's smallest key, so its
  // component is the root and the path's first point is the one reported.
  Fixture f = climbing_fixture();
  f.geom.segs.push_back({4, 0, 6, 0, 1, 0});
  EXPECT_EQ(all_diagnostics(f.g, f.geom, ViaRule::kBlocking),
            Diags{"edge 0 wire is disconnected at (1,1,1)"});
}

TEST(CheckerConnectivity, EdgeOfViasOnly) {
  // Node 0 on layer 1 and node 1 on layer 3 over the same cells (the 3-D
  // grid model): one via column joins them, through layer 2.
  Fixture f;
  f.geom.num_layers = 3;
  f.geom.boxes = {{0, 0, 2, 2, 0, 1}, {0, 0, 2, 2, 1, 3}};
  f.geom.segs.clear();
  f.geom.vias = {{1, 1, 1, 3, 0}};
  for (ViaRule rule : {ViaRule::kBlocking, ViaRule::kTransparent})
    EXPECT_EQ(all_diagnostics(f.g, f.geom, rule), Diags{});
  // Two columns that only meet diagonally do not connect.
  f.geom.vias = {{0, 0, 1, 2, 0}, {1, 1, 2, 3, 0}};
  for (ViaRule rule : {ViaRule::kBlocking, ViaRule::kTransparent})
    EXPECT_EQ(all_diagnostics(f.g, f.geom, rule),
              Diags{"edge 0 wire is disconnected at (1,1,2)"});
}

// ---- Differential oracle ----------------------------------------------------
// Every phase-3 verdict must equal the point-level ConnectivityOracle's, field
// by field, on every edge the checker verifies.

using testing::oracle_mismatches;

/// Random one-edge frames built to hit the join rule's corners. Each record
/// is fresh or derived from an earlier one by a move that lands on a corner
/// of the rule; `moves` counts how often each move was made.
class CornerFrames {
 public:
  enum Move {
    kFresh,
    kDuplicate,
    kParallelOneApart,     // same axis, one track or one layer over
    kAdjacentLayer,        // one layer over, crossing or overlapping, no via
    kDiagonal,             // offset in two axes: must not join by itself
    kZeroLength,           // a single point next to or on a record
    kViaAtRunEnd,          // a via column on a run's end point
    kViaMidRun,            // a via column on a run's interior point
    kBoxThroughViaInterior,  // a terminal box on a via's interior layer
    kNumMoves
  };
  std::array<std::uint32_t, kNumMoves> moves{};

  explicit CornerFrames(std::uint64_t seed) : rng_(seed) {}

  /// One frame: nodes 0 and 1 joined by edge 0, 1..10 records.
  void make(Graph& g, LayoutGeometry& geom) {
    g = Graph(2);
    g.add_edge(0, 1);
    geom = {};
    geom.num_layers = kL;
    geom.width = kW;
    geom.height = kH;
    geom.boxes = {random_box(0), random_box(1)};
    recs_.clear();
    const std::uint32_t n = 1 + pick(10);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto m = recs_.empty() ? kFresh : static_cast<Move>(pick(kNumMoves));
      ++moves[m];
      add(m, geom);
    }
    for (NodeBox& box : geom.boxes)  // often a terminal on some record
      if (pick(2)) place_on(box, point_of(recs_[pick(n)], pick(2)));
    for (const Box& b : recs_) {
      if (b.via)
        geom.vias.push_back({b.lo[0], b.lo[1],
                             static_cast<std::uint16_t>(b.lo[2]),
                             static_cast<std::uint16_t>(b.hi[2]), 0});
      else
        geom.segs.push_back({b.lo[0], b.lo[1], b.hi[0], b.hi[1],
                             static_cast<std::uint16_t>(b.lo[2]), 0});
    }
  }

 private:
  static constexpr std::uint32_t kW = 9, kH = 9, kL = 4;
  static constexpr std::array<std::uint32_t, 3> kMax{kW - 1, kH - 1, kL};

  struct Box {
    std::array<std::uint32_t, 3> lo, hi;
    bool via = false;
  };

  std::mt19937_64 rng_;
  std::vector<Box> recs_;

  std::uint32_t pick(std::uint32_t n) {
    return static_cast<std::uint32_t>(rng_() % n);
  }
  std::uint32_t in(std::uint32_t lo, std::uint32_t hi) {
    return lo + pick(hi - lo + 1);
  }
  static std::uint32_t clamp(std::int64_t v, int axis) {
    return static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(v, axis == 2 ? 1 : 0, kMax[axis]));
  }
  static std::uint32_t shift(std::uint32_t v, int axis, int by) {
    return clamp(std::int64_t{v} + by, axis);
  }
  int sign() { return pick(2) ? 1 : -1; }

  NodeBox random_box(NodeId node) {
    const std::uint32_t w = 1 + pick(3), h = 1 + pick(3);
    return {pick(kW - w + 1), pick(kH - h + 1), w, h, node,
            static_cast<std::uint16_t>(pick(4) ? 1 : in(2, kL))};
  }

  /// Moves `box` onto point p, keeping its size.
  void place_on(NodeBox& box, std::array<std::uint32_t, 3> p) {
    box.x = in(p[0] + 1 > box.w ? p[0] + 1 - box.w : 0,
               std::min(p[0], kW - box.w));
    box.y = in(p[1] + 1 > box.h ? p[1] + 1 - box.h : 0,
               std::min(p[1], kH - box.h));
    box.layer = static_cast<std::uint16_t>(p[2]);
  }

  /// A random segment (x run, y run or point) or via column.
  Box fresh() {
    Box b;
    const std::uint32_t axis = pick(4);  // 3 = single point
    for (int a = 0; a < 3; ++a) b.lo[a] = b.hi[a] = in(a == 2 ? 1 : 0, kMax[a]);
    if (axis < 3) b.hi[axis] = in(b.lo[axis], kMax[axis]);
    b.via = axis == 2 || (axis == 3 && pick(2));
    return b;
  }

  /// A point of record r: an end, or an interior point when `mid`.
  std::array<std::uint32_t, 3> point_of(const Box& r, bool mid) {
    std::array<std::uint32_t, 3> p = r.lo;
    for (int a = 0; a < 3; ++a)
      if (r.hi[a] != r.lo[a])
        p[a] = mid ? in(r.lo[a], r.hi[a]) : (pick(2) ? r.lo[a] : r.hi[a]);
    return p;
  }

  Box via_at(std::array<std::uint32_t, 3> p) {
    // Through the point, or ending one layer short of it.
    Box b{p, p, true};
    switch (pick(3)) {
      case 0: b.lo[2] = in(1, p[2]); b.hi[2] = in(p[2], kL); break;
      case 1: b.lo[2] = b.hi[2] = shift(p[2], 2, 1); b.hi[2] = in(b.lo[2], kL); break;
      default: b.hi[2] = shift(p[2], 2, -1); b.lo[2] = in(1, b.hi[2]); break;
    }
    return b;
  }

  void add(Move m, LayoutGeometry& geom) {
    const Box base = recs_.empty() ? fresh() : recs_[pick(
        static_cast<std::uint32_t>(recs_.size()))];
    Box b = base;
    int along = 3;  // the base's varying axis, if any
    for (int a = 0; a < 3; ++a)
      if (base.lo[a] != base.hi[a]) along = a;
    const int fixed = along == 3 ? static_cast<int>(pick(3))
                                 : (along + 1 + static_cast<int>(pick(2))) % 3;
    auto move_axis = [&](int a, int by) {
      b.lo[a] = shift(b.lo[a], a, by);
      b.hi[a] = shift(b.hi[a], a, by);
    };
    switch (m) {
      case kFresh: b = fresh(); break;
      case kDuplicate: break;
      case kParallelOneApart:
        move_axis(fixed, sign());
        if (along < 3) move_axis(along, static_cast<int>(pick(3)) - 1);
        break;
      case kAdjacentLayer:
        if (base.via) {
          b = fresh();
          b.via = false;
          b.lo[2] = b.hi[2] = shift(base.hi[2], 2, 1);
        } else {
          move_axis(2, sign());
          if (along < 3) move_axis(along, static_cast<int>(pick(5)) - 2);
        }
        break;
      case kDiagonal: {
        const std::array<std::uint32_t, 3> p = point_of(base, false);
        const int a1 = static_cast<int>(pick(3));
        const int a2 = (a1 + 1 + static_cast<int>(pick(2))) % 3;
        b = {p, p, false};
        move_axis(a1, sign());
        move_axis(a2, sign());
        if (pick(2)) {  // grow away along a third direction or keep a point
          const int a3 = 3 - a1 - a2;
          b.hi[a3] = in(b.lo[a3], kMax[a3]);
          b.via = a3 == 2;
        }
        break;
      }
      case kZeroLength: {
        const std::array<std::uint32_t, 3> p = point_of(base, pick(2));
        b = {p, p, false};
        if (pick(3)) move_axis(static_cast<int>(pick(3)), sign());
        break;
      }
      case kViaAtRunEnd: b = via_at(point_of(base, false)); break;
      case kViaMidRun: b = via_at(point_of(base, true)); break;
      case kBoxThroughViaInterior: {
        const std::array<std::uint32_t, 3> p = point_of(base, true);
        b = {p, p, true};
        b.lo[2] = shift(p[2], 2, -1);
        b.hi[2] = shift(p[2], 2, 1);
        NodeBox& box = geom.boxes[pick(2)];
        box.layer = static_cast<std::uint16_t>((b.lo[2] + b.hi[2]) / 2);
        box.w = box.h = 1;
        box.x = p[0];
        box.y = p[1];
        break;
      }
      case kNumMoves: break;
    }
    recs_.push_back(b);
  }
};

TEST(CheckerOracle, RandomCornerFramesMatchThePointModel) {
  CornerFrames frames(20261022);
  std::array<std::uint32_t, 4> verdicts{};  // ok, disconnected, misses, other
  Graph g(2);
  LayoutGeometry geom;
  for (int i = 0; i < 2000; ++i) {
    frames.make(g, geom);
    for (ViaRule rule : {ViaRule::kBlocking, ViaRule::kTransparent})
      ASSERT_EQ(oracle_mismatches(g, geom, {.via_rule = rule}),
                std::vector<std::string>{})
          << "frame " << i;
    const std::optional<Diagnostic> d =
        testing::ConnectivityOracle(g, geom).verify(0);
    ++verdicts[!d ? 0
               : d->code == Code::kEdgeDisconnected   ? 1
               : d->code == Code::kEdgeMissesTerminal ? 2
                                                      : 3];
  }
  // Each move and each verdict is well represented (about 1,000 moves of
  // each kind and 375 / 983 / 642 verdicts at this seed).
  for (std::uint32_t m = 0; m < CornerFrames::kNumMoves; ++m)
    EXPECT_GE(frames.moves[m], 500u) << "move " << m;
  EXPECT_GE(verdicts[0], 150u);
  EXPECT_GE(verdicts[1], 400u);
  EXPECT_GE(verdicts[2], 300u);
}

TEST(CheckerOracle, EveryFamilyMatchesThePointModel) {
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::size_t layouts = 0;
  for (const api::Family* fam : reg.families()) {
    const auto spec = reg.parse(fam->sample);
    ASSERT_TRUE(spec) << fam->sample;
    const auto o = reg.build(*spec);
    ASSERT_TRUE(o) << fam->sample;
    for (std::uint32_t L : {2u, 3u, 4u, 8u}) {
      const MultilayerLayout ml = realize(*o, {.L = L});
      for (ViaRule rule : {ViaRule::kBlocking, ViaRule::kTransparent})
        EXPECT_EQ(oracle_mismatches(o->graph, ml.geom, {.via_rule = rule}),
                  std::vector<std::string>{})
            << fam->sample << " L=" << L;
      ++layouts;
    }
  }
  EXPECT_GE(layouts, 4u * 14u);
}

// ---- Many records on one edge ------------------------------------------------
// Phase 3 must stay near-linear in one edge's record count: each input has
// 200,000 records on edge 0 and must match the oracle well inside the test's
// ctest timeout.

constexpr std::uint32_t kManyRecords = 200'000;

/// Nodes 0 and 1 joined by edge 0, with 1×1 layer-1 boxes at `a` and `b`.
struct OneEdge {
  Graph g{2};
  LayoutGeometry geom;

  OneEdge(std::uint32_t width, std::uint32_t height,
          std::pair<std::uint32_t, std::uint32_t> a,
          std::pair<std::uint32_t, std::uint32_t> b) {
    g.add_edge(0, 1);
    geom.num_layers = 2;
    geom.width = width;
    geom.height = height;
    geom.boxes = {{a.first, a.second, 1, 1, 0}, {b.first, b.second, 1, 1, 1}};
  }

  std::vector<std::string> diagnostics() const {
    EXPECT_EQ(oracle_mismatches(g, geom, {}), std::vector<std::string>{});
    DiagnosticSink sink(64);
    Checker(g, geom).check(sink);
    return rendered(sink);
  }
};

TEST(CheckerManyRecords, UnitStaircase) {
  constexpr std::uint32_t kSteps = kManyRecords / 2;
  OneEdge t(kSteps + 1, kSteps + 1, {0, 0}, {kSteps, kSteps});
  for (std::uint32_t i = 0; i < kSteps; ++i) {
    t.geom.segs.push_back({i, i, i + 1, i, 1, 0});
    t.geom.segs.push_back({i + 1, i, i + 1, i + 1, 1, 0});
  }
  EXPECT_EQ(t.diagnostics(), Diags{});
}

TEST(CheckerManyRecords, IsolatedDotsTwoTracksApart) {
  OneEdge t(2, 2 * kManyRecords, {1, 0}, {1, 2 * kManyRecords - 2});
  for (std::uint32_t i = 0; i < kManyRecords; ++i)
    t.geom.segs.push_back({0, 2 * i, 0, 2 * i, 1, 0});
  EXPECT_EQ(t.diagnostics(), Diags{"edge 0 wire is disconnected at (0,2,1)"});
}

TEST(CheckerManyRecords, SideBySideTwoPointColumns) {
  OneEdge t(kManyRecords, 2, {0, 1}, {kManyRecords - 1, 1});
  for (std::uint32_t i = 0; i < kManyRecords; ++i)
    t.geom.segs.push_back({i, 0, i, 1, 1, 0});
  EXPECT_EQ(t.diagnostics(), Diags{});
}

TEST(CheckerManyRecords, ExactDuplicatesOfOneRun) {
  OneEdge t(8, 1, {0, 0}, {7, 0});
  t.geom.segs.assign(kManyRecords, WireSeg{0, 0, 7, 0, 1, 0});
  EXPECT_EQ(t.diagnostics(), Diags{});
}

}  // namespace
}  // namespace mlvl
