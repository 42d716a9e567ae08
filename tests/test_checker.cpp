#include "core/checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/gridkey.hpp"

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
// Phase 3 expands one edge at a time into per-worker scratch; these pin the
// point model it must keep: 6-neighbour adjacency between any two points of
// one edge (with or without a via), vias as full z-columns, and the first
// stranded point in key order named by the diagnostic.

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

}  // namespace
}  // namespace mlvl
