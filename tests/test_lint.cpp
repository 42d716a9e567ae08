// mlvl-lint test suite: registry stability, per-rule detection on handmade
// geometries, config/baseline policy, and — the load-bearing half — proof
// that every family construction the repo emits is lint-clean at every L it
// supports (the linter's discipline rules encode exactly what realize()
// promises, so a finding here is a bug in one or the other).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "core/checker.hpp"
#include "core/gridkey.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/cluster_layout.hpp"
#include "layout/folded_hc_layout.hpp"
#include "layout/cayley_layout.hpp"
#include "layout/ghc_layout.hpp"
#include "layout/hsn_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/isn_layout.hpp"
#include "layout/kary_layout.hpp"
#include "topology/ring.hpp"

namespace mlvl {
namespace {

using analysis::LintBaseline;
using analysis::LintConfig;
using analysis::LintRule;
using analysis::LintStats;
using analysis::lint_layout;

// --- shared helpers ---------------------------------------------------------

/// Config with every rule disabled except `r`: per-rule tests must not
/// trip on the scaffolding (a 3-point test frame has bbox slack, etc.).
LintConfig only(LintRule r) {
  LintConfig cfg;
  cfg.enabled.fill(false);
  cfg.enabled[static_cast<std::size_t>(r)] = true;
  return cfg;
}

std::size_t hits(const LintStats& s, LintRule r) {
  return s.per_rule[static_cast<std::size_t>(r)];
}

Graph two_node_graph() {
  Graph g(2);
  g.add_edge(0, 1);
  return g;
}

/// Realize at each L, assert checker-valid, then assert zero lint findings
/// under the layout's own via rule.
void expect_lint_clean(const Orthogonal2Layer& o,
                       std::initializer_list<std::uint32_t> Ls) {
  ASSERT_TRUE(o.is_valid());
  for (std::uint32_t L : Ls) {
    MultilayerLayout ml = realize(o, {.L = L});
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    ASSERT_TRUE(res.ok) << "L=" << L << ": " << res.error;
    LintConfig cfg;
    cfg.via_rule = ml.required_rule;
    DiagnosticSink sink(256);
    LintStats stats = lint_layout(o.graph, ml.geom, cfg, sink);
    EXPECT_TRUE(stats.clean()) << "L=" << L << ": " << sink.summary();
    EXPECT_EQ(stats.suppressed, 0u) << "L=" << L;
  }
}

// --- registry ---------------------------------------------------------------

TEST(LintRegistry, CoversEveryRuleInOrder) {
  auto reg = analysis::lint_registry();
  ASSERT_EQ(reg.size(), analysis::kNumLintRules);
  for (std::size_t i = 0; i < reg.size(); ++i)
    EXPECT_EQ(static_cast<std::size_t>(reg[i].rule), i);
}

TEST(LintRegistry, IdsAreStableAndMatchCodeNames) {
  // These ids are the public contract (baselines, -disable, test labels):
  // renaming one silently invalidates every existing baseline file.
  const char* const expected[] = {
      "layer-parity",       "turn-via-group",  "via-span-wide",
      "thompson-knock-knee", "terminal-riser-offtrack",
      "zero-length-seg",    "mergeable-runs",  "redundant-via",
      "dead-track",         "bbox-slack",
  };
  auto reg = analysis::lint_registry();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    EXPECT_STREQ(reg[i].id, expected[i]);
    EXPECT_STREQ(reg[i].id, code_name(reg[i].code));
    auto round = analysis::lint_rule_from_id(reg[i].id);
    ASSERT_TRUE(round.has_value()) << reg[i].id;
    EXPECT_EQ(*round, reg[i].rule);
  }
  EXPECT_FALSE(analysis::lint_rule_from_id("no-such-rule").has_value());
}

// --- discipline rules on handmade geometries --------------------------------

TEST(LintRules, LayerParityFlagsMisplacedRuns) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 8;
  geom.segs.push_back({0, 0, 3, 0, /*layer=*/2, 0});  // horizontal on even
  geom.segs.push_back({5, 0, 5, 3, /*layer=*/3, 0});  // vertical on odd
  geom.segs.push_back({0, 2, 3, 2, /*layer=*/3, 0});  // fine
  geom.segs.push_back({7, 0, 7, 3, /*layer=*/4, 0});  // fine
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kLayerParity), sink);
  EXPECT_EQ(hits(s, LintRule::kLayerParity), 2u);
  EXPECT_EQ(sink.count(Code::kLintLayerParity), 2u);
}

TEST(LintRules, LayerParityAllowsOddTopVerticalGroup) {
  // Odd L: the unpaired vertical group legally rides the top (odd) layer.
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 5;
  geom.width = geom.height = 8;
  geom.segs.push_back({5, 0, 5, 3, /*layer=*/5, 0});
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kLayerParity), sink);
  EXPECT_EQ(s.reported, 0u);
  // The same run with an even layer count is a finding.
  geom.num_layers = 6;
  sink.clear();
  s = lint_layout(g, geom, only(LintRule::kLayerParity), sink);
  EXPECT_EQ(hits(s, LintRule::kLayerParity), 1u);
}

TEST(LintRules, TurnViaGroupFlagsCrossGroupVias) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 6;
  geom.width = geom.height = 8;
  geom.vias.push_back({0, 0, 2, 3, 0});  // straddles groups 1 and 2
  geom.vias.push_back({1, 0, 3, 4, 0});  // group 2: fine
  geom.vias.push_back({2, 0, 1, 2, 0});  // terminal riser: not a turn via
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kTurnViaGroup), sink);
  EXPECT_EQ(hits(s, LintRule::kTurnViaGroup), 1u);
}

TEST(LintRules, TurnViaGroupAllowsOddTopJunction) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 5;
  geom.width = geom.height = 8;
  geom.vias.push_back({0, 0, 3, 5, 0});  // documented odd-L junction via
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kTurnViaGroup), sink);
  EXPECT_EQ(s.reported, 0u);
  // Same span in an even-L layout is a cross-group via.
  geom.num_layers = 6;
  sink.clear();
  s = lint_layout(g, geom, only(LintRule::kTurnViaGroup), sink);
  EXPECT_EQ(hits(s, LintRule::kTurnViaGroup), 1u);
}

TEST(LintRules, ViaSpanWideOnlyUnderBlockingRule) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 6;
  geom.width = geom.height = 8;
  geom.vias.push_back({0, 0, 3, 5, 0});   // two boundaries
  geom.vias.push_back({1, 0, 3, 4, 0});   // one boundary: fine
  geom.vias.push_back({2, 0, 1, 4, 0});   // terminal riser: exempt
  LintConfig cfg = only(LintRule::kViaSpanWide);
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, cfg, sink);
  EXPECT_EQ(hits(s, LintRule::kViaSpanWide), 1u);
  cfg.via_rule = ViaRule::kTransparent;  // declared stacked-via target
  sink.clear();
  s = lint_layout(g, geom, cfg, sink);
  EXPECT_EQ(s.reported, 0u);
}

TEST(LintRules, KnockKneeFlagsSharedBendAtTwoLayers) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = geom.height = 8;
  // Edge 0 bends at (2,2) on layer 1; edge 1 bends there on layer 2. The
  // checker sees two disjoint layers; physically both wires turn on the
  // same grid vertex — the classic knock-knee.
  geom.segs.push_back({0, 2, 2, 2, 1, 0});
  geom.segs.push_back({2, 2, 2, 5, 2, 1});
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kThompsonKnockKnee), sink);
  ASSERT_EQ(hits(s, LintRule::kThompsonKnockKnee), 1u);
  const Diagnostic& d = sink.diagnostics().front();
  EXPECT_EQ(d.edge, 0u);
  EXPECT_EQ(d.edge2, 1u);
  // One edge turning on its own (H meets V) is not a knock-knee.
  geom.segs[1].edge = 0;
  sink.clear();
  s = lint_layout(g, geom, only(LintRule::kThompsonKnockKnee), sink);
  EXPECT_EQ(s.reported, 0u);
}

TEST(LintRules, KnockKneeOnlyAppliesToTwoLayerModel) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  LayoutGeometry geom;
  geom.num_layers = 4;  // multilayer model: bends on distinct layers are fine
  geom.width = geom.height = 8;
  geom.segs.push_back({0, 2, 2, 2, 1, 0});
  geom.segs.push_back({2, 2, 2, 5, 2, 1});
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kThompsonKnockKnee), sink);
  EXPECT_EQ(s.reported, 0u);
}

TEST(LintRules, TerminalRiserInteriorLanding) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 8;
  geom.boxes.push_back({0, 0, 4, 4, 0, 1});
  geom.vias.push_back({2, 2, 1, 2, 0});  // lands mid-box
  geom.vias.push_back({0, 2, 1, 2, 0});  // perimeter terminal: fine
  DiagnosticSink sink(16);
  LintStats s =
      lint_layout(g, geom, only(LintRule::kTerminalRiserOfftrack), sink);
  ASSERT_EQ(hits(s, LintRule::kTerminalRiserOfftrack), 1u);
  EXPECT_EQ(sink.diagnostics().front().node, 0u);
}

// --- canonical-form rules on handmade geometries ----------------------------

TEST(LintRules, ZeroLengthSeg) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = geom.height = 8;
  geom.segs.push_back({3, 3, 3, 3, 1, 0});  // degenerate stub
  geom.segs.push_back({0, 0, 4, 0, 1, 0});
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kZeroLengthSeg), sink);
  EXPECT_EQ(hits(s, LintRule::kZeroLengthSeg), 1u);
}

TEST(LintRules, MergeableRunsAbuttingAndOverlapping) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = geom.height = 16;
  geom.segs.push_back({0, 0, 3, 0, 1, 0});
  geom.segs.push_back({4, 0, 6, 0, 1, 0});   // abuts the first
  geom.segs.push_back({8, 0, 12, 0, 1, 0});  // gap of one point: fine
  geom.segs.push_back({0, 2, 0, 4, 2, 0});
  geom.segs.push_back({0, 3, 0, 6, 2, 0});   // overlaps vertically
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kMergeableRuns), sink);
  EXPECT_EQ(hits(s, LintRule::kMergeableRuns), 2u);
}

TEST(LintRules, MergeableRunsIgnoresOtherEdgesAndLayers) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 16;
  geom.segs.push_back({0, 0, 3, 0, 1, 0});
  geom.segs.push_back({4, 0, 6, 0, 1, 1});  // different edge
  geom.segs.push_back({4, 0, 6, 0, 3, 0});  // different layer
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kMergeableRuns), sink);
  EXPECT_EQ(s.reported, 0u);
}

TEST(LintRules, RedundantViaOverlapAndExactDuplicate) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 6;
  geom.width = geom.height = 8;
  geom.vias.push_back({0, 0, 1, 2, 0});
  geom.vias.push_back({0, 0, 2, 3, 0});  // overlapping column
  geom.vias.push_back({1, 0, 3, 4, 0});
  geom.vias.push_back({1, 0, 3, 4, 0});  // exact duplicate
  geom.vias.push_back({2, 0, 1, 2, 0});
  geom.vias.push_back({2, 0, 4, 5, 0});  // gap in z: fine
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kRedundantVia), sink);
  EXPECT_EQ(hits(s, LintRule::kRedundantVia), 2u);
}

TEST(LintRules, DeadTrackReportsGapRuns) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 8;
  geom.height = 1;
  geom.segs.push_back({0, 0, 1, 0, 1, 0});
  geom.segs.push_back({5, 0, 7, 0, 1, 0});  // columns 2..4 dead
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kDeadTrack), sink);
  ASSERT_EQ(hits(s, LintRule::kDeadTrack), 1u);
  EXPECT_NE(sink.diagnostics().front().detail.find("2..4"),
            std::string::npos);
}

TEST(LintRules, BboxSlackReportsMargins) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 8;
  geom.height = 4;
  geom.segs.push_back({1, 0, 3, 0, 1, 0});  // left=1, right=4, bottom=3
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kBboxSlack), sink);
  ASSERT_EQ(hits(s, LintRule::kBboxSlack), 1u);
  // A frame tight to content is quiet.
  geom.width = 4;
  geom.height = 1;
  geom.segs[0] = {0, 0, 3, 0, 1, 0};
  sink.clear();
  s = lint_layout(g, geom, only(LintRule::kBboxSlack), sink);
  EXPECT_EQ(s.reported, 0u);
}

// --- config and baseline policy ---------------------------------------------

TEST(LintPolicy, DisableSilencesARule) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 8;
  geom.segs.push_back({0, 0, 3, 0, 2, 0});  // layer-parity finding
  LintConfig cfg = only(LintRule::kLayerParity);
  cfg.disable(LintRule::kLayerParity);
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, cfg, sink);
  EXPECT_EQ(s.reported, 0u);
  EXPECT_EQ(s.suppressed, 0u);  // disabled != suppressed
}

TEST(LintPolicy, PromoteMakesFindingsErrors) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 8;
  geom.segs.push_back({0, 0, 3, 0, 2, 0});
  LintConfig cfg = only(LintRule::kLayerParity);
  cfg.promote(LintRule::kLayerParity);
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, cfg, sink);
  EXPECT_EQ(s.reported, 1u);
  EXPECT_EQ(sink.errors(), 1u);
  EXPECT_EQ(sink.warnings(), 0u);
}

TEST(LintPolicy, BaselineSuppressesExactFingerprint) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 8;
  geom.segs.push_back({0, 0, 3, 0, 2, 0});
  geom.segs.push_back({0, 2, 3, 2, 4, 0});  // second, different finding
  LintConfig cfg = only(LintRule::kLayerParity);
  // Learn the first finding's fingerprint, then re-lint with it baselined.
  DiagnosticSink probe(16);
  lint_layout(g, geom, cfg, probe);
  ASSERT_EQ(probe.size(), 2u);
  cfg.baseline.add(analysis::lint_fingerprint(probe.diagnostics()[0]));
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, cfg, sink);
  EXPECT_EQ(s.reported, 1u);
  EXPECT_EQ(s.suppressed, 1u);
}

TEST(LintPolicy, BaselineWildcardSuppressesWholeRule) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 8;
  geom.segs.push_back({0, 0, 3, 0, 2, 0});
  geom.segs.push_back({0, 2, 3, 2, 4, 0});
  LintConfig cfg = only(LintRule::kLayerParity);
  cfg.baseline.add("layer-parity *");
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, cfg, sink);
  EXPECT_EQ(s.reported, 0u);
  EXPECT_EQ(s.suppressed, 2u);
  EXPECT_TRUE(s.clean());
}

TEST(LintPolicy, BaselineParseAndWriteRoundTrip) {
  std::istringstream in(
      "# comment line\n"
      "  layer-parity edge=3 at=(1,2,4)   # trailing comment\n"
      "\n"
      "dead-track *\n"
      "dead-track *\n");  // duplicate collapses
  LintBaseline b = LintBaseline::parse(in);
  EXPECT_EQ(b.size(), 2u);
  std::ostringstream out;
  b.write(out);
  std::istringstream again(out.str());
  EXPECT_EQ(LintBaseline::parse(again).size(), 2u);
  Diagnostic d;
  d.code = Code::kLintLayerParity;
  d.edge = 3;
  d.has_point = true;
  d.x = 1;
  d.y = 2;
  d.layer = 4;
  EXPECT_TRUE(b.suppresses(d));
  d.x = 5;  // different place: not suppressed
  EXPECT_FALSE(b.suppresses(d));
}

TEST(LintPolicy, FingerprintOmitsAbsentFields) {
  Diagnostic d;
  d.code = Code::kLintBboxSlack;
  EXPECT_EQ(analysis::lint_fingerprint(d), "bbox-slack");
  d.code = Code::kLintKnockKnee;
  d.edge = 1;
  d.edge2 = 2;
  d.has_point = true;
  d.x = 4;
  d.y = 7;
  d.layer = 2;
  EXPECT_EQ(analysis::lint_fingerprint(d),
            "thompson-knock-knee edge=1 edge2=2 at=(4,7,2)");
}

TEST(LintPolicy, ProducersStopAtSinkCapacity) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 64;
  for (std::uint32_t y = 0; y < 16; ++y)
    geom.segs.push_back({0, y, 3, y, 2, 0});  // 16 layer-parity findings
  DiagnosticSink sink(4);
  LintStats s = lint_layout(g, geom, only(LintRule::kLayerParity), sink);
  EXPECT_EQ(s.reported, 4u);
  EXPECT_EQ(sink.size(), 4u);
}

// --- every family construction is lint-clean --------------------------------

TEST(LintFamilies, KaryNatural) {
  expect_lint_clean(layout::layout_kary(3, 3), {2, 4, 6});
}

TEST(LintFamilies, KaryFolded) {
  expect_lint_clean(layout::layout_kary(4, 2, Ordering::kFolded), {2, 4});
}

TEST(LintFamilies, KaryOneDimension) {
  expect_lint_clean(layout::layout_kary(5, 1), {2, 4});
}

TEST(LintFamilies, KaryMesh) {
  expect_lint_clean(layout::layout_kary_mesh(4, 3), {2, 4});
}

TEST(LintFamilies, Hypercube) {
  expect_lint_clean(layout::layout_hypercube(4), {2, 4, 8});
}

TEST(LintFamilies, HypercubeOddL) {
  // Odd L exercises the unpaired-group exceptions in layer-parity,
  // turn-via-group, and via-span-wide (required_rule is kTransparent).
  expect_lint_clean(layout::layout_hypercube(4), {3, 5});
}

TEST(LintFamilies, GhcUniform) {
  expect_lint_clean(layout::layout_ghc(4, 2), {2, 4});
}

TEST(LintFamilies, GhcMixed) {
  expect_lint_clean(layout::layout_ghc({3, 4, 2}), {2, 4});
}

TEST(LintFamilies, FoldedHypercube) {
  expect_lint_clean(layout::layout_folded_hypercube(4), {2, 4});
}

TEST(LintFamilies, EnhancedCube) {
  expect_lint_clean(layout::layout_enhanced_cube(4, 99), {2, 4});
}

TEST(LintFamilies, Ccc) { expect_lint_clean(layout::layout_ccc(4), {2, 4, 8}); }

TEST(LintFamilies, ReducedHypercube) {
  expect_lint_clean(layout::layout_reduced_hypercube(4), {2, 4});
}

TEST(LintFamilies, Hsn) {
  expect_lint_clean(layout::layout_hsn(3, topo::make_ring(4)), {2, 4});
}

TEST(LintFamilies, Hhn) { expect_lint_clean(layout::layout_hhn(2, 3), {2, 4}); }

TEST(LintFamilies, Isn) { expect_lint_clean(layout::layout_isn(3, 3), {2, 4}); }

TEST(LintFamilies, Butterfly) {
  expect_lint_clean(layout::layout_butterfly(4), {2, 4});
}

TEST(LintFamilies, StructuredStarGraph) {
  expect_lint_clean(layout::layout_star_structured(4), {2, 4});
}

TEST(LintFamilies, KaryCluster) {
  expect_lint_clean(
      layout::layout_kary_cluster(3, 2, 4, topo::ClusterKind::kHypercube),
      {2, 4});
}


// --- indexed rules agree with their linear-scan references -----------------

// Test-only references: the linear-scan bodies of terminal-riser-offtrack and
// thompson-knock-knee, and the per-row/column bitmap behind dead-track and
// bbox-slack, as they were before the rules moved to a box grid and interval
// merging. The production rules must report the same findings in the same
// order on any geometry, checked or not.
namespace oracle {

using analysis::detail::LintEmit;

bool is_run(const WireSeg& s) { return s.x1 != s.x2 || s.y1 != s.y2; }

Diagnostic at(std::uint32_t x, std::uint32_t y, std::uint16_t layer) {
  Diagnostic d;
  d.has_point = true;
  d.x = x;
  d.y = y;
  d.layer = layer;
  return d;
}

void thompson_knock_knee(const LayoutGeometry& geom, const LintEmit& emit) {
  if (geom.num_layers != 2) return;
  auto in_some_box = [&](std::uint32_t x, std::uint32_t y) {
    return std::any_of(geom.boxes.begin(), geom.boxes.end(),
                       [&](const NodeBox& b) { return b.contains(x, y); });
  };
  struct Bend {
    std::uint64_t key;
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
    while (i + 1 < bends.size() && bends[i + 1].key == bends[i].key) ++i;
  }
}

void terminal_riser_offtrack(const LayoutGeometry& geom, const LintEmit& emit) {
  for (const Via& v : geom.vias) {
    if (v.z2 < v.z1) continue;
    for (const NodeBox& b : geom.boxes) {
      if (b.w <= 2 || b.h <= 2) continue;
      if (b.layer < v.z1 || b.layer > v.z2) continue;
      if (!b.contains(v.x, v.y)) continue;
      const bool interior = v.x > b.x && v.x + 1 < b.x + b.w && v.y > b.y &&
                            v.y + 1 < b.y + b.h;
      if (!interior) continue;
      Diagnostic d = at(v.x, v.y, b.layer);
      d.edge = v.edge;
      d.node = b.node;
      emit(std::move(d));
      break;
    }
  }
}

struct Occupancy {
  std::vector<bool> col, row;
  std::uint32_t minx = 0, maxx = 0, miny = 0, maxy = 0;
  bool any = false;

  explicit Occupancy(const LayoutGeometry& geom)
      : col(geom.width), row(geom.height) {
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
      for (std::uint32_t x = x1; x <= x2; ++x) col[x] = true;
      for (std::uint32_t y = y1; y <= y2; ++y) row[y] = true;
    };
    for (const NodeBox& b : geom.boxes)
      if (b.w > 0 && b.h > 0) mark(b.x, b.y, b.x + b.w - 1, b.y + b.h - 1);
    for (const WireSeg& s : geom.segs) mark(s.x1, s.y1, s.x2, s.y2);
    for (const Via& v : geom.vias) mark(v.x, v.y, v.x, v.y);
  }
};

bool frame_too_large(const LayoutGeometry& geom) {
  return geom.width > grid::kCoordMax || geom.height > grid::kCoordMax;
}

void dead_track(const LayoutGeometry& geom, const LintEmit& emit) {
  if (frame_too_large(geom)) return;
  const Occupancy occ(geom);
  if (!occ.any) return;
  auto report_gaps = [&](const std::vector<bool>& used, std::uint32_t lo,
                         std::uint32_t hi, bool is_col) {
    std::uint32_t i = lo;
    while (i <= hi) {
      if (used[i]) {
        ++i;
        continue;
      }
      const std::uint32_t start = i;
      while (i <= hi && !used[i]) ++i;
      Diagnostic d = is_col ? at(start, 0, 0) : at(0, start, 0);
      d.detail = std::string(is_col ? "columns " : "rows ") +
                 std::to_string(start) + ".." + std::to_string(i - 1) +
                 " carry no geometry";
      emit(std::move(d));
    }
  };
  if (occ.maxx > occ.minx) report_gaps(occ.col, occ.minx + 1, occ.maxx - 1, true);
  if (occ.maxy > occ.miny) report_gaps(occ.row, occ.miny + 1, occ.maxy - 1, false);
}

void bbox_slack(const LayoutGeometry& geom, const LintEmit& emit) {
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

void run(LintRule r, const LayoutGeometry& geom, const LintEmit& emit) {
  switch (r) {
    case LintRule::kThompsonKnockKnee: return thompson_knock_knee(geom, emit);
    case LintRule::kTerminalRiserOfftrack:
      return terminal_riser_offtrack(geom, emit);
    case LintRule::kDeadTrack: return dead_track(geom, emit);
    case LintRule::kBboxSlack: return bbox_slack(geom, emit);
    default: break;
  }
}

}  // namespace oracle

constexpr LintRule kOracleRules[] = {
    LintRule::kThompsonKnockKnee, LintRule::kTerminalRiserOfftrack,
    LintRule::kDeadTrack, LintRule::kBboxSlack};

/// Every finding rendered with its location fields, in emission order.
template <typename Run>
std::vector<std::string> rendered_findings(LintRule r, Run&& run) {
  std::vector<std::string> out;
  run([&](Diagnostic d) {
    d.code = analysis::lint_rule_info(r).code;
    out.push_back(d.to_string() + " | " + analysis::lint_fingerprint(d));
  });
  return out;
}

/// Findings compared per rule of kOracleRules, so tests can check that their
/// inputs give every rule something to report.
using OracleCounts = std::array<std::size_t, std::size(kOracleRules)>;

/// Asserts the production rules match the references on `geom`, adding the
/// number of findings compared to `compared`.
void expect_oracle_agrees(const Graph& g, const LayoutGeometry& geom,
                          const std::string& what, OracleCounts& compared) {
  const LintConfig cfg;
  for (std::size_t i = 0; i < std::size(kOracleRules); ++i) {
    const LintRule r = kOracleRules[i];
    const auto got = rendered_findings(r, [&](const auto& emit) {
      analysis::detail::run_lint_rule(r, g, geom, cfg, emit);
    });
    const auto want = rendered_findings(
        r, [&](const auto& emit) { oracle::run(r, geom, emit); });
    EXPECT_EQ(got, want) << what << ": " << analysis::lint_rule_info(r).id;
    compared[i] += want.size();
  }
}

void expect_every_rule_compared(const OracleCounts& compared,
                                std::size_t at_least) {
  for (std::size_t i = 0; i < std::size(kOracleRules); ++i)
    EXPECT_GE(compared[i], at_least)
        << analysis::lint_rule_info(kOracleRules[i]).id;
}

/// Seeded random geometry that no checker has seen: overlapping boxes,
/// boxes 0, 1 or 2 points wide, a few boxes far wider than the rest, vias
/// with z2 < z1, records and boxes past the frame, and now and then
/// coordinates near 2^32 whose box extents wrap.
LayoutGeometry random_geometry(std::mt19937_64& rng) {
  auto pick = [&](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };
  LayoutGeometry geom;
  geom.num_layers = static_cast<std::uint16_t>(pick(0, 2) == 0 ? pick(3, 5) : 2);
  geom.width = pick(0, 9) == 0 ? pick(0, 3) : pick(4, 40);
  geom.height = pick(0, 9) == 0 ? pick(0, 3) : pick(4, 40);
  const std::uint32_t spread = pick(0, 4) == 0 ? 4000 : 1;  // sparse boxes
  const std::uint32_t span = std::max(geom.width, geom.height) + 6;
  auto coord = [&] {
    return pick(0, 19) == 0 ? pick(0xFFFFFFE0u, 0xFFFFFFFFu) : pick(0, span);
  };
  const std::uint32_t nboxes = pick(0, 24);
  for (std::uint32_t i = 0; i < nboxes; ++i) {
    NodeBox b;
    b.x = pick(0, 19) == 0 ? coord() : pick(0, span) * spread;
    b.y = pick(0, 19) == 0 ? coord() : pick(0, span) * spread;
    b.w = pick(0, 7) == 0 ? pick(10, 40) : pick(0, 5);
    b.h = pick(0, 7) == 0 ? pick(10, 40) : pick(0, 5);
    if (pick(0, 29) == 0) b.w = 0x40;  // wraps when x is near 2^32
    b.node = pick(0, 3);
    b.layer = static_cast<std::uint16_t>(pick(1, geom.num_layers + 1));
    geom.boxes.push_back(b);
  }
  const std::uint32_t nsegs = pick(0, 40);
  for (std::uint32_t i = 0; i < nsegs; ++i) {
    WireSeg s;
    s.x1 = coord();
    s.y1 = coord();
    switch (pick(0, 4)) {
      case 0: s.x2 = s.x1, s.y2 = s.y1; break;             // stub
      case 1: s.x2 = coord(), s.y2 = coord(); break;       // malformed
      case 2: s.x2 = std::max(s.x1, coord()), s.y2 = s.y1; break;
      default: s.x2 = s.x1, s.y2 = std::max(s.y1, coord()); break;
    }
    s.layer = static_cast<std::uint16_t>(pick(1, geom.num_layers + 1));
    s.edge = pick(0, 4);
    geom.segs.push_back(s);
  }
  const std::uint32_t nvias = pick(0, 40);
  for (std::uint32_t i = 0; i < nvias; ++i) {
    Via v;
    if (!geom.boxes.empty() && pick(0, 1) == 0) {  // aim inside a box
      const NodeBox& b = geom.boxes[pick(0, nboxes - 1)];
      v.x = b.x + pick(0, std::max<std::uint32_t>(b.w, 1) - 1);
      v.y = b.y + pick(0, std::max<std::uint32_t>(b.h, 1) - 1);
    } else {
      v.x = coord();
      v.y = coord();
    }
    v.z1 = static_cast<std::uint16_t>(pick(1, geom.num_layers + 1));
    v.z2 = static_cast<std::uint16_t>(pick(0, 3) == 0 ? pick(0, v.z1)
                                                      : pick(v.z1, geom.num_layers + 1));
    v.edge = pick(0, 4);
    geom.vias.push_back(v);
  }
  return geom;
}

TEST(LintOracle, RandomUncheckedGeometryMatchesLinearScans) {
  Graph g(4);
  for (NodeId u = 0; u < 4; ++u)
    for (NodeId v = u + 1; v < 4; ++v) g.add_edge(u, v);
  std::mt19937_64 rng(20240611);
  OracleCounts compared{};
  for (int i = 0; i < 3000; ++i)
    expect_oracle_agrees(g, random_geometry(rng),
                         "random geometry #" + std::to_string(i), compared);
  expect_every_rule_compared(compared, 200);
}

TEST(LintOracle, FamilyLayoutsMatchLinearScans) {
  const Orthogonal2Layer layouts[] = {
      layout::layout_kary(3, 3),
      layout::layout_kary(4, 2, Ordering::kFolded),
      layout::layout_kary(5, 1),
      layout::layout_kary_mesh(4, 3),
      layout::layout_hypercube(4),
      layout::layout_ghc(4, 2),
      layout::layout_ghc({3, 4, 2}),
      layout::layout_folded_hypercube(4),
      layout::layout_enhanced_cube(4, 99),
      layout::layout_ccc(4),
      layout::layout_reduced_hypercube(4),
      layout::layout_hsn(3, topo::make_ring(4)),
      layout::layout_hhn(2, 3),
      layout::layout_isn(3, 3),
      layout::layout_butterfly(4),
      layout::layout_star_structured(4),
      layout::layout_kary_cluster(3, 2, 4, topo::ClusterKind::kHypercube),
  };
  OracleCounts compared{};
  for (std::size_t i = 0; i < std::size(layouts); ++i)
    for (std::uint32_t L : {2u, 3u, 4u, 16u}) {
      MultilayerLayout ml = realize(layouts[i], {.L = L});
      const std::string what =
          "layout #" + std::to_string(i) + " L=" + std::to_string(L);
      expect_oracle_agrees(layouts[i].graph, ml.geom, what, compared);
      // The same layout damaged so the rules have findings: every third
      // edge unrouted (its tracks go dead), and every via and run end
      // nudged one point (risers land in box interiors, bends meet).
      std::erase_if(ml.geom.segs, [](const WireSeg& s) { return s.edge % 3 == 0; });
      std::erase_if(ml.geom.vias, [](const Via& v) { return v.edge % 3 == 0; });
      for (Via& v : ml.geom.vias) ++v.x, ++v.y;
      for (WireSeg& s : ml.geom.segs) ++s.x2, ++s.y1;
      expect_oracle_agrees(layouts[i].graph, ml.geom, what + " (nudged)",
                           compared);
    }
  expect_every_rule_compared(compared, 20);
}

}  // namespace
}  // namespace mlvl
