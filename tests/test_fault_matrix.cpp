// The provable detection matrix: every fault-injection operator declares the
// diagnostic code it must trigger, and for every operator there is a fixture
// and seed where it applies — so injecting and re-checking proves the checker
// (or the reader, for text faults) catches the whole catalog, not just the
// corruptions a hand-written test happened to think of.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "connectivity_oracle.hpp"
#include "core/checker.hpp"
#include "core/io.hpp"
#include "core/multilayer.hpp"
#include "layout/ghc_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"
#include "robustness/fault_injector.hpp"

namespace mlvl {
namespace {

using robustness::FaultKind;

struct Case {
  std::string name;
  Orthogonal2Layer o;
  MultilayerLayout ml;
};

std::vector<Case>& fixtures() {
  static std::vector<Case> cases = [] {
    std::vector<Case> out;
    {
      Orthogonal2Layer o = layout::layout_ghc(4, 2);
      MultilayerLayout ml = realize(o, {.L = 4});
      out.push_back({"ghc(4,2)", std::move(o), std::move(ml)});
    }
    {
      Orthogonal2Layer o = layout::layout_kary(3, 2);
      MultilayerLayout ml = realize(o, {.L = 4});
      out.push_back({"kary(3,2)", std::move(o), std::move(ml)});
    }
    return out;
  }();
  return cases;
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 17, 40, 99};

std::vector<std::string> rendered(const DiagnosticSink& sink) {
  std::vector<std::string> out;
  for (const Diagnostic& d : sink.diagnostics()) out.push_back(d.to_string());
  return out;
}

TEST(FaultMatrix, CatalogIsTotal) {
  EXPECT_GE(robustness::all_faults().size(), 10u);
  for (FaultKind k : robustness::all_faults()) {
    EXPECT_NE(robustness::expected_code(k), Code::kNone)
        << robustness::fault_name(k);
    EXPECT_STRNE(robustness::fault_name(k), "unknown");
  }
}

TEST(FaultMatrix, EveryGeometryOperatorTriggersItsDeclaredCode) {
  for (FaultKind k : robustness::all_faults()) {
    if (robustness::is_text_fault(k)) continue;
    // Lint faults keep the layout checker-valid by design; they have their
    // own detection test below.
    if (robustness::is_lint_fault(k)) continue;
    bool applied = false;
    for (Case& c : fixtures()) {
      for (std::uint64_t seed : kSeeds) {
        LayoutGeometry geom = c.ml.geom;
        auto fault = robustness::inject(k, c.o.graph, geom, seed);
        if (!fault) continue;
        applied = true;
        EXPECT_EQ(fault->expected, robustness::expected_code(k));

        DiagnosticSink sink(4096);
        Checker checker(c.o.graph, geom, {.via_rule = c.ml.required_rule});
        CheckReport rep = checker.check(sink);
        EXPECT_TRUE(sink.has(fault->expected))
            << robustness::fault_name(k) << " on " << c.name << " seed "
            << seed << " (" << fault->note << "): got " << sink.summary();
        EXPECT_FALSE(rep.ok) << robustness::fault_name(k);
        // The first-failure convenience must reject the layout too.
        EXPECT_FALSE(checker.check().ok) << robustness::fault_name(k);

        // Eight band workers must reproduce the serial pass exactly.
        DiagnosticSink par_sink(4096);
        CheckReport par = Checker(c.o.graph, geom,
                                  {.via_rule = c.ml.required_rule,
                                   .threads = 8})
                              .check(par_sink);
        const std::string ctx = std::string(robustness::fault_name(k)) +
                                " on " + c.name + " seed " +
                                std::to_string(seed) + " threads 8";
        EXPECT_EQ(par.ok, rep.ok) << ctx;
        EXPECT_EQ(par.error, rep.error) << ctx;
        EXPECT_EQ(par.points, rep.points) << ctx;
        EXPECT_EQ(rendered(par_sink), rendered(sink)) << ctx;

        // Every edge's connectivity verdict matches the point-level oracle.
        for (std::uint32_t threads : {1u, 8u})
          EXPECT_EQ(testing::oracle_mismatches(
                        c.o.graph, geom,
                        {.via_rule = c.ml.required_rule, .threads = threads}),
                    std::vector<std::string>{})
              << robustness::fault_name(k) << " on " << c.name << " seed "
              << seed << " threads " << threads;
      }
    }
    EXPECT_TRUE(applied)
        << robustness::fault_name(k) << " applied to no fixture/seed at all";
  }
}

TEST(FaultMatrix, LintFaultIsInvisibleToCheckerButCaughtByLinter) {
  // The discipline operator must prove the checker/linter division of labor:
  // after demote_to_wrong_layer the layout is still checker-valid (that is
  // the operator's constructive precondition), yet the linter reports the
  // declared layer-parity code. Deep layer stacks leave even layers sparse,
  // so applicable sites are guaranteed on the L=8 fixture.
  std::vector<Case> cases;
  {
    Orthogonal2Layer o = layout::layout_hypercube(3);
    MultilayerLayout ml = realize(o, {.L = 8});
    cases.push_back({"hypercube(3) L=8", std::move(o), std::move(ml)});
  }
  for (Case& c : fixtures()) cases.push_back({c.name, c.o, c.ml});

  ASSERT_TRUE(robustness::is_lint_fault(FaultKind::kDemoteToWrongLayer));
  ASSERT_EQ(robustness::expected_code(FaultKind::kDemoteToWrongLayer),
            Code::kLintLayerParity);

  bool applied = false;
  for (Case& c : cases) {
    // A pristine construction is lint-clean to begin with.
    analysis::LintConfig cfg;
    cfg.via_rule = c.ml.required_rule;
    {
      DiagnosticSink clean_sink(256);
      ASSERT_TRUE(
          analysis::lint_layout(c.o.graph, c.ml.geom, cfg, clean_sink).clean())
          << c.name << ": " << clean_sink.summary();
    }
    for (std::uint64_t seed : kSeeds) {
      LayoutGeometry geom = c.ml.geom;
      auto fault = robustness::inject(FaultKind::kDemoteToWrongLayer,
                                      c.o.graph, geom, seed);
      if (!fault) continue;
      applied = true;
      // Checker-invisible: the mutated layout still passes full validation.
      DiagnosticSink check_sink(4096);
      Checker(c.o.graph, geom, {.via_rule = c.ml.required_rule})
          .check(check_sink);
      EXPECT_TRUE(check_sink.empty())
          << c.name << " seed " << seed << " (" << fault->note
          << "): " << check_sink.summary();
      // Linter-visible: the declared code is reported.
      DiagnosticSink lint_sink(256);
      analysis::lint_layout(c.o.graph, geom, cfg, lint_sink);
      EXPECT_TRUE(lint_sink.has(fault->expected))
          << c.name << " seed " << seed << " (" << fault->note
          << "): " << lint_sink.summary();
    }
  }
  EXPECT_TRUE(applied) << "demote-to-wrong-layer applied to no fixture/seed";
}

TEST(FaultMatrix, EveryTextOperatorTriggersItsDeclaredCode) {
  std::string text;
  {
    Case& c = fixtures()[1];
    std::ostringstream os;
    io::write_graph(os, c.o.graph);
    io::write_geometry(os, c.ml.geom);
    text = os.str();
  }
  for (FaultKind k : robustness::all_faults()) {
    if (!robustness::is_text_fault(k)) continue;
    for (std::uint64_t seed : kSeeds) {
      std::string t = text;
      auto fault = robustness::inject_text(k, t, seed);
      ASSERT_TRUE(fault.has_value()) << robustness::fault_name(k);
      EXPECT_EQ(fault->expected, robustness::expected_code(k));

      std::istringstream is(t);
      DiagnosticSink sink(64);
      EXPECT_FALSE(io::parse_layout(is, &sink).has_value())
          << robustness::fault_name(k);
      EXPECT_TRUE(sink.has(fault->expected))
          << robustness::fault_name(k) << " seed " << seed << ": got "
          << sink.summary();
      // Text diagnostics always carry the input line.
      for (const Diagnostic& d : sink.diagnostics())
        EXPECT_GT(d.line, 0u) << robustness::fault_name(k);
    }
  }
}

TEST(FaultMatrix, InapplicableInjectionLeavesGeometryUntouched) {
  // One edge, no vias: relabel / drop-via / duplicate-via have no site.
  Graph g(2);
  g.add_edge(0, 1);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 3;
  geom.height = 1;
  geom.boxes = {{0, 0, 1, 1, 0, 1}, {2, 0, 1, 1, 1, 1}};
  geom.segs = {{0, 0, 2, 0, 1, 0}};
  ASSERT_TRUE(Checker(g, geom).check().ok);

  auto snapshot = [&] {
    std::ostringstream os;
    io::write_geometry(os, geom);
    return os.str();
  };
  const std::string before = snapshot();
  for (FaultKind k : {FaultKind::kRelabelSegment, FaultKind::kDropVia,
                      FaultKind::kDuplicateViaForeign,
                      FaultKind::kTruncateViaSpan}) {
    EXPECT_FALSE(robustness::inject(k, g, geom, 7).has_value())
        << robustness::fault_name(k);
    EXPECT_EQ(snapshot(), before) << robustness::fault_name(k);
  }
}

TEST(FaultMatrix, ByteCorruptionNeverCrashesTheReader) {
  std::string text;
  {
    Case& c = fixtures()[1];
    std::ostringstream os;
    io::write_graph(os, c.o.graph);
    io::write_geometry(os, c.ml.geom);
    text = os.str();
  }
  int rejected = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    std::string t = robustness::corrupt_bytes(text, seed);
    // A second round for compound damage on half the seeds.
    if (seed % 2 == 1) t = robustness::corrupt_bytes(std::move(t), seed * 977);
    std::istringstream is(t);
    DiagnosticSink sink(32);
    auto loaded = io::parse_layout(is, &sink);
    if (!loaded) {
      // Every rejection is explained: at least one diagnostic, never a crash.
      EXPECT_FALSE(sink.empty()) << "seed " << seed;
      ++rejected;
    }
  }
  // Most corruptions must actually be rejected (flips inside numbers can be
  // benign; wholesale acceptance would mean the reader stopped validating).
  EXPECT_GE(rejected, 150) << rejected << "/300";
}

}  // namespace
}  // namespace mlvl
