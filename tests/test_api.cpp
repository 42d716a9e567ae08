// The public family-spec API: the registry covers every documented family,
// each sample spec round-trips parse -> canonicalize -> format and actually
// builds; positional and named arguments resolve identically; parse failures
// are structured diagnostics naming the offending parameter (never a silent
// std::atoi zero); and option validation rejects L outside [2, 1024] at the
// boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/layout_api.hpp"
#include "core/checker.hpp"

namespace mlvl::api {
namespace {

/// The documented built-in family list (README / DESIGN Sec. 7.7), sorted.
const std::vector<std::string> kDocumentedFamilies = {
    "butterfly", "ccc", "cluster", "enhanced", "folded", "ghc",  "hhn",
    "hsn",       "hypercube", "isn", "kary",   "mesh",   "rh",   "star",
};

TEST(FamilyRegistry, CoversEveryDocumentedFamily) {
  const FamilyRegistry& reg = FamilyRegistry::instance();
  std::vector<std::string> names;
  for (const Family* f : reg.families()) names.push_back(f->name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names, kDocumentedFamilies);
  EXPECT_EQ(reg.size(), kDocumentedFamilies.size());
}

TEST(FamilyRegistry, EveryFamilyHasParamsSummaryAndSample) {
  const FamilyRegistry& reg = FamilyRegistry::instance();
  for (const Family* f : reg.families()) {
    EXPECT_FALSE(f->summary.empty()) << f->name;
    EXPECT_FALSE(f->params.empty()) << f->name;
    EXPECT_FALSE(f->sample.empty()) << f->name;
    EXPECT_TRUE(static_cast<bool>(f->build)) << f->name;
  }
}

// The sample spec of every family is canonical (format(parse(s)) == s) and
// builds a layout that survives the full pipeline including the geometric
// checker at L=2 — one end-to-end proof per family through the public API.
TEST(FamilyRegistry, SampleSpecsRoundTripAndBuild) {
  const FamilyRegistry& reg = FamilyRegistry::instance();
  for (const Family* f : reg.families()) {
    DiagnosticSink sink(8);
    std::optional<FamilySpec> spec = reg.parse(f->sample, &sink);
    ASSERT_TRUE(spec.has_value()) << f->name << ": " << sink.summary();
    EXPECT_EQ(format_family_spec(*spec), f->sample) << f->name;
    // Canonical specs list every declared parameter in declaration order.
    ASSERT_EQ(spec->params.size(), f->params.size()) << f->name;
    for (std::size_t i = 0; i < f->params.size(); ++i)
      EXPECT_EQ(spec->params[i].name, f->params[i].name) << f->name;

    LayoutRequest req;
    req.spec = *spec;
    req.options = {.L = 2};
    LayoutResult res = run_layout(req, &sink);
    ASSERT_TRUE(res.ok) << f->name << ": " << res.error;
    EXPECT_GT(res.nodes, 0u) << f->name;
    EXPECT_GT(res.metrics.area, 0u) << f->name;
    EXPECT_GT(res.check_report.points, 0u) << f->name;
  }
}

TEST(FamilyRegistry, PositionalAndNamedArgumentsResolveIdentically) {
  const FamilyRegistry& reg = FamilyRegistry::instance();
  std::optional<FamilySpec> named = reg.parse("kary(k=3,n=2)");
  std::optional<FamilySpec> positional = reg.parse("kary(3,2)");
  std::optional<FamilySpec> cli = reg.parse_cli({"kary", "3", "2"});
  std::optional<FamilySpec> cli_named = reg.parse_cli({"kary", "n=2", "k=3"});
  ASSERT_TRUE(named && positional && cli && cli_named);
  EXPECT_EQ(*named, *positional);
  EXPECT_EQ(*named, *cli);
  EXPECT_EQ(*named, *cli_named);
  EXPECT_EQ(format_family_spec(*named), "kary(k=3,n=2)");
}

TEST(FamilyRegistry, OptionalParametersFillFromDefaults) {
  const FamilyRegistry& reg = FamilyRegistry::instance();
  std::optional<FamilySpec> bf = reg.parse("butterfly(k=3)");
  ASSERT_TRUE(bf.has_value());
  EXPECT_EQ(bf->value_or("b", 0), 2u);

  std::optional<FamilySpec> isn = reg.parse("isn(levels=2,r=4)");
  ASSERT_TRUE(isn.has_value());
  EXPECT_EQ(isn->value_or("links", 0), 2u);

  std::optional<FamilySpec> enh = reg.parse("enhanced(n=4)");
  ASSERT_TRUE(enh.has_value());
  EXPECT_EQ(enh->value_or("seed", 0), 1u);
}

TEST(FamilySpec, UnknownFamilyIsStructured) {
  DiagnosticSink sink(8);
  EXPECT_FALSE(FamilyRegistry::instance().parse("moebius(n=4)", &sink));
  EXPECT_TRUE(sink.has(Code::kSpecUnknownFamily)) << sink.summary();
}

TEST(FamilySpec, UnknownParameterIsNamedInDetail) {
  DiagnosticSink sink(8);
  EXPECT_FALSE(FamilyRegistry::instance().parse("hypercube(m=4)", &sink));
  ASSERT_TRUE(sink.has(Code::kSpecUnknownParam)) << sink.summary();
  ASSERT_NE(sink.first(), nullptr);
  EXPECT_NE(sink.first()->to_string().find("m"), std::string::npos);
}

TEST(FamilySpec, MissingRequiredParameterIsNamedInDetail) {
  DiagnosticSink sink(8);
  EXPECT_FALSE(FamilyRegistry::instance().parse("kary(k=3)", &sink));
  ASSERT_TRUE(sink.has(Code::kSpecMissingParam)) << sink.summary();
  EXPECT_NE(sink.first()->to_string().find("n"), std::string::npos);
}

// Regression: the pre-API front ends fed argv through std::atoi, so
// `hypercube abc` silently became n=0. The spec parser must reject it.
TEST(FamilySpec, NonNumericValueIsAnErrorNotZero) {
  DiagnosticSink sink(8);
  EXPECT_FALSE(FamilyRegistry::instance().parse("hypercube(n=abc)", &sink));
  EXPECT_TRUE(sink.has(Code::kSpecBadValue)) << sink.summary();
}

TEST(FamilySpec, OutOfRangeValueIsAnError) {
  DiagnosticSink sink(8);
  EXPECT_FALSE(FamilyRegistry::instance().parse("hypercube(n=99)", &sink));
  EXPECT_TRUE(sink.has(Code::kSpecBadValue)) << sink.summary();
}

TEST(FamilySpec, DuplicateParameterIsAnError) {
  DiagnosticSink sink(8);
  EXPECT_FALSE(FamilyRegistry::instance().parse("kary(k=3,k=4,n=2)", &sink));
  EXPECT_TRUE(sink.has(Code::kSpecBadValue)) << sink.summary();
}

// Constraints the declaration cannot express still surface as structured
// kSpecBadValue through FamilyRegistry::build instead of escaping as
// std::invalid_argument.
TEST(FamilyRegistry, BuildTimeConstraintBecomesDiagnostic) {
  const FamilyRegistry& reg = FamilyRegistry::instance();
  DiagnosticSink sink(8);
  std::optional<FamilySpec> spec = reg.parse("cluster(k=4,n=2,c=3)", &sink);
  ASSERT_TRUE(spec.has_value()) << sink.summary();  // 3 is in declared range
  EXPECT_FALSE(reg.build(*spec, &sink).has_value());
  EXPECT_TRUE(sink.has(Code::kSpecBadValue)) << sink.summary();
}

TEST(ValidateOptions, RejectsDegenerateLayerCounts) {
  for (std::uint32_t L : {0u, 1u, 1025u}) {
    DiagnosticSink sink(4);
    EXPECT_FALSE(validate_options({.L = L}, &sink)) << L;
    ASSERT_TRUE(sink.has(Code::kSpecBadLayerCount)) << L;
    // The diagnostic names the offending value.
    EXPECT_NE(sink.first()->to_string().find(std::to_string(L)),
              std::string::npos);
  }
  EXPECT_TRUE(validate_options({.L = 2}));
  EXPECT_TRUE(validate_options({.L = 1024}));
}

TEST(RunLayout, EndToEndThroughTheFacade) {
  LayoutRequest req;
  req.spec = *FamilyRegistry::instance().parse("hypercube(n=4)");
  req.options = {.L = 4};
  LayoutResult res = run_layout(req);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.nodes, 16u);
  EXPECT_EQ(res.edges, 32u);
  EXPECT_EQ(format_family_spec(res.spec), "hypercube(n=4)");
  EXPECT_GT(res.metrics.volume, 0u);
  // The facade ran the real checker: re-checking the returned geometry
  // reproduces its verdict.
  std::optional<Orthogonal2Layer> o =
      FamilyRegistry::instance().build(req.spec);
  ASSERT_TRUE(o.has_value());
  EXPECT_TRUE(check_layout(o->graph, res.layout).ok);
}

TEST(RunLayout, CheckReportRidesTheResult) {
  LayoutRequest req;
  req.spec = *FamilyRegistry::instance().parse("hypercube(n=4)");
  req.options = {.L = 4};
  req.check_options.threads = 2;  // via_rule is overridden by the layout's
  LayoutResult res = run_layout(req);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.check_report.ok);
  EXPECT_GT(res.check_report.points, 0u);
  EXPECT_GT(res.check_report.bands, 0u);
  EXPECT_EQ(res.check_report.bands_checked, res.check_report.bands);
  EXPECT_EQ(res.check_report.bands_skipped, 0u);

  // check=false leaves the report in its default state.
  req.check = false;
  LayoutResult unchecked = run_layout(req);
  ASSERT_TRUE(unchecked.ok) << unchecked.error;
  EXPECT_FALSE(unchecked.check_report.ok);
  EXPECT_EQ(unchecked.check_report.points, 0u);
}

TEST(RunLayout, BadLayerCountFailsWithDiagnostic) {
  DiagnosticSink sink(4);
  LayoutRequest req;
  req.spec = *FamilyRegistry::instance().parse("hypercube(n=3)");
  req.options = {.L = 1};
  LayoutResult res = run_layout(req, &sink);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
  EXPECT_TRUE(sink.has(Code::kSpecBadLayerCount)) << sink.summary();
}

TEST(Expand, RangePatternsCrossProductInDeclarationOrder) {
  const FamilyRegistry& reg = FamilyRegistry::instance();
  std::optional<std::vector<FamilySpec>> specs =
      reg.expand("hypercube(n=4..6)");
  ASSERT_TRUE(specs.has_value());
  ASSERT_EQ(specs->size(), 3u);
  EXPECT_EQ(format_family_spec((*specs)[0]), "hypercube(n=4)");
  EXPECT_EQ(format_family_spec((*specs)[2]), "hypercube(n=6)");

  std::optional<std::vector<FamilySpec>> grid =
      reg.expand("kary(k=2..3,n=1..2)");
  ASSERT_TRUE(grid.has_value());
  ASSERT_EQ(grid->size(), 4u);
  // Later-declared parameters vary fastest.
  EXPECT_EQ(format_family_spec((*grid)[0]), "kary(k=2,n=1)");
  EXPECT_EQ(format_family_spec((*grid)[1]), "kary(k=2,n=2)");
  EXPECT_EQ(format_family_spec((*grid)[2]), "kary(k=3,n=1)");
  EXPECT_EQ(format_family_spec((*grid)[3]), "kary(k=3,n=2)");
}

TEST(Expand, OversizedExpansionFailsInsteadOfAllocating) {
  DiagnosticSink sink(8);
  EXPECT_FALSE(
      FamilyRegistry::instance().expand("kary(k=2..64,n=1..10)", &sink, 16));
  EXPECT_TRUE(sink.has(Code::kSpecBadValue)) << sink.summary();
}

TEST(ParseUint, StrictWholeStringParse) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("17"), 17u);
  EXPECT_EQ(parse_uint("9999999999999999999"), 9999999999999999999ull);
  EXPECT_FALSE(parse_uint(""));
  EXPECT_FALSE(parse_uint("-3"));
  EXPECT_FALSE(parse_uint("3x"));
  EXPECT_FALSE(parse_uint("18446744073709551616"));  // > 19 digits: overflow
}

}  // namespace
}  // namespace mlvl::api
