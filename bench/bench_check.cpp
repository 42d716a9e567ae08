// Experiment C-perf — the band-sharded occupancy checker: full-pass
// throughput, serial and parallel. Each fixture also lands in the
// consolidated baseline so bench-diff gates the check phase like any other
// phase, and a paper-scale fixture (hypercube(12) at L = 2, the Thompson
// model) adds baseline rows for the full check and for lint, whose
// knock-knee rule runs only at L = 2. A repair row times rip-up and
// re-route of a seeded damaged hypercube(10) at L = 4 plus its fresh check.
#include <benchmark/benchmark.h>

#include <chrono>
#include <stdexcept>
#include <vector>

#include "analysis/lint.hpp"
#include "bench_util.hpp"
#include "core/checker.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"
#include "robustness/fault_injector.hpp"
#include "robustness/repair.hpp"

namespace {

using namespace mlvl;

struct CheckFixture {
  Orthogonal2Layer o;
  MultilayerLayout ml;
};

CheckFixture& hypercube_fixture() {
  static CheckFixture f = [] {
    CheckFixture fx{layout::layout_hypercube(8), {}};
    fx.ml = realize(fx.o, {.L = 64});
    return fx;
  }();
  return f;
}

CheckFixture& kary_fixture() {
  static CheckFixture f = [] {
    CheckFixture fx{layout::layout_kary(4, 4), {}};
    fx.ml = realize(fx.o, {.L = 64});
    return fx;
  }();
  return f;
}

CheckFixture& paper_scale_fixture() {
  static CheckFixture f = [] {
    CheckFixture fx{layout::layout_hypercube(12), {}};
    fx.ml = realize(fx.o, {.L = 2});
    return fx;
  }();
  return f;
}

CheckFixture& repair_fixture() {
  static CheckFixture f = [] {
    CheckFixture fx{layout::layout_hypercube(10), {}};
    fx.ml = realize(fx.o, {.L = 4});
    return fx;
  }();
  return f;
}

CheckFixture& fixture(int id) {
  return id == 0 ? hypercube_fixture() : kary_fixture();
}

/// Full pass over every band; range(0) picks the fixture, range(1) the
/// worker count.
void BM_CheckFull(benchmark::State& state) {
  CheckFixture& f = fixture(static_cast<int>(state.range(0)));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    Checker checker(f.o.graph, f.ml.geom,
                    {.via_rule = f.ml.required_rule, .threads = threads});
    CheckReport rep = checker.check();
    if (!rep.ok) state.SkipWithError(rep.error.c_str());
    benchmark::DoNotOptimize(rep.points);
  }
  state.SetItemsProcessed(state.iterations() * f.o.graph.num_edges());
}

BENCHMARK(BM_CheckFull)
    ->Args({0, 1})
    ->Args({0, 8})
    ->Args({1, 1})
    ->Args({1, 8})
    ->Unit(benchmark::kMillisecond);

/// Baseline row: wall statistics of the full check, per fixture. The cost
/// columns carry the layout's exact dimensions plus the checker's
/// deterministic claim count (as wiring_area), so any change in what the
/// checker examines fails the diff loudly.
void record_baseline_row(const char* family, CheckFixture& f) {
  const bench::BenchConfig& cfg = bench::config();

  bench::BenchRecord full;
  full.family = std::string(family) + "-checkfull";
  full.L = f.ml.geom.num_layers;
  full.nodes = f.o.graph.num_nodes();
  std::uint64_t points = 0;
  {
    std::vector<double> samples;
    for (std::uint32_t i = 0; i < cfg.warmup + cfg.repeats; ++i) {
      Checker checker(f.o.graph, f.ml.geom,
                      {.via_rule = f.ml.required_rule});
      const auto t0 = std::chrono::steady_clock::now();
      CheckReport rep = checker.check();
      const auto t1 = std::chrono::steady_clock::now();
      if (!rep.ok)
        throw std::runtime_error("bench_check: invalid layout: " + rep.error);
      points = rep.points;
      if (i >= cfg.warmup)
        samples.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    bench::apply_wall_stats(full, std::move(samples));
  }
  full.area = f.ml.geom.area();
  full.volume = f.ml.geom.volume();
  full.vias = f.ml.geom.vias.size();
  full.wiring_area = points;
  bench::BenchRecorder::instance().add(full);
}

/// Baseline row: wall statistics of lint_layout with every rule enabled.
/// The cost columns carry the layout's dimensions plus, as wiring_area, the
/// record count lint scans; a finding fails the run (the layout is clean).
void record_lint_row(const char* family, CheckFixture& f) {
  const bench::BenchConfig& cfg = bench::config();
  const LayoutGeometry& geom = f.ml.geom;
  analysis::LintConfig lint_cfg;
  lint_cfg.via_rule = f.ml.required_rule;

  bench::BenchRecord row;
  row.family = std::string(family) + "-lint";
  row.L = geom.num_layers;
  row.nodes = f.o.graph.num_nodes();
  std::vector<double> samples;
  for (std::uint32_t i = 0; i < cfg.warmup + cfg.repeats; ++i) {
    DiagnosticSink sink(16);
    const auto t0 = std::chrono::steady_clock::now();
    const analysis::LintStats stats =
        analysis::lint_layout(f.o.graph, geom, lint_cfg, sink);
    const auto t1 = std::chrono::steady_clock::now();
    if (!stats.clean())
      throw std::runtime_error("bench_check: lint findings: " + sink.summary());
    if (i >= cfg.warmup)
      samples.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  bench::apply_wall_stats(row, std::move(samples));
  row.area = geom.area();
  row.volume = geom.volume();
  row.vias = geom.vias.size();
  row.wiring_area = geom.segs.size() + geom.vias.size() + geom.boxes.size();
  bench::BenchRecorder::instance().add(row);
}

/// Baseline row: wall statistics of repair_layout on a copy of the layout
/// with eight seeded repairable faults, plus the fresh check that verifies
/// the result. The cost columns carry the repaired layout's dimensions and
/// via count plus, as wiring_area, its total wire length, so a repair that
/// routes differently fails the diff.
void record_repair_row(const char* family, CheckFixture& f) {
  using robustness::FaultKind;
  constexpr FaultKind kRepairable[] = {
      FaultKind::kShiftSegmentOffTrack, FaultKind::kSwapSegmentLayer,
      FaultKind::kRelabelSegment,       FaultKind::kDiagonalSegment,
      FaultKind::kDropVia,              FaultKind::kDuplicateViaForeign,
      FaultKind::kTruncateViaSpan,      FaultKind::kInvertViaSpan,
      FaultKind::kUnrouteEdge,
  };
  const bench::BenchConfig& cfg = bench::config();
  const CheckOptions check_opt{.via_rule = f.ml.required_rule};
  LayoutGeometry damaged = f.ml.geom;
  for (std::uint64_t i = 0; i < 8; ++i)
    if (!robustness::inject(kRepairable[i % std::size(kRepairable)],
                            f.o.graph, damaged, 1000 + i))
      throw std::runtime_error("bench_check: fault site not found");
  if (Checker(f.o.graph, damaged, check_opt).check().ok)
    throw std::runtime_error("bench_check: seeded faults left no violation");

  bench::BenchRecord row;
  row.family = std::string(family) + "-repair";
  row.L = f.ml.geom.num_layers;
  row.nodes = f.o.graph.num_nodes();
  LayoutGeometry geom;
  std::vector<double> samples;
  for (std::uint32_t i = 0; i < cfg.warmup + cfg.repeats; ++i) {
    geom = damaged;
    const auto t0 = std::chrono::steady_clock::now();
    const robustness::RepairReport rep = robustness::repair_layout(
        f.o.graph, geom, {.rule = f.ml.required_rule});
    const CheckReport check = Checker(f.o.graph, geom, check_opt).check();
    const auto t1 = std::chrono::steady_clock::now();
    if (!rep.ok || !check.ok)
      throw std::runtime_error("bench_check: repair left the layout invalid: " +
                               check.error);
    if (i >= cfg.warmup)
      samples.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  bench::apply_wall_stats(row, std::move(samples));
  row.area = geom.area();
  row.volume = geom.volume();
  row.vias = geom.vias.size();
  for (const WireSeg& s : geom.segs) row.wiring_area += s.length();
  bench::BenchRecorder::instance().add(row);
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_bench_flags(argc, argv);
  record_baseline_row("hypercube", hypercube_fixture());
  record_baseline_row("kary", kary_fixture());
  record_baseline_row("hypercube", paper_scale_fixture());
  record_lint_row("hypercube", paper_scale_fixture());
  record_repair_row("hypercube", repair_fixture());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
