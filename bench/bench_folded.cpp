// Experiment T5.3 — Sec. 5.3 folded hypercubes (49N^2/(9L^2)) and enhanced
// cubes (100N^2/(9L^2)), under both the paper's reserved-track accounting and
// our packed mode (the paper notes packing "may reduce" the area).
#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_util.hpp"
#include "layout/folded_hc_layout.hpp"
#include "layout/hypercube_layout.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T5.3: folded hypercube / enhanced cube vs paper ===\n";
  analysis::Table t({"network", "n", "N", "L", "area(paper)",
                     "area(reserved)", "ratio", "area(packed)", "pack_gain"});
  for (std::uint32_t n : {6u, 7u, 8u}) {
    Orthogonal2Layer fh = layout::layout_folded_hypercube(n);
    const std::uint64_t N = fh.graph.num_nodes();
    for (std::uint32_t L : {2u, 4u}) {
      const bench::Measured res = bench::measure(fh, L, /*pack_extras=*/false);
      const bench::Measured pk =
          bench::measure(fh, L, /*pack_extras=*/true, "folded");
      const double pa = formulas::folded_hypercube_area(N, L);
      t.begin_row().cell("folded-HC").cell(std::uint64_t(n)).cell(N)
          .cell(std::uint64_t(L)).cell(pa, 0)
          .cell(std::uint64_t(res.metrics.wiring_area))
          .cell(bench::ratio(double(res.metrics.wiring_area), pa), 3)
          .cell(std::uint64_t(pk.metrics.wiring_area))
          .cell(double(res.metrics.wiring_area) / pk.metrics.wiring_area, 2);
    }
  }
  for (std::uint32_t n : {6u, 7u}) {
    Orthogonal2Layer ec = layout::layout_enhanced_cube(n, 2026);
    const std::uint64_t N = ec.graph.num_nodes();
    for (std::uint32_t L : {2u, 4u}) {
      const bench::Measured res = bench::measure(ec, L, false);
      const bench::Measured pk = bench::measure(ec, L, true);
      const double pa = formulas::enhanced_cube_area(N, L);
      t.begin_row().cell("enhanced").cell(std::uint64_t(n)).cell(N)
          .cell(std::uint64_t(L)).cell(pa, 0)
          .cell(std::uint64_t(res.metrics.wiring_area))
          .cell(bench::ratio(double(res.metrics.wiring_area), pa), 3)
          .cell(std::uint64_t(pk.metrics.wiring_area))
          .cell(double(res.metrics.wiring_area) / pk.metrics.wiring_area, 2);
    }
  }
  std::cout << t.str();

  std::cout << "\n=== T5.3b: cost of the extra links over the plain "
               "hypercube (paper: 49/16 resp. 100/16) ===\n";
  analysis::Table r({"n", "L", "plain_area", "folded_area", "ratio(49/16=3.06)",
                     "enhanced_area", "ratio(100/16=6.25)"});
  for (std::uint32_t n : {6u, 8u}) {
    Orthogonal2Layer hc = layout::layout_hypercube(n);
    Orthogonal2Layer fh = layout::layout_folded_hypercube(n);
    Orthogonal2Layer ec = layout::layout_enhanced_cube(n, 2026);
    for (std::uint32_t L : {2u, 4u}) {
      const bench::Measured mh = bench::measure(hc, L);
      const bench::Measured mf = bench::measure(fh, L, false);
      const bench::Measured me = bench::measure(ec, L, false);
      r.begin_row().cell(std::uint64_t(n)).cell(std::uint64_t(L))
          .cell(std::uint64_t(mh.metrics.wiring_area))
          .cell(std::uint64_t(mf.metrics.wiring_area))
          .cell(double(mf.metrics.wiring_area) / mh.metrics.wiring_area, 2)
          .cell(std::uint64_t(me.metrics.wiring_area))
          .cell(double(me.metrics.wiring_area) / mh.metrics.wiring_area, 2);
    }
  }
  std::cout << r.str();
}

void BM_FoldedRealize(benchmark::State& state) {
  Orthogonal2Layer o = layout::layout_folded_hypercube(
      static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    MultilayerLayout ml = realize(o, {.L = 4});
    benchmark::DoNotOptimize(ml.geom.width);
  }
}

BENCHMARK(BM_FoldedRealize)->Arg(6)->Arg(8)->Arg(10);

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_bench_flags(argc, argv);
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
