// Experiment T5.1 — Sec. 5.1 hypercubes: floor(2N/3)-track collinear factor,
// area 16N^2/(9L^2), max wire 2N/(3L).
#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_util.hpp"
#include "core/collinear.hpp"
#include "layout/hypercube_layout.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T5.1: hypercube layouts vs paper ===\n";
  analysis::Table t({"n", "N", "L", "area(paper)", "area(meas)", "ratio",
                     "maxwire(paper)", "maxwire(meas)", "ratio_w"});
  for (std::uint32_t n : {6u, 8u, 10u}) {
    Orthogonal2Layer o = layout::layout_hypercube(n);
    const std::uint64_t N = o.graph.num_nodes();
    for (std::uint32_t L : {2u, 4u, 8u}) {
      const bench::Measured m =
          bench::measure(o, L, /*pack_extras=*/true, "hypercube");
      const double pa = formulas::hypercube_area(N, L);
      const double pw = formulas::hypercube_max_wire(N, L);
      t.begin_row().cell(std::uint64_t(n)).cell(N).cell(std::uint64_t(L))
          .cell(pa, 0).cell(std::uint64_t(m.metrics.wiring_area))
          .cell(bench::ratio(double(m.metrics.wiring_area), pa), 3)
          .cell(pw, 0).cell(std::uint64_t(m.metrics.max_wire_length))
          .cell(bench::ratio(m.metrics.max_wire_length, pw), 3);
    }
  }
  std::cout << t.str();

  std::cout << "\n=== T5.1b: collinear factor track counts ===\n";
  analysis::Table c({"n", "N", "floor(2N/3)", "measured"});
  for (std::uint32_t n = 2; n <= 12; n += 2) {
    CollinearResult r = collinear_hypercube(n);
    c.begin_row().cell(std::uint64_t(n)).cell(r.graph.num_nodes())
        .cell(hypercube_track_formula(n)).cell(std::uint64_t(r.layout.num_tracks));
  }
  std::cout << c.str();
}

void BM_LayoutHypercube(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Orthogonal2Layer o = layout::layout_hypercube(n);
    benchmark::DoNotOptimize(o.graph.num_edges());
  }
}

void BM_RealizeAndCheckHypercube(benchmark::State& state) {
  Orthogonal2Layer o =
      layout::layout_hypercube(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    const bench::Measured m = bench::measure(o, 8);
    benchmark::DoNotOptimize(m.metrics.area);
  }
}

BENCHMARK(BM_LayoutHypercube)->Arg(8)->Arg(10)->Arg(12);
BENCHMARK(BM_RealizeAndCheckHypercube)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_bench_flags(argc, argv);
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
