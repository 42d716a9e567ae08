// Experiment T4.1 — Sec. 4.1 generalized hypercubes: track formula
// f_r(n) = (N-1) floor(r^2/4)/(r-1), area r^2 N^2/(4 L^2), volume
// r^2 N^2 / (4L), max wire rN/(2L), and max routed wire rN/L.
#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/formulas.hpp"
#include "analysis/routing.hpp"
#include "bench_util.hpp"
#include "layout/ghc_layout.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T4.1a: GHC wiring area / volume vs paper ===\n";
  analysis::Table t({"r", "n", "N", "L", "area(paper)", "area(meas)", "ratio",
                     "maxwire(paper)", "maxwire(meas)", "ratio_w"});
  struct Cfg {
    std::uint32_t r, n;
  };
  for (const Cfg c : {Cfg{4, 2}, Cfg{6, 2}, Cfg{8, 2}, Cfg{4, 3}}) {
    Orthogonal2Layer o = layout::layout_ghc(c.r, c.n);
    const std::uint64_t N = o.graph.num_nodes();
    for (std::uint32_t L : {2u, 4u, 8u}) {
      const bench::Measured m =
          bench::measure(o, L, /*pack_extras=*/true, "ghc");
      const double pa = formulas::ghc_area(N, c.r, L);
      const double pw = formulas::ghc_max_wire(N, c.r, L);
      t.begin_row().cell(std::uint64_t(c.r)).cell(std::uint64_t(c.n)).cell(N)
          .cell(std::uint64_t(L)).cell(pa, 0)
          .cell(std::uint64_t(m.metrics.wiring_area))
          .cell(bench::ratio(double(m.metrics.wiring_area), pa), 3)
          .cell(pw, 0).cell(std::uint64_t(m.metrics.max_wire_length))
          .cell(bench::ratio(m.metrics.max_wire_length, pw), 3);
    }
  }
  std::cout << t.str();

  std::cout << "\n=== T4.1b: max routed wire (claim 4) vs paper rN/L ===\n";
  analysis::Table p({"r", "n", "N", "L", "path(paper)", "path(meas)", "ratio"});
  for (const Cfg c : {Cfg{4, 2}, Cfg{6, 2}}) {
    Orthogonal2Layer o = layout::layout_ghc(c.r, c.n);
    const std::uint64_t N = o.graph.num_nodes();
    for (std::uint32_t L : {2u, 4u, 8u}) {
      const bench::Measured m = bench::measure(o, L);
      const auto st = analysis::max_path_wire(o.graph, m.metrics.edge_length);
      const double pp = formulas::ghc_path_wire(N, c.r, L);
      p.begin_row().cell(std::uint64_t(c.r)).cell(std::uint64_t(c.n)).cell(N)
          .cell(std::uint64_t(L)).cell(pp, 0).cell(st.max_path_wire)
          .cell(bench::ratio(double(st.max_path_wire), pp), 3);
    }
  }
  std::cout << p.str();

  std::cout << "\n=== T4.1c: odd-L divisor (L^2-1) ===\n";
  analysis::Table odd({"r", "L", "area(paper,odd)", "area(meas)", "ratio"});
  Orthogonal2Layer o = layout::layout_ghc(6, 2);
  for (std::uint32_t L : {3u, 5u, 7u}) {
    const bench::Measured m = bench::measure(o, L);
    const double pa = formulas::ghc_area(36, 6, L);
    odd.begin_row().cell(std::uint64_t(6)).cell(std::uint64_t(L)).cell(pa, 0)
        .cell(std::uint64_t(m.metrics.wiring_area))
        .cell(bench::ratio(double(m.metrics.wiring_area), pa), 3);
  }
  std::cout << odd.str();

  std::cout << "\n=== T4.1d: mixed-radix GHCs ===\n";
  analysis::Table mx({"radices", "N", "L", "f(paper)", "max_band", "area(meas)"});
  const std::vector<std::vector<std::uint32_t>> rads = {
      {3, 4}, {4, 3, 2}, {5, 5, 3}};
  for (const auto& rv : rads) {
    Orthogonal2Layer o2 = layout::layout_ghc(rv);
    std::string name;
    for (std::uint32_t r : rv) name += std::to_string(r) + ".";
    for (std::uint32_t L : {2u, 4u}) {
      const bench::Measured m = bench::measure(o2, L);
      mx.begin_row().cell(name).cell(std::uint64_t(o2.graph.num_nodes()))
          .cell(std::uint64_t(L)).cell(ghc_track_formula(rv))
          .cell(std::uint64_t(std::max(o2.max_row_tracks(), o2.max_col_tracks())))
          .cell(std::uint64_t(m.metrics.wiring_area));
    }
  }
  std::cout << mx.str();
}

void BM_LayoutGhc(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Orthogonal2Layer o = layout::layout_ghc(r, 2);
    benchmark::DoNotOptimize(o.graph.num_edges());
  }
}

BENCHMARK(BM_LayoutGhc)->Arg(4)->Arg(8)->Arg(12);

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_bench_flags(argc, argv);
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
