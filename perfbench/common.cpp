#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "analysis/formulas.hpp"
#include "bench.hpp"

namespace perfbench {

namespace {

/// Names of the spans the benchmark opens around its layer calls.
constexpr std::string_view kLayerSpans[] = {
    "layout.build",    "multilayer.realize", "checker.check",
    "metrics.compute", "lint.lint",          "engine.run",
    "io.parse",        "repair.repair",      "checker.final_check",
};

}  // namespace

LayerTrace::LayerTrace() : t0_(Clock::now()) { session_.install(); }

LayerTrace::~LayerTrace() {
  if (mlvl::obs::TraceSession::current() == &session_)
    mlvl::obs::TraceSession::uninstall();
}

void LayerTrace::stop() {
  mlvl::obs::TraceSession::uninstall();
  wall_ms_ = ms_between(t0_, Clock::now());
  for (mlvl::obs::PhaseStats& p : mlvl::obs::profile_session(session_).phases)
    if (std::find(std::begin(kLayerSpans), std::end(kLayerSpans), p.name) !=
        std::end(kLayerSpans))
      layers_.push_back(std::move(p));
}

double LayerTrace::total_ms(std::string_view layer) const {
  for (const mlvl::obs::PhaseStats& p : layers_)
    if (p.name == layer) return double(p.incl_us) / 1e3;
  return 0;
}

std::uint64_t LayerTrace::count(std::string_view layer) const {
  for (const mlvl::obs::PhaseStats& p : layers_)
    if (p.name == layer) return p.count;
  return 0;
}

double LayerTrace::mean_ms(std::string_view layer) const {
  const std::uint64_t n = count(layer);
  return n == 0 ? 0.0 : total_ms(layer) / double(n);
}

double LayerTrace::covered_ms() const {
  double t = 0;
  for (const mlvl::obs::PhaseStats& p : layers_) t += double(p.incl_us) / 1e3;
  return t;
}

void merge(Measured& into, const Measured& from) {
  auto append = [](auto& a, const auto& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(into.op_ms, from.op_ms);
  append(into.op_class, from.op_class);
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.verdict_ok += from.verdict_ok;
  append(into.area_ratio, from.area_ratio);
  append(into.max_wire_ratio, from.max_wire_ratio);
  into.wire_after += from.wire_after;
  into.wire_before += from.wire_before;
  append(into.mismatches, from.mismatches);
}

void finish_trace(Measured& m, const LayerTrace& tr, double untraced_ms,
                  double traced_ms, double wall) {
  m.per_layer.push_back({"bench.trace_overhead_share",
                         (traced_ms - untraced_ms) / untraced_ms, "share",
                         "same rounds, traced vs untraced"});
  m.per_layer.push_back({"bench.unattributed_share",
                         1.0 - tr.covered_ms() / wall, "share",
                         "trace wall covered by no layer span"});
  char buf[160];
  for (const mlvl::obs::PhaseStats& p : tr.layers()) {
    const double ms = double(p.incl_us) / 1e3;
    std::snprintf(buf, sizeof buf,
                  "layer  %-22s %10.1f ms  %5.1f%%  calls=%llu",
                  p.name.c_str(), ms, 100.0 * ms / wall,
                  static_cast<unsigned long long>(p.count));
    m.notes.emplace_back(buf);
  }
  std::snprintf(buf, sizeof buf, "layer  %-22s %10.1f ms  %5.1f%%",
                "(unattributed)", wall - tr.covered_ms(),
                100.0 * (wall - tr.covered_ms()) / wall);
  m.notes.emplace_back(buf);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

Tail tail(const std::vector<double>& v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  if (v.size() <= 10) {
    t.value = *std::max_element(v.begin(), v.end());
    return t;
  }
  // Largest integer p with n * (1 - p/100) >= 10.
  const double n = static_cast<double>(v.size());
  t.pct = static_cast<int>(std::floor(100.0 * (n - 10.0) / n));
  t.value = percentile(v, t.pct);
  return t;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

PaperTerms paper_terms(const mlvl::api::FamilySpec& spec, std::uint64_t N,
                       std::uint32_t L) {
  namespace f = mlvl::formulas;
  const std::string& fam = spec.family;
  auto u32 = [&](const char* p) {
    return static_cast<std::uint32_t>(spec.value_or(p, 0));
  };
  if (fam == "hypercube")
    return {f::hypercube_area(N, L), f::hypercube_max_wire(N, L)};
  if (fam == "kary") return {f::kary_area(N, u32("k"), L), std::nullopt};
  if (fam == "ghc")
    return {f::ghc_area(N, u32("r"), L), f::ghc_max_wire(N, u32("r"), L)};
  if (fam == "butterfly")
    return {f::butterfly_area(N, L), f::butterfly_max_wire(N, L)};
  if (fam == "ccc") return {f::ccc_area(N, L), std::nullopt};
  if (fam == "folded") return {f::folded_hypercube_area(N, L), std::nullopt};
  if (fam == "enhanced") return {f::enhanced_cube_area(N, L), std::nullopt};
  return {};
}

void add_paper_ratios(Measured& m, const mlvl::api::FamilySpec& spec,
                      std::uint64_t nodes, std::uint32_t L,
                      const mlvl::LayoutMetrics& met) {
  const PaperTerms t = paper_terms(spec, nodes, L);
  if (t.area) m.area_ratio.push_back(double(met.wiring_area) / *t.area);
  if (t.max_wire)
    m.max_wire_ratio.push_back(double(met.max_wire_length) / *t.max_wire);
}

std::vector<std::string> formula_table(
    const std::vector<std::string>& families) {
  struct Row {
    const char* family;
    const char* area;
    const char* max_wire;
  };
  static const Row kRows[] = {
      {"hypercube", "16N^2/(9L^2)  Sec. 5.1", "2N/(3L)  Sec. 5.1"},
      {"kary", "16N^2/(L^2 k^2)  Sec. 3.1", "excluded: no closed form"},
      {"ghc", "r^2 N^2/(4L^2)  Sec. 4.1", "rN/(2L)  Sec. 4.1"},
      {"butterfly", "4N^2/(L^2 log^2 N)  Sec. 4.2",
       "2N/(L log N)  Sec. 4.2"},
      {"ccc", "16N^2/(9L^2 log^2 N)  Sec. 5.2", "excluded: no closed form"},
      {"folded", "49N^2/(9L^2)  Sec. 5.3", "excluded: no closed form"},
      {"enhanced", "100N^2/(9L^2)  Sec. 5.3", "excluded: no closed form"},
  };
  std::vector<std::string> out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "formula  %-10s %-32s %s", "family",
                "area_vs_paper term", "max_wire_vs_paper term");
  out.emplace_back(buf);
  for (const Row& r : kRows) {
    if (std::find(families.begin(), families.end(), r.family) ==
        families.end())
      continue;
    std::snprintf(buf, sizeof buf, "formula  %-10s %-32s %s", r.family,
                  r.area, r.max_wire);
    out.emplace_back(buf);
  }
  out.emplace_back(
      "formula  (L^2 reads L^2 - 1 for odd L; N counts nodes; the measured "
      "area is the wiring area, node boxes excluded)");
  return out;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
