// layout_tool — command-line front end for the whole pipeline: build a
// network, lay it out for L layers, verify, and report/export. Also the
// doctor: load a saved layout, collect every violation with exact
// coordinates, and optionally rip-up/re-route the implicated edges. And the
// profiler: --trace/--metrics record every pipeline phase (topology,
// placement, interval, routing, fold, check, lint, repair) as Chrome
// trace-event JSON and a metrics registry dump, without touching stdout.
// And the sweeper: `sweep` expands family patterns like hypercube(n=6..10)
// across an -L range and runs every job on the parallel batch engine, with
// results printed in submission order (so -j 8 output is byte-identical to
// -j 1); --deadline/--sweep-deadline bound each job / the whole batch with
// cooperative cancellation, --cache-capacity hard-bounds the topology cache
// with LRU eviction, and --journal/--resume checkpoint finished jobs so a
// killed sweep restarts where it stopped, byte-identical to an uninterrupted
// run. And the soak harness: `soak` drives the persistent engine through
// repeated sweeps with a tiny cache, asserting the governance invariants.
// And the perf gate: `bench-diff` compares a fresh BENCH_mlvl.json
// against the committed baseline with noise-aware thresholds and fails the
// build on regressions; `--metrics-interval` samples the metrics registry
// periodically into a time-series JSON during long runs.
//
// Families are resolved through api::FamilyRegistry — the single dispatch
// point shared by every front end — not a per-tool if-else chain.
//
// See examples/layout_tool_usage.hpp for the full usage block (asserted
// current by tests/test_obs.cpp).
//
// exit codes: 0 layout valid (or repaired clean, or lint clean), 1 layout
// invalid / lint error / -strict warnings, 2 input file missing or
// unparseable, 3 usage error.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/congestion.hpp"
#include "analysis/lint.hpp"
#include "analysis/report.hpp"
#include "analysis/routing.hpp"
#include "api/layout_api.hpp"
#include "core/checker.hpp"
#include "core/fold.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "core/svg.hpp"
#include "engine/journal.hpp"
#include "engine/sweep.hpp"
#include "layout_tool_usage.hpp"
#include "obs/bench_compare.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/run_context.hpp"
#include "obs/run_report.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "robustness/repair.hpp"

namespace {

using namespace mlvl;

constexpr int kExitValid = 0;
constexpr int kExitInvalid = 1;
constexpr int kExitParseError = 2;
constexpr int kExitUsage = 3;

/// Flags shared by every mode: observability outputs and verbosity.
/// Verbosity: 0 = --quiet (errors only), 1 = default, 2 = phase summary,
/// 3 = per-span debug dump.
struct CommonOptions {
  std::string trace_path;
  std::string metrics_path;
  std::string report_path;  ///< --report: unified mlvl-run-report-v1 JSON
  std::uint32_t metrics_interval_ms = 0;  ///< 0 = no periodic sampling
  int verbosity = 1;

  [[nodiscard]] bool obs_enabled() const {
    return !trace_path.empty() || !metrics_path.empty() ||
           !report_path.empty() || metrics_interval_ms != 0;
  }
  /// Where the --metrics-interval time series lands: next to the --metrics
  /// file when one was named, else ./metrics_series.json.
  [[nodiscard]] std::string series_path() const {
    return metrics_path.empty() ? "metrics_series.json"
                                : metrics_path + ".series.json";
  }
  [[nodiscard]] bool loud(int level = 1) const { return verbosity >= level; }
};

int usage() {
  std::cerr << tool::kLayoutToolUsage;
  return kExitUsage;
}

/// Pull --trace/--metrics/--quiet/-q/-v out of `args` (any position, any
/// mode) so the per-mode parsers only see their own flags. Returns false on
/// a malformed common flag (missing file argument).
bool extract_common(std::vector<std::string>& args, CommonOptions& opt) {
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--trace") {
      if (i + 1 >= args.size()) return false;
      opt.trace_path = args[++i];
    } else if (args[i] == "--metrics") {
      if (i + 1 >= args.size()) return false;
      opt.metrics_path = args[++i];
    } else if (args[i] == "--metrics-interval") {
      if (i + 1 >= args.size()) return false;
      std::optional<std::uint64_t> ms = api::parse_uint(args[++i]);
      if (!ms || *ms == 0 || *ms > 3600000) return false;
      opt.metrics_interval_ms = static_cast<std::uint32_t>(*ms);
    } else if (args[i] == "--report") {
      if (i + 1 >= args.size()) return false;
      opt.report_path = args[++i];
    } else if (args[i] == "--quiet" || args[i] == "-q") {
      opt.verbosity = 0;
    } else if (args[i] == "-v") {
      if (opt.verbosity < 1) opt.verbosity = 1;
      if (opt.verbosity < 3) ++opt.verbosity;
    } else {
      rest.push_back(args[i]);
    }
  }
  args = std::move(rest);
  return true;
}

void print_diagnostics(const DiagnosticSink& sink) {
  analysis::Table t({"code", "where", "message"});
  for (const Diagnostic& d : sink.diagnostics()) {
    std::string where;
    if (d.line != 0) {
      where = "line " + std::to_string(d.line);
    } else if (d.has_point) {
      where += '(';
      where += std::to_string(d.x);
      where += ',';
      where += std::to_string(d.y);
      where += ',';
      where += std::to_string(d.layer);
      where += ')';
    }
    t.begin_row().cell(code_name(d.code)).cell(where).cell(d.to_string());
  }
  t.print(std::cout);
  std::cout << "summary: " << sink.summary() << "\n";
}

/// Totals line for doctor/lint: full counts survive sink capacity.
void print_totals(const DiagnosticSink& sink) {
  std::cout << "totals: " << sink.total_errors() << " error(s), "
            << sink.total_warnings() << " warning(s) reported";
  if (sink.evicted() != 0)
    std::cout << ", " << sink.evicted() << " warning(s) evicted at capacity";
  std::cout << "\n";
}

/// Publish sink totals to the metrics registry under a mode prefix, e.g.
/// doctor.errors / doctor.warnings / doctor.evicted.
void publish_sink_totals(const std::string& prefix,
                         const DiagnosticSink& sink) {
  obs::gauge_set(prefix + ".errors", static_cast<double>(sink.total_errors()));
  obs::gauge_set(prefix + ".warnings",
                 static_cast<double>(sink.total_warnings()));
  obs::gauge_set(prefix + ".evicted", static_cast<double>(sink.evicted()));
}

/// Per-span wall-time summary (verbosity >= 2) and raw dump (>= 3).
void print_phase_summary(const obs::TraceSession& trace, int verbosity) {
  const std::vector<obs::TraceEvent> events = trace.events();
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_name;
  for (const obs::TraceEvent& ev : events) {
    auto& [count, total_us] = by_name[ev.name];
    ++count;
    total_us += ev.dur_us;
  }
  std::cout << "\npipeline phases (" << events.size() << " span(s)):\n";
  analysis::Table t({"phase", "spans", "total_ms"});
  for (const auto& [name, agg] : by_name)
    t.begin_row().cell(name).cell(std::uint64_t(agg.first))
        .cell(double(agg.second) / 1000.0, 3);
  t.print(std::cout);
  if (verbosity >= 3) {
    for (const obs::TraceEvent& ev : events)
      std::cout << "  span " << ev.name << " tid=" << ev.tid
                << " depth=" << ev.depth << " ts=" << ev.ts_us
                << "us dur=" << ev.dur_us << "us\n";
  }
}

/// Write the trace / metrics files. Returns false on I/O failure. CSV is
/// chosen by file extension; everything else gets JSON.
bool flush_obs(const CommonOptions& opt, const obs::TraceSession& trace,
               const obs::MetricsRegistry& registry) {
  bool ok = true;
  if (!opt.trace_path.empty()) {
    std::ofstream os(opt.trace_path);
    if (os) trace.write_chrome_trace(os);
    if (!os) {
      std::cerr << "failed to write " << opt.trace_path << "\n";
      ok = false;
    } else if (opt.loud()) {
      std::cout << "wrote trace " << opt.trace_path << " (" << trace.size()
                << " span(s))\n";
    }
  }
  if (!opt.metrics_path.empty()) {
    const bool csv = opt.metrics_path.size() >= 4 &&
                     opt.metrics_path.compare(opt.metrics_path.size() - 4, 4,
                                              ".csv") == 0;
    std::ofstream os(opt.metrics_path);
    if (os) {
      if (csv)
        registry.write_csv(os);
      else
        registry.write_json(os);
    }
    if (!os) {
      std::cerr << "failed to write " << opt.metrics_path << "\n";
      ok = false;
    } else if (opt.loud()) {
      std::cout << "wrote metrics " << opt.metrics_path << "\n";
    }
  }
  return ok;
}

int run_doctor(const std::vector<std::string>& args, const CommonOptions& copt,
               const CheckOptions& chk) {
  std::string file, save_path;
  bool do_repair = false;
  ViaRule rule = chk.via_rule;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-repair") {
      do_repair = true;
    } else if (args[i] == "-transparent") {
      rule = ViaRule::kTransparent;
    } else if (args[i] == "-save" && i + 1 < args.size()) {
      save_path = args[++i];
    } else if (file.empty() && !args[i].empty() && args[i][0] != '-') {
      file = args[i];
    } else {
      return usage();
    }
  }
  if (file.empty()) return usage();

  DiagnosticSink load_sink(64);
  auto loaded = io::load_layout(file, &load_sink);
  if (!loaded) {
    if (copt.loud()) {
      std::cout << "doctor: cannot load " << file << "\n";
      print_diagnostics(load_sink);
    }
    return kExitParseError;
  }

  DiagnosticSink sink(256);
  Checker checker(loaded->graph, loaded->geom,
                  {.via_rule = rule, .threads = chk.threads});
  const CheckReport report = checker.check(sink);
  publish_sink_totals("doctor", sink);
  if (copt.loud(2))
    std::cout << "doctor: scanned " << report.bands_checked << " band(s), "
              << report.points_examined << " point claim(s)\n";
  if (sink.empty()) {
    if (copt.loud())
      std::cout << "doctor: layout valid (" << report.points
                << " occupied grid points)\n";
    return kExitValid;
  }
  if (copt.loud()) {
    std::cout << "doctor: layout INVALID, " << sink.size() << " violation(s)";
    if (sink.dropped() != 0)
      std::cout << " (+" << sink.dropped() << " dropped)";
    std::cout << ":\n";
    print_diagnostics(sink);
    if (copt.loud(2)) print_totals(sink);
  }
  if (!do_repair) return kExitInvalid;

  robustness::RepairReport rep = robustness::repair_layout(
      loaded->graph, loaded->geom,
      {.rule = rule, .check_threads = chk.threads});
  if (copt.loud())
    std::cout << "\nrepair: " << rep.ripped.size() << " edge(s) ripped, "
              << rep.rerouted.size() << " re-routed, " << rep.failed.size()
              << " unroutable, " << rep.unrepairable.size()
              << " frame violation(s) unrepairable (" << rep.passes
              << " pass(es))\n";
  if (rep.ok) {
    if (copt.loud()) std::cout << "repair: layout now checker-clean\n";
    if (!save_path.empty()) {
      if (!io::save_layout(save_path, loaded->graph, loaded->geom)) {
        std::cerr << "failed to write " << save_path << "\n";
        return kExitInvalid;
      }
      if (copt.loud()) std::cout << "wrote " << save_path << "\n";
    }
    return kExitValid;
  }
  if (copt.loud()) {
    std::cout << "repair: layout still invalid:\n";
    DiagnosticSink after(256);
    for (const Diagnostic& d : rep.remaining) after.report(d);
    print_diagnostics(after);
  }
  return kExitInvalid;
}

int run_lint(const std::vector<std::string>& args, const CommonOptions& copt,
             const CheckOptions& chk) {
  std::string file, baseline_path, save_baseline_path;
  bool strict = false;
  analysis::LintConfig cfg;
  cfg.via_rule = chk.via_rule;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-strict") {
      strict = true;
    } else if (args[i] == "-transparent") {
      cfg.via_rule = ViaRule::kTransparent;
    } else if (args[i] == "-baseline" && i + 1 < args.size()) {
      baseline_path = args[++i];
    } else if (args[i] == "-save-baseline" && i + 1 < args.size()) {
      save_baseline_path = args[++i];
    } else if (args[i] == "-disable" && i + 1 < args.size()) {
      auto rule = analysis::lint_rule_from_id(args[++i]);
      if (!rule) {
        std::cerr << "lint: unknown rule id '" << args[i] << "'\n";
        return usage();
      }
      cfg.disable(*rule);
    } else if (file.empty() && !args[i].empty() && args[i][0] != '-') {
      file = args[i];
    } else {
      return usage();
    }
  }
  if (file.empty()) return usage();

  DiagnosticSink load_sink(64);
  auto loaded = io::load_layout(file, &load_sink);
  if (!loaded) {
    if (copt.loud()) {
      std::cout << "lint: cannot load " << file << "\n";
      print_diagnostics(load_sink);
    }
    return kExitParseError;
  }
  if (!baseline_path.empty()) {
    auto base = analysis::LintBaseline::load(baseline_path);
    if (!base) {
      if (copt.loud())
        std::cout << "lint: cannot load baseline " << baseline_path << "\n";
      return kExitParseError;
    }
    cfg.baseline = std::move(*base);
  }

  DiagnosticSink sink(1024);
  analysis::LintStats stats =
      analysis::lint_layout(loaded->graph, loaded->geom, cfg, sink);
  publish_sink_totals("lint", sink);

  if (!save_baseline_path.empty()) {
    analysis::LintBaseline out = cfg.baseline;
    for (const Diagnostic& d : sink.diagnostics())
      out.add(analysis::lint_fingerprint(d));
    std::ofstream os(save_baseline_path);
    if (!os) {
      std::cerr << "failed to write " << save_baseline_path << "\n";
      return kExitInvalid;
    }
    out.write(os);
    if (copt.loud())
      std::cout << "lint: wrote baseline with " << out.size()
                << " entries to " << save_baseline_path << "\n";
    return kExitValid;
  }

  if (stats.clean()) {
    if (copt.loud()) {
      std::cout << "lint: clean";
      if (stats.suppressed != 0)
        std::cout << " (" << stats.suppressed << " finding(s) suppressed by "
                  << "baseline)";
      std::cout << "\n";
    }
    return kExitValid;
  }
  if (copt.loud()) {
    std::cout << "lint: " << stats.reported << " finding(s)";
    if (stats.suppressed != 0)
      std::cout << ", " << stats.suppressed << " suppressed";
    if (sink.dropped() != 0)
      std::cout << " (+" << sink.dropped() << " dropped)";
    std::cout << ":\n";
    print_diagnostics(sink);
    if (copt.loud(2)) print_totals(sink);
  }
  if (sink.errors() != 0) return kExitInvalid;
  return strict ? kExitInvalid : kExitValid;
}

/// Strict flag-value parse: `-L 0`, `-L 1` and non-numeric values are usage
/// errors at the API boundary, never a silent atoi zero fed into realize().
bool parse_u32_flag(const std::string& text, const char* flag,
                    std::uint32_t& out) {
  std::optional<std::uint64_t> v = api::parse_uint(text);
  if (!v || *v > 0xffffffffu) {
    std::cerr << "layout_tool: " << flag << " '" << text
              << "' is not an unsigned integer\n";
    return false;
  }
  out = static_cast<std::uint32_t>(*v);
  return true;
}

void print_spec_errors(const DiagnosticSink& sink) {
  for (const Diagnostic& d : sink.diagnostics())
    std::cerr << "layout_tool: " << code_name(d.code) << ": " << d.to_string()
              << "\n";
}

/// Pull --check-threads/--via-rule out of `args` (any position, any mode):
/// the one shared CheckOptions parser. Every mode that runs the checker —
/// layout, --doctor, --lint, sweep, soak — consumes the result; the older
/// per-mode `-transparent` stays as an alias for `--via-rule transparent`.
bool extract_check_options(std::vector<std::string>& args, CheckOptions& opt) {
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--check-threads") {
      if (i + 1 >= args.size()) {
        std::cerr << "layout_tool: --check-threads wants a worker count\n";
        return false;
      }
      std::uint32_t n = 0;
      if (!parse_u32_flag(args[++i], "--check-threads", n)) return false;
      if (n == 0 || n > 256) {
        std::cerr << "layout_tool: --check-threads wants 1..256 workers\n";
        return false;
      }
      opt.threads = n;
    } else if (args[i] == "--via-rule") {
      if (i + 1 >= args.size()) {
        std::cerr << "layout_tool: --via-rule wants blocking|transparent\n";
        return false;
      }
      const std::string& v = args[++i];
      if (v == "blocking") {
        opt.via_rule = ViaRule::kBlocking;
      } else if (v == "transparent") {
        opt.via_rule = ViaRule::kTransparent;
      } else {
        std::cerr << "layout_tool: --via-rule wants blocking|transparent, got '"
                  << v << "'\n";
        return false;
      }
    } else {
      rest.push_back(args[i]);
    }
  }
  args = std::move(rest);
  return true;
}

int run_layout(const std::vector<std::string>& args, const CommonOptions& copt,
               const CheckOptions& chk) {
  std::uint32_t L = 4;
  std::string svg_path, save_path;
  bool congestion = false, check = true;
  std::vector<std::string> pos;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-L" && i + 1 < args.size()) {
      if (!parse_u32_flag(args[++i], "-L", L)) return usage();
    } else if (args[i] == "-svg" && i + 1 < args.size()) {
      svg_path = args[++i];
    } else if (args[i] == "-save" && i + 1 < args.size()) {
      save_path = args[++i];
    } else if (args[i] == "-congestion") {
      congestion = true;
    } else if (args[i] == "-nocheck") {
      check = false;
    } else {
      pos.push_back(args[i]);
    }
  }
  if (pos.empty()) return usage();

  // Resolve the family through the registry: `hypercube 6` and
  // `"hypercube(n=6)"` both work, and every error names its parameter.
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  DiagnosticSink spec_sink(16);
  std::optional<api::FamilySpec> spec =
      pos.size() == 1 && pos[0].find('(') != std::string::npos
          ? reg.parse(pos[0], &spec_sink)
          : reg.parse_cli(pos, &spec_sink);
  if (spec) {
    if (!api::validate_options({.L = L}, &spec_sink)) spec.reset();
  }
  std::optional<Orthogonal2Layer> built;
  if (spec) built = reg.build(*spec, &spec_sink);
  if (!built) {
    print_spec_errors(spec_sink);
    return usage();
  }
  const Orthogonal2Layer& ortho = *built;

  api::LayoutRequest req;
  req.spec = *spec;
  req.options = {.L = L};
  req.check = check;
  req.check_options = chk;  // via_rule is overridden by the realized layout
  api::LayoutResult result = api::run_layout(ortho, req);
  if (!result.ok) {
    std::cerr << "checker FAILED: " << result.error << "\n";
    return kExitInvalid;
  }
  MultilayerLayout& ml = result.layout;
  if (check && copt.loud())
    std::cout << "checker ok (" << result.check_report.points
              << " occupied grid points, "
              << (ml.required_rule == ViaRule::kBlocking
                      ? "strict grid model"
                      : "stacked-via rule")
              << ")\n";
  if (check && copt.loud(2))
    std::cout << "checker: " << result.check_report.bands_checked
              << " band(s) scanned across " << result.check_report.bands
              << "\n";

  if (copt.obs_enabled()) {
    // Profiled pipeline extras: the fold baseline the paper compares against
    // and a lint pass, so the trace records every phase and the registry the
    // full cost picture. The 2-layer baseline metrics are computed with the
    // registry uninstalled so its gauges do not clobber the real run's.
    obs::MetricsRegistry* registry = obs::MetricsRegistry::current();
    obs::MetricsRegistry::uninstall();
    LayoutMetrics m2 = compute_metrics(realize(ortho, {.L = 2}), ortho.graph);
    if (registry != nullptr) registry->install();
    const BaselineMetrics folded = fold_thompson(m2, L);
    obs::gauge_set("fold.baseline_area", static_cast<double>(folded.area));
    obs::gauge_set("fold.baseline_volume", static_cast<double>(folded.volume));
    obs::gauge_set("fold.baseline_max_wire",
                   static_cast<double>(folded.max_wire_length));

    analysis::LintConfig lint_cfg;
    lint_cfg.via_rule = ml.required_rule;
    DiagnosticSink lint_sink(1024);
    analysis::LintStats lint_stats =
        analysis::lint_layout(ortho.graph, ml.geom, lint_cfg, lint_sink);
    publish_sink_totals("lint", lint_sink);
    if (copt.loud(2))
      std::cout << "lint: " << lint_stats.reported << " finding(s), "
                << lint_stats.suppressed << " suppressed\n";
  }

  LayoutMetrics& m = result.metrics;
  if (copt.loud()) {
    analysis::Table t({"nodes", "edges", "L", "width", "height", "area",
                       "track_area", "volume", "max_wire", "vias"});
    t.begin_row().cell(std::uint64_t(ortho.graph.num_nodes()))
        .cell(std::uint64_t(ortho.graph.num_edges())).cell(std::uint64_t(L))
        .cell(std::uint64_t(m.width)).cell(std::uint64_t(m.height)).cell(m.area)
        .cell(m.wiring_area).cell(m.volume)
        .cell(std::uint64_t(m.max_wire_length)).cell(m.via_count);
    t.print(std::cout);
  }

  if (congestion) {
    analysis::CongestionReport rep =
        analysis::analyze_congestion(ortho.graph, ml.geom);
    if (copt.loud()) {
      analysis::Table c({"layer", "wire_length", "segments"});
      for (const auto& u : rep.layers)
        c.begin_row().cell(std::uint64_t(u.layer)).cell(u.wire_length)
            .cell(std::uint64_t(u.segments));
      std::cout << "\nper-layer utilization (balance "
                << rep.balance << ", max via span " << rep.max_via_span
                << "):\n";
      c.print(std::cout);
      std::cout << "edge length percentiles: p50=" << rep.p50
                << " p90=" << rep.p90 << " p99=" << rep.p99
                << " max=" << rep.max << "\n";
    }
    analysis::TrafficStats tr =
        analysis::edge_traffic(ortho.graph, m.edge_length);
    if (copt.loud())
      std::cout << "channel load under shortest-wire routing: max="
                << tr.max_load << " mean=" << tr.mean_load
                << (tr.exact ? " (all pairs)" : " (sampled)") << "\n";
  }
  if (!svg_path.empty()) {
    if (!write_svg(ml.geom, svg_path)) {
      std::cerr << "failed to write " << svg_path << "\n";
      return kExitInvalid;
    }
    if (copt.loud()) std::cout << "wrote " << svg_path << "\n";
  }
  if (!save_path.empty()) {
    if (!io::save_layout(save_path, ortho.graph, ml.geom)) {
      std::cerr << "failed to write " << save_path << "\n";
      return kExitInvalid;
    }
    if (copt.loud()) std::cout << "wrote " << save_path << "\n";
  }
  return kExitValid;
}

/// `bench-diff` mode: compare a fresh BENCH_mlvl.json against the committed
/// baseline with noise-aware thresholds. Exit contract: 0 clean, 1 any
/// regressed (key, metric), 2 unreadable input, 3 usage. `--save-baseline`
/// refreshes the baseline file from the current run instead of diffing.
int run_bench_diff(const std::vector<std::string>& args,
                   const CommonOptions& copt) {
  std::string baseline_path, current_path, json_path;
  bool save_baseline = false;
  obs::DiffOptions opt;
  auto parse_double = [](const std::string& text, double& out) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || v < 0) return false;
    out = v;
    return true;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--max-regress" && i + 1 < args.size()) {
      if (!parse_double(args[++i], opt.max_regress_pct)) return usage();
    } else if (args[i] == "--noise-floor" && i + 1 < args.size()) {
      if (!parse_double(args[++i], opt.noise_floor_ms)) return usage();
    } else if (args[i] == "--json" && i + 1 < args.size()) {
      json_path = args[++i];
    } else if (args[i] == "--save-baseline") {
      save_baseline = true;
    } else if (!args[i].empty() && args[i][0] != '-') {
      if (baseline_path.empty())
        baseline_path = args[i];
      else if (current_path.empty())
        current_path = args[i];
      else
        return usage();
    } else {
      return usage();
    }
  }
  if (baseline_path.empty() || current_path.empty()) return usage();

  std::string err;
  std::optional<obs::BenchFile> current =
      obs::load_bench_file(current_path, &err);
  if (!current) {
    std::cerr << "bench-diff: " << err << "\n";
    return kExitParseError;
  }

  if (save_baseline) {
    // The current file just parsed clean; copy its bytes over the baseline.
    std::ifstream is(current_path, std::ios::binary);
    std::ofstream os(baseline_path, std::ios::binary);
    os << is.rdbuf();
    if (!is || !os) {
      std::cerr << "bench-diff: failed to write " << baseline_path << "\n";
      return kExitParseError;
    }
    if (copt.loud())
      std::cout << "bench-diff: baseline " << baseline_path
                << " refreshed from " << current_path << " ("
                << current->points.size() << " record(s))\n";
    return kExitValid;
  }

  std::optional<obs::BenchFile> baseline =
      obs::load_bench_file(baseline_path, &err);
  if (!baseline) {
    std::cerr << "bench-diff: " << err << "\n";
    return kExitParseError;
  }

  obs::DiffReport report = obs::diff_bench(*baseline, *current, opt);
  if (copt.loud()) report.write_text(std::cout, copt.loud(2));
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (os) report.write_json(os);
    if (!os) {
      std::cerr << "failed to write " << json_path << "\n";
      return kExitInvalid;
    }
    if (copt.loud()) std::cout << "wrote report " << json_path << "\n";
  }
  return report.exit_code();
}

/// `sweep` mode: expand family patterns across an -L range, run the batch on
/// the parallel engine, print per-job metrics in submission order. Stdout is
/// deterministic for a given job list — timings only appear at -v — so
/// `-j 8` output is byte-identical to `-j 1`.
int run_sweep(const std::vector<std::string>& args, const CommonOptions& copt,
              const CheckOptions& chk,
              obs::RunReport::SweepSummary* sweep_out) {
  std::uint32_t l_lo = 4, l_hi = 4;
  std::uint32_t jobs_flag = 0;
  std::string journal_path, resume_path;
  engine::SweepOptions opt;
  opt.check_threads = chk.threads;
  std::vector<std::string> patterns;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-L" && i + 1 < args.size()) {
      const std::string& v = args[++i];
      const std::size_t dots = v.find("..");
      std::optional<std::uint64_t> lo =
          api::parse_uint(dots == std::string::npos ? v : v.substr(0, dots));
      std::optional<std::uint64_t> hi =
          dots == std::string::npos ? lo : api::parse_uint(v.substr(dots + 2));
      if (!lo || !hi || *hi < *lo || *hi > 1024) {
        std::cerr << "layout_tool: -L '" << v
                  << "' is not a layer count or lo..hi range\n";
        return usage();
      }
      l_lo = static_cast<std::uint32_t>(*lo);
      l_hi = static_cast<std::uint32_t>(*hi);
    } else if (args[i] == "-j" && i + 1 < args.size()) {
      if (!parse_u32_flag(args[++i], "-j", jobs_flag) || jobs_flag == 0 ||
          jobs_flag > 256) {
        std::cerr << "layout_tool: -j wants 1..256 workers\n";
        return usage();
      }
    } else if (args[i] == "--deadline" && i + 1 < args.size()) {
      if (!parse_u32_flag(args[++i], "--deadline", opt.job_deadline_ms))
        return usage();
    } else if (args[i] == "--sweep-deadline" && i + 1 < args.size()) {
      if (!parse_u32_flag(args[++i], "--sweep-deadline",
                          opt.sweep_deadline_ms))
        return usage();
    } else if (args[i] == "--cache-capacity" && i + 1 < args.size()) {
      std::uint32_t cap = 0;
      if (!parse_u32_flag(args[++i], "--cache-capacity", cap)) return usage();
      opt.cache_capacity = cap;
    } else if (args[i] == "--journal" && i + 1 < args.size()) {
      journal_path = args[++i];
    } else if (args[i] == "--resume" && i + 1 < args.size()) {
      resume_path = args[++i];
    } else if (args[i] == "-nocheck") {
      opt.check = false;
    } else if (args[i] == "-nocache") {
      opt.use_cache = false;
    } else if (!args[i].empty() && args[i][0] != '-') {
      patterns.push_back(args[i]);
    } else {
      return usage();
    }
  }
  if (patterns.empty()) return usage();
  opt.threads = jobs_flag;

  // Resume before journal: `--resume f --journal f` (the usual crash-restart
  // invocation) must read the completed set before appending to the file.
  engine::SweepResume resume;
  if (!resume_path.empty()) {
    DiagnosticSink jsink(4);
    std::optional<engine::SweepResume> loaded =
        engine::SweepJournal::load(resume_path, &jsink);
    if (!loaded) {
      print_spec_errors(jsink);
      return kExitParseError;
    }
    resume = std::move(*loaded);
    if (resume.malformed_lines != 0)
      std::cerr << "layout_tool: " << resume.malformed_lines
                << " torn journal line(s) ignored\n";
    opt.resume = &resume;
  }
  std::optional<engine::SweepJournal> journal;
  if (!journal_path.empty()) {
    journal.emplace(journal_path);
    if (!journal->valid()) {
      std::cerr << "layout_tool: cannot open journal " << journal_path << "\n";
      return kExitParseError;
    }
    opt.journal = &*journal;
  }

  // Expand patterns x L range into the job list, submission order =
  // pattern order x parameter odometer x ascending L.
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  DiagnosticSink sink(32);
  std::vector<engine::SweepJob> jobs;
  for (const std::string& pat : patterns) {
    std::optional<std::vector<api::FamilySpec>> specs = reg.expand(pat, &sink);
    if (!specs) {
      print_spec_errors(sink);
      return usage();
    }
    for (api::FamilySpec& spec : *specs)
      for (std::uint32_t L = l_lo; L <= l_hi; ++L)
        jobs.push_back({spec, {.L = L}});
  }
  {
    DiagnosticSink lsink(4);
    if (!api::validate_options({.L = l_lo}, &lsink)) {
      print_spec_errors(lsink);
      return usage();
    }
  }

  engine::SweepReport report = engine::run_sweep(jobs, opt);

  // Copy the flight-recorder sweep summary out for --report: verdict
  // tallies, cache stats, and the governance settings this run ran under.
  if (sweep_out != nullptr) {
    obs::RunReport::SweepSummary& s = *sweep_out;
    s.present = true;
    s.jobs = report.jobs.size();
    s.resumed = report.resumed;
    s.threads = report.threads;
    s.wall_ms = report.wall_ms;
    s.busy_ms = report.busy_ms;
    s.utilization = report.utilization();
    for (const engine::JobResult& j : report.jobs)
      ++s.verdicts[engine::verdict_name(j.verdict)];
    s.cache_hits = report.cache_hits;
    s.cache_misses = report.cache_misses;
    s.cache_evictions = report.cache_evictions;
    s.cache_entries = report.cache_entries;
    s.cache_bytes = report.cache_bytes;
    s.warnings = report.warnings.size();
    s.job_deadline_ms = opt.job_deadline_ms;
    s.sweep_deadline_ms = opt.sweep_deadline_ms;
    s.cache_capacity = opt.cache_capacity;
  }

  if (copt.loud()) {
    analysis::Table t({"spec", "L", "nodes", "edges", "area", "track_area",
                       "volume", "max_wire", "vias", "status"});
    for (const engine::JobResult& j : report.jobs) {
      t.begin_row().cell(api::format_family_spec(j.spec))
          .cell(std::uint64_t(j.L));
      if (j.ok) {
        t.cell(j.nodes).cell(j.edges).cell(j.metrics.area)
            .cell(j.metrics.wiring_area).cell(j.metrics.volume)
            .cell(std::uint64_t(j.metrics.max_wire_length))
            .cell(j.metrics.via_count).cell(engine::verdict_name(j.verdict));
      } else {
        // Deadline/skip rows print the verdict, not the error text: which
        // phase a budget tripped in is timing-dependent, and sweep stdout
        // stays deterministic for a given job list.
        const bool budget = j.verdict == engine::JobVerdict::kDeadline ||
                            j.verdict == engine::JobVerdict::kSkipped;
        t.cell(std::uint64_t(0)).cell(std::uint64_t(0)).cell(std::uint64_t(0))
            .cell(std::uint64_t(0)).cell(std::uint64_t(0))
            .cell(std::uint64_t(0)).cell(std::uint64_t(0))
            .cell(budget ? engine::verdict_name(j.verdict) : j.error);
      }
    }
    t.print(std::cout);
    const engine::SweepTotals totals = report.totals();
    // Cache and resume counts deliberately stay off this line: a resumed run
    // rebuilds topologies its journal skipped, so those counts differ from
    // the uninterrupted run's while every deterministic column above is
    // byte-identical. They appear on the -v timing line instead.
    std::cout << "sweep: " << report.jobs.size() << " job(s), " << totals.ok
              << " ok, " << totals.failed << " failed";
    if (totals.deadline != 0)
      std::cout << ", " << totals.deadline << " deadline";
    if (totals.skipped != 0) std::cout << ", " << totals.skipped << " skipped";
    std::cout << "\n";
    for (const Diagnostic& w : report.warnings)
      std::cout << "warning: " << code_name(w.code) << ": " << w.to_string()
                << "\n";
    if (copt.loud(2)) {
      std::cout << "timing: " << report.threads << " worker(s), wall "
                << report.wall_ms << " ms, busy " << report.busy_ms
                << " ms, utilization " << report.utilization() << ", cache "
                << report.cache_entries << " entr"
                << (report.cache_entries == 1 ? "y" : "ies") << " ~"
                << report.cache_bytes << " bytes\n";
      std::cout << "governance: " << report.cache_hits << " cache hit(s), "
                << report.cache_misses << " topology build"
                << (report.cache_misses == 1 ? "" : "s") << ", "
                << report.cache_evictions << " eviction(s), "
                << report.resumed << " resumed";
      if (journal) std::cout << ", journal " << journal->recorded()
                             << " record(s)";
      std::cout << "\n";
    }
  }
  return report.all_ok() ? kExitValid : kExitInvalid;
}

/// `soak` mode: soak the persistent batch engine — repeated sweeps on one
/// engine with a deliberately tiny bounded cache (so every batch evicts and
/// rebuilds) and optional aggressive deadlines — then assert the governance
/// invariants: every job gets a structured verdict, ok results carry real
/// metrics, the cache never exceeds its hard capacity, and (with deadlines
/// off) every iteration and a -j1 replay on a fresh unbounded-cache engine
/// are byte-identical. Exit 0 = all invariants held (deadline/failed verdicts
/// are expected outcomes, not violations); 1 = an invariant broke.
int run_soak(const std::vector<std::string>& args, const CommonOptions& copt,
             const CheckOptions& chk) {
  std::uint32_t iters = 10, jobs_flag = 0;
  std::uint32_t cache_cap = 64;
  engine::SweepOptions opt;
  opt.check_threads = chk.threads;
  std::vector<std::string> patterns;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-iters" && i + 1 < args.size()) {
      if (!parse_u32_flag(args[++i], "-iters", iters) || iters == 0)
        return usage();
    } else if (args[i] == "-j" && i + 1 < args.size()) {
      if (!parse_u32_flag(args[++i], "-j", jobs_flag) || jobs_flag == 0 ||
          jobs_flag > 256)
        return usage();
    } else if (args[i] == "--cache-capacity" && i + 1 < args.size()) {
      if (!parse_u32_flag(args[++i], "--cache-capacity", cache_cap))
        return usage();
    } else if (args[i] == "--deadline" && i + 1 < args.size()) {
      if (!parse_u32_flag(args[++i], "--deadline", opt.job_deadline_ms))
        return usage();
    } else if (args[i] == "--sweep-deadline" && i + 1 < args.size()) {
      if (!parse_u32_flag(args[++i], "--sweep-deadline",
                          opt.sweep_deadline_ms))
        return usage();
    } else if (!args[i].empty() && args[i][0] != '-') {
      patterns.push_back(args[i]);
    } else {
      return usage();
    }
  }
  if (patterns.empty())
    patterns = {"hypercube(n=3..5)", "kary(k=3,n=1..3)"};

  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  DiagnosticSink sink(32);
  std::vector<engine::SweepJob> jobs;
  for (const std::string& pat : patterns) {
    std::optional<std::vector<api::FamilySpec>> specs = reg.expand(pat, &sink);
    if (!specs) {
      print_spec_errors(sink);
      return usage();
    }
    for (api::FamilySpec& spec : *specs)
      for (std::uint32_t L = 2; L <= 4; ++L) jobs.push_back({spec, {.L = L}});
  }
  opt.threads = jobs_flag;
  opt.cache_capacity = cache_cap;

  auto fingerprint = [](const engine::SweepReport& rep) {
    std::string fp;
    for (const engine::JobResult& j : rep.jobs) {
      fp += api::format_family_spec(j.spec);
      fp += '|';
      fp += std::to_string(j.L);
      fp += '|';
      fp += engine::verdict_name(j.verdict);
      fp += '|';
      fp += std::to_string(j.metrics.area);
      fp += '|';
      fp += std::to_string(j.metrics.volume);
      fp += '|';
      fp += std::to_string(j.metrics.total_wire_length);
      fp += '|';
      fp += std::to_string(j.metrics.via_count);
      fp += '|';
      fp += j.error;
      fp += '\n';
    }
    return fp;
  };

  // Deadlines are timing-dependent by nature, so the determinism probes
  // (iteration-to-iteration and the replay below) only run without them.
  const bool deterministic =
      opt.job_deadline_ms == 0 && opt.sweep_deadline_ms == 0;
  engine::BatchLayoutEngine eng(opt);
  engine::SweepTotals grand;
  std::uint64_t violations = 0;
  std::string first_fp;
  auto violate = [&](std::size_t iter, const std::string& what) {
    ++violations;
    std::cerr << "soak: iteration " << iter << ": INVARIANT VIOLATED: "
              << what << "\n";
  };
  for (std::uint32_t iter = 0; iter < iters; ++iter) {
    engine::SweepReport rep = eng.run(jobs);
    if (iter == 0)
      first_fp = fingerprint(rep);
    else if (deterministic && fingerprint(rep) != first_fp)
      violate(iter, "fingerprint differs from first iteration");
    if (rep.jobs.size() != jobs.size())
      violate(iter, "result count != job count");
    for (const engine::JobResult& j : rep.jobs) {
      if (j.ok != (j.verdict == engine::JobVerdict::kOk))
        violate(iter, "ok flag disagrees with verdict for " +
                          api::format_family_spec(j.spec));
      if (j.ok && (j.metrics.area == 0 || j.nodes == 0))
        violate(iter,
                "ok job with empty metrics: " + api::format_family_spec(j.spec));
      if (j.verdict == engine::JobVerdict::kDeadline && deterministic)
        violate(iter, "deadline verdict with no deadline armed");
    }
    if (cache_cap != 0 && eng.cache_stats().entries > cache_cap)
      violate(iter, "cache exceeded its hard capacity");
    const engine::SweepTotals t = rep.totals();
    grand.ok += t.ok;
    grand.failed += t.failed;
    grand.deadline += t.deadline;
    grand.skipped += t.skipped;
  }

  // Replay probe: iteration 0 on a fresh single-threaded engine with an
  // unbounded cache must reproduce the fingerprint bit for bit, so neither
  // worker count nor eviction can leak into results.
  if (deterministic) {
    engine::SweepOptions replay = opt;
    replay.threads = 1;
    replay.cache_capacity = 0;
    engine::BatchLayoutEngine fresh(replay);
    if (fingerprint(fresh.run(jobs)) != first_fp)
      violate(0, "-j1 replay fingerprint differs from first iteration");
  }

  const engine::CacheStats cs = eng.cache_stats();
  if (copt.loud()) {
    std::cout << "soak: " << iters << " iteration(s) x " << jobs.size()
              << " job(s), cache capacity " << cache_cap << "\n";
    std::cout << "verdicts: " << grand.ok << " ok, " << grand.failed
              << " failed, " << grand.deadline << " deadline, "
              << grand.skipped << " skipped\n";
    std::cout << "cache: " << cs.entries << " entr"
              << (cs.entries == 1 ? "y" : "ies") << ", " << cs.hits
              << " hit(s), " << cs.misses << " miss(es), " << cs.evictions
              << " eviction(s)\n";
    std::cout << "determinism: "
              << (deterministic ? "iterations and replay verified"
                                : "skipped (deadlines armed)")
              << "\n";
    std::cout << "soak: " << (violations == 0 ? "PASS" : "FAIL") << "\n";
  }
  return violations == 0 ? kExitValid : kExitInvalid;
}

/// `profile` mode: re-parse a Chrome trace written by --trace and print the
/// attribution tables (per-phase inclusive/exclusive time, per-thread
/// utilization, critical path, slowest jobs). Exit contract: 0 profiled,
/// 2 unreadable or not a Chrome trace, 3 usage.
int run_profile(const std::vector<std::string>& args,
                const CommonOptions& copt) {
  std::string file, json_path;
  obs::ProfileOptions popt;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json" && i + 1 < args.size()) {
      json_path = args[++i];
    } else if (args[i] == "--top" && i + 1 < args.size()) {
      std::uint32_t k = 0;
      if (!parse_u32_flag(args[++i], "--top", k) || k == 0 || k > 10000) {
        std::cerr << "layout_tool: --top wants 1..10000 rows\n";
        return usage();
      }
      popt.top_k = k;
    } else if (file.empty() && !args[i].empty() && args[i][0] != '-') {
      file = args[i];
    } else {
      return usage();
    }
  }
  if (file.empty()) return usage();

  std::string err;
  std::optional<obs::ProfileReport> rep =
      obs::load_profile_chrome_trace(file, &err, popt);
  if (!rep) {
    std::cerr << "profile: " << err << "\n";
    return kExitParseError;
  }
  if (copt.loud()) rep->write_text(std::cout);
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (os) rep->write_json(os);
    if (!os) {
      std::cerr << "failed to write " << json_path << "\n";
      return kExitInvalid;
    }
    if (copt.loud()) std::cout << "wrote profile " << json_path << "\n";
  }
  return kExitValid;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  std::vector<std::string> args(argv + 1, argv + argc);
  CommonOptions copt;
  if (!extract_common(args, copt)) return usage();
  CheckOptions chk;
  if (!extract_check_options(args, chk)) return usage();
  if (args.empty()) return usage();

  obs::TraceSession trace;
  obs::MetricsRegistry registry;
  obs::MetricsSampler sampler;
  if (copt.obs_enabled()) {
    trace.install();
    registry.install();
    if (copt.metrics_interval_ms != 0)
      sampler.start(registry, copt.metrics_interval_ms);
  }

  obs::RunReport::SweepSummary sweep_summary;
  int rc;
  if (args[0] == "--doctor")
    rc = run_doctor({args.begin() + 1, args.end()}, copt, chk);
  else if (args[0] == "--lint")
    rc = run_lint({args.begin() + 1, args.end()}, copt, chk);
  else if (args[0] == "sweep")
    rc = run_sweep({args.begin() + 1, args.end()}, copt, chk, &sweep_summary);
  else if (args[0] == "soak")
    rc = run_soak({args.begin() + 1, args.end()}, copt, chk);
  else if (args[0] == "bench-diff")
    rc = run_bench_diff({args.begin() + 1, args.end()}, copt);
  else if (args[0] == "profile")
    rc = run_profile({args.begin() + 1, args.end()}, copt);
  else
    rc = run_layout(args, copt, chk);

  if (copt.obs_enabled()) {
    obs::publish_peak_rss();  // final high-water mark, into the dump below
    sampler.stop();
    obs::TraceSession::uninstall();
    obs::MetricsRegistry::uninstall();
    if (copt.loud(2)) print_phase_summary(trace, copt.verbosity);
    if (!flush_obs(copt, trace, registry) && rc == kExitValid)
      rc = kExitInvalid;
    if (copt.metrics_interval_ms != 0) {
      std::ofstream os(copt.series_path());
      if (os) sampler.write_json(os);
      if (!os) {
        std::cerr << "failed to write " << copt.series_path() << "\n";
        if (rc == kExitValid) rc = kExitInvalid;
      } else if (copt.loud()) {
        std::cout << "wrote metrics series " << copt.series_path() << " ("
                  << sampler.snapshots() << " snapshot(s))\n";
      }
    }
    if (!copt.report_path.empty()) {
      // Unified run report: the profile of this run's own trace, the final
      // metrics snapshot, and (for sweep) the verdict/cache/governance
      // summary, all under the one run id the other artifacts carry.
      obs::RunReport rep;
      rep.run_id = obs::run_id();
      rep.env = obs::capture_build_env();
      if (trace.size() != 0) {
        rep.has_profile = true;
        rep.profile = obs::profile_session(trace);
      }
      std::ostringstream mos;
      registry.write_json(mos);
      rep.metrics_json = mos.str();
      rep.sweep = sweep_summary;
      std::ofstream os(copt.report_path);
      if (os) rep.write_json(os);
      if (!os) {
        std::cerr << "failed to write " << copt.report_path << "\n";
        if (rc == kExitValid) rc = kExitInvalid;
      } else if (copt.loud()) {
        std::cout << "wrote run report " << copt.report_path << "\n";
        if (copt.loud(2)) {
          rep.write_summary(std::cout);
          std::cout << "\n";
        }
      }
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& ex) {
    std::cerr << "error: invalid argument: " << ex.what() << "\n";
    return kExitUsage;
  } catch (const std::bad_alloc&) {
    std::cerr << "error: out of memory\n";
    return kExitInvalid;
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return kExitInvalid;
  }
}
