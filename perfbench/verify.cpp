// verify_paper_scale: one client, one op in flight (closed loop). An op is
// spec -> FamilyRegistry::build -> api::run_layout with the check on ->
// lint_layout on the result. A round is one pass over the seven paper-scale
// specs, always whole, so every round has the same op mix.
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "api/layout_api.hpp"
#include "bench.hpp"
#include "core/checker.hpp"

namespace perfbench {
namespace {

using mlvl::api::FamilyRegistry;

struct Job {
  mlvl::api::FamilySpec spec;
  std::uint32_t L = 2;
};

/// What one op produced; compared field by field across rounds.
struct OpResult {
  bool ok = false;
  std::string error;
  std::uint64_t nodes = 0;
  std::uint64_t records = 0;
  std::uint64_t points = 0;
  std::size_t findings = 0;
  mlvl::LayoutMetrics metrics;

  [[nodiscard]] bool same_answer(const OpResult& o) const {
    return ok == o.ok && points == o.points && findings == o.findings &&
           metrics.area == o.metrics.area &&
           metrics.wiring_area == o.metrics.wiring_area &&
           metrics.total_wire_length == o.metrics.total_wire_length &&
           metrics.max_wire_length == o.metrics.max_wire_length &&
           metrics.via_count == o.metrics.via_count;
  }
};

std::vector<Job> make_jobs(std::uint64_t seed, bool tiny) {
  const std::string S = std::to_string(seed);
  const std::vector<std::pair<std::string, std::uint32_t>> full = {
      {"hypercube(n=12)", 2}, {"hypercube(n=12)", 16},
      {"kary(k=8,n=4)", 4},   {"folded(n=11)", 4},
      {"enhanced(n=11,seed=" + S + ")", 4},
      {"ccc(n=9)", 4},        {"ghc(r=8,n=3)", 4}};
  const std::vector<std::pair<std::string, std::uint32_t>> small = {
      {"hypercube(n=6)", 2}, {"hypercube(n=6)", 16},
      {"kary(k=4,n=2)", 4},  {"folded(n=5)", 4},
      {"enhanced(n=5,seed=" + S + ")", 4},
      {"ccc(n=4)", 4},       {"ghc(r=3,n=2)", 4}};
  std::vector<Job> jobs;
  for (const auto& [text, L] : tiny ? small : full) {
    auto spec = FamilyRegistry::instance().parse(text);
    if (!spec) throw std::runtime_error("bad workload spec " + text);
    jobs.push_back({std::move(*spec), L});
  }
  return jobs;
}

std::uint64_t records(const mlvl::LayoutGeometry& g) {
  return g.segs.size() + g.vias.size() + g.boxes.size();
}

/// Untraced op: the public facade, exactly as a caller would use it.
OpResult run_op(const Job& job) {
  OpResult r;
  auto ortho = FamilyRegistry::instance().build(job.spec);
  if (!ortho) {
    r.error = "build failed";
    return r;
  }
  mlvl::api::LayoutRequest req;
  req.spec = job.spec;
  req.options.L = job.L;
  req.check = true;
  mlvl::api::LayoutResult res = mlvl::api::run_layout(*ortho, req);
  mlvl::DiagnosticSink sink(64);
  mlvl::analysis::LintConfig cfg;
  cfg.via_rule = res.layout.required_rule;
  const auto lint =
      mlvl::analysis::lint_layout(ortho->graph, res.layout.geom, cfg, sink);
  r.ok = res.ok;
  r.error = res.error;
  r.nodes = res.nodes;
  r.records = records(res.layout.geom);
  r.points = res.check_report.points;
  r.findings = lint.reported;
  r.metrics = std::move(res.metrics);
  return r;
}

/// Traced op: the same pipeline, one public call per layer, each in a span.
OpResult run_op_traced(const Job& job) {
  OpResult r;
  std::optional<mlvl::Orthogonal2Layer> ortho;
  {
    mlvl::obs::Span s("layout.build");
    ortho = FamilyRegistry::instance().build(job.spec);
  }
  if (!ortho) {
    r.error = "build failed";
    return r;
  }
  mlvl::MultilayerLayout ml;
  {
    mlvl::obs::Span s("multilayer.realize");
    ml = mlvl::realize(*ortho, {.L = job.L});
  }
  mlvl::CheckReport rep;
  {
    mlvl::obs::Span s("checker.check");
    mlvl::Checker checker(ortho->graph, ml.geom,
                          {.via_rule = ml.required_rule});
    rep = checker.check();
  }
  {
    mlvl::obs::Span s("metrics.compute");
    r.metrics = mlvl::compute_metrics(ml, ortho->graph);
  }
  mlvl::DiagnosticSink sink(64);
  mlvl::analysis::LintConfig cfg;
  cfg.via_rule = ml.required_rule;
  {
    mlvl::obs::Span s("lint.lint");
    r.findings =
        mlvl::analysis::lint_layout(ortho->graph, ml.geom, cfg, sink).reported;
  }
  r.ok = rep.ok;
  r.error = rep.error;
  r.nodes = ortho->graph.num_nodes();
  r.records = records(ml.geom);
  r.points = rep.points;
  return r;
}

}  // namespace

Measured run_verify_paper_scale(const Config& cfg) {
  Measured m;
  std::vector<Job> jobs;
  run_setup(m, [&] {
    jobs = make_jobs(cfg.seed, cfg.tiny);
    // Warm-up: the cheapest spec once, so allocator and registry set-up
    // happen before timing.
    (void)run_op(jobs.back());
  });

  std::vector<std::string> families;
  for (const Job& j : jobs) families.push_back(j.spec.family);
  for (std::string& line : formula_table(families))
    m.notes.push_back(std::move(line));

  // The first answer seen for each job is the reference for every later
  // round: a fresh layout must verify and lint clean, and must not change
  // from round to round.
  std::vector<std::optional<OpResult>> first(jobs.size());
  // Per-layer counters, summed over traced ops.
  std::uint64_t rec_sum = 0, pts_sum = 0, findings = 0, traced_ops = 0;

  auto account = [&](std::size_t k, const OpResult& r, double ms) {
    const Job& job = jobs[k];
    const std::string name = mlvl::api::format_family_spec(job.spec) +
                             " L=" + std::to_string(job.L);
    ++m.attempted;
    if (!r.ok) {
      ++m.failed;
      m.mismatches.push_back(name + ": not verified: " + r.error);
      return;
    }
    if (!first[k]) first[k] = r;
    if (r.findings != 0) {
      m.mismatches.push_back(name + ": " + std::to_string(r.findings) +
                             " lint findings (want 0)");
    } else if (!r.same_answer(*first[k])) {
      m.mismatches.push_back(name + ": metrics differ between rounds");
    } else {
      ++m.verdict_ok;
    }
    m.op_ms.push_back(ms);
    m.op_class.push_back(k);
    add_paper_ratios(m, job.spec, r.nodes, job.L, r.metrics);
    m.wire_after += double(r.metrics.total_wire_length);
    m.wire_before += double(r.metrics.total_wire_length);
  };

  auto round = [&](std::size_t, bool traced) {
    const Clock::time_point r0 = Clock::now();
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const Clock::time_point t0 = Clock::now();
      OpResult r = traced ? run_op_traced(jobs[k]) : run_op(jobs[k]);
      const double ms = ms_between(t0, Clock::now());
      if (traced) {
        rec_sum += r.records;
        pts_sum += r.points;
        findings += r.findings;
        ++traced_ops;
      }
      account(k, r, ms);
    }
    m.round_ops_per_s.push_back(double(jobs.size()) /
                                (ms_between(r0, Clock::now()) / 1e3));
  };

  if (!cfg.trace) {
    run_rounds(cfg.seconds, cfg.rounds,
               [&](std::size_t i) { round(i, false); });
    return m;
  }

  const Clock::time_point a0 = Clock::now();
  const std::size_t n = run_rounds(cfg.seconds / 2, cfg.rounds,
                                   [&](std::size_t i) { round(i, false); });
  const double untraced_ms = ms_between(a0, Clock::now());
  LayerTrace tr;
  for (std::size_t i = 0; i < n; ++i) round(i, true);
  tr.stop();

  const double ops = double(traced_ops);
  const double check_ms = tr.total_ms("checker.check");
  const double lint_ms = tr.total_ms("lint.lint");
  m.per_layer = {
      {"checker.check_ms", tr.mean_ms("checker.check"), "ms", "mean per op"},
      {"checker.records", double(rec_sum) / ops, "count",
       "segs+vias+boxes, mean per op"},
      {"checker.points", double(pts_sum) / ops, "count", "mean per op"},
      {"checker.ns_per_record", check_ms * 1e6 / double(rec_sum), "ns", ""},
      {"lint.lint_ms", tr.mean_ms("lint.lint"), "ms", "mean per op"},
      {"lint.ns_per_record", lint_ms * 1e6 / double(rec_sum), "ns", ""},
      {"lint.findings", double(findings), "count", "must stay 0"},
      {"layout.build_ms", tr.mean_ms("layout.build"), "ms", "mean per op"},
      {"multilayer.realize_ms", tr.mean_ms("multilayer.realize"), "ms",
       "mean per op"},
      {"metrics.compute_ms", tr.mean_ms("metrics.compute"), "ms",
       "mean per op"},
  };
  finish_trace(m, tr, untraced_ms, tr.wall_ms(), tr.wall_ms());
  return m;
}

}  // namespace perfbench
