// End-to-end benchmark program.
//
//   mlvl_perfbench --workload <name|all> --seed <n> --seconds <s> --trace 0|1
//
// Runs the named workload(s), checks every output against its known
// answer, prints a table of every metric (name, value, unit, and the sample
// count or percentile behind it), and ends with one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit code 0 on a completed run, 2 on bad arguments, 1 when
// the run itself could not complete.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct WorkloadDef {
  const char* name;
  Measured (*run)(const Config&);
};
constexpr WorkloadDef kWorkloads[] = {
    {"verify_paper_scale", run_verify_paper_scale},
    {"sweep_mixed", run_sweep_mixed},
    {"repair_damaged", run_repair_damaged},
};

/// Per-layer metric names and units, in report order. A layer the workload
/// never calls reports 0 for each of its metrics.
struct LayerDef {
  const char* name;
  const char* unit;
};
constexpr LayerDef kLayerMetrics[] = {
    {"layout.build_ms", "ms"},          {"multilayer.realize_ms", "ms"},
    {"checker.check_ms", "ms"},         {"checker.records", "count"},
    {"checker.points", "count"},        {"checker.ns_per_record", "ns"},
    {"metrics.compute_ms", "ms"},       {"lint.lint_ms", "ms"},
    {"lint.ns_per_record", "ns"},       {"lint.findings", "count"},
    {"engine.wall_ms", "ms"},           {"engine.busy_ms", "ms"},
    {"engine.utilization", "share"},    {"engine.busy_inflation", "ratio"},
    {"engine.queue_wait_ms_p50", "ms"}, {"engine.cache.hit_ratio", "share"},
    {"io.parse_ms", "ms"},              {"io.parse_mb_per_s", "MB/s"},
    {"repair.repair_ms", "ms"},         {"repair.ripped", "count"},
    {"repair.rerouted_share", "share"}, {"repair.passes", "count"},
    {"checker.final_check_ms", "ms"},   {"bench.trace_overhead_share", "share"},
    {"bench.unattributed_share", "share"},
};

/// The end-to-end metrics, in report order. fail_share is shown in the
/// table only: it is 0 on a healthy run, and the JSON line already carries
/// it as failed / attempted.
std::vector<Metric> end_to_end(const Measured& m, Metric& fail_share) {
  const Tail t = tail(m.op_ms);
  const double attempted = double(std::max<std::uint64_t>(1, m.attempted));
  fail_share = {"fail_share", double(m.failed) / attempted, "share",
                std::to_string(m.failed) + " of " +
                    std::to_string(m.attempted) + " ops"};
  const std::string n_ops = "n=" + std::to_string(m.op_ms.size()) + " ops";
  // Median per op class, then the geometric mean over classes: a pooled
  // median of ops of very different sizes sits inside whichever class
  // happens to be in the middle and moves with that class's sample count.
  std::map<std::size_t, std::vector<double>> by_class;
  for (std::size_t i = 0; i < m.op_ms.size(); ++i)
    by_class[m.op_class[i]].push_back(m.op_ms[i]);
  std::vector<double> class_medians;
  for (auto& [cls, v] : by_class) class_medians.push_back(median(v));
  return {
      {"setup_s", median(m.setup_s), "s",
       "median of " + std::to_string(m.setup_s.size()) + " set-ups"},
      {"ops_per_s", median(m.round_ops_per_s), "1/s",
       "median of " + std::to_string(m.round_ops_per_s.size()) + " rounds"},
      {"op_ms_p50", geomean(class_medians), "ms",
       "geomean of " + std::to_string(class_medians.size()) +
           " class medians, " + n_ops},
      {"op_ms_tail", t.value, "ms",
       (t.pct > 0 ? "p" + std::to_string(t.pct) : std::string("max")) +
           ", " + n_ops},
      {"peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of this workload"},
      {"verdict_ok_share", double(m.verdict_ok) / attempted, "share",
       std::to_string(m.verdict_ok) + " of " + std::to_string(m.attempted) +
           " ops"},
      {"area_vs_paper", geomean(m.area_ratio), "ratio",
       "geomean of " + std::to_string(m.area_ratio.size()) + " layouts"},
      {"max_wire_vs_paper", geomean(m.max_wire_ratio), "ratio",
       "geomean of " + std::to_string(m.max_wire_ratio.size()) + " layouts"},
      {"repair_wire_overhead",
       m.wire_before > 0 ? m.wire_after / m.wire_before : 0, "ratio",
       "wire after / before damage"},
  };
}

std::vector<Metric> per_layer(const Measured& m) {
  std::vector<Metric> out;
  for (const LayerDef& d : kLayerMetrics) {
    Metric x{d.name, 0, d.unit, "layer not called on this workload"};
    for (const Metric& got : m.per_layer)
      if (got.name == d.name) x = got;
    out.push_back(std::move(x));
  }
  return out;
}

void print_metric(const Metric& x) {
  std::printf("metric  %-28s %16.6g  %-6s %s\n", x.name.c_str(), x.value,
              x.unit.c_str(), x.note.c_str());
}

struct Reported {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> json;  ///< metrics for the JSON line
};

/// Runs one workload, prints its table, and appends its JSON metrics
/// (prefixed with `prefix`) to `out`.
void run_one(const WorkloadDef& w, const Config& cfg, const std::string& prefix,
             Reported& out) {
  std::printf("run     workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              w.name, static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, cfg.tiny ? "tiny" : "full");
  std::fflush(stdout);
  Measured m = w.run(cfg);
  for (const std::string& line : m.notes) std::printf("%s\n", line.c_str());

  Metric fail_share;
  std::vector<Metric> e2e = end_to_end(m, fail_share);
  std::vector<Metric> layers = per_layer(m);
  for (const Metric& x : e2e) print_metric(x);
  print_metric(fail_share);
  for (const Metric& x : layers) print_metric(x);

  std::vector<Metric>& chosen = cfg.trace ? layers : e2e;
  for (Metric& x : chosen) {
    if (!std::isfinite(x.value)) {
      m.mismatches.push_back(x.name + " is not a finite number");
      x.value = 0;
    }
    x.name = prefix + x.name;
    out.json.push_back(x);
  }
  for (const std::string& s : m.mismatches)
    std::printf("MISMATCH %s: %s\n", w.name, s.c_str());
  std::printf("verdict %s: %s (%llu attempted, %llu failed, %zu mismatches)\n",
              w.name, m.mismatches.empty() ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed), m.mismatches.size());
  out.correct = out.correct && m.mismatches.empty() && m.attempted > 0;
  out.attempted += m.attempted;
  out.failed += m.failed;
}

void print_json(const Reported& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.json.size(); ++i) {
    const Metric& x = r.json[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: mlvl_perfbench --workload "
               "<verify_paper_scale|sweep_mixed|repair_damaged|all> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--rounds <n>]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || *s == '-') return false;
  out = v;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::uint64_t v = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      cfg.tiny = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      cfg.workload = argv[++i];
    } else if (a == "--seed" && parse_u64(argv[i + 1], v)) {
      cfg.seed = v;
      ++i;
    } else if (a == "--seconds" && parse_u64(argv[i + 1], v) && v >= 1 &&
               v <= 3600) {
      cfg.seconds = double(v);
      ++i;
    } else if (a == "--trace" && parse_u64(argv[i + 1], v) && v <= 1) {
      cfg.trace = v == 1;
      ++i;
    } else if (a == "--rounds" && parse_u64(argv[i + 1], v) && v >= 1 &&
               v <= 100000) {
      cfg.rounds = static_cast<std::uint32_t>(v);
      ++i;
    } else {
      return usage(("bad argument " + a + " " + argv[i + 1]).c_str());
    }
  }

  std::vector<const WorkloadDef*> selected;
  for (const WorkloadDef& w : kWorkloads)
    if (cfg.workload == "all" || cfg.workload == w.name) selected.push_back(&w);
  if (selected.empty()) return usage("unknown workload");

  Reported out;
  try {
    for (std::size_t i = 0; i < selected.size(); ++i) {
      if (i > 0) reset_peak_rss();
      run_one(*selected[i], cfg,
              selected.size() > 1 ? std::string(selected[i]->name) + "." : "",
              out);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  print_json(out);
  return 0;
}
