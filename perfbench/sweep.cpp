// sweep_mixed: many small verified jobs through the batch engine. A round
// is one fresh BatchLayoutEngine (cache on) running the whole seeded batch;
// every job in it is an op. No lint runs here, so a lint-only change must
// leave this workload unchanged.
#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/layout_api.hpp"
#include "bench.hpp"
#include "core/checker.hpp"
#include "engine/sweep.hpp"

namespace perfbench {
namespace {

using mlvl::api::FamilyRegistry;
using mlvl::engine::BatchLayoutEngine;
using mlvl::engine::SweepJob;
using mlvl::engine::SweepReport;
using mlvl::engine::SweepTotals;

std::vector<SweepJob> make_jobs(std::uint64_t seed, bool tiny) {
  const std::string S = std::to_string(seed);
  const std::vector<std::string> full = {
      "hypercube(n=6..10)", "kary(k=4..8,n=3)", "ccc(n=5..8)",
      "butterfly(k=4..7)", "enhanced(n=6..9,seed=" + S + ")"};
  const std::vector<std::string> small = {
      "hypercube(n=3..4)", "kary(k=3..4,n=2)", "ccc(n=3..4)",
      "butterfly(k=3..4)", "enhanced(n=3..4,seed=" + S + ")"};
  const std::uint32_t max_L = tiny ? 4 : 16;
  std::vector<SweepJob> jobs;
  for (const std::string& pattern : tiny ? small : full) {
    auto specs = FamilyRegistry::instance().expand(pattern);
    if (!specs) throw std::runtime_error("bad workload pattern " + pattern);
    for (const auto& spec : *specs)
      for (std::uint32_t L = 2; L <= max_L; ++L)
        jobs.push_back({spec, {.L = L}});
  }
  // Seeded Fisher-Yates, so the job order is the same on every platform.
  std::uint64_t state = seed;
  for (std::size_t i = jobs.size(); i > 1; --i) {
    state = splitmix64(state);
    std::swap(jobs[i - 1], jobs[state % i]);
  }
  return jobs;
}

bool same_metrics(const mlvl::LayoutMetrics& a, const mlvl::LayoutMetrics& b) {
  return a.area == b.area && a.wiring_area == b.wiring_area &&
         a.total_wire_length == b.total_wire_length &&
         a.max_wire_length == b.max_wire_length && a.via_count == b.via_count;
}

bool same_totals(const SweepTotals& a, const SweepTotals& b) {
  return a.ok == b.ok && a.failed == b.failed && a.area == b.area &&
         a.volume == b.volume && a.wire_length == b.wire_length &&
         a.vias == b.vias && a.max_wire == b.max_wire;
}

std::string job_name(const SweepJob& j) {
  return mlvl::api::format_family_spec(j.spec) + " L=" +
         std::to_string(j.options.L);
}

}  // namespace

Measured run_sweep_mixed(const Config& cfg) {
  Measured m;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = std::min(kThreads, hw);
  std::vector<SweepJob> jobs;
  SweepReport reference;
  run_setup(m, [&] {
    jobs = make_jobs(cfg.seed, cfg.tiny);
    // Warm-up: the first (cold) batch. Its per-job results are the
    // reference every timed batch must reproduce.
    reference = BatchLayoutEngine({.threads = workers}).run(jobs);
  });
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (!reference.jobs[i].ok)
      m.mismatches.push_back("setup: " + job_name(jobs[i]) +
                             " not verified: " + reference.jobs[i].error);
  const SweepTotals ref_totals = reference.totals();

  m.notes.push_back("jobs   " + std::to_string(jobs.size()) + " per batch, " +
                    std::to_string(workers) + " workers");
  for (std::string& line : formula_table(
           {"hypercube", "kary", "ccc", "butterfly", "enhanced"}))
    m.notes.push_back(std::move(line));

  struct EngineRound {
    double wall_ms, busy_ms, utilization, queue_wait_p50, hit_ratio;
  };
  std::vector<EngineRound> traced_rounds;

  auto round = [&](std::size_t, bool traced) {
    const Clock::time_point t0 = Clock::now();
    SweepReport rep;
    {
      mlvl::obs::Span s("engine.run");
      rep = BatchLayoutEngine({.threads = workers}).run(jobs);
    }
    const double wall_ms = ms_between(t0, Clock::now());
    m.round_ops_per_s.push_back(double(jobs.size()) / (wall_ms / 1e3));
    std::vector<double> waits;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& r = rep.jobs[i];
      ++m.attempted;
      waits.push_back(r.queue_wait_ms);
      if (!r.ok) {
        ++m.failed;
        m.mismatches.push_back(job_name(jobs[i]) +
                               " not verified: " + r.error);
        continue;
      }
      m.op_ms.push_back(r.run_ms);
      m.op_class.push_back(i);
      if (same_metrics(r.metrics, reference.jobs[i].metrics))
        ++m.verdict_ok;
      else
        m.mismatches.push_back(job_name(jobs[i]) +
                               ": metrics differ from the reference batch");
      add_paper_ratios(m, r.spec, r.nodes, r.L, r.metrics);
      m.wire_after += double(r.metrics.total_wire_length);
      m.wire_before += double(r.metrics.total_wire_length);
    }
    if (!same_totals(rep.totals(), ref_totals))
      m.mismatches.push_back("batch totals differ from the reference batch");
    if (traced) {
      const double lookups = double(rep.cache_hits + rep.cache_misses);
      traced_rounds.push_back({rep.wall_ms, rep.busy_ms, rep.utilization(),
                               median(waits),
                               double(rep.cache_hits) / lookups});
    }
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
  const Clock::time_point b0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) round(i, true);
  const double traced_ms = ms_between(b0, Clock::now());

  // 1-worker references: the engine at one worker, and the same jobs made
  // serially through one public call per layer (topology built once per
  // spec, as the engine's cache does). Both must match the 4-worker totals.
  SweepReport serial_engine;
  {
    mlvl::obs::Span s("engine.run");
    serial_engine = BatchLayoutEngine({.threads = 1}).run(jobs);
  }
  if (!same_totals(serial_engine.totals(), ref_totals))
    m.mismatches.push_back("1-worker engine totals differ from " +
                           std::to_string(workers) + "-worker totals");

  std::map<std::string, mlvl::Orthogonal2Layer> built;
  std::uint64_t rec_sum = 0, pts_sum = 0;
  SweepTotals serial{};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SweepJob& job = jobs[i];
    const std::string key = mlvl::api::format_family_spec(job.spec);
    auto it = built.find(key);
    if (it == built.end()) {
      std::optional<mlvl::Orthogonal2Layer> ortho;
      {
        mlvl::obs::Span s("layout.build");
        ortho = FamilyRegistry::instance().build(job.spec);
      }
      if (!ortho) {
        ++serial.failed;
        continue;
      }
      it = built.emplace(key, std::move(*ortho)).first;
    }
    const mlvl::Orthogonal2Layer& ortho = it->second;
    mlvl::MultilayerLayout ml;
    {
      mlvl::obs::Span s("multilayer.realize");
      ml = mlvl::realize(ortho, job.options);
    }
    mlvl::CheckReport rep;
    {
      mlvl::obs::Span s("checker.check");
      rep = mlvl::Checker(ortho.graph, ml.geom, {.via_rule = ml.required_rule})
                .check();
    }
    mlvl::LayoutMetrics met;
    {
      mlvl::obs::Span s("metrics.compute");
      met = mlvl::compute_metrics(ml, ortho.graph);
    }
    rec_sum += ml.geom.segs.size() + ml.geom.vias.size() +
               ml.geom.boxes.size();
    pts_sum += rep.points;
    if (!rep.ok) {
      ++serial.failed;
      continue;
    }
    ++serial.ok;
    serial.area += met.area;
    serial.volume += met.volume;
    serial.wire_length += met.total_wire_length;
    serial.vias += met.via_count;
    serial.max_wire = std::max<std::uint64_t>(serial.max_wire,
                                              met.max_wire_length);
  }
  if (!same_totals(serial, ref_totals))
    m.mismatches.push_back("serial per-layer totals differ from " +
                           std::to_string(workers) + "-worker totals");
  tr.stop();

  auto med = [&](double EngineRound::*f) {
    std::vector<double> v;
    for (const EngineRound& r : traced_rounds) v.push_back(r.*f);
    return median(v);
  };
  const double jobs_n = double(jobs.size());
  m.per_layer = {
      {"engine.wall_ms", med(&EngineRound::wall_ms), "ms",
       "median per batch"},
      {"engine.busy_ms", med(&EngineRound::busy_ms), "ms",
       "median per batch, sum of job run times"},
      {"engine.utilization", med(&EngineRound::utilization), "share",
       "busy / (workers x wall)"},
      {"engine.busy_inflation",
       med(&EngineRound::busy_ms) / serial_engine.busy_ms, "ratio",
       "busy at " + std::to_string(workers) + " workers / busy at 1"},
      {"engine.queue_wait_ms_p50", med(&EngineRound::queue_wait_p50), "ms",
       "median job queue wait"},
      {"engine.cache.hit_ratio", med(&EngineRound::hit_ratio), "share",
       "topology cache hits / lookups"},
      {"layout.build_ms", tr.mean_ms("layout.build"), "ms",
       "mean per distinct spec, serial reference"},
      {"multilayer.realize_ms", tr.mean_ms("multilayer.realize"), "ms",
       "mean per job, serial reference"},
      {"metrics.compute_ms", tr.mean_ms("metrics.compute"), "ms",
       "mean per job, serial reference"},
      {"checker.check_ms", tr.mean_ms("checker.check"), "ms",
       "mean per job, serial reference"},
      {"checker.records", double(rec_sum) / jobs_n, "count", "mean per job"},
      {"checker.points", double(pts_sum) / jobs_n, "count", "mean per job"},
      {"checker.ns_per_record",
       tr.total_ms("checker.check") * 1e6 / double(rec_sum), "ns", ""},
  };
  finish_trace(m, tr, untraced_ms, traced_ms, tr.wall_ms());
  return m;
}

}  // namespace perfbench
