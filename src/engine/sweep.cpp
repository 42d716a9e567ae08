#include "engine/sweep.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "engine/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlvl::engine {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Build through the registry, converting its structured failure into an
/// exception so the cache can poison the entry for every waiter.
Orthogonal2Layer build_family_or_throw(const api::FamilySpec& spec) {
  DiagnosticSink sink(4);
  std::optional<Orthogonal2Layer> o =
      api::FamilyRegistry::instance().build(spec, &sink);
  if (!o) {
    throw std::invalid_argument(sink.first() != nullptr
                                    ? sink.first()->to_string()
                                    : "family build failed");
  }
  return std::move(*o);
}

}  // namespace

const char* verdict_name(JobVerdict v) {
  switch (v) {
    case JobVerdict::kOk: return "ok";
    case JobVerdict::kFailed: return "failed";
    case JobVerdict::kDeadline: return "deadline";
    case JobVerdict::kSkipped: return "skipped";
  }
  return "failed";
}

bool verdict_from_name(std::string_view name, JobVerdict& out) {
  for (JobVerdict v : {JobVerdict::kOk, JobVerdict::kFailed,
                       JobVerdict::kDeadline, JobVerdict::kSkipped}) {
    if (name == verdict_name(v)) {
      out = v;
      return true;
    }
  }
  return false;
}

bool SweepReport::all_ok() const {
  for (const JobResult& j : jobs)
    if (!j.ok) return false;
  return true;
}

SweepTotals SweepReport::totals() const {
  SweepTotals t;
  for (const JobResult& j : jobs) {
    switch (j.verdict) {
      case JobVerdict::kDeadline: ++t.deadline; break;
      case JobVerdict::kSkipped: ++t.skipped; break;
      default: break;
    }
    if (!j.ok) {
      ++t.failed;
      continue;
    }
    ++t.ok;
    t.area += j.metrics.area;
    t.volume += j.metrics.volume;
    t.wire_length += j.metrics.total_wire_length;
    t.vias += j.metrics.via_count;
    if (j.metrics.max_wire_length > t.max_wire)
      t.max_wire = j.metrics.max_wire_length;
  }
  return t;
}

double SweepReport::utilization() const {
  const double denom = static_cast<double>(threads) * wall_ms;
  return denom > 0 ? busy_ms / denom : 0;
}

BatchLayoutEngine::BatchLayoutEngine(SweepOptions opt) : opt_(std::move(opt)) {}

SweepReport BatchLayoutEngine::run(const std::vector<SweepJob>& jobs) {
  obs::Span sweep_span("engine.sweep");
  sweep_span.arg("jobs", std::uint64_t{jobs.size()});
  obs::counter_add("engine.jobs.submitted", jobs.size());
  const Clock::time_point t0 = Clock::now();

  SweepReport report;
  report.jobs.resize(jobs.size());

  // The bound applies from this batch on; a cache over it shrinks now.
  cache_.set_capacity(opt_.cache_capacity);
  const CacheStats cache_before = cache_.stats();

  // Canonicalize every spec up front, serially: deterministic, cheap, and a
  // bad spec fails its slot without ever occupying a worker.
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<std::string> keys(jobs.size());
  std::vector<bool> runnable(jobs.size(), false);
  std::vector<bool> resumed(jobs.size(), false);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobResult& r = report.jobs[i];
    r.spec = jobs[i].spec;
    r.L = jobs[i].options.L;
    DiagnosticSink sink(4);
    std::optional<api::FamilySpec> canon =
        reg.canonicalize(jobs[i].spec, &sink);
    if (!canon) {
      r.error = sink.first() != nullptr ? sink.first()->to_string()
                                        : "bad family spec";
      continue;
    }
    if (!api::validate_options(jobs[i].options, &sink)) {
      r.spec = std::move(*canon);
      r.error = sink.first()->to_string();
      continue;
    }
    r.spec = std::move(*canon);
    keys[i] = api::format_family_spec(r.spec);
    runnable[i] = true;

    // Resume prologue: a job whose spec×L key is in the journal reproduces
    // its recorded result here, byte-identical in submission order, and
    // never reaches a worker (so the topology cache stays cold for it).
    if (opt_.resume != nullptr) {
      const JobResult* rec = opt_.resume->find(sweep_job_key(r.spec, r.L));
      if (rec != nullptr) {
        api::FamilySpec spec = std::move(r.spec);
        r = *rec;
        r.spec = std::move(spec);
        r.L = jobs[i].options.L;
        r.resumed = true;
        runnable[i] = false;
        resumed[i] = true;
        ++report.resumed;
        obs::counter_add("engine.jobs.resumed");
      }
    }
  }

  unsigned threads = opt_.threads != 0 ? opt_.threads
                                       : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > jobs.size()) threads = static_cast<unsigned>(jobs.size());
  if (threads == 0) threads = 1;
  report.threads = threads;

  // Sweep-wide budget: child of the external request_cancel() token so a
  // daemon shutdown and a sweep deadline share one cooperative path.
  CancelToken sweep_token(&external_cancel_);
  if (opt_.sweep_deadline_ms != 0)
    sweep_token.set_deadline_after_ms(opt_.sweep_deadline_ms);

  // Relaxed by design: `next` only hands out disjoint indices (the claimed
  // slot itself is the payload, and each report.jobs[i] has exactly one
  // writer). Audited in DESIGN.md §7.10.
  std::atomic<std::size_t> next{0};
  auto worker = [&](unsigned wid) {
    // Per-worker latency histograms let a regression be localized: one slow
    // worker (pinned core, NUMA) looks different from uniformly slower jobs.
    // Names are built once per worker, only when a registry is installed.
    const bool per_worker = obs::metrics_enabled();
    const std::string wq =
        "engine.worker." + std::to_string(wid) + ".queue_wait_ms";
    const std::string wj = "engine.worker." + std::to_string(wid) + ".job_ms";
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      JobResult& r = report.jobs[i];
      if (resumed[i]) continue;  // reproduced from the journal, not a failure
      if (!runnable[i]) {
        obs::counter_add("engine.jobs.failed");
        continue;
      }
      // A sweep budget tripped before this job started: structured skip,
      // no pipeline work, partial report stays deterministic.
      if (sweep_token.tripped()) {
        r.ok = false;
        r.verdict = JobVerdict::kSkipped;
        r.error = std::string(sweep_token.reason()) + " before job start";
        obs::counter_add("engine.deadline.sweep");
        obs::counter_add("engine.jobs.failed");
        continue;
      }
      r.queue_wait_ms = ms_since(t0);
      obs::histogram_record("engine.queue_wait_ms", r.queue_wait_ms);
      if (per_worker) obs::histogram_record(wq, r.queue_wait_ms);
      const Clock::time_point job_t0 = Clock::now();
      r.attempts = 1;
      {
        // The parent link makes the sweep deadline observable mid-pipeline.
        CancelToken job_token(&sweep_token);
        if (opt_.job_deadline_ms != 0)
          job_token.set_deadline_after_ms(opt_.job_deadline_ms);
        CancelScope scope(&job_token);
        // Correlation tags: every phase span recorded inside this job nests
        // under an engine.job identified by what it was building. The
        // verdict arg is attached where the job concludes.
        obs::Span job_span("engine.job");
        job_span.arg("spec", keys[i])
            .arg("L", std::uint64_t{jobs[i].options.L})
            .arg("worker", std::uint64_t{wid});
        try {
          OrthoCache::Ptr ortho;
          bool hit = false;
          if (opt_.use_cache) {
            ortho = cache_.get_or_build(
                keys[i], [&] { return build_family_or_throw(r.spec); }, &hit);
          } else {
            ortho = std::make_shared<const Orthogonal2Layer>(
                build_family_or_throw(r.spec));
          }
          r.cache_hit = hit;
          obs::counter_add(hit ? "engine.cache.hit" : "engine.cache.miss");

          api::LayoutRequest req;
          req.spec = r.spec;
          req.options = jobs[i].options;
          req.check = opt_.check;
          req.check_options.threads = opt_.check_threads;
          api::LayoutResult res = api::run_layout(*ortho, req, nullptr);
          r.ok = res.ok;
          r.error = std::move(res.error);
          r.nodes = res.nodes;
          r.edges = res.edges;
          r.metrics = std::move(res.metrics);
          r.verdict = r.ok ? JobVerdict::kOk : JobVerdict::kFailed;
        } catch (const CancelledError& ex) {
          // Only this job's own token (or the sweep's, its parent) throws
          // here: the cache rebuilds past other jobs' cancelled builds.
          // Structured deadline verdict instead of a hung worker.
          r.ok = false;
          r.verdict = JobVerdict::kDeadline;
          r.error = ex.what();
          obs::counter_add(sweep_token.tripped_flag_only()
                               ? "engine.deadline.sweep"
                               : "engine.deadline.job");
        } catch (const std::exception& ex) {
          r.ok = false;
          r.verdict = JobVerdict::kFailed;
          r.error = ex.what();
        }
        job_span.arg("verdict", verdict_name(r.verdict));
      }
      r.run_ms = ms_since(job_t0);
      obs::histogram_record("engine.job_ms", r.run_ms);
      if (per_worker) obs::histogram_record(wj, r.run_ms);
      obs::counter_add(r.ok ? "engine.jobs.completed" : "engine.jobs.failed");
      // Checkpoint: one flushed line per finished job (the journal itself
      // ignores deadline/skip verdicts — those re-run on resume).
      if (opt_.journal != nullptr) opt_.journal->record(r);
    }
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }

  report.wall_ms = ms_since(t0);
  for (const JobResult& j : report.jobs) report.busy_ms += j.run_ms;
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    if (!runnable[i] || report.jobs[i].attempts == 0) continue;
    if (report.jobs[i].verdict == JobVerdict::kDeadline ||
        report.jobs[i].verdict == JobVerdict::kSkipped)
      continue;  // never reached (or never finished) the cache lookup
    if (report.jobs[i].cache_hit)
      ++report.cache_hits;
    else
      ++report.cache_misses;
  }
  obs::gauge_set("engine.threads", threads);
  obs::gauge_set("engine.wall_ms", report.wall_ms);
  obs::gauge_set("engine.utilization", report.utilization());

  // Sweep-level budget outcome, as a structured warning the CLI can surface.
  if (sweep_token.tripped()) {
    Diagnostic d;
    d.code = Code::kSweepDeadline;
    d.severity = Severity::kWarning;
    d.detail = sweep_token.reason();
    report.warnings.push_back(std::move(d));
  }

  const CacheStats cache_after = cache_.stats();
  report.cache_evictions = cache_after.evictions - cache_before.evictions;
  report.cache_entries = cache_after.entries;
  report.cache_bytes = cache_after.bytes;
  return report;
}

SweepReport run_sweep(const std::vector<SweepJob>& jobs,
                      const SweepOptions& opt) {
  BatchLayoutEngine eng(opt);
  return eng.run(jobs);
}

}  // namespace mlvl::engine
