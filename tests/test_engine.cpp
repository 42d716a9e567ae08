// The parallel batch layout engine: a sweep run on many workers produces
// results byte-identical to the serial run (submission order, same metrics),
// the topology cache builds each unique spec exactly once, failures stay
// isolated to their job, and the engine emits the documented obs spans and
// counters.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "engine/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlvl::engine {
namespace {

std::vector<SweepJob> hypercube_grid(std::uint32_t n_lo, std::uint32_t n_hi,
                                     std::uint32_t l_lo, std::uint32_t l_hi) {
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<SweepJob> jobs;
  for (std::uint32_t n = n_lo; n <= n_hi; ++n) {
    std::optional<api::FamilySpec> spec =
        reg.parse("hypercube(n=" + std::to_string(n) + ")");
    for (std::uint32_t L = l_lo; L <= l_hi; ++L)
      jobs.push_back({*spec, {.L = L}});
  }
  return jobs;
}

/// Everything deterministic about one result, as text. Deliberately excludes
/// timings and the per-job cache_hit flag (which job of a same-spec group
/// builds is scheduling-dependent; only the aggregate counts are stable).
std::string fingerprint(const JobResult& j) {
  std::ostringstream os;
  os << api::format_family_spec(j.spec) << " L=" << j.L << " ok=" << j.ok
     << " err=" << j.error << " nodes=" << j.nodes << " edges=" << j.edges
     << " w=" << j.metrics.width << " h=" << j.metrics.height
     << " area=" << j.metrics.area << " track=" << j.metrics.wiring_area
     << " vol=" << j.metrics.volume << " wire=" << j.metrics.total_wire_length
     << " max=" << j.metrics.max_wire_length << " vias=" << j.metrics.via_count;
  return os.str();
}

std::string fingerprint(const SweepReport& r) {
  std::ostringstream os;
  for (const JobResult& j : r.jobs) os << fingerprint(j) << "\n";
  os << "hits=" << r.cache_hits << " misses=" << r.cache_misses;
  return os.str();
}

TEST(Engine, ParallelSweepIsByteIdenticalToSerial) {
  const std::vector<SweepJob> jobs = hypercube_grid(3, 5, 2, 4);
  SweepReport serial = run_sweep(jobs, {.threads = 1});
  SweepReport parallel = run_sweep(jobs, {.threads = 4});
  ASSERT_TRUE(serial.all_ok());
  EXPECT_EQ(serial.threads, 1u);
  EXPECT_EQ(parallel.threads, 4u);
  EXPECT_EQ(fingerprint(serial), fingerprint(parallel));
}

TEST(Engine, ResultsComeBackInSubmissionOrder) {
  const std::vector<SweepJob> jobs = hypercube_grid(3, 5, 2, 3);
  SweepReport r = run_sweep(jobs, {.threads = 4});
  ASSERT_EQ(r.jobs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(r.jobs[i].spec.value_or("n", 0), jobs[i].spec.value_or("n", 0))
        << i;
    EXPECT_EQ(r.jobs[i].L, jobs[i].options.L) << i;
  }
}

TEST(Engine, CacheBuildsEachUniqueSpecExactlyOnce) {
  // One topology swept over 6 layer counts: 1 build, 5 hits.
  const std::vector<SweepJob> jobs = hypercube_grid(5, 5, 2, 7);
  BatchLayoutEngine eng({.threads = 4});
  SweepReport r = eng.run(jobs);
  ASSERT_TRUE(r.all_ok());
  EXPECT_EQ(r.cache_misses, 1u);
  EXPECT_EQ(r.cache_hits, jobs.size() - 1);
  EXPECT_EQ(eng.cache_size(), 1u);

  // The cache is a service that outlives one batch: a second run of the same
  // jobs re-layouts nothing.
  SweepReport again = eng.run(jobs);
  ASSERT_TRUE(again.all_ok());
  EXPECT_EQ(again.cache_misses, 0u);
  EXPECT_EQ(again.cache_hits, jobs.size());

  eng.clear_cache();
  EXPECT_EQ(eng.cache_size(), 0u);
}

TEST(Engine, CacheHitsProduceIdenticalMetricsToColdBuilds) {
  const std::vector<SweepJob> jobs = hypercube_grid(4, 4, 2, 5);
  BatchLayoutEngine cold({.threads = 1, .use_cache = false});
  BatchLayoutEngine warm({.threads = 4, .use_cache = true});
  SweepReport no_cache = cold.run(jobs);
  SweepReport cached = warm.run(jobs);
  EXPECT_EQ(no_cache.cache_hits, 0u);
  EXPECT_EQ(no_cache.cache_misses, jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(fingerprint(no_cache.jobs[i]), fingerprint(cached.jobs[i])) << i;
}

TEST(Engine, FailuresStayIsolatedToTheirJob) {
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<SweepJob> jobs;
  jobs.push_back({*reg.parse("hypercube(n=3)"), {.L = 2}});
  jobs.push_back({*reg.parse("hypercube(n=3)"), {.L = 1}});    // bad L
  jobs.push_back({{.family = "moebius", .params = {}}, {.L = 2}});  // bad family
  jobs.push_back({*reg.parse("hypercube(n=4)"), {.L = 2}});

  SweepReport r = run_sweep(jobs, {.threads = 4});
  EXPECT_FALSE(r.all_ok());
  EXPECT_TRUE(r.jobs[0].ok) << r.jobs[0].error;
  EXPECT_FALSE(r.jobs[1].ok);
  EXPECT_NE(r.jobs[1].error.find("layer count"), std::string::npos)
      << r.jobs[1].error;
  EXPECT_FALSE(r.jobs[2].ok);
  EXPECT_NE(r.jobs[2].error.find("unknown network family"), std::string::npos)
      << r.jobs[2].error;
  EXPECT_TRUE(r.jobs[3].ok) << r.jobs[3].error;

  const SweepTotals t = r.totals();
  EXPECT_EQ(t.ok, 2u);
  EXPECT_EQ(t.failed, 2u);
  // Only runnable jobs touch the cache.
  EXPECT_EQ(r.cache_hits + r.cache_misses, 2u);
}

// A spec whose canonical form is in range but whose builder throws (cluster
// size must be a power of two) poisons its cache entry: every job sharing
// the spec fails with the same error, deterministically.
TEST(Engine, PoisonedCacheEntryFailsEverySharingJob) {
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::optional<api::FamilySpec> bad = reg.parse("cluster(k=4,n=2,c=3)");
  ASSERT_TRUE(bad.has_value());
  std::vector<SweepJob> jobs = {{*bad, {.L = 2}}, {*bad, {.L = 4}}};
  SweepReport r = run_sweep(jobs, {.threads = 2});
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_FALSE(r.jobs[0].ok);
  EXPECT_FALSE(r.jobs[1].ok);
  EXPECT_EQ(r.jobs[0].error, r.jobs[1].error);
  EXPECT_FALSE(r.jobs[0].error.empty());
}

TEST(Engine, EmitsDocumentedSpansAndCounters) {
  obs::TraceSession trace;
  obs::MetricsRegistry metrics;
  trace.install();
  metrics.install();
  const std::vector<SweepJob> jobs = hypercube_grid(3, 4, 2, 3);
  SweepReport r = run_sweep(jobs, {.threads = 2});
  obs::TraceSession::uninstall();
  obs::MetricsRegistry::uninstall();
  ASSERT_TRUE(r.all_ok());

  EXPECT_TRUE(trace.has_span("engine.sweep"));
  std::size_t job_spans = 0;
  for (const obs::TraceEvent& ev : trace.events())
    if (std::string_view(ev.name) == "engine.job") ++job_spans;
  EXPECT_EQ(job_spans, jobs.size());

  EXPECT_EQ(metrics.counter("engine.jobs.submitted"), jobs.size());
  EXPECT_EQ(metrics.counter("engine.jobs.completed"), jobs.size());
  EXPECT_EQ(metrics.counter("engine.jobs.failed"), 0u);
  EXPECT_EQ(metrics.counter("engine.cache.miss"), 2u);  // two unique specs
  EXPECT_EQ(metrics.counter("engine.cache.hit"), jobs.size() - 2);
  EXPECT_TRUE(metrics.gauge("engine.wall_ms").has_value());
  EXPECT_TRUE(metrics.histogram("engine.job_ms").has_value());

  EXPECT_GT(r.wall_ms, 0.0);
  EXPECT_GE(r.utilization(), 0.0);
  EXPECT_LE(r.utilization(), 1.05);  // small slack for clock granularity
}

TEST(Engine, CacheTelemetryGaugesTrackSizeAndBytes) {
  obs::MetricsRegistry metrics;
  metrics.install();
  const std::vector<SweepJob> jobs = hypercube_grid(3, 5, 2, 3);
  SweepReport r = run_sweep(jobs, {.threads = 2});
  obs::MetricsRegistry::uninstall();
  ASSERT_TRUE(r.all_ok());

  EXPECT_EQ(r.cache_entries, 3u);  // three unique topologies
  EXPECT_GT(r.cache_bytes, 0u);
  EXPECT_EQ(metrics.gauge("engine.cache.size"), 3.0);
  EXPECT_EQ(metrics.gauge("engine.cache.bytes"),
            static_cast<double>(r.cache_bytes));
  // Per-worker queue-wait and job-latency histograms: either worker may
  // take any share of the jobs (even all of them), but between them they
  // record every job exactly once.
  for (const char* name : {"job_ms", "queue_wait_ms"}) {
    std::uint64_t samples = 0;
    for (int w = 0; w < 2; ++w)
      if (const auto h = metrics.histogram("engine.worker." +
                                           std::to_string(w) + "." + name))
        samples += h->count;
    EXPECT_EQ(samples, jobs.size()) << name;
  }
  EXPECT_TRUE(r.warnings.empty());
}

TEST(Engine, ZeroJobsIsANoOp) {
  SweepReport r = run_sweep({}, {.threads = 8});
  EXPECT_TRUE(r.all_ok());
  EXPECT_TRUE(r.jobs.empty());
  EXPECT_EQ(r.cache_hits + r.cache_misses, 0u);
}

}  // namespace
}  // namespace mlvl::engine
