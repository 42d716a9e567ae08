// Multi-thread hammer suite for every internally synchronized component:
// MetricsRegistry counters/gauges/histograms, TraceSession span nesting
// across threads, OrthoCache get-or-build on colliding keys plus the
// CacheStats snapshot contract under contention, DiagnosticSink concurrent
// reporting, the CancelToken latch tree, the SweepJournal writer, the
// MetricsSampler shutdown handshake, and the annotated Mutex/CondVar
// wrappers themselves.
//
// These tests assert *exact* post-join totals (relaxed atomics never lose
// increments; mutexed maps never lose inserts) and monotonicity *during*
// contention. They are designed for the TSan CI lane (MLVL_TSAN=ON): any
// data race in the components under test is a report there, and any torn
// total fails the assertions in every build mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "core/cancel.hpp"
#include "core/checker.hpp"
#include "core/diagnostics.hpp"
#include "core/thread_annotations.hpp"
#include "engine/journal.hpp"
#include "engine/ortho_cache.hpp"
#include "layout/hypercube_layout.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace mlvl {
namespace {

constexpr unsigned kThreads = 8;

/// Run `fn(t)` on kThreads threads and join them all.
template <typename Fn>
void run_threads(Fn fn, unsigned n = kThreads) {
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(fn, t);
  for (std::thread& th : pool) th.join();
}

// ---------------------------------------------------------- MetricsRegistry

TEST(ThreadingMetrics, CounterGaugeHistogramHammerKeepsExactTotals) {
  obs::MetricsRegistry reg;
  reg.install();
  constexpr std::uint64_t kOps = 2000;
  run_threads([&](unsigned t) {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      obs::counter_add("hammer.count");
      obs::counter_add("hammer.weighted", 3);
      obs::gauge_set("hammer.gauge", static_cast<double>(i));
      obs::gauge_max("hammer.peak", static_cast<double>(t * kOps + i));
      obs::histogram_record("hammer.hist", static_cast<double>(i % 64));
    }
  });
  obs::MetricsRegistry::uninstall();

  EXPECT_EQ(reg.counter("hammer.count"), kThreads * kOps);
  EXPECT_EQ(reg.counter("hammer.weighted"), 3 * kThreads * kOps);
  // gauge_set keeps *a* last value — any thread's, but a real one.
  ASSERT_TRUE(reg.gauge("hammer.gauge").has_value());
  EXPECT_LT(*reg.gauge("hammer.gauge"), static_cast<double>(kOps));
  // gauge_max is exact: the global maximum survives interleaving.
  EXPECT_EQ(*reg.gauge("hammer.peak"),
            static_cast<double>(kThreads * kOps - 1));
  const std::optional<obs::HistogramData> h = reg.histogram("hammer.hist");
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->count, kThreads * kOps);
  EXPECT_EQ(h->min, 0.0);
  EXPECT_EQ(h->max, 63.0);
}

TEST(ThreadingMetrics, ConcurrentReadersSeeMonotoneCounters) {
  obs::MetricsRegistry reg;
  reg.install();
  std::atomic<bool> done{false};
  std::uint64_t last = 0;
  bool monotone = true;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now = reg.counter("mono.count");
      if (now < last) monotone = false;
      last = now;
    }
  });
  run_threads([&](unsigned) {
    for (int i = 0; i < 2000; ++i) obs::counter_add("mono.count");
  });
  done.store(true, std::memory_order_release);
  reader.join();
  obs::MetricsRegistry::uninstall();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(reg.counter("mono.count"), kThreads * 2000u);
}

// ------------------------------------------------------------ TraceSession

TEST(ThreadingTrace, NestedSpansAcrossThreadsStayBalanced) {
  obs::TraceSession session;
  session.install();
  constexpr int kIters = 200;
  run_threads([&](unsigned) {
    for (int i = 0; i < kIters; ++i) {
      obs::Span outer("threading.outer");
      {
        obs::Span mid("threading.mid");
        obs::Span inner("threading.inner");
      }
    }
  });
  obs::TraceSession::uninstall();

  EXPECT_EQ(session.size(), 3u * kThreads * kIters);
  EXPECT_TRUE(session.has_span("threading.outer"));
  EXPECT_TRUE(session.has_span("threading.inner"));
  // Depth is tracked per thread: outer spans sit at depth 0, mid at 1,
  // inner at 2, regardless of how threads interleave.
  for (const obs::TraceEvent& ev : session.events()) {
    const std::string name = ev.name;
    const std::uint32_t want =
        name == "threading.outer" ? 0u : (name == "threading.mid" ? 1u : 2u);
    ASSERT_EQ(ev.depth, want) << name;
    ASSERT_LT(ev.tid, kThreads + 2u);  // small dense thread indices
  }
}

// -------------------------------------------------------------- OrthoCache

TEST(ThreadingOrthoCache, CollidingGetOrBuildBuildsEachKeyOnce) {
  engine::OrthoCache cache;
  constexpr int kKeys = 6;
  constexpr int kIters = 50;
  std::atomic<std::uint64_t> builds{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<engine::OrthoCache::Ptr> first(kKeys);

  // Warm one reference pointer per key, serially, so threads can compare.
  for (int k = 0; k < kKeys; ++k)
    first[k] = cache.get_or_build("key" + std::to_string(k), [&] {
      builds.fetch_add(1, std::memory_order_relaxed);
      return layout::layout_hypercube(2 + (k % 3));
    });

  run_threads([&](unsigned t) {
    for (int i = 0; i < kIters; ++i) {
      const int k = static_cast<int>(t + i) % kKeys;
      bool hit = false;
      engine::OrthoCache::Ptr p =
          cache.get_or_build("key" + std::to_string(k),
                             [&] {
                               builds.fetch_add(1, std::memory_order_relaxed);
                               return layout::layout_hypercube(2 + (k % 3));
                             },
                             &hit);
      if (p != first[k] || !hit)
        mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  });

  EXPECT_EQ(builds.load(), static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(mismatches.load(), 0u);
  const engine::CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s.entries, static_cast<std::size_t>(kKeys));
}

TEST(ThreadingOrthoCache, StatsSnapshotIsMonotoneUnderContention) {
  engine::OrthoCache cache;
  cache.set_capacity(4);  // force eviction churn while workers hammer
  std::atomic<bool> done{false};

  // Reader: the documented CacheStats contract — every monotonic field is
  // non-decreasing between two snapshots taken from one thread, even while
  // builders and evictions race underneath.
  std::atomic<std::uint64_t> violations{0};
  std::thread reader([&] {
    engine::CacheStats prev = cache.stats();
    while (!done.load(std::memory_order_acquire)) {
      const engine::CacheStats now = cache.stats();
      if (now.hits < prev.hits || now.misses < prev.misses ||
          now.evictions < prev.evictions)
        violations.fetch_add(1, std::memory_order_relaxed);
      prev = now;
    }
  });

  run_threads([&](unsigned t) {
    for (int i = 0; i < 40; ++i) {
      const int k = static_cast<int>(t * 40 + i) % 12;  // > capacity keys
      cache.get_or_build("stats" + std::to_string(k),
                         [&] { return layout::layout_hypercube(2); });
    }
  });
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(violations.load(), 0u);
  const engine::CacheStats s = cache.stats();
  // Quiesced cross-field coherence: every lookup was a hit or a miss, the
  // entry count respects the bound, and eviction happened at all.
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads) * 40);
  EXPECT_LE(s.entries, 4u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.entries, cache.size());
}

/// Thread A builds `key` and is cancelled mid-build (it blocks on a latch,
/// then throws CancelledError as a tripped deadline would); thread B joins as
/// a co-waiter on that build, with `b_token` installed (nullptr = none).
/// Deterministic: B is known to be waiting once stats().hits == 1, and only
/// then is A released. Returns B's layout, or nullptr if B was cancelled.
engine::OrthoCache::Ptr co_wait_on_cancelled_build(engine::OrthoCache& cache,
                                                   const CancelToken* b_token,
                                                   int* b_builds) {
  std::promise<void> building, release;
  std::shared_future<void> released = release.get_future().share();
  bool a_cancelled = false;
  std::thread a([&] {
    try {
      (void)cache.get_or_build("k", [&]() -> Orthogonal2Layer {
        building.set_value();
        released.wait();
        throw CancelledError("topology", "deadline exceeded");
      });
    } catch (const CancelledError&) {
      a_cancelled = true;
    }
  });
  building.get_future().wait();

  engine::OrthoCache::Ptr b_result;
  std::thread b([&] {
    CancelScope scope(b_token);
    try {
      b_result = cache.get_or_build("k", [&] {
        ++*b_builds;
        return layout::layout_hypercube(3);
      });
    } catch (const CancelledError&) {
      b_result = nullptr;
    }
  });
  while (cache.stats().hits != 1) std::this_thread::yield();
  release.set_value();
  a.join();
  b.join();
  EXPECT_TRUE(a_cancelled);  // the builder always sees its own cancellation
  return b_result;
}

TEST(ThreadingOrthoCache, CoWaiterWithIntactBudgetRebuildsPastCancelledBuild) {
  // Another job's deadline must not fail a job whose own budget is intact:
  // the cancelled entry is erased and the co-waiter builds it afresh.
  engine::OrthoCache cache;
  int b_builds = 0;
  CancelToken intact;  // armed but never tripped
  engine::OrthoCache::Ptr p =
      co_wait_on_cancelled_build(cache, &intact, &b_builds);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->graph.num_nodes(), 8u);
  EXPECT_EQ(b_builds, 1);
  const engine::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);  // A's cancelled build, then B's rebuild
  EXPECT_EQ(s.entries, 1u);
}

TEST(ThreadingOrthoCache, CoWaiterWithTrippedBudgetInheritsCancellation) {
  engine::OrthoCache cache;
  int b_builds = 0;
  CancelToken tripped;
  tripped.cancel("deadline exceeded");
  EXPECT_EQ(co_wait_on_cancelled_build(cache, &tripped, &b_builds), nullptr);
  EXPECT_EQ(b_builds, 0);
  EXPECT_EQ(cache.stats().entries, 0u);  // the cancelled entry was erased
}

// ---------------------------------------------------------- DiagnosticSink

TEST(ThreadingDiagnostics, ConcurrentReportsNeverLoseTotals) {
  DiagnosticSink sink(64);
  constexpr int kPerThread = 500;
  run_threads([&](unsigned t) {
    for (int i = 0; i < kPerThread; ++i) {
      Diagnostic d;
      d.code = Code::kPointCollision;
      // A mix of severities exercises the eviction path at capacity.
      d.severity = (t + i) % 3 == 0 ? Severity::kError : Severity::kWarning;
      sink.report(std::move(d));
    }
  });

  EXPECT_EQ(sink.total_errors() + sink.total_warnings(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(sink.size(), 64u);  // exactly at capacity, never past it
  EXPECT_TRUE(sink.full());
  EXPECT_EQ(sink.size() + sink.dropped(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(sink.errors() + sink.warnings(), sink.size());
  EXPECT_TRUE(sink.has(Code::kPointCollision));
}

// -------------------------------------------------------------- CancelToken

TEST(ThreadingCancel, LatchPropagatesThroughTheTokenTree) {
  CancelToken root;
  CancelToken sweep(&root);
  std::vector<std::unique_ptr<CancelToken>> jobs;
  for (unsigned i = 0; i < kThreads; ++i)
    jobs.push_back(std::make_unique<CancelToken>(&sweep));

  std::atomic<unsigned> observed{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      while (!jobs[t]->tripped()) std::this_thread::yield();
      // The release/acquire latch guarantees the reason is visible here.
      EXPECT_STREQ(jobs[t]->reason(), "shutdown");
      observed.fetch_add(1, std::memory_order_relaxed);
    });
  root.cancel("shutdown");
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(observed.load(), kThreads);
  EXPECT_TRUE(sweep.tripped_flag_only() || sweep.tripped());
}

// -------------------------------------------------------------- SweepJournal

TEST(ThreadingJournal, ConcurrentRecordsAllLandIntact) {
  const std::string path = "test_threading_journal.mlvlj";
  std::remove(path.c_str());
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  constexpr int kPerThread = 40;
  {
    engine::SweepJournal journal(path);
    ASSERT_TRUE(journal.valid());
    run_threads([&](unsigned t) {
      for (int i = 0; i < kPerThread; ++i) {
        engine::JobResult r;
        r.spec = *reg.parse("hypercube(n=" +
                            std::to_string(2 + (t * kPerThread + i) % 9) +
                            ")");
        r.L = 2 + (t + static_cast<unsigned>(i)) % 60;
        r.ok = true;
        r.verdict = engine::JobVerdict::kOk;
        r.attempts = 1;
        r.nodes = t;
        r.edges = static_cast<std::uint64_t>(i);
        journal.record(r);
      }
    });
    EXPECT_EQ(journal.recorded(),
              static_cast<std::size_t>(kThreads) * kPerThread);
  }
  // Every line must parse back whole: interleaved writers would tear lines
  // without the journal's lock, and load() counts torn lines.
  std::optional<engine::SweepResume> resume = engine::SweepJournal::load(path);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->malformed_lines, 0u);
  EXPECT_GT(resume->done.size(), 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ MetricsSampler

TEST(ThreadingSampler, SamplesWhileHammeredAndStopsPromptly) {
  obs::MetricsRegistry reg;
  reg.install();
  obs::MetricsSampler sampler;
  sampler.start(reg, 1);
  run_threads([&](unsigned) {
    for (int i = 0; i < 1000; ++i) obs::counter_add("sampler.load");
  });
  sampler.stop();
  obs::MetricsRegistry::uninstall();
  EXPECT_FALSE(sampler.running());
  // t=0 snapshot plus the closing one, at minimum.
  EXPECT_GE(sampler.snapshots(), 2u);
  EXPECT_EQ(reg.counter("sampler.load"), kThreads * 1000u);
}

TEST(ThreadingSampler, StopIsPromptForLongIntervals) {
  obs::MetricsRegistry reg;
  reg.install();
  obs::MetricsSampler sampler;
  sampler.start(reg, 60'000);  // one-minute interval
  const auto t0 = std::chrono::steady_clock::now();
  sampler.stop();  // the condvar handshake must not wait the interval out
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  obs::MetricsRegistry::uninstall();
  EXPECT_LT(ms, 10'000.0);
}

// ------------------------------------------------- Parallel band checker

/// Band-parallel occupancy check under TSan: worker threads claim bands from
/// the shared cursor, report into one DiagnosticSink, and merge per-band
/// results. Every repeat and every worker count must produce byte-identical
/// diagnostics; any race in the scratch reuse or the merge is a TSan report.
TEST(ThreadingChecker, ParallelBandScanIsDeterministicUnderRepeats) {
  Graph g(16);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 12;
  geom.height = 24;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const std::uint32_t y = 3 * i;
    g.add_edge(2 * i, 2 * i + 1);
    geom.boxes.push_back({0, y, 2, 2, 2 * i});
    geom.boxes.push_back({9, y, 2, 2, 2 * i + 1});
    geom.segs.push_back({1, y, 9, y, 1, i});
  }
  // Cross-band theft: edges 1 and 5 invade their neighbours' tracks.
  geom.segs.push_back({1, 0, 9, 0, 1, 1});
  geom.segs.push_back({1, 12, 9, 12, 1, 5});

  auto render = [](const DiagnosticSink& sink) {
    std::string out;
    for (const Diagnostic& d : sink.diagnostics()) out += d.to_string() + '\n';
    return out;
  };

  DiagnosticSink serial_sink(1024);
  CheckReport serial =
      Checker(g, geom, {.threads = 1, .band_rows = 3}).check(serial_sink);
  const std::string want = render(serial_sink);
  EXPECT_FALSE(serial.ok);

  for (int rep = 0; rep < 8; ++rep) {
    DiagnosticSink sink(1024);
    Checker checker(g, geom, {.threads = kThreads, .band_rows = 3});
    CheckReport r = checker.check(sink);
    ASSERT_EQ(r.ok, serial.ok) << "repeat " << rep;
    ASSERT_EQ(r.points, serial.points) << "repeat " << rep;
    ASSERT_EQ(render(sink), want) << "repeat " << rep;
  }
}

/// Independent Checker instances (each spawning its own band workers) are
/// safe to run concurrently — the only shared state is the installed
/// metrics registry, whose totals must come out exact.
TEST(ThreadingChecker, ConcurrentCheckersKeepExactMetricTotals) {
  obs::MetricsRegistry reg;
  reg.install();
  Orthogonal2Layer o = layout::layout_hypercube(3);
  MultilayerLayout ml = realize(o, {.L = 4});

  std::atomic<std::uint64_t> oks{0};
  std::atomic<std::uint64_t> bands{0};
  constexpr int kIters = 4;
  run_threads([&](unsigned) {
    for (int i = 0; i < kIters; ++i) {
      Checker checker(o.graph, ml.geom,
                      {.via_rule = ml.required_rule, .threads = 2});
      DiagnosticSink sink(64);
      CheckReport r = checker.check(sink);
      if (r.ok) oks.fetch_add(1, std::memory_order_relaxed);
      bands.fetch_add(r.bands_checked, std::memory_order_relaxed);
    }
  });
  obs::MetricsRegistry::uninstall();

  EXPECT_EQ(oks.load(), static_cast<std::uint64_t>(kThreads) * kIters);
  // Every pass scanned every band, and the shared counter saw all of them.
  EXPECT_EQ(reg.counter("check.bands.dirty"), bands.load());
  EXPECT_EQ(reg.counter("check.bands.clean"), 0u);
}

// ------------------------------------------------- Mutex/CondVar primitives

TEST(ThreadingPrimitives, MutexCondVarHandshake) {
  Mutex mu;
  CondVar cv;
  int stage = 0;  // guarded by mu
  std::thread consumer([&] {
    MutexLock lock(&mu);
    while (stage < kThreads) cv.wait(mu);
    stage = -1;
  });
  for (unsigned t = 0; t < kThreads; ++t) {
    {
      MutexLock lock(&mu);
      ++stage;
    }
    cv.notify_one();
  }
  consumer.join();
  MutexLock lock(&mu);
  EXPECT_EQ(stage, -1);
}

}  // namespace
}  // namespace mlvl
