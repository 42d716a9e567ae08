// Resource governance and failure containment: deadlines yield structured
// verdicts (never hung workers), the bounded LRU cache evicts cold entries
// and keeps hot ones, the crash journal round-trips every finished job, and
// a killed-and-resumed sweep is byte-identical to an uninterrupted one.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "engine/journal.hpp"
#include "engine/sweep.hpp"

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

/// Deterministic view of one result: excludes timings and cache_hit (which
/// job of a same-spec group builds is scheduling-dependent).
std::string fingerprint(const JobResult& j) {
  std::ostringstream os;
  os << api::format_family_spec(j.spec) << " L=" << j.L << " ok=" << j.ok
     << " verdict=" << verdict_name(j.verdict) << " err=" << j.error
     << " nodes=" << j.nodes << " edges=" << j.edges
     << " area=" << j.metrics.area << " vol=" << j.metrics.volume
     << " wire=" << j.metrics.total_wire_length
     << " vias=" << j.metrics.via_count;
  return os.str();
}

std::string fingerprint(const SweepReport& r) {
  std::ostringstream os;
  for (const JobResult& j : r.jobs) os << fingerprint(j) << "\n";
  return os.str();
}

/// RAII temp file: removed on scope exit so test reruns start clean.
struct TempFile {
  explicit TempFile(const char* name) : path(name) { std::remove(name); }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// ---------------------------------------------------------------- verdicts

TEST(Governance, VerdictNamesRoundTrip) {
  for (JobVerdict v : {JobVerdict::kOk, JobVerdict::kFailed,
                       JobVerdict::kDeadline, JobVerdict::kSkipped}) {
    JobVerdict back = JobVerdict::kOk;
    ASSERT_TRUE(verdict_from_name(verdict_name(v), back)) << verdict_name(v);
    EXPECT_EQ(back, v);
  }
  JobVerdict ignored = JobVerdict::kOk;
  EXPECT_FALSE(verdict_from_name("bogus", ignored));
  EXPECT_FALSE(verdict_from_name("retried", ignored));
  EXPECT_FALSE(verdict_from_name("", ignored));
}

// --------------------------------------------------------------- deadlines

TEST(Governance, JobDeadlineYieldsStructuredVerdictNotAHungWorker) {
  // A 1 ms budget on a 1024-node hypercube trips inside the pipeline; the
  // job comes back kDeadline with a phase-stamped error, and an unbudgeted
  // sibling in the same batch still succeeds.
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<SweepJob> jobs;
  jobs.push_back({*reg.parse("hypercube(n=10)"), {.L = 2}});
  SweepOptions opt;
  opt.threads = 1;
  opt.job_deadline_ms = 1;
  SweepReport r = run_sweep(jobs, opt);
  ASSERT_EQ(r.jobs.size(), 1u);
  const JobResult& j = r.jobs[0];
  EXPECT_FALSE(j.ok);
  EXPECT_EQ(j.verdict, JobVerdict::kDeadline);
  EXPECT_NE(j.error.find("deadline exceeded"), std::string::npos) << j.error;
  EXPECT_NE(j.error.find("in phase"), std::string::npos) << j.error;
  EXPECT_EQ(r.totals().deadline, 1u);

  // The deadline is per job, not per engine: the next batch runs unbudgeted.
  SweepReport ok = run_sweep({{*reg.parse("hypercube(n=3)"), {.L = 2}}}, {});
  EXPECT_TRUE(ok.all_ok());
}

TEST(Governance, SweepDeadlineSkipsUnstartedJobs) {
  // One worker, a 1 ms whole-batch budget, and four slow jobs: the batch
  // cannot finish, and every job resolves as deadline or skipped — with the
  // tail deterministically skipped because the budget tripped before pickup.
  std::vector<SweepJob> jobs = hypercube_grid(9, 10, 2, 3);
  SweepOptions opt;
  opt.threads = 1;
  opt.sweep_deadline_ms = 1;
  SweepReport r = run_sweep(jobs, opt);
  ASSERT_EQ(r.jobs.size(), jobs.size());
  SweepTotals t = r.totals();
  EXPECT_EQ(t.ok, 0u);
  EXPECT_EQ(t.deadline + t.skipped, jobs.size());
  EXPECT_GE(t.skipped, 1u);  // the tail never started
  for (const JobResult& j : r.jobs) {
    EXPECT_FALSE(j.ok);
    EXPECT_TRUE(j.verdict == JobVerdict::kDeadline ||
                j.verdict == JobVerdict::kSkipped)
        << verdict_name(j.verdict);
    if (j.verdict == JobVerdict::kSkipped) {
      EXPECT_EQ(j.attempts, 0u);
    }
  }
  // A tripped sweep budget surfaces in the report's warnings.
  bool warned = false;
  for (const Diagnostic& d : r.warnings)
    if (d.code == Code::kSweepDeadline) warned = true;
  EXPECT_TRUE(warned);
}

TEST(Governance, ExternalCancelSkipsTheWholeBatch) {
  BatchLayoutEngine eng({.threads = 2});
  eng.request_cancel();  // shutdown before the batch: nothing should run
  SweepReport r = eng.run(hypercube_grid(3, 4, 2, 2));
  for (const JobResult& j : r.jobs) {
    EXPECT_EQ(j.verdict, JobVerdict::kSkipped) << verdict_name(j.verdict);
    EXPECT_EQ(j.attempts, 0u);
  }
}

// --------------------------------------------------------- bounded cache

TEST(Governance, HardCapacityEvictsLeastRecentlyUsed) {
  // 4 unique specs through a 2-entry cache: at least 2 evictions, and the
  // cache never holds more than its bound.
  SweepOptions opt;
  opt.threads = 1;
  opt.cache_capacity = 2;
  BatchLayoutEngine eng(opt);
  SweepReport r = eng.run(hypercube_grid(3, 6, 2, 2));
  ASSERT_TRUE(r.all_ok());
  EXPECT_EQ(r.cache_misses, 4u);
  EXPECT_GE(r.cache_evictions, 2u);
  EXPECT_LE(eng.cache_size(), 2u);
  EXPECT_LE(r.cache_entries, 2u);
}

TEST(Governance, RecentlyTouchedEntrySurvivesEviction) {
  SweepOptions opt;
  opt.threads = 1;
  opt.cache_capacity = 2;
  BatchLayoutEngine eng(opt);
  // Build A and B, then touch A so B is the LRU victim when C arrives.
  ASSERT_TRUE(eng.run(hypercube_grid(3, 4, 2, 2)).all_ok());  // A=n3, B=n4
  SweepReport touch = eng.run(hypercube_grid(3, 3, 2, 2));    // hit A
  EXPECT_EQ(touch.cache_hits, 1u);
  EXPECT_EQ(touch.cache_misses, 0u);
  ASSERT_TRUE(eng.run(hypercube_grid(5, 5, 2, 2)).all_ok());  // C evicts B
  SweepReport again = eng.run(hypercube_grid(3, 3, 2, 2));    // A still hot
  EXPECT_EQ(again.cache_hits, 1u);
  EXPECT_EQ(again.cache_misses, 0u);
  SweepReport rebuild = eng.run(hypercube_grid(4, 4, 2, 2));  // B was evicted
  EXPECT_EQ(rebuild.cache_misses, 1u);
}

// ----------------------------------------------------------------- journal

TEST(Journal, RoundTripsEveryFinishedJob) {
  TempFile tmp("test_soak_journal_roundtrip.mlvlj");
  std::vector<SweepJob> jobs = hypercube_grid(3, 4, 2, 3);
  SweepReport r;
  {
    SweepJournal journal(tmp.path);
    ASSERT_TRUE(journal.valid());
    SweepOptions opt;
    opt.threads = 2;
    opt.journal = &journal;
    r = run_sweep(jobs, opt);
    ASSERT_TRUE(r.all_ok());
    EXPECT_EQ(journal.recorded(), jobs.size());
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->malformed_lines, 0u);
  EXPECT_EQ(resume->done.size(), jobs.size());
  for (const JobResult& j : r.jobs) {
    const JobResult* rec = resume->find(sweep_job_key(j.spec, j.L));
    ASSERT_NE(rec, nullptr) << sweep_job_key(j.spec, j.L);
    EXPECT_EQ(rec->verdict, j.verdict);
    EXPECT_EQ(rec->attempts, j.attempts);
    EXPECT_EQ(rec->nodes, j.nodes);
    EXPECT_EQ(rec->edges, j.edges);
    EXPECT_EQ(rec->metrics.area, j.metrics.area);
    EXPECT_EQ(rec->metrics.volume, j.metrics.volume);
    EXPECT_EQ(rec->metrics.total_wire_length, j.metrics.total_wire_length);
    EXPECT_EQ(rec->metrics.via_count, j.metrics.via_count);
    EXPECT_TRUE(rec->resumed);
  }
}

TEST(Journal, ErrorTextEscapesControlCharacters) {
  TempFile tmp("test_soak_journal_escape.mlvlj");
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  JobResult r;
  r.spec = *reg.parse("hypercube(n=3)");
  r.L = 2;
  r.verdict = JobVerdict::kFailed;
  r.attempts = 1;
  r.error = "tab\there\nnewline\\backslash";
  {
    SweepJournal journal(tmp.path);
    ASSERT_TRUE(journal.valid());
    journal.record(r);
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  ASSERT_EQ(resume->malformed_lines, 0u);
  const JobResult* rec = resume->find(sweep_job_key(r.spec, r.L));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->error, r.error);
  EXPECT_EQ(rec->verdict, JobVerdict::kFailed);
  EXPECT_FALSE(rec->ok);
}

TEST(Journal, TornTrailingLineIsCountedNotFatal) {
  TempFile tmp("test_soak_journal_torn.mlvlj");
  {
    SweepJournal journal(tmp.path);
    SweepOptions opt;
    opt.threads = 1;
    opt.journal = &journal;
    ASSERT_TRUE(run_sweep(hypercube_grid(3, 3, 2, 3), opt).all_ok());
  }
  {  // simulate the torn tail a crash leaves: a record cut mid-write
    std::ofstream os(tmp.path, std::ios::app);
    os << "hypercube(n=9)|L=2\tverdict=ok\tattempts=1";  // no err= terminator
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->malformed_lines, 1u);
  EXPECT_EQ(resume->done.size(), 2u);  // the intact records still load
  EXPECT_EQ(resume->find("hypercube(n=9)|L=2"), nullptr);
}

TEST(Journal, WrongHeaderAndMissingFileAreStructuredFailures) {
  DiagnosticSink sink;
  EXPECT_FALSE(SweepJournal::load("no_such_journal_file.mlvlj").has_value());
  TempFile tmp("test_soak_journal_badheader.mlvlj");
  {
    std::ofstream os(tmp.path);
    os << "some-other-format-v9\n";
  }
  EXPECT_FALSE(SweepJournal::load(tmp.path, &sink).has_value());
  // The bare schema tag without a run id is refused too.
  {
    std::ofstream os(tmp.path);
    os << SweepJournal::kHeader << "\n";
  }
  EXPECT_FALSE(SweepJournal::load(tmp.path, &sink).has_value());
  std::size_t diagnosed = 0;
  for (const Diagnostic& d : sink.diagnostics())
    if (d.code == Code::kJournalError) ++diagnosed;
  EXPECT_EQ(diagnosed, 2u);

  // A record whose verdict the engine does not produce is malformed and is
  // never resumed as ok.
  {
    std::ofstream os(tmp.path);
    os << SweepJournal::kHeader << "\trun_id=run-0\n"
       << "hypercube(n=3)|L=2\tverdict=retried\tattempts=2\tcache_hit=0"
       << "\tnodes=8\tedges=12\tarea=100\terr=\n";
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->malformed_lines, 1u);
  EXPECT_EQ(resume->find("hypercube(n=3)|L=2"), nullptr);
}

// ------------------------------------------------------------------ resume

TEST(Resume, InterruptedSweepResumesByteIdentical) {
  // Run the first half of a grid with a journal (the "crash" happens after),
  // then resume the full grid against that journal: the combined output must
  // be byte-identical to one uninterrupted serial run, and the resumed half
  // must not re-execute.
  TempFile tmp("test_soak_resume.mlvlj");
  const std::vector<SweepJob> all = hypercube_grid(3, 5, 2, 3);
  const std::vector<SweepJob> half(all.begin(),
                                   all.begin() + std::ptrdiff_t(all.size() / 2));
  {
    SweepJournal journal(tmp.path);
    SweepOptions opt;
    opt.threads = 1;
    opt.journal = &journal;
    ASSERT_TRUE(run_sweep(half, opt).all_ok());
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  ASSERT_EQ(resume->done.size(), half.size());

  SweepOptions opt;
  opt.threads = 1;
  opt.resume = &*resume;
  SweepReport resumed = run_sweep(all, opt);
  SweepReport uninterrupted = run_sweep(all, {.threads = 1});

  ASSERT_TRUE(resumed.all_ok());
  EXPECT_EQ(fingerprint(resumed), fingerprint(uninterrupted));
  EXPECT_EQ(resumed.resumed, half.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(resumed.jobs[i].resumed, i < half.size()) << i;
    // Resumed results carry the *recorded* attempt count, matching the run
    // they reproduce — not a fresh execution.
    EXPECT_EQ(resumed.jobs[i].attempts, uninterrupted.jobs[i].attempts) << i;
  }
}

TEST(Resume, PreflightFailuresReFailIdenticallyWithoutJournaling) {
  // A job rejected before reaching a worker (bad layer count) is not
  // journaled — re-deriving the validation failure on resume is free — but
  // a resumed run still reports it byte-identically to the original.
  TempFile tmp("test_soak_resume_fail.mlvlj");
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<SweepJob> jobs;
  jobs.push_back({*reg.parse("hypercube(n=3)"), {.L = 1}});  // invalid L
  jobs.push_back({*reg.parse("hypercube(n=3)"), {.L = 2}});
  std::string original_error;
  {
    SweepJournal journal(tmp.path);
    SweepOptions opt;
    opt.threads = 1;
    opt.journal = &journal;
    SweepReport r = run_sweep(jobs, opt);
    EXPECT_FALSE(r.jobs[0].ok);
    original_error = r.jobs[0].error;
    EXPECT_EQ(journal.recorded(), 1u);  // only the worker-finished job
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  ASSERT_EQ(resume->done.size(), 1u);
  SweepOptions opt;
  opt.threads = 1;
  opt.resume = &*resume;
  SweepReport r = run_sweep(jobs, opt);
  EXPECT_EQ(r.resumed, 1u);
  EXPECT_FALSE(r.jobs[0].ok);
  EXPECT_FALSE(r.jobs[0].resumed);  // re-failed live, not reproduced
  EXPECT_EQ(r.jobs[0].error, original_error);
  EXPECT_TRUE(r.jobs[1].ok);
  EXPECT_TRUE(r.jobs[1].resumed);
}

// -------------------------------------------------------------------- soak

TEST(Soak, GovernanceInvariantsHoldUnderEvictionChurn) {
  // A long-lived engine whose cache holds 4 of the 6 topologies: every batch
  // evicts and rebuilds. Across batches every job must succeed with real
  // metrics, each batch must match the first, and a fresh serial engine with
  // an unbounded cache must agree — eviction never changes a result.
  const std::vector<SweepJob> jobs = hypercube_grid(3, 8, 2, 4);
  SweepOptions opt;
  opt.threads = 4;
  opt.cache_capacity = 4;
  BatchLayoutEngine eng(opt);

  std::string first;
  for (int iter = 0; iter < 3; ++iter) {
    SweepReport r = eng.run(jobs);
    ASSERT_EQ(r.jobs.size(), jobs.size());
    for (const JobResult& j : r.jobs) {
      EXPECT_TRUE(j.ok) << fingerprint(j);
      EXPECT_EQ(j.verdict, JobVerdict::kOk) << fingerprint(j);
      EXPECT_GT(j.metrics.area, 0u);
      EXPECT_GT(j.nodes, 0u);
      EXPECT_EQ(j.attempts, 1u);
    }
    EXPECT_LE(eng.cache_size(), 4u);
    if (iter == 0)
      first = fingerprint(r);
    else
      EXPECT_EQ(fingerprint(r), first) << "iteration " << iter;
  }
  EXPECT_GT(eng.cache_stats().evictions, 0u);  // the bound was exercised

  SweepOptions serial = opt;
  serial.threads = 1;
  serial.cache_capacity = 0;
  SweepReport replay = run_sweep(jobs, serial);
  EXPECT_EQ(fingerprint(replay), first);
}

}  // namespace
}  // namespace mlvl::engine
