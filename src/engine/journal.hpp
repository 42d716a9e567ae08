// Crash-safe sweep checkpoint journal.
//
// A `SweepJournal` is an append-only text file recording every *finished*
// sweep job — ok or failed — one
// flushed line per job, so a killed process loses at most the jobs that were
// still in flight. Deadline and skipped jobs are deliberately not recorded:
// they did not finish, and a resumed run (presumably with a fresh budget)
// should execute them for real. Pre-flight validation failures (bad family
// spec, bad layer count) are not recorded either — they never reach a
// worker, and a resumed run re-derives the identical failure for free.
//
// Format (`mlvl-sweep-journal-v1`): a header line, then one record per line,
// tab-separated. The header carries the run id of the process that created
// the journal (`mlvl-sweep-journal-v1 \t run_id=<id>`); a bare tag without
// it is refused. Records:
//
//   <spec>|L=<L> \t verdict=<name> \t attempts=<n> \t cache_hit=<0|1>
//     \t nodes=.. \t edges=.. \t w=.. \t h=.. \t layers=.. \t area=..
//     \t ww=.. \t wh=.. \t warea=.. \t volume=.. \t wire=.. \t maxwire=..
//     \t maxedge=.. \t vias=.. \t err=<escaped>
//
// The key is the canonical family-spec text plus the layer count — exactly
// the pair that determines a job's deterministic output — so resuming keys
// on content, not on job indices, and tolerates reordered or extended job
// lists. `err` is backslash-escaped (\\, \t, \n); every other field is an
// unsigned integer. Unknown fields are ignored on load (forward compat);
// malformed or truncated lines (the tail a crash tore mid-write) are counted
// and skipped, never fatal.
//
// `SweepResume` is the parsed journal: a map from job key to its recorded
// result. `SweepOptions::resume` pointing at one makes the engine reproduce
// those results in place of re-running the jobs, byte-identical in
// submission order to an uninterrupted run.
#pragma once

#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/thread_annotations.hpp"
#include "engine/sweep.hpp"

namespace mlvl::engine {

/// Resume key for one job: canonical spec text + layer count.
[[nodiscard]] std::string sweep_job_key(const api::FamilySpec& spec,
                                        std::uint32_t L);

/// Parsed journal contents, keyed by `sweep_job_key`.
struct SweepResume {
  std::unordered_map<std::string, JobResult> done;
  std::size_t malformed_lines = 0;  ///< torn/unparseable records skipped

  [[nodiscard]] const JobResult* find(const std::string& key) const {
    auto it = done.find(key);
    return it != done.end() ? &it->second : nullptr;
  }
};

class SweepJournal {
 public:
  static constexpr const char* kHeader = "mlvl-sweep-journal-v1";

  /// Opens `path` for appending, writing the header if the file is new or
  /// empty. Check `valid()` — a journal that failed to open records nothing
  /// (and the engine treats that as "no journal"), it never throws.
  explicit SweepJournal(const std::string& path);
  ~SweepJournal();
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  [[nodiscard]] bool valid() const { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t recorded() const MLVL_EXCLUDES(mu_);

  /// Append one finished job and flush. Thread-safe (workers record from the
  /// pool); verdicts other than ok/failed are ignored by design.
  void record(const JobResult& r) MLVL_EXCLUDES(mu_);

  /// Parse a journal written by this class. Returns std::nullopt (with a
  /// kJournalError diagnostic on `sink`, if given) when the file cannot be
  /// read or carries the wrong header; torn trailing lines only increment
  /// `malformed_lines`.
  [[nodiscard]] static std::optional<SweepResume> load(
      const std::string& path, DiagnosticSink* sink = nullptr);

 private:
  std::string path_;
  /// Opened in the constructor, closed in the destructor, never reassigned —
  /// immutable while shared, so valid() needs no lock. The *stream state*
  /// behind it is mutated only by record(), under mu_.
  std::FILE* file_ = nullptr;
  mutable Mutex mu_;
  std::size_t recorded_ MLVL_GUARDED_BY(mu_) = 0;
};

}  // namespace mlvl::engine
