// Unified run report: the one artifact that answers "what did this run do
// and where did the time go" without opening four files.
//
// A `RunReport` merges the profiler's summary (per-phase self time,
// utilization, critical path, slowest jobs), the final metrics snapshot,
// the sweep's cache hit/miss/eviction stats and verdict tallies, the
// governance settings the sweep ran under, and the bench env block —
// all stamped with the process run id — into one self-contained
// `mlvl-run-report-v1` JSON document. layout_tool writes one per run via
// `--report <file>`; CI archives it next to the trace it correlates with.
//
// The struct is plain data with no mlvl_engine dependency: the sweep
// section is populated by the caller (layout_tool copies it out of
// engine::SweepReport), so the report stays usable from any front end.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/profile.hpp"
#include "obs/stats.hpp"

namespace mlvl::obs {

struct RunReport {
  std::string run_id;
  BuildEnv env;

  bool has_profile = false;
  ProfileReport profile;  ///< valid when has_profile

  /// Final registry snapshot as the JSON MetricsRegistry::write_json emits
  /// (embedded verbatim; empty means no registry was installed).
  std::string metrics_json;

  /// Populated by sweep-running callers from engine::SweepReport.
  struct SweepSummary {
    bool present = false;
    std::uint64_t jobs = 0;
    std::uint64_t resumed = 0;
    unsigned threads = 0;
    double wall_ms = 0;
    double busy_ms = 0;
    double utilization = 0;  ///< busy / (threads * wall)
    std::map<std::string, std::uint64_t> verdicts;  ///< verdict name -> count
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_entries = 0;
    std::uint64_t cache_bytes = 0;
    std::uint64_t warnings = 0;
    /// Governance settings the sweep ran under (0 = unlimited).
    std::uint32_t job_deadline_ms = 0;
    std::uint32_t sweep_deadline_ms = 0;
    std::uint64_t cache_capacity = 0;
  } sweep;

  /// `mlvl-run-report-v1` JSON document.
  void write_json(std::ostream& os) const;

  /// One-line human summary (the `-v` output), no trailing newline.
  void write_summary(std::ostream& os) const;
};

}  // namespace mlvl::obs
