// Shared pieces of the end-to-end benchmark: run configuration, the
// span recorder used by traced runs, the measurement record every
// workload fills, summary statistics, and the spec -> paper-formula table.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/family_spec.hpp"
#include "core/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;        ///< smoke-test sizes
  std::uint32_t rounds = 0; ///< fixed round count instead of --seconds
};

/// Engine workers (sweep_mixed) and clients (repair_damaged); never more
/// than the core count.
inline constexpr unsigned kThreads = 4;

/// Recorder of the traced run: an obs::TraceSession, installed from
/// construction until stop(). The benchmark opens an obs::Span around each
/// call into a library layer, named "<layer>.<call>" (the list is in
/// common.cpp); those spans never nest in one another. The library's own
/// phase spans nest inside them and are left out of the summary, which
/// obs/profile computes at stop(). With no session installed, as in the
/// untraced runs, a Span costs one relaxed atomic load.
class LayerTrace {
 public:
  LayerTrace();
  ~LayerTrace();
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// Uninstalls the session and profiles it. Every recording thread must
  /// have been joined.
  void stop();
  /// Wall time from construction to stop().
  [[nodiscard]] double wall_ms() const { return wall_ms_; }
  [[nodiscard]] double total_ms(std::string_view layer) const;
  [[nodiscard]] std::uint64_t count(std::string_view layer) const;
  /// Mean span duration, 0 when the layer was never called.
  [[nodiscard]] double mean_ms(std::string_view layer) const;
  /// Time covered by the benchmark's layer spans.
  [[nodiscard]] double covered_ms() const;
  /// The benchmark's layer spans, most time first.
  [[nodiscard]] const std::vector<mlvl::obs::PhaseStats>& layers() const {
    return layers_;
  }

 private:
  mlvl::obs::TraceSession session_;
  Clock::time_point t0_;
  double wall_ms_ = 0;
  std::vector<mlvl::obs::PhaseStats> layers_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< printed in the table only (percentile, n, ...)
};

/// Everything a workload measures. main.cpp turns it into the reported
/// end-to-end metrics, so every workload reports the same metric set.
struct Measured {
  std::vector<double> setup_s;  ///< one per set-up repetition
  /// Throughput of each measured round (ops finished / the round's time);
  /// ops_per_s is their median.
  std::vector<double> round_ops_per_s;
  /// One entry per op: its time and its class (one spec at one L, or one
  /// network), so op_ms_p50 can take each class's median.
  std::vector<double> op_ms;
  std::vector<std::size_t> op_class;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t verdict_ok = 0;
  /// Measured / paper leading term, one entry per verified layout that has
  /// a closed form.
  std::vector<double> area_ratio;
  std::vector<double> max_wire_ratio;
  /// Total wire of the final verified layouts and of the same layouts
  /// before damage (equal on workloads that damage nothing).
  double wire_after = 0;
  double wire_before = 0;
  std::vector<std::string> mismatches;  ///< every known-answer failure
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;       ///< extra table lines
};

/// Runs `body(t)` for t = 0 .. n-1, t = 0 on the calling thread, joins
/// every thread (also when one throws), then rethrows the first exception.
template <class F>
void run_threads(unsigned n, F&& body) {
  std::vector<std::exception_ptr> errors(n);
  auto guarded = [&](unsigned t) {
    try {
      body(t);
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  {
    std::vector<std::thread> pool;
    struct Joiner {
      std::vector<std::thread>& threads;
      ~Joiner() {
        for (std::thread& th : threads) th.join();
      }
    } joiner{pool};
    for (unsigned t = 1; t < n; ++t) pool.emplace_back(guarded, t);
    guarded(0);
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

/// Appends everything `from` measured to `into` (per-client results of a
/// multi-client workload).
void merge(Measured& into, const Measured& from);

/// Runs `round(i)` for i = 0, 1, ... until `seconds` have elapsed after a
/// whole round, or exactly `fixed` rounds when non-zero. Returns the count.
template <class F>
std::size_t run_rounds(double seconds, std::uint32_t fixed, F&& round) {
  const Clock::time_point t0 = Clock::now();
  std::size_t i = 0;
  for (;; ++i) {
    if (fixed != 0 ? i >= fixed
                   : (i > 0 && ms_between(t0, Clock::now()) >= seconds * 1e3))
      break;
    round(i);
  }
  return i;
}

/// Set-up runs at least kSetupReps times, and again (up to kSetupMaxReps)
/// until kSetupSeconds have gone; setup_s is the median. The machine's
/// speed drifts in phases of about a second, so a median over a few
/// seconds of set-ups moves less from run to run than one over a few
/// quick set-ups.
inline constexpr int kSetupReps = 5;
inline constexpr int kSetupMaxReps = 25;
inline constexpr double kSetupSeconds = 3;

/// Times `setup()` into m.setup_s as above.
template <class F>
void run_setup(Measured& m, F&& setup) {
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < kSetupMaxReps; ++r) {
    if (r >= kSetupReps &&
        ms_between(start, Clock::now()) >= kSetupSeconds * 1e3)
      break;
    const Clock::time_point t0 = Clock::now();
    setup();
    m.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
}

/// Closes a traced run: records bench.trace_overhead_share (the traced
/// wall of the repeated work against its untraced wall) and
/// bench.unattributed_share (share of `wall_ms` covered by no layer span),
/// and adds one table line per layer with its share of `wall_ms`. With
/// several clients `tr` holds all their spans and `wall_ms` is the summed
/// client time.
void finish_trace(Measured& m, const LayerTrace& tr, double untraced_ms,
                  double traced_ms, double wall_ms);

// ---- statistics -----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);
/// The highest whole percentile with at least ten samples above it.
struct Tail {
  double value = 0;
  int pct = 0;        ///< 0 when n <= 10 (value is then the maximum)
  std::size_t n = 0;
};
[[nodiscard]] Tail tail(const std::vector<double>& v);
[[nodiscard]] double geomean(const std::vector<double>& v);

/// Peak resident set of this process since the last reset, in MB.
[[nodiscard]] double peak_rss_mb();
/// Start a new peak-RSS window (used when one process runs several
/// workloads, so each reports its own peak).
void reset_peak_rss();

// ---- paper closed forms ---------------------------------------------------

/// Leading terms of the paper's closed forms for one spec at N nodes and L
/// layers; a field is empty when the paper gives no closed form for it.
struct PaperTerms {
  std::optional<double> area;
  std::optional<double> max_wire;
};
[[nodiscard]] PaperTerms paper_terms(const mlvl::api::FamilySpec& spec,
                                     std::uint64_t nodes, std::uint32_t L);
/// Appends the area and max-wire ratios of one verified layout to `m`.
void add_paper_ratios(Measured& m, const mlvl::api::FamilySpec& spec,
                      std::uint64_t nodes, std::uint32_t L,
                      const mlvl::LayoutMetrics& met);
/// One line per family: which formula each ratio uses, or "excluded".
[[nodiscard]] std::vector<std::string> formula_table(
    const std::vector<std::string>& families);

/// Deterministic 64-bit mixer for deriving sub-seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x);

// ---- workloads ------------------------------------------------------------

Measured run_verify_paper_scale(const Config& cfg);
Measured run_sweep_mixed(const Config& cfg);
Measured run_repair_damaged(const Config& cfg);

}  // namespace perfbench
