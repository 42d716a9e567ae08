// Shared helpers for the reproduction benches: realize + verify + measure,
// consistent paper-vs-measured table emission, and the machine-readable
// baseline recorder.
//
// Every `measure()` call that names a family contributes one record to
// `BENCH_mlvl.json` ({family, L, nodes, wall statistics, area, wiring_area,
// volume, max_wire, vias}). Wall times are no longer one-shot: each bench
// point runs `warmup()` discarded iterations followed by `repeats()`
// measured ones and records {median, min, max, p95, stddev, repeats}
// (schema "mlvl-bench-v2", with `wall_ms` = median so v1 consumers keep
// working). The file also carries an `env` block (compiler, build type,
// flags, core count) so the bench-diff comparator can flag cross-toolchain
// comparisons. The file is merge-on-write — each bench binary updates its
// own families and preserves the rest — so running the whole suite produces
// one consolidated baseline for CI to gate on with `layout_tool bench-diff`.
//
// Knobs: `--repeats N` / `--warmup N` (strip with `parse_bench_flags` before
// benchmark::Initialize) or the MLVL_BENCH_REPEATS / MLVL_BENCH_WARMUP
// environment variables. `MLVL_BENCH_JSON` overrides the output path
// (default: ./BENCH_mlvl.json).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "core/checker.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "core/multilayer.hpp"
#include "core/orthogonal.hpp"
#include "obs/run_context.hpp"
#include "obs/stats.hpp"

namespace mlvl::bench {

struct Measured {
  MultilayerLayout ml;
  LayoutMetrics metrics;
};

/// Repeat configuration for every measure() call in this process.
/// Defaults come from MLVL_BENCH_REPEATS / MLVL_BENCH_WARMUP; `--repeats` /
/// `--warmup` (via parse_bench_flags) override both.
struct BenchConfig {
  std::uint32_t repeats = 3;
  std::uint32_t warmup = 1;
};

inline BenchConfig& config() {
  static BenchConfig cfg = [] {
    BenchConfig c;
    auto env_u32 = [](const char* name, std::uint32_t fallback) {
      const char* v = std::getenv(name);
      if (v == nullptr || *v == '\0') return fallback;
      char* end = nullptr;
      const unsigned long n = std::strtoul(v, &end, 10);
      if (end != v && *end == '\0' && n >= 1 && n <= 1000)
        return static_cast<std::uint32_t>(n);
      // Falling back silently would let a typo (`MLVL_BENCH_REPEATS=1O`)
      // measure with the default repeat count while the operator believes
      // otherwise — say so, on stderr, and keep the bench running.
      std::cerr << "bench: ignoring " << name << "='" << v
                << "' (wants an integer in 1..1000); using " << fallback
                << "\n";
      return fallback;
    };
    c.repeats = env_u32("MLVL_BENCH_REPEATS", c.repeats);
    c.warmup = env_u32("MLVL_BENCH_WARMUP", c.warmup);
    return c;
  }();
  return cfg;
}

/// Strip `--repeats N` / `--warmup N` from argv (benchmark::Initialize
/// rejects flags it does not know) and apply them to config(). Call first
/// thing in main. Malformed values are ignored rather than fatal — a bench
/// binary must never refuse to run over a harness knob.
inline void parse_bench_flags(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool is_repeats = arg == "--repeats";
    const bool is_warmup = arg == "--warmup";
    if ((is_repeats || is_warmup) && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long n = std::strtoul(argv[i + 1], &end, 10);
      if (end != argv[i + 1] && *end == '\0' && n >= 1 && n <= 1000) {
        (is_repeats ? config().repeats : config().warmup) =
            static_cast<std::uint32_t>(n);
      }
      ++i;  // consume the value either way
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
}

/// One consolidated-baseline row: the paper's cost quantities for one
/// (family, L, N) point plus repeat statistics of the wall time of
/// realize + compute_metrics (the check that follows them is not timed: it
/// is not part of the layout algorithm being baselined).
struct BenchRecord {
  std::string family;
  std::uint32_t L = 0;
  std::uint64_t nodes = 0;
  double wall_ms = 0;         ///< median over repeats
  double wall_min_ms = 0;
  double wall_max_ms = 0;
  double wall_p95_ms = 0;
  double wall_stddev_ms = 0;
  std::uint32_t repeats = 1;
  std::uint64_t area = 0;
  std::uint64_t wiring_area = 0;
  std::uint64_t volume = 0;
  std::uint64_t max_wire = 0;
  std::uint64_t vias = 0;
};

/// Collects BenchRecords for this process and writes BENCH_mlvl.json at
/// exit. Merge-on-write: records already in the file are preserved unless
/// this run re-measured the same (family, L, nodes) point.
class BenchRecorder {
 public:
  static BenchRecorder& instance() {
    static BenchRecorder r;
    return r;
  }

  static std::string path() {
    const char* env = std::getenv("MLVL_BENCH_JSON");
    return env != nullptr && *env != '\0' ? env : "BENCH_mlvl.json";
  }

  void add(BenchRecord rec) {
    Key k{rec.family, rec.L, rec.nodes};
    records_[std::move(k)] = std::move(rec);
    dirty_ = true;
  }

  /// Merge with any existing file and write. Returns false on I/O failure.
  bool write() {
    dirty_ = false;
    std::map<Key, BenchRecord> merged;
    if (std::optional<io::JsonValue> old = io::load_json(path())) {
      if (const io::JsonValue* recs = old->find("records");
          recs != nullptr && recs->kind == io::JsonValue::Kind::kArray) {
        for (const io::JsonValue& item : recs->items) {
          BenchRecord r;
          if (!from_json(item, r)) continue;
          merged[Key{r.family, r.L, r.nodes}] = std::move(r);
        }
      }
    }
    for (const auto& [k, r] : records_) merged[k] = r;

    std::ofstream os(path());
    if (!os) return false;
    const obs::BuildEnv env = obs::capture_build_env();
    os << "{\n  \"schema\": \"mlvl-bench-v2\",\n";
    os << "  \"run_id\": \"" << obs::run_id() << "\",\n";
    os << "  \"env\": {\"compiler\": \"" << env.compiler
       << "\", \"build_type\": \"" << env.build_type << "\", \"flags\": \""
       << env.flags << "\", \"cores\": " << env.cores << "},\n";
    os << "  \"records\": [";
    bool first = true;
    for (const auto& [k, r] : merged) {
      os << (first ? "\n" : ",\n");
      first = false;
      os << "    {\"family\": \"" << r.family << "\", \"L\": " << r.L
         << ", \"nodes\": " << r.nodes << ", \"wall_ms\": " << r.wall_ms
         << ", \"wall_min_ms\": " << r.wall_min_ms
         << ", \"wall_max_ms\": " << r.wall_max_ms
         << ", \"wall_p95_ms\": " << r.wall_p95_ms
         << ", \"wall_stddev_ms\": " << r.wall_stddev_ms
         << ", \"repeats\": " << r.repeats << ", \"area\": " << r.area
         << ", \"wiring_area\": " << r.wiring_area
         << ", \"volume\": " << r.volume << ", \"max_wire\": " << r.max_wire
         << ", \"vias\": " << r.vias << "}";
    }
    os << "\n  ]\n}\n";
    return bool(os);
  }

  ~BenchRecorder() {
    if (dirty_ && !write())
      std::cerr << "bench: failed to write " << path() << "\n";
  }

 private:
  using Key = std::tuple<std::string, std::uint32_t, std::uint64_t>;

  BenchRecorder() = default;

  static bool from_json(const io::JsonValue& v, BenchRecord& r) {
    if (v.kind != io::JsonValue::Kind::kObject) return false;
    const io::JsonValue* f = v.find("family");
    if (f == nullptr || f->kind != io::JsonValue::Kind::kString) return false;
    r.family = f->str;
    auto num = [&v](const char* name) {
      const io::JsonValue* n = v.find(name);
      return n != nullptr && n->kind == io::JsonValue::Kind::kNumber ? n->number
                                                                     : 0.0;
    };
    // A record without the v2 wall statistics is malformed and dropped.
    for (const char* k : {"wall_ms", "wall_min_ms", "wall_max_ms",
                          "wall_p95_ms", "wall_stddev_ms", "repeats"}) {
      const io::JsonValue* n = v.find(k);
      if (n == nullptr || n->kind != io::JsonValue::Kind::kNumber) return false;
    }
    r.L = static_cast<std::uint32_t>(num("L"));
    r.nodes = static_cast<std::uint64_t>(num("nodes"));
    r.wall_ms = num("wall_ms");
    r.wall_min_ms = num("wall_min_ms");
    r.wall_max_ms = num("wall_max_ms");
    r.wall_p95_ms = num("wall_p95_ms");
    r.wall_stddev_ms = num("wall_stddev_ms");
    r.repeats = static_cast<std::uint32_t>(num("repeats"));
    r.area = static_cast<std::uint64_t>(num("area"));
    r.wiring_area = static_cast<std::uint64_t>(num("wiring_area"));
    r.volume = static_cast<std::uint64_t>(num("volume"));
    r.max_wire = static_cast<std::uint64_t>(num("max_wire"));
    r.vias = static_cast<std::uint64_t>(num("vias"));
    return true;
  }

  std::map<Key, BenchRecord> records_;
  bool dirty_ = false;
};

/// Fill a BenchRecord's wall statistics from repeat samples.
inline void apply_wall_stats(BenchRecord& rec, std::vector<double> samples) {
  const obs::SampleStats s = obs::summarize(std::move(samples));
  rec.wall_ms = s.median;
  rec.wall_min_ms = s.min;
  rec.wall_max_ms = s.max;
  rec.wall_p95_ms = s.p95;
  rec.wall_stddev_ms = s.stddev;
  rec.repeats = s.repeats;
}

/// Realize at L layers, verify the geometry, and compute metrics. The timed
/// region (realize + compute_metrics) runs config().warmup discarded
/// iterations then config().repeats measured ones; the returned layout and
/// metrics are from the final iteration, which the checker always verifies:
/// it throws if the checker rejects the layout, so a bench never reports
/// numbers from invalid geometry. When `family` is non-null the repeat
/// statistics are recorded into the consolidated BENCH_mlvl.json baseline.
inline Measured measure(const Orthogonal2Layer& o, std::uint32_t L,
                        bool pack_extras = true,
                        const char* family = nullptr) {
  const BenchConfig& cfg = config();
  const RealizeOptions opts{.L = L, .node_size = 0,
                            .pack_extras = pack_extras};
  Measured r;
  // Anonymous measurements skip warmup/repeats: they are used inside
  // google-benchmark loops, which do their own repetition.
  const std::uint32_t warmup = family != nullptr ? cfg.warmup : 0;
  const std::uint32_t repeats = family != nullptr ? cfg.repeats : 1;
  for (std::uint32_t i = 0; i < warmup; ++i) {
    r.ml = realize(o, opts);
    r.metrics = compute_metrics(r.ml, o.graph);
  }
  std::vector<double> samples;
  samples.reserve(repeats);
  for (std::uint32_t i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    r.ml = realize(o, opts);
    r.metrics = compute_metrics(r.ml, o.graph);
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  const CheckReport res =
      Checker(o.graph, r.ml.geom, {.via_rule = r.ml.required_rule}).check();
  if (!res.ok) throw std::runtime_error("bench: invalid layout: " + res.error);
  if (family != nullptr) {
    BenchRecord rec;
    rec.family = family;
    rec.L = L;
    rec.nodes = o.graph.num_nodes();
    apply_wall_stats(rec, std::move(samples));
    rec.area = r.metrics.area;
    rec.wiring_area = r.metrics.wiring_area;
    rec.volume = r.metrics.volume;
    rec.max_wire = r.metrics.max_wire_length;
    rec.vias = r.metrics.via_count;
    BenchRecorder::instance().add(std::move(rec));
  }
  return r;
}

inline double ratio(double measured, double paper) {
  return paper > 0 ? measured / paper : 0.0;
}

}  // namespace mlvl::bench
