// repair_damaged: set-up lays out three mid-size networks, damages seeded
// copies of each with eight repairable faults on disjoint wires, proves
// every fault's declared code shows in a collect-all check, and serializes
// them. An op is
// io::parse_layout -> robustness::repair_layout -> a fresh full
// Checker::check. A closed loop of up to four clients (never more than the
// core count) keeps one op each in flight.
#include <algorithm>
#include <atomic>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "bench.hpp"
#include "core/checker.hpp"
#include "core/io.hpp"
#include "robustness/fault_injector.hpp"
#include "robustness/repair.hpp"

namespace perfbench {
namespace {

using mlvl::robustness::FaultKind;

/// The fault classes repair is specified to fix (one or two edges' wiring,
/// never the layout frame).
constexpr FaultKind kRepairable[] = {
    FaultKind::kShiftSegmentOffTrack, FaultKind::kSwapSegmentLayer,
    FaultKind::kRelabelSegment,       FaultKind::kDiagonalSegment,
    FaultKind::kDropVia,              FaultKind::kDuplicateViaForeign,
    FaultKind::kTruncateViaSpan,      FaultKind::kInvertViaSpan,
    FaultKind::kUnrouteEdge,
};
constexpr int kFaultsPerCopy = 8;
/// Draws per fault before a copy is given up as having no free site.
constexpr int kMaxTries = 64;

struct Base {
  mlvl::api::FamilySpec spec;
  mlvl::Orthogonal2Layer ortho;
  mlvl::MultilayerLayout ml;
  mlvl::LayoutMetrics metrics;
};

struct Damaged {
  std::size_t base = 0;
  std::string text;          ///< serialized graph + damaged geometry
  bool codes_ok = true;      ///< every injected fault's code was seen at set-up
  std::size_t overlaps = 0;  ///< draws refused: on an earlier fault's wires
};

Base make_base(const std::string& text) {
  auto& reg = mlvl::api::FamilyRegistry::instance();
  auto spec = reg.parse(text);
  if (!spec) throw std::runtime_error("bad workload spec " + text);
  auto ortho = reg.build(*spec);
  if (!ortho) throw std::runtime_error("build failed for " + text);
  Base b{*spec, std::move(*ortho), {}, {}};
  b.ml = mlvl::realize(b.ortho, {.L = 4});
  b.metrics = mlvl::compute_metrics(b.ml, b.ortho.graph);
  return b;
}

/// Inclusive block of grid points a segment or via spans (a via's span is
/// taken in either order, so an inverted via still has its points).
struct Block {
  std::uint32_t x1, y1, x2, y2, z1, z2;
  bool meets(const Block& o) const {
    return x1 <= o.x2 && o.x1 <= x2 && y1 <= o.y2 && o.y1 <= y2 &&
           z1 <= o.z2 && o.z1 <= z2;
  }
};
Block block(const mlvl::WireSeg& s) {
  return {std::min(s.x1, s.x2), std::min(s.y1, s.y2), std::max(s.x1, s.x2),
          std::max(s.y1, s.y2), s.layer, s.layer};
}
Block block(const mlvl::Via& v) {
  return {v.x, v.y, v.x, v.y, std::min(v.z1, v.z2), std::max(v.z1, v.z2)};
}

std::uint64_t prim_hash(const mlvl::WireSeg& s) {
  return splitmix64(splitmix64(splitmix64(std::uint64_t{s.x1} << 32 | s.y1) ^
                               (std::uint64_t{s.x2} << 32 | s.y2)) ^
                    s.layer);
}
std::uint64_t prim_hash(const mlvl::Via& v) {
  return splitmix64(splitmix64(std::uint64_t{v.x} << 32 | v.y) ^
                    (std::uint64_t{v.z1} << 16 | v.z2) ^ (1ull << 40));
}

/// Slot of an edge id in per-edge tables; unknown ids share the last slot.
std::size_t slot(mlvl::EdgeId e, std::size_t edges) {
  return std::min<std::size_t>(e, edges);
}

/// Per-edge sum of its segments' and vias' hashes: an edge's sum changes
/// when its set of wire pieces does.
std::vector<std::uint64_t> wiring_sums(const mlvl::LayoutGeometry& geom,
                                       std::size_t edges) {
  std::vector<std::uint64_t> sum(edges + 1, 0);
  for (const mlvl::WireSeg& s : geom.segs)
    sum[slot(s.edge, edges)] += prim_hash(s);
  for (const mlvl::Via& v : geom.vias)
    sum[slot(v.edge, edges)] += prim_hash(v);
  return sum;
}

/// The edges a fault touches, as slots: those whose wiring it changed, and
/// those with wiring on a grid point of the changed edges' wiring before or
/// after it. The checker reports per edge and per occupied point, so
/// faults whose footprints are disjoint cannot hide each other's codes.
std::vector<std::size_t> footprint(const mlvl::LayoutGeometry& before,
                                   const mlvl::LayoutGeometry& after,
                                   std::size_t edges) {
  const std::vector<std::uint64_t> a = wiring_sums(before, edges);
  const std::vector<std::uint64_t> b = wiring_sums(after, edges);
  std::vector<char> in(edges + 1, 0);
  std::vector<std::size_t> out;
  for (std::size_t e = 0; e <= edges; ++e)
    if (a[e] != b[e]) {
      in[e] = 1;
      out.push_back(e);
    }
  std::vector<Block> changed;
  for (const mlvl::LayoutGeometry* g : {&before, &after}) {
    for (const mlvl::WireSeg& s : g->segs)
      if (in[slot(s.edge, edges)]) changed.push_back(block(s));
    for (const mlvl::Via& v : g->vias)
      if (in[slot(v.edge, edges)]) changed.push_back(block(v));
  }
  if (changed.empty()) return out;
  Block box = changed.front();
  for (const Block& c : changed)
    box = {std::min(box.x1, c.x1), std::min(box.y1, c.y1),
           std::max(box.x2, c.x2), std::max(box.y2, c.y2),
           std::min(box.z1, c.z1), std::max(box.z2, c.z2)};
  // Edges other than the changed ones are wired alike before and after.
  auto visit = [&](mlvl::EdgeId edge, const Block& p) {
    const std::size_t e = slot(edge, edges);
    if (in[e] || !box.meets(p)) return;
    if (std::any_of(changed.begin(), changed.end(),
                    [&](const Block& c) { return c.meets(p); })) {
      in[e] = 1;
      out.push_back(e);
    }
  };
  for (const mlvl::WireSeg& s : after.segs) visit(s.edge, block(s));
  for (const mlvl::Via& v : after.vias) visit(v.edge, block(v));
  return out;
}

/// Damages a copy of `b` with faults drawn from `seed` and serializes it.
/// A draw whose footprint meets an earlier fault's is refused and drawn
/// again, so no fault can hide another's code. Known answer: every
/// injected fault's declared code shows in a collect-all check of the
/// damaged copy; each that does not goes to `mismatches`.
Damaged make_damaged(const Base& b, std::size_t base, std::uint64_t seed,
                     std::vector<std::string>& mismatches) {
  Damaged d;
  d.base = base;
  const std::size_t edges = b.ortho.graph.num_edges();
  std::vector<char> used(edges + 1, 0);
  mlvl::LayoutGeometry geom = b.ml.geom;
  std::vector<mlvl::robustness::InjectedFault> faults;
  std::uint64_t state = seed;
  const std::string where = mlvl::api::format_family_spec(b.spec) +
                            " seed " + std::to_string(seed);
  for (int f = 0; f < kFaultsPerCopy; ++f) {
    // A class with no applicable site, or a site on wires an earlier fault
    // touched, is passed over for the next draw, so every copy carries
    // kFaultsPerCopy independent faults.
    bool injected = false;
    for (int tries = 0; !injected && tries < kMaxTries; ++tries) {
      state = splitmix64(state);
      const FaultKind kind = kRepairable[state % std::size(kRepairable)];
      state = splitmix64(state);
      mlvl::LayoutGeometry next = geom;
      auto fault = mlvl::robustness::inject(kind, b.ortho.graph, next, state);
      if (!fault) continue;
      const std::vector<std::size_t> fp = footprint(geom, next, edges);
      if (std::any_of(fp.begin(), fp.end(),
                      [&](std::size_t e) { return used[e] != 0; })) {
        ++d.overlaps;
        continue;
      }
      for (std::size_t e : fp) used[e] = 1;
      geom = std::move(next);
      faults.push_back(std::move(*fault));
      injected = true;
    }
    if (!injected) {
      mismatches.push_back(where + ": no free fault site for draw " +
                           std::to_string(f));
      d.codes_ok = false;
    }
  }
  mlvl::DiagnosticSink sink(1u << 16);
  (void)mlvl::Checker(b.ortho.graph, geom, {.via_rule = b.ml.required_rule})
      .check(sink);
  for (const mlvl::robustness::InjectedFault& f : faults) {
    if (sink.has(f.expected)) continue;
    mismatches.push_back(where + ": " + mlvl::robustness::fault_name(f.kind) +
                         " (" + f.note + ") did not raise " +
                         mlvl::code_name(f.expected));
    d.codes_ok = false;
  }
  std::ostringstream os;
  mlvl::io::write_graph(os, b.ortho.graph);
  mlvl::io::write_geometry(os, geom);
  d.text = os.str();
  return d;
}

/// Per-client layer counters of the traced run.
struct LayerCounts {
  std::uint64_t bytes = 0, ripped = 0, rerouted = 0, passes = 0, records = 0,
                points = 0, ops = 0;
  void add(const LayerCounts& o) {
    bytes += o.bytes;
    ripped += o.ripped;
    rerouted += o.rerouted;
    passes += o.passes;
    records += o.records;
    points += o.points;
    ops += o.ops;
  }
};

/// Everything one client thread records; merged after the join.
struct Client {
  Measured m;
  LayerCounts counts;
  double busy_s = 0;  ///< loop start to the end of this client's last op
};

}  // namespace

Measured run_repair_damaged(const Config& cfg) {
  Measured m;
  const std::vector<std::string> specs =
      cfg.tiny ? std::vector<std::string>{"hypercube(n=5)", "ccc(n=4)",
                                          "kary(k=4,n=2)"}
               : std::vector<std::string>{"hypercube(n=10)", "ccc(n=8)",
                                          "kary(k=6,n=3)"};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned clients = std::min(kThreads, hw);
  // Damaged copies per network. A copy's repair cost depends on where its
  // faults land (per-copy spread is 30-60% of the mean), so a run draws
  // about as many distinct copies as it can repair in --seconds 30, and
  // its totals move little from seed to seed.
  const std::size_t copies = cfg.tiny ? 2 : 96;
  std::vector<Base> bases;
  std::vector<Damaged> damaged;  // copy c of network b at c * 3 + b
  std::size_t overlaps = 0;
  run_setup(m, [&] {
    bases.clear();
    for (const std::string& s : specs) bases.push_back(make_base(s));
    // Copies are independent; build them on the client threads.
    const std::size_t n = copies * bases.size();
    std::vector<Damaged> made(n);
    std::vector<std::vector<std::string>> notes(n);
    std::atomic<std::size_t> next{0};
    run_threads(clients, [&](unsigned) {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) {
        const std::size_t b = i % bases.size();
        made[i] = make_damaged(bases[b], b,
                               splitmix64(cfg.seed * 1000003u + i), notes[i]);
      }
    });
    damaged = std::move(made);
    m.mismatches.clear();
    overlaps = 0;
    for (std::size_t i = 0; i < n; ++i) {
      m.mismatches.insert(m.mismatches.end(), notes[i].begin(),
                          notes[i].end());
      overlaps += damaged[i].overlaps;
    }
  });
  for (const Base& b : bases) {
    const auto rep = mlvl::Checker(b.ortho.graph, b.ml.geom,
                                   {.via_rule = b.ml.required_rule})
                         .check();
    if (!rep.ok)
      m.mismatches.push_back(mlvl::api::format_family_spec(b.spec) +
                             ": fresh layout not verified: " + rep.error);
  }
  m.notes.push_back("copies " + std::to_string(damaged.size()) +
                    " damaged layouts, " + std::to_string(overlaps) +
                    " draws refused for meeting an earlier fault's wires; " +
                    std::to_string(clients) + " clients");
  for (std::string& line : formula_table({"hypercube", "ccc", "kary"}))
    m.notes.push_back(std::move(line));

  auto op = [&](const Damaged& d, Client& c) {
    const Base& b = bases[d.base];
    const std::string name = mlvl::api::format_family_spec(b.spec);
    ++c.m.attempted;
    const Clock::time_point t0 = Clock::now();
    std::optional<mlvl::io::LoadedLayout> loaded;
    {
      mlvl::obs::Span s("io.parse");
      std::istringstream is(d.text);
      loaded = mlvl::io::parse_layout(is);
    }
    if (!loaded) {
      ++c.m.failed;
      c.m.mismatches.push_back(name + ": damaged text did not parse");
      return;
    }
    mlvl::robustness::RepairReport rep;
    {
      mlvl::obs::Span s("repair.repair");
      rep = mlvl::robustness::repair_layout(loaded->graph, loaded->geom,
                                            {.rule = b.ml.required_rule});
    }
    mlvl::CheckReport check;
    {
      mlvl::obs::Span s("checker.final_check");
      check = mlvl::Checker(loaded->graph, loaded->geom,
                            {.via_rule = b.ml.required_rule})
                  .check();
    }
    c.m.op_ms.push_back(ms_between(t0, Clock::now()));
    c.m.op_class.push_back(d.base);
    c.counts.bytes += d.text.size();
    c.counts.ripped += rep.ripped.size();
    c.counts.rerouted += rep.rerouted.size();
    c.counts.passes += rep.passes;
    c.counts.records += loaded->geom.segs.size() + loaded->geom.vias.size() +
                        loaded->geom.boxes.size();
    c.counts.points += check.points;
    ++c.counts.ops;
    if (!rep.ok || !check.ok) {
      ++c.m.failed;
      c.m.mismatches.push_back(name + ": repair left the layout invalid: " +
                               check.error);
      return;
    }
    if (d.codes_ok) ++c.m.verdict_ok;
    const mlvl::MultilayerLayout repaired{.L = b.ml.L,
                                          .groups_h = b.ml.groups_h,
                                          .groups_v = b.ml.groups_v,
                                          .geom = std::move(loaded->geom),
                                          .wiring_width = b.ml.wiring_width,
                                          .wiring_height = b.ml.wiring_height,
                                          .required_rule = b.ml.required_rule};
    mlvl::LayoutMetrics met;
    {
      mlvl::obs::Span s("metrics.compute");
      met = mlvl::compute_metrics(repaired, loaded->graph);
    }
    add_paper_ratios(c.m, b.spec, b.ortho.graph.num_nodes(), b.ml.L, met);
    c.m.wire_after += double(met.total_wire_length);
    c.m.wire_before += double(b.metrics.total_wire_length);
  };

  // Closed loop: `clients` threads, one op in flight each, taking op
  // indices in order until `seconds` have passed (or `limit` ops are
  // taken). Op i repairs damaged copy i mod the pool. The whole loop is one
  // round. Returns the ops run, merges the clients' results into `m` and
  // their layer counters into `counts`.
  LayerCounts counts;
  auto run_clients = [&](double seconds, std::size_t limit) {
    std::vector<Client> per(clients);
    std::atomic<std::size_t> next{0};
    const Clock::time_point t0 = Clock::now();
    run_threads(clients, [&](unsigned t) {
      Client& c = per[t];
      for (;;) {
        if (limit == 0 && ms_between(t0, Clock::now()) >= seconds * 1e3)
          break;
        const std::size_t i = next.fetch_add(1);
        if (limit != 0 && i >= limit) break;
        op(damaged[i % damaged.size()], c);
        c.busy_s = ms_between(t0, Clock::now()) / 1e3;
      }
    });
    // Throughput counts each client's time up to the end of its own last
    // op: the clients that finish first must not idle the others' rate.
    std::size_t ops = 0;
    double busy_s = 0;
    for (Client& c : per) {
      ops += c.m.attempted;
      busy_s += c.busy_s;
      merge(m, c.m);
      counts.add(c.counts);
    }
    m.round_ops_per_s.push_back(double(ops) / (busy_s / clients));
    return ops;
  };

  const std::size_t fixed = std::size_t{cfg.rounds} * bases.size();
  if (!cfg.trace) {
    run_clients(cfg.seconds, fixed);
    return m;
  }

  const Clock::time_point a0 = Clock::now();
  const std::size_t n = run_clients(cfg.seconds / 2, fixed);
  const double untraced_ms = ms_between(a0, Clock::now());
  counts = {};
  LayerTrace tr;
  run_clients(0, n);
  tr.stop();
  const double traced_ms = tr.wall_ms();

  const double ops = double(counts.ops);
  m.per_layer = {
      {"io.parse_ms", tr.mean_ms("io.parse"), "ms", "mean per op"},
      {"io.parse_mb_per_s",
       double(counts.bytes) / 1e6 / (tr.total_ms("io.parse") / 1e3), "MB/s",
       "per client"},
      {"repair.repair_ms", tr.mean_ms("repair.repair"), "ms", "mean per op"},
      {"repair.ripped", double(counts.ripped) / ops, "count",
       "edges ripped, mean per op"},
      {"repair.rerouted_share", double(counts.rerouted) / double(counts.ripped),
       "share", "rerouted / ripped"},
      {"repair.passes", double(counts.passes) / ops, "count", "mean per op"},
      {"checker.final_check_ms", tr.mean_ms("checker.final_check"), "ms",
       "mean per op"},
      {"checker.check_ms", tr.mean_ms("checker.final_check"), "ms",
       "the final check is the only check call"},
      {"checker.records", double(counts.records) / ops, "count",
       "mean per op"},
      {"checker.points", double(counts.points) / ops, "count", "mean per op"},
      {"checker.ns_per_record",
       tr.total_ms("checker.final_check") * 1e6 / double(counts.records), "ns",
       ""},
      {"metrics.compute_ms", tr.mean_ms("metrics.compute"), "ms",
       "mean per op, repaired layout"},
  };
  finish_trace(m, tr, untraced_ms, traced_ms, traced_ms * clients);
  return m;
}

}  // namespace perfbench
