// ConnectivityOracle: the point-level reference for checker phase 3.
//
// It expands every record of an edge into grid points and runs union-find
// over 6-adjacent points, the model the checker's record-level connectivity
// must reproduce exactly: the same diagnostic (code, edge, node, point) or
// none for every edge the checker verifies. `oracle_mismatches` runs a full
// check with an unbounded sink and lists every edge on which the two
// disagree.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/gridkey.hpp"

namespace mlvl::testing {

class ConnectivityOracle {
 public:
  ConnectivityOracle(const Graph& g, const LayoutGeometry& geom)
      : g_(g), box_of_(g.num_nodes(), nullptr),
        frame_ok_(g.num_edges(), 1), segs_(g.num_edges()),
        vias_(g.num_edges()) {
    // The checker's frame scan: the first box naming a node is that node's
    // terminal, and an edge with any malformed or out-of-frame record gets
    // no connectivity verdict.
    for (const NodeBox& b : geom.boxes)
      if (b.node < g.num_nodes() && box_of_[b.node] == nullptr)
        box_of_[b.node] = &b;
    for (const WireSeg& s : geom.segs) {
      if (s.edge >= g.num_edges()) continue;
      segs_[s.edge].push_back(&s);
      if (s.x1 > s.x2 || s.y1 > s.y2 || (s.x1 != s.x2 && s.y1 != s.y2) ||
          s.x2 >= geom.width || s.y2 >= geom.height || s.layer < 1 ||
          s.layer > geom.num_layers)
        frame_ok_[s.edge] = 0;
    }
    for (const Via& v : geom.vias) {
      if (v.edge >= g.num_edges()) continue;
      vias_[v.edge].push_back(&v);
      if (v.z1 < 1 || v.z2 > geom.num_layers || v.z1 > v.z2 ||
          v.x >= geom.width || v.y >= geom.height)
        frame_ok_[v.edge] = 0;
    }
  }

  /// Whether the checker verifies edge e's connectivity at all.
  [[nodiscard]] bool checked(EdgeId e) const { return frame_ok_[e] != 0; }

  /// The phase-3 verdict for a checked edge.
  [[nodiscard]] std::optional<Diagnostic> verify(EdgeId e) const {
    using grid::key3;
    std::vector<std::uint64_t> p;
    for (const WireSeg* s : segs_[e])
      for (std::uint32_t yy = s->y1; yy <= s->y2; ++yy)
        for (std::uint32_t xx = s->x1; xx <= s->x2; ++xx)
          p.push_back(key3(xx, yy, s->layer));
    for (const Via* v : vias_[e])  // full column: vias always connect
      for (std::uint32_t zz = v->z1; zz <= v->z2; ++zz)
        p.push_back(key3(v->x, v->y, zz));
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
    if (p.empty()) return Diagnostic{.code = Code::kEdgeUnrouted, .edge = e};

    // Union-find over the sorted keys: the +x, +y and +z neighbours of a
    // point are looked up by key, so every adjacent pair is joined from its
    // lower end.
    const auto n = static_cast<std::uint32_t>(p.size());
    std::vector<std::uint32_t> parent(n);
    for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
    auto find = [&](std::uint32_t i) {
      while (parent[i] != i) i = parent[i] = parent[parent[i]];
      return i;
    };
    auto probe = [&](std::uint32_t i, std::uint64_t want) {
      const auto it = std::lower_bound(p.begin(), p.end(), want);
      if (it == p.end() || *it != want) return;
      const std::uint32_t a = find(i);
      const std::uint32_t b = find(static_cast<std::uint32_t>(it - p.begin()));
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    };
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t k = p[i];
      if (grid::key_x(k) != grid::kCoordMax) probe(i, k + 1);
      if (grid::key_y(k) != grid::kCoordMax)
        probe(i, k + (1ull << grid::kCoordBits));
      probe(i, k + (1ull << (2 * grid::kCoordBits)));
    }
    const std::uint32_t root = find(0);
    for (std::uint32_t i = 1; i < n; ++i)
      if (find(i) != root)  // the first stranded point in key order
        return Diagnostic{.code = Code::kEdgeDisconnected,
                          .has_point = true,
                          .x = grid::key_x(p[i]),
                          .y = grid::key_y(p[i]),
                          .layer = static_cast<std::uint16_t>(
                              grid::key_z(p[i])),
                          .edge = e};

    const Edge& ed = g_.edge(e);
    for (const NodeBox* b : {box_of_[ed.u], box_of_[ed.v]}) {
      if (b == nullptr) continue;
      const bool touched = std::any_of(p.begin(), p.end(), [&](auto k) {
        return grid::key_z(k) == b->layer &&
               b->contains(grid::key_x(k), grid::key_y(k));
      });
      if (!touched)
        return Diagnostic{.code = Code::kEdgeMissesTerminal,
                          .has_point = true,
                          .x = b->x,
                          .y = b->y,
                          .layer = b->layer,
                          .edge = e,
                          .node = b->node};
    }
    return std::nullopt;
  }

 private:
  const Graph& g_;
  std::vector<const NodeBox*> box_of_;
  std::vector<char> frame_ok_;
  std::vector<std::vector<const WireSeg*>> segs_;
  std::vector<std::vector<const Via*>> vias_;
};

inline bool is_connectivity_code(Code c) {
  return c == Code::kEdgeUnrouted || c == Code::kEdgeDisconnected ||
         c == Code::kEdgeMissesTerminal;
}

inline std::string describe(const std::optional<Diagnostic>& d) {
  return d ? d->to_string() + " [node " + std::to_string(d->node) + "]"
           : std::string("none");
}

/// Runs a full check of (g, geom) and returns one line per edge whose
/// connectivity diagnostic differs from the oracle's in code, edge, node or
/// point; empty when they agree on every edge.
inline std::vector<std::string> oracle_mismatches(const Graph& g,
                                                  const LayoutGeometry& geom,
                                                  CheckOptions opt) {
  DiagnosticSink sink(std::numeric_limits<std::uint32_t>::max());
  Checker(g, geom, opt).check(sink);
  std::map<EdgeId, Diagnostic> got;
  std::vector<std::string> out;
  for (const Diagnostic& d : sink.diagnostics())
    if (is_connectivity_code(d.code) && !got.emplace(d.edge, d).second)
      out.push_back("edge " + std::to_string(d.edge) + ": two verdicts");
  const ConnectivityOracle oracle(g, geom);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto it = got.find(e);
    std::optional<Diagnostic> have;
    if (it != got.end()) have = it->second;
    std::optional<Diagnostic> want;
    if (oracle.checked(e)) want = oracle.verify(e);
    const bool same =
        have.has_value() == want.has_value() &&
        (!have || (have->code == want->code && have->edge == want->edge &&
                   have->node == want->node &&
                   have->has_point == want->has_point && have->x == want->x &&
                   have->y == want->y && have->layer == want->layer));
    if (!same)
      out.push_back("edge " + std::to_string(e) + ": checker " +
                    describe(have) + ", oracle " + describe(want));
  }
  return out;
}

}  // namespace mlvl::testing
