#include "core/diagnostics.hpp"

#include <algorithm>
#include <array>

#include "obs/metrics.hpp"

namespace mlvl {
namespace {

std::string point_suffix(const Diagnostic& d) {
  if (!d.has_point) return {};
  return " at (" + std::to_string(d.x) + "," + std::to_string(d.y) + "," +
         std::to_string(d.layer) + ")";
}

}  // namespace

const char* code_name(Code c) {
  switch (c) {
    case Code::kNone: return "none";
    case Code::kCoordRange: return "coord-range";
    case Code::kBoxCountMismatch: return "box-count-mismatch";
    case Code::kBoxUnknownNode: return "box-unknown-node";
    case Code::kBoxDuplicate: return "box-duplicate";
    case Code::kBoxOutOfBounds: return "box-out-of-bounds";
    case Code::kBoxLayerRange: return "box-layer-range";
    case Code::kBoxOverlap: return "box-overlap";
    case Code::kSegUnknownEdge: return "seg-unknown-edge";
    case Code::kSegMalformed: return "seg-malformed";
    case Code::kSegOutOfBounds: return "seg-out-of-bounds";
    case Code::kSegLayerRange: return "seg-layer-range";
    case Code::kViaUnknownEdge: return "via-unknown-edge";
    case Code::kViaSpanInvalid: return "via-span-invalid";
    case Code::kViaOutOfBounds: return "via-out-of-bounds";
    case Code::kPointCollision: return "point-collision";
    case Code::kTerminalTheft: return "terminal-theft";
    case Code::kEdgeUnrouted: return "edge-unrouted";
    case Code::kEdgeDisconnected: return "edge-disconnected";
    case Code::kEdgeMissesTerminal: return "edge-misses-terminal";
    case Code::kParseBadHeader: return "parse-bad-header";
    case Code::kParseBadRecord: return "parse-bad-record";
    case Code::kParseBadValue: return "parse-bad-value";
    case Code::kParseTrailingGarbage: return "parse-trailing-garbage";
    case Code::kFileMissing: return "file-missing";
    case Code::kLintLayerParity: return "layer-parity";
    case Code::kLintTurnViaGroup: return "turn-via-group";
    case Code::kLintViaSpanWide: return "via-span-wide";
    case Code::kLintKnockKnee: return "thompson-knock-knee";
    case Code::kLintTerminalRiser: return "terminal-riser-offtrack";
    case Code::kLintZeroLengthSeg: return "zero-length-seg";
    case Code::kLintMergeableRuns: return "mergeable-runs";
    case Code::kLintRedundantVia: return "redundant-via";
    case Code::kLintDeadTrack: return "dead-track";
    case Code::kLintBboxSlack: return "bbox-slack";
    case Code::kSpecUnknownFamily: return "spec-unknown-family";
    case Code::kSpecUnknownParam: return "spec-unknown-param";
    case Code::kSpecMissingParam: return "spec-missing-param";
    case Code::kSpecBadValue: return "spec-bad-value";
    case Code::kSpecBadLayerCount: return "spec-bad-layer-count";
    case Code::kJobDeadline: return "job-deadline";
    case Code::kSweepDeadline: return "sweep-deadline";
    case Code::kJournalError: return "journal-error";
  }
  return "unknown";
}

std::string Diagnostic::to_string() const {
  // The fixed phrases below are load-bearing: callers of the historical
  // first-failure API grep for substrings like "collision", "disconnected",
  // "terminals" and "enters box".
  std::string s;
  switch (code) {
    case Code::kNone:
      s = "no violation";
      break;
    case Code::kCoordRange:
      s = "layout exceeds checker coordinate range";
      break;
    case Code::kBoxCountMismatch:
      s = "box count != node count";
      break;
    case Code::kBoxUnknownNode:
      s = "box for unknown node";
      break;
    case Code::kBoxDuplicate:
      s = "duplicate box for node " + std::to_string(node);
      break;
    case Code::kBoxOutOfBounds:
      s = "box out of bounds";
      if (node != kNoId) s += " (node " + std::to_string(node) + ")";
      break;
    case Code::kBoxLayerRange:
      s = "box layer out of range";
      if (node != kNoId) s += " (node " + std::to_string(node) + ")";
      break;
    case Code::kBoxOverlap:
      s = "overlapping node boxes" + point_suffix(*this);
      break;
    case Code::kSegUnknownEdge:
      s = "segment for unknown edge";
      break;
    case Code::kSegMalformed:
      s = "segment not axis-aligned/normalized";
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kSegOutOfBounds:
      s = "segment out of bounds";
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kSegLayerRange:
      s = "segment layer out of range";
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kViaUnknownEdge:
      s = "via for unknown edge";
      break;
    case Code::kViaSpanInvalid:
      s = "via z-range invalid";
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kViaOutOfBounds:
      s = "via out of bounds";
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kPointCollision:
      s = "wire collision" + point_suffix(*this);
      if (edge != kNoId && edge2 != kNoId)
        s += " between edge " + std::to_string(edge) + " and edge " +
             std::to_string(edge2);
      break;
    case Code::kTerminalTheft:
      s = "wire of edge " + std::to_string(edge) + " enters box of node " +
          std::to_string(node) + point_suffix(*this);
      break;
    case Code::kEdgeUnrouted:
      s = "edge " + std::to_string(edge) + " is unrouted";
      break;
    case Code::kEdgeDisconnected:
      s = "edge " + std::to_string(edge) + " wire is disconnected" +
          point_suffix(*this);
      break;
    case Code::kEdgeMissesTerminal:
      s = "edge " + std::to_string(edge) + " does not reach both terminals";
      if (node != kNoId) s += " (missing node " + std::to_string(node) + ")";
      break;
    case Code::kParseBadHeader:
      s = "bad header";
      break;
    case Code::kParseBadRecord:
      s = "malformed record";
      break;
    case Code::kParseBadValue:
      s = "value out of range";
      break;
    case Code::kParseTrailingGarbage:
      s = "trailing garbage after layout";
      break;
    case Code::kFileMissing:
      s = "cannot open file";
      break;
    case Code::kLintLayerParity:
      s = "run on wrong-parity layer" + point_suffix(*this);
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kLintTurnViaGroup:
      s = "turn via pairs two layer groups" + point_suffix(*this);
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kLintViaSpanWide:
      s = "turn via spans more than one boundary" + point_suffix(*this);
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kLintKnockKnee:
      s = "knock-knee" + point_suffix(*this);
      if (edge != kNoId && edge2 != kNoId)
        s += " between edge " + std::to_string(edge) + " and edge " +
             std::to_string(edge2);
      break;
    case Code::kLintTerminalRiser:
      s = "riser lands inside box interior of node " + std::to_string(node) +
          point_suffix(*this);
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kLintZeroLengthSeg:
      s = "zero-length segment" + point_suffix(*this);
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kLintMergeableRuns:
      s = "mergeable collinear runs" + point_suffix(*this);
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kLintRedundantVia:
      s = "redundant via" + point_suffix(*this);
      if (edge != kNoId) s += " (edge " + std::to_string(edge) + ")";
      break;
    case Code::kLintDeadTrack:
      s = "dead track";
      break;
    case Code::kLintBboxSlack:
      s = "bounding box not tight to content";
      break;
    case Code::kSpecUnknownFamily:
      s = "unknown network family";
      break;
    case Code::kSpecUnknownParam:
      s = "unknown parameter";
      break;
    case Code::kSpecMissingParam:
      s = "missing required parameter";
      break;
    case Code::kSpecBadValue:
      s = "bad parameter value";
      break;
    case Code::kSpecBadLayerCount:
      s = "layer count must be between 2 and 1024";
      break;
    case Code::kJobDeadline:
      s = "job deadline exceeded";
      break;
    case Code::kSweepDeadline:
      s = "sweep deadline exceeded";
      break;
    case Code::kJournalError:
      s = "sweep journal unreadable or wrong format";
      break;
  }
  if (line != 0) s = "line " + std::to_string(line) + ": " + s;
  if (!detail.empty()) s += " [" + detail + "]";
  return s;
}

bool DiagnosticSink::report(Diagnostic d) {
  // The obs counters tick outside the lock: counter_add synchronizes
  // internally, and keeping it out of the critical section keeps mu_ a leaf
  // in the lock order (§7.10: no lock is ever held while taking another).
  obs::counter_add(d.severity == Severity::kError ? "diag.errors"
                                                  : "diag.warnings");
  bool evicted = false;
  bool kept = true;
  {
    MutexLock lock(&mu_);
    if (d.severity == Severity::kError)
      ++total_errors_;
    else
      ++total_warnings_;
    if (diags_.size() >= capacity_) {
      if (d.severity == Severity::kError) {
        // Evict the newest warning so errors are never crowded out.
        auto it = std::find_if(diags_.rbegin(), diags_.rend(),
                               [](const Diagnostic& x) {
                                 return x.severity == Severity::kWarning;
                               });
        if (it != diags_.rend()) {
          *it = std::move(d);
          ++dropped_;
          ++evicted_;
          evicted = true;
        }
      }
      if (!evicted) {
        ++dropped_;
        kept = false;
      }
    } else {
      diags_.push_back(std::move(d));
      retained_.store(diags_.size(), std::memory_order_relaxed);
    }
  }
  if (evicted) obs::counter_add("diag.evicted");
  return kept;
}

std::size_t DiagnosticSink::dropped() const {
  MutexLock lock(&mu_);
  return dropped_;
}

const std::vector<Diagnostic>& DiagnosticSink::diagnostics() const {
  MutexLock lock(&mu_);
  return diags_;  // see header: only dereference once producers quiesced
}

const Diagnostic* DiagnosticSink::first() const {
  MutexLock lock(&mu_);
  return diags_.empty() ? nullptr : &diags_.front();
}

std::size_t DiagnosticSink::total_errors() const {
  MutexLock lock(&mu_);
  return total_errors_;
}

std::size_t DiagnosticSink::total_warnings() const {
  MutexLock lock(&mu_);
  return total_warnings_;
}

std::size_t DiagnosticSink::evicted() const {
  MutexLock lock(&mu_);
  return evicted_;
}

void DiagnosticSink::clear() {
  MutexLock lock(&mu_);
  diags_.clear();
  dropped_ = 0;
  evicted_ = 0;
  total_errors_ = 0;
  total_warnings_ = 0;
  retained_.store(0, std::memory_order_relaxed);
}

std::size_t DiagnosticSink::errors() const {
  MutexLock lock(&mu_);
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(), [](const Diagnostic& d) {
        return d.severity == Severity::kError;
      }));
}

std::size_t DiagnosticSink::warnings() const {
  MutexLock lock(&mu_);
  std::size_t errs = static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(), [](const Diagnostic& d) {
        return d.severity == Severity::kError;
      }));
  return diags_.size() - errs;
}

bool DiagnosticSink::has(Code c) const {
  MutexLock lock(&mu_);
  return std::any_of(diags_.begin(), diags_.end(),
                     [c](const Diagnostic& d) { return d.code == c; });
}

std::size_t DiagnosticSink::count(Code c) const {
  MutexLock lock(&mu_);
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [c](const Diagnostic& d) { return d.code == c; }));
}

std::string DiagnosticSink::summary() const {
  MutexLock lock(&mu_);
  if (diags_.empty()) return "clean";
  // Count per code, preserving first-appearance order.
  std::vector<std::pair<Code, std::size_t>> counts;
  for (const Diagnostic& d : diags_) {
    auto it = std::find_if(counts.begin(), counts.end(),
                           [&](const auto& p) { return p.first == d.code; });
    if (it == counts.end())
      counts.emplace_back(d.code, 1);
    else
      ++it->second;
  }
  std::string s;
  for (const auto& [code, n] : counts) {
    if (!s.empty()) s += ", ";
    s += std::to_string(n) + "x " + code_name(code);
  }
  if (dropped_ != 0) s += " (+" + std::to_string(dropped_) + " more)";
  return s;
}

}  // namespace mlvl
