// Observability subsystem: scoped spans, the metrics registry, Chrome
// trace-event emission, the null-sink fast path, and the end-to-end
// instrumentation of the layout pipeline.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.hpp"
#include "core/cancel.hpp"
#include "core/checker.hpp"
#include "core/diagnostics.hpp"
#include "core/fold.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "core/multilayer.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout_tool_usage.hpp"
#include "obs/metrics.hpp"
#include "obs/run_context.hpp"
#include "obs/trace.hpp"

namespace {

using namespace mlvl;

// ---------------------------------------------------------------- tracing

TEST(Trace, DisabledByDefault) {
  ASSERT_EQ(obs::TraceSession::current(), nullptr);
  EXPECT_FALSE(obs::tracing_enabled());
  obs::Span span("ignored");  // must be a no-op, not a crash
}

TEST(Trace, SpansBalanceUnderNesting) {
  obs::TraceSession session;
  session.install();
  {
    obs::Span outer("outer");
    {
      obs::Span inner("inner");
    }
    obs::Span sibling("sibling");
  }
  obs::TraceSession::uninstall();

  const std::vector<obs::TraceEvent> events = session.events();
  ASSERT_EQ(events.size(), 3u);  // completion order: inner, sibling, outer
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "sibling");
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 0u);
  // The outer span covers both children.
  EXPECT_LE(events[2].ts_us, events[0].ts_us);
  EXPECT_GE(events[2].ts_us + events[2].dur_us,
            events[1].ts_us + events[1].dur_us);
  EXPECT_TRUE(session.has_span("outer"));
  EXPECT_FALSE(session.has_span("nonexistent"));
}

TEST(Trace, SpansBalanceOnEarlyReturnAndException) {
  obs::TraceSession session;
  session.install();
  [&]() {
    obs::Span span("early");
    return;  // NOLINT(readability-redundant-control-flow)
  }();
  try {
    obs::Span span("throwing");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  obs::TraceSession::uninstall();
  EXPECT_EQ(session.size(), 2u);
  EXPECT_TRUE(session.has_span("early"));
  EXPECT_TRUE(session.has_span("throwing"));
}

TEST(Trace, UninstallStopsRecording) {
  obs::TraceSession session;
  session.install();
  { obs::Span span("before"); }
  obs::TraceSession::uninstall();
  { obs::Span span("after"); }
  EXPECT_EQ(session.size(), 1u);
}

TEST(Trace, DestructorUninstalls) {
  {
    obs::TraceSession session;
    session.install();
    EXPECT_EQ(obs::TraceSession::current(), &session);
  }
  EXPECT_EQ(obs::TraceSession::current(), nullptr);
}

TEST(Trace, ThreadsGetDistinctIds) {
  obs::TraceSession session;
  session.install();
  { obs::Span span("main-thread"); }
  std::thread worker([] { obs::Span span("worker-thread"); });
  worker.join();
  obs::TraceSession::uninstall();
  const std::vector<obs::TraceEvent> events = session.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(Trace, ChromeTraceIsWellFormedJson) {
  obs::set_run_id("trace-test-run");
  obs::TraceSession session;
  session.install();
  {
    obs::Span outer("phase-a");
    obs::Span inner("phase \"b\"\\with\nescapes");
  }
  obs::TraceSession::uninstall();

  std::ostringstream os;
  session.write_chrome_trace(os);
  std::optional<io::JsonValue> root = io::parse_json(os.str());
  ASSERT_TRUE(root.has_value()) << os.str();
  ASSERT_EQ(root->kind, io::JsonValue::Kind::kObject);

  const io::JsonValue* unit = root->find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ms");
  const io::JsonValue* rid = root->find("runId");
  ASSERT_NE(rid, nullptr);
  EXPECT_EQ(rid->str, "trace-test-run");

  const io::JsonValue* events = root->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, io::JsonValue::Kind::kArray);
  std::vector<const io::JsonValue*> spans;
  std::vector<const io::JsonValue*> meta;
  for (const io::JsonValue& ev : events->items) {
    ASSERT_EQ(ev.kind, io::JsonValue::Kind::kObject);
    ASSERT_NE(ev.find("ph"), nullptr);
    if (ev.find("ph")->str == "M")
      meta.push_back(&ev);
    else
      spans.push_back(&ev);
  }
  ASSERT_EQ(spans.size(), 2u);
  for (const io::JsonValue* ev : spans) {
    EXPECT_EQ(ev->find("ph")->str, "X");
    EXPECT_EQ(ev->find("cat")->str, "mlvl");
    EXPECT_NE(ev->find("name"), nullptr);
    EXPECT_NE(ev->find("ts"), nullptr);
    EXPECT_NE(ev->find("dur"), nullptr);
    EXPECT_NE(ev->find("pid"), nullptr);
    EXPECT_NE(ev->find("tid"), nullptr);
  }
  // The escaped name round-trips through the emitter and the parser.
  EXPECT_EQ(spans[0]->find("name")->str, "phase \"b\"\\with\nescapes");
  // Metadata names the process and the one recording thread.
  bool process_named = false;
  bool thread_named = false;
  for (const io::JsonValue* m : meta) {
    if (m->find("name")->str == "process_name") {
      process_named = true;
      EXPECT_EQ(m->find("args")->find("name")->str, "mlvl");
    }
    if (m->find("name")->str == "thread_name") {
      thread_named = true;
      EXPECT_EQ(m->find("args")->find("name")->str, "main");
    }
  }
  EXPECT_TRUE(process_named);
  EXPECT_TRUE(thread_named);
}

TEST(Trace, SpanArgsAreRecordedBoundedAndTruncated) {
  obs::TraceSession session;
  session.install();
  {
    obs::Span span("engine.job");
    span.arg("spec", "hypercube(n=4)").arg("L", std::uint64_t{6});
    span.arg("long", std::string(100, 'x'));
    for (int i = 0; i < 10; ++i) span.arg("overflow", "y");  // past the cap
  }
  { obs::Span bare("no-args"); }
  obs::TraceSession::uninstall();

  const std::vector<obs::TraceEvent> events = session.events();
  ASSERT_EQ(events.size(), 2u);
  const obs::TraceEvent& ev = events[0];
  ASSERT_EQ(ev.arg_count, obs::kMaxSpanArgs);  // capped, never overrun
  EXPECT_STREQ(ev.args[0].key, "spec");
  EXPECT_STREQ(ev.args[0].value, "hypercube(n=4)");
  EXPECT_STREQ(ev.args[1].key, "L");
  EXPECT_STREQ(ev.args[1].value, "6");
  // Long values are truncated to the slot, NUL-terminated.
  EXPECT_EQ(std::string(ev.args[2].value).size(), obs::kSpanArgValueCap - 1);
  EXPECT_EQ(events[1].arg_count, 0u);

  // Disabled: arg() must be a no-op on an unrecorded span, not a crash.
  obs::Span dead("ignored");
  dead.arg("k", "v");
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, DisabledByDefault) {
  ASSERT_EQ(obs::MetricsRegistry::current(), nullptr);
  EXPECT_FALSE(obs::metrics_enabled());
  obs::counter_add("ignored");  // all four must be no-ops, not crashes
  obs::gauge_set("ignored", 1);
  obs::gauge_max("ignored", 1);
  obs::histogram_record("ignored", 1);
}

TEST(Metrics, CounterIsMonotonic) {
  obs::MetricsRegistry reg;
  reg.install();
  EXPECT_EQ(reg.counter("c"), 0u);  // absent counter reads 0
  obs::counter_add("c");
  obs::counter_add("c", 41);
  obs::MetricsRegistry::uninstall();
  EXPECT_EQ(reg.counter("c"), 42u);
  obs::counter_add("c", 1000);  // uninstalled: no effect
  EXPECT_EQ(reg.counter("c"), 42u);
}

TEST(Metrics, GaugeSetAndMax) {
  obs::MetricsRegistry reg;
  reg.install();
  EXPECT_FALSE(reg.gauge("g").has_value());
  obs::gauge_set("g", 7);
  obs::gauge_set("g", 3);
  obs::gauge_max("peak", 5);
  obs::gauge_max("peak", 2);
  obs::MetricsRegistry::uninstall();
  EXPECT_EQ(reg.gauge("g"), 3);     // set: last value wins
  EXPECT_EQ(reg.gauge("peak"), 5);  // max: peak survives
}

TEST(Metrics, HistogramTracksCountSumMinMax) {
  obs::MetricsRegistry reg;
  reg.install();
  for (double v : {4.0, 16.0, 1.0}) obs::histogram_record("h", v);
  obs::MetricsRegistry::uninstall();
  std::optional<obs::HistogramData> h = reg.histogram("h");
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum, 21.0);
  EXPECT_EQ(h->min, 1.0);
  EXPECT_EQ(h->max, 16.0);
  EXPECT_EQ(h->buckets[0], 1u);  // 1
  EXPECT_EQ(h->buckets[2], 1u);  // 4
  EXPECT_EQ(h->buckets[4], 1u);  // 16
}

TEST(Metrics, JsonIsWellFormedAndRoundTrips) {
  obs::MetricsRegistry reg;
  reg.install();
  obs::counter_add("vias.placed", 104);
  obs::gauge_set("layout.area", 400);
  obs::histogram_record("wire.edge_length", 16);
  obs::MetricsRegistry::uninstall();

  std::ostringstream os;
  reg.write_json(os);
  std::optional<io::JsonValue> root = io::parse_json(os.str());
  ASSERT_TRUE(root.has_value()) << os.str();
  ASSERT_NE(root->find("run_id"), nullptr);  // correlation stamp
  EXPECT_FALSE(root->find("run_id")->str.empty());
  EXPECT_EQ(root->find("counters")->find("vias.placed")->number, 104);
  EXPECT_EQ(root->find("gauges")->find("layout.area")->number, 400);
  const io::JsonValue* h = root->find("histograms")->find("wire.edge_length");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->number, 1);
  EXPECT_EQ(h->find("sum")->number, 16);
}

TEST(Metrics, CsvHasHeaderAndStableRows) {
  obs::set_run_id("csv-test-run");
  obs::MetricsRegistry reg;
  reg.install();
  obs::counter_add("b.counter", 2);
  obs::counter_add("a.counter", 1);
  obs::gauge_set("a.gauge", 1.5);
  obs::MetricsRegistry::uninstall();

  std::ostringstream os;
  reg.write_csv(os);
  std::istringstream is(os.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 5u);
  EXPECT_EQ(lines[0], "kind,name,field,value");
  EXPECT_EQ(lines[1], "meta,run_id,value,csv-test-run");
  EXPECT_EQ(lines[2], "counter,a.counter,value,1");  // sorted by name
  EXPECT_EQ(lines[3], "counter,b.counter,value,2");
  EXPECT_EQ(lines[4], "gauge,a.gauge,value,1.5");
}

// ------------------------------------------------- diagnostics integration

TEST(Metrics, DiagnosticSinkTotalsSurviveCapacity) {
  obs::MetricsRegistry reg;
  reg.install();
  DiagnosticSink sink(2);
  Diagnostic warn;
  warn.code = Code::kLintZeroLengthSeg;
  warn.severity = Severity::kWarning;
  Diagnostic err;
  err.code = Code::kPointCollision;
  err.severity = Severity::kError;
  for (int i = 0; i < 5; ++i) sink.report(warn);
  for (int i = 0; i < 3; ++i) sink.report(err);
  obs::MetricsRegistry::uninstall();

  EXPECT_EQ(sink.size(), 2u);  // bounded storage...
  EXPECT_EQ(sink.total_warnings(), 5u);  // ...but full totals
  EXPECT_EQ(sink.total_errors(), 3u);
  EXPECT_GE(sink.evicted(), 1u);  // errors evicted retained warnings
  EXPECT_EQ(reg.counter("diag.warnings"), 5u);
  EXPECT_EQ(reg.counter("diag.errors"), 3u);
  EXPECT_EQ(reg.counter("diag.evicted"), sink.evicted());

  sink.clear();
  EXPECT_EQ(sink.total_errors(), 0u);
  EXPECT_EQ(sink.total_warnings(), 0u);
  EXPECT_EQ(sink.evicted(), 0u);
}

// ------------------------------------------------------ pipeline coverage

TEST(Obs, PipelineEmitsEveryPhaseSpanAndExactGauges) {
  obs::TraceSession trace;
  obs::MetricsRegistry reg;
  trace.install();
  reg.install();

  Orthogonal2Layer o = layout::layout_hypercube(4);
  MultilayerLayout ml = realize(o, {.L = 4});
  CheckResult res = check_layout(o.graph, ml);
  ASSERT_TRUE(res.ok) << res.error;

  LayoutMetrics m2 = compute_metrics(realize(o, {.L = 2}), o.graph);
  BaselineMetrics folded = fold_thompson(m2, 4);
  EXPECT_GT(folded.area, 0u);

  analysis::LintConfig cfg;
  cfg.via_rule = ml.required_rule;
  DiagnosticSink lint_sink(256);
  analysis::lint_layout(o.graph, ml.geom, cfg, lint_sink);

  LayoutMetrics m = compute_metrics(ml, o.graph);  // last: final gauges
  obs::TraceSession::uninstall();
  obs::MetricsRegistry::uninstall();

  for (const char* phase :
       {"placement", "interval", "routing", "check", "fold", "lint"})
    EXPECT_TRUE(trace.has_span(phase)) << "missing span: " << phase;

  // The registry's gauges are exactly the checker-verified metric values.
  EXPECT_EQ(reg.gauge("layout.area"), double(m.area));
  EXPECT_EQ(reg.gauge("layout.volume"), double(m.volume));
  EXPECT_EQ(reg.gauge("layout.wiring_area"), double(m.wiring_area));
  EXPECT_EQ(reg.gauge("wire.max_length"), double(m.max_wire_length));
  EXPECT_EQ(reg.gauge("wire.total_length"), double(m.total_wire_length));
  EXPECT_EQ(reg.gauge("vias.count"), double(m.via_count));

  EXPECT_GT(reg.counter("routing.segments"), 0u);
  EXPECT_GT(reg.counter("vias.placed"), 0u);
  EXPECT_GT(reg.counter("tracks.allocated"), 0u);
  ASSERT_TRUE(reg.gauge("grid.peak_occupancy").has_value());
  EXPECT_EQ(*reg.gauge("grid.peak_occupancy"), double(res.points));

  std::optional<obs::HistogramData> h = reg.histogram("wire.edge_length");
  ASSERT_TRUE(h.has_value());
  EXPECT_GE(h->count, o.graph.num_edges());
}

TEST(Obs, CancellationUnwindsWithBalancedSpans) {
  // A pre-tripped token makes the first routing checkpoint throw
  // CancelledError from *inside* the live "routing" span; the RAII spans
  // must still record (balanced trace), and the sink totals must reflect
  // only what was actually reported — cancellation is cooperative, never
  // a torn trace or a phantom diagnostic.
  Orthogonal2Layer o = layout::layout_hypercube(4);
  obs::TraceSession session;
  obs::MetricsRegistry reg;
  session.install();
  reg.install();
  DiagnosticSink sink;
  CancelToken token;
  token.cancel("cancelled by test");
  bool unwound = false;
  try {
    CancelScope scope(&token);
    obs::Span job("engine.job");  // the span an engine worker would hold
    (void)realize(o, {.L = 4});
    ADD_FAILURE() << "realize completed despite a tripped token";
  } catch (const CancelledError& ex) {
    unwound = true;
    EXPECT_STREQ(ex.phase(), "routing");
    EXPECT_STREQ(ex.reason(), "cancelled by test");
  }
  obs::TraceSession::uninstall();
  obs::MetricsRegistry::uninstall();
  ASSERT_TRUE(unwound);
  // Both the span the exception crossed and the enclosing one completed.
  EXPECT_TRUE(session.has_span("routing"));
  EXPECT_TRUE(session.has_span("engine.job"));
  ASSERT_GE(session.size(), 2u);
  // The enclosing span closed last and covers the one it unwound through.
  const std::vector<obs::TraceEvent> events = session.events();
  EXPECT_STREQ(events.back().name, "engine.job");
  EXPECT_EQ(events.back().depth, 0u);
  // Cancellation is not an error report: the sink stays clean, and with the
  // scope gone the thread is back on the one-branch disabled fast path.
  EXPECT_EQ(sink.total_errors(), 0u);
  EXPECT_EQ(sink.total_warnings(), 0u);
  EXPECT_FALSE(cancel_enabled());
  poll_cancellation("routing");  // must be a no-op, not a throw
}

TEST(Obs, DisabledPipelineRecordsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  ASSERT_FALSE(obs::metrics_enabled());
  Orthogonal2Layer o = layout::layout_hypercube(3);
  MultilayerLayout ml = realize(o, {.L = 4});
  LayoutMetrics m = compute_metrics(ml, o.graph);
  EXPECT_GT(m.area, 0u);  // pipeline unaffected by missing sinks
}

// ----------------------------------------------------------- usage block

TEST(UsageText, NamesTheInstalledBinaryAndEveryFlagFamily) {
  const std::string usage = tool::kLayoutToolUsage;
  EXPECT_NE(usage.find("usage: layout_tool"), std::string::npos);
  // The binary was renamed long ago; the stale name must never come back.
  EXPECT_EQ(usage.find("example_layout_tool"), std::string::npos);
  for (const char* needle :
       {"--doctor", "--lint", "--trace", "--metrics", "--quiet", "-q", "-v",
        "-L <layers>", "-svg", "-congestion", "-nocheck", "-repair",
        "-baseline", "-save-baseline", "-disable", "-transparent",
        "sweep <spec-range>", "-j <N>", "-nocache", "hypercube(n=4..8)",
        "--deadline <ms>", "--sweep-deadline <ms>", "--cache-capacity <N>",
        "--journal <file>", "--resume <file>", "layout_tool soak",
        "-iters <N>",
        "bench-diff <baseline.json> <current.json>", "--max-regress",
        "--noise-floor", "--json", "--save-baseline", "--metrics-interval",
        "profile <trace.json>", "--report <file>", "--top <N>",
        "--check-threads <N>", "--via-rule <rule>", "checker options",
        "exit codes: 0 valid, 1 invalid, 2 parse error, 3 usage"})
    EXPECT_NE(usage.find(needle), std::string::npos)
        << "usage text lost: " << needle;
  // Flags the tool rejects must not be advertised.
  for (const char* gone : {"--retries", "--backoff", "--cache-capacity-bytes",
                           "--soft-capacity", "-fault-rate", "-seed"})
    EXPECT_EQ(usage.find(gone), std::string::npos)
        << "usage text still lists: " << gone;
}

// ------------------------------------------------------------ JSON parser

TEST(JsonParser, ParsesScalarsAndStructures) {
  std::optional<io::JsonValue> v =
      io::parse_json(R"({"a": [1, 2.5, -3e2], "b": {"c": true, "d": null},)"
                     R"( "e": "x\n\"y\\z\u0041"})");
  ASSERT_TRUE(v.has_value());
  const io::JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[0].number, 1);
  EXPECT_EQ(a->items[1].number, 2.5);
  EXPECT_EQ(a->items[2].number, -300);
  EXPECT_TRUE(v->find("b")->find("c")->boolean);
  EXPECT_EQ(v->find("b")->find("d")->kind, io::JsonValue::Kind::kNull);
  EXPECT_EQ(v->find("e")->str, "x\n\"y\\zA");
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParser, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"abc", "{\"a\":1}x", "[1 2]",
        "{'a':1}", "nan", "+1", "01x"}) {
    EXPECT_FALSE(io::parse_json(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(JsonParser, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(io::parse_json(deep).has_value());
  std::string ok(40, '[');
  ok += std::string(40, ']');
  EXPECT_TRUE(io::parse_json(ok).has_value());
}

}  // namespace
