// Observability layer tests: JSON utilities and parser, metrics
// registry, trace emitter, and the acceptance properties of a traced simulation —
// valid JSON, monotone timestamps, the expected duration events and
// counter tracks, and bit-identical cycle counts with tracing on/off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"

namespace hymm {
namespace {

// --- JSON utilities ---

TEST(Json, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
}

TEST(Json, ValidatorAcceptsWellFormedDocuments) {
  EXPECT_TRUE(json_is_valid("{}"));
  EXPECT_TRUE(json_is_valid("[1, 2.5, -3e4, \"s\", true, false, null]"));
  EXPECT_TRUE(json_is_valid("{\"a\": {\"b\": [{}]}, \"c\": \"\\u00e9\"}"));
}

TEST(Json, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(json_is_valid(""));
  EXPECT_FALSE(json_is_valid("{"));
  EXPECT_FALSE(json_is_valid("{\"a\": 1,}"));
  EXPECT_FALSE(json_is_valid("[1 2]"));
  EXPECT_FALSE(json_is_valid("{} trailing"));
  EXPECT_FALSE(json_is_valid("\"unterminated"));
  EXPECT_FALSE(json_is_valid("01"));
  EXPECT_FALSE(json_is_valid("nan"));
}

TEST(Json, WriterProducesValidNestedDocument) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.field("str", "va\"lue");
  w.field("num", std::uint64_t{18446744073709551615ull});
  w.field("neg", std::int64_t{-5});
  w.field("flag", true);
  w.key("arr");
  w.begin_array();
  w.value(1.5);
  w.null();
  w.begin_object();
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(json_is_valid(out.str())) << out.str();
  EXPECT_NE(out.str().find("18446744073709551615"), std::string::npos);
}

TEST(Json, WriterEmitsNullForNonFiniteNumbers) {
  std::ostringstream out;
  JsonWriter w(out, /*pretty=*/false);
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(out.str(), "[null,null]");
}

// --- JSON parser (hymm_diff reads run reports with it) ---

TEST(JsonParse, ParsesScalarsAndStructure) {
  const auto doc = json_parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\ny", "n": -3e2})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->get_number("a"), 1.5);
  EXPECT_DOUBLE_EQ(doc->get_number("n"), -300.0);
  EXPECT_EQ(doc->get_string("s"), "x\ny");
  const JsonValue* b = doc->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array_items.size(), 3u);
  EXPECT_TRUE(b->array_items[0].bool_value);
  EXPECT_FALSE(b->array_items[1].bool_value);
  EXPECT_EQ(b->array_items[2].kind, JsonValue::Kind::kNull);
}

TEST(JsonParse, PreservesMemberOrderAndDecodesEscapes) {
  const auto doc = json_parse(R"({"z": "Aé", "a": "\"\\/"})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->object_members.size(), 2u);
  EXPECT_EQ(doc->object_members[0].first, "z");
  EXPECT_EQ(doc->object_members[1].first, "a");
  EXPECT_EQ(doc->get_string("z"), "A\xc3\xa9");  // é as UTF-8
  EXPECT_EQ(doc->get_string("a"), "\"\\/");
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_FALSE(json_parse("").has_value());
  EXPECT_FALSE(json_parse("{").has_value());
  EXPECT_FALSE(json_parse("{} extra").has_value());
  EXPECT_FALSE(json_parse("{'single': 1}").has_value());
  EXPECT_FALSE(json_parse("[1, 2,]").has_value());
  EXPECT_FALSE(json_parse("01").has_value());
  EXPECT_FALSE(json_parse("\"unterminated").has_value());
  EXPECT_FALSE(json_parse("{\"k\": \"bad\\q\"}").has_value());
}

TEST(JsonParse, AcceptsEverythingTheValidatorAccepts) {
  const std::string doc =
      R"({"schema": "hymm-run-report/8", "results": [{"cycles": 1}]})";
  EXPECT_TRUE(json_is_valid(doc));
  EXPECT_TRUE(json_parse(doc).has_value());
}

TEST(JsonParse, TypedAccessorsFallBackOnWrongTypeOrAbsence) {
  const auto doc = json_parse(R"({"s": "str", "n": 4})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("n", "fb"), "fb");
  EXPECT_DOUBLE_EQ(doc->get_number("s", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(doc->get_number("missing", 7.0), 7.0);
  EXPECT_EQ(doc->find("missing"), nullptr);
}

// --- Metrics registry ---

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());

  Counter& c = reg.counter("dmb.evictions");
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("dmb.evictions").value(), 5u);
  EXPECT_EQ(&reg.counter("dmb.evictions"), &c);  // stable handle

  Gauge& g = reg.gauge("lsq.depth");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max_value(), 7);

  Histogram& h = reg.histogram("smq.row_degree", {1, 4, 16});
  h.observe(1);    // bucket 0 (inclusive upper bound)
  h.observe(2);    // bucket 1
  h.observe(16);   // bucket 2
  h.observe(100);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 119u);
  EXPECT_DOUBLE_EQ(h.mean(), 119.0 / 4.0);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);

  EXPECT_FALSE(reg.empty());
  EXPECT_NE(reg.find_counter("dmb.evictions"), nullptr);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("lsq.depth")->max_value(), 7);
  EXPECT_EQ(reg.find_histogram("smq.row_degree")->count(), 4u);
}

TEST(Metrics, WriteJsonIsValidAndComplete) {
  MetricsRegistry reg;
  reg.counter("a.count").add(2);
  reg.gauge("b.level").set(9);
  reg.histogram("c.dist", {10, 100}).observe(42);
  std::ostringstream out;
  JsonWriter w(out);
  reg.write_json(w);
  const std::string doc = out.str();
  EXPECT_TRUE(json_is_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"a.count\""), std::string::npos);
  EXPECT_NE(doc.find("\"b.level\""), std::string::npos);
  EXPECT_NE(doc.find("\"c.dist\""), std::string::npos);
  EXPECT_NE(doc.find("\"upper_bounds\""), std::string::npos);
}

// --- Trace writer ---

// Extracts every "ts":N in serialization order (metadata events carry
// no ts, so this is exactly the sorted event stream).
std::vector<std::uint64_t> extract_timestamps(const std::string& doc) {
  std::vector<std::uint64_t> ts;
  const std::string needle = "\"ts\":";
  for (std::size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + 1)) {
    ts.push_back(std::strtoull(doc.c_str() + pos + needle.size(),
                               nullptr, 10));
  }
  return ts;
}

std::size_t count_occurrences(const std::string& doc,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(Trace, WriteSortsEventsAndEmitsValidJson) {
  TraceWriter t;
  t.set_process_name(1, "run");
  t.duration(1, 0, "late", 500, 600);
  t.counter(1, "track", "v", 250, 42);
  t.instant(1, "blip", 10);
  std::ostringstream out;
  t.write(out);
  const std::string doc = out.str();
  EXPECT_TRUE(json_is_valid(doc)) << doc;
  const auto ts = extract_timestamps(doc);
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  // Metadata precedes timed events.
  EXPECT_LT(doc.find("process_name"), doc.find("\"blip\""));
}

TEST(Trace, InstantEventsAreCappedWithDropAccounting) {
  TraceWriter t;
  for (std::size_t i = 0; i < TraceWriter::kMaxInstantEvents + 10; ++i) {
    t.instant(0, "e", i);
  }
  EXPECT_EQ(t.event_count(), TraceWriter::kMaxInstantEvents);
  EXPECT_EQ(t.dropped_instants(), 10u);
  std::ostringstream out;
  t.write(out);
  EXPECT_NE(out.str().find("\"droppedInstantEvents\":10"),
            std::string::npos);
}

// --- Traced simulation acceptance ---

struct Problem {
  CsrMatrix a_hat;
  CsrMatrix x;
  DenseMatrix w;
};

Problem make_problem(NodeId nodes, EdgeCount edges, std::uint64_t seed) {
  GraphSpec gspec;
  gspec.nodes = nodes;
  gspec.edges = edges;
  gspec.seed = seed;
  Problem p;
  p.a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = nodes;
  fspec.feature_length = 64;
  fspec.density = 0.2;
  fspec.seed = seed + 1;
  p.x = generate_features(fspec);
  p.w = DenseMatrix::random(64, 16, seed + 2);
  return p;
}

class TracedDataflows : public ::testing::TestWithParam<Dataflow> {};

// The observer must never feed back into timing: simulated cycle
// counts are bit-identical with tracing on, metrics only, or no
// observer at all.
TEST_P(TracedDataflows, CyclesIdenticalWithAndWithoutObserver) {
  const Problem p = make_problem(120, 900, 7);
  const Accelerator accelerator{AcceleratorConfig{}};

  const LayerRunResult bare =
      accelerator.run_layer({.flow = GetParam(), .a_hat = &p.a_hat, .x = &p.x,
                             .w = &p.w});

  ObserverOptions metrics_only;
  metrics_only.trace = false;
  Observer quiet(metrics_only);
  const LayerRunResult with_metrics =
      accelerator.run_layer({.flow = GetParam(), .a_hat = &p.a_hat, .x = &p.x,
                             .w = &p.w, .observer = &quiet});

  ObserverOptions tracing;
  tracing.trace = true;
  Observer loud(tracing);
  loud.begin_run("test");
  const LayerRunResult with_trace =
      accelerator.run_layer({.flow = GetParam(), .a_hat = &p.a_hat, .x = &p.x,
                             .w = &p.w, .observer = &loud});

  EXPECT_EQ(bare.stats.cycles, with_metrics.stats.cycles);
  EXPECT_EQ(bare.stats.cycles, with_trace.stats.cycles);
  EXPECT_EQ(bare.stats.mac_ops, with_trace.stats.mac_ops);
  EXPECT_EQ(bare.stats.dram_total_bytes(),
            with_trace.stats.dram_total_bytes());
  EXPECT_EQ(bare.combination_stats.cycles,
            with_trace.combination_stats.cycles);
  EXPECT_EQ(bare.aggregation_stats.cycles,
            with_trace.aggregation_stats.cycles);
}

INSTANTIATE_TEST_SUITE_P(AllFlows, TracedDataflows,
                         ::testing::Values(Dataflow::kRowWiseProduct,
                                           Dataflow::kOuterProduct,
                                           Dataflow::kHybrid));

TEST(TracedRun, HybridTraceHasPhasesRegionsAndCounterTracks) {
  const Problem p = make_problem(120, 900, 7);
  const Accelerator accelerator{AcceleratorConfig{}};
  ObserverOptions oopts;
  oopts.trace = true;
  Observer obs(oopts);
  obs.begin_run("HyMM/test");
  accelerator.run_layer({.flow = Dataflow::kHybrid, .a_hat = &p.a_hat,
                         .x = &p.x, .w = &p.w, .observer = &obs});

  std::ostringstream out;
  obs.trace().write(out);
  const std::string doc = out.str();

  ASSERT_TRUE(json_is_valid(doc));
  // Timestamps are monotonically ordered after serialization.
  const auto ts = extract_timestamps(doc);
  ASSERT_FALSE(ts.empty());
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));

  // Phase and region duration events.
  EXPECT_NE(doc.find("\"name\":\"combination\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"aggregation\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"region1 (OP)\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"region2 (RWP)\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"region3 (RWP)\",\"ph\":\"X\""),
            std::string::npos);

  // At least 3 counter tracks, each with multiple samples.
  for (const char* track :
       {"\"name\":\"DMB occupancy\",\"ph\":\"C\"",
        "\"name\":\"partial bytes\",\"ph\":\"C\"",
        "\"name\":\"LSQ depth\",\"ph\":\"C\"",
        "\"name\":\"SMQ backlog\",\"ph\":\"C\""}) {
    EXPECT_GT(count_occurrences(doc, track), 1u) << track;
  }

  // The registry filled in alongside the trace.
  const Counter* macs = obs.metrics().find_counter("pe.mac_ops");
  ASSERT_NE(macs, nullptr);
  EXPECT_GT(macs->value(), 0u);
  const Histogram* degrees =
      obs.metrics().find_histogram("smq.row_degree");
  ASSERT_NE(degrees, nullptr);
  EXPECT_GT(degrees->count(), 0u);
}

TEST(TracedRun, MultipleRunsGetDistinctProcessGroups) {
  const Problem p = make_problem(60, 300, 3);
  const Accelerator accelerator{AcceleratorConfig{}};
  ObserverOptions oopts;
  oopts.trace = true;
  Observer obs(oopts);
  obs.begin_run("first");
  const int pid1 = obs.run_pid();
  accelerator.run_layer({.flow = Dataflow::kRowWiseProduct, .a_hat = &p.a_hat,
                         .x = &p.x, .w = &p.w, .observer = &obs});
  obs.begin_run("second");
  const int pid2 = obs.run_pid();
  accelerator.run_layer({.flow = Dataflow::kOuterProduct, .a_hat = &p.a_hat,
                         .x = &p.x, .w = &p.w, .observer = &obs});
  EXPECT_NE(pid1, pid2);

  std::ostringstream out;
  obs.trace().write(out);
  const std::string doc = out.str();
  ASSERT_TRUE(json_is_valid(doc));
  EXPECT_NE(doc.find("\"name\":\"first\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"second\""), std::string::npos);
  // ts stays monotone even with two runs interleaved in one file.
  const auto ts = extract_timestamps(doc);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
}

// With an observer attached but tracing off, the trace buffer stays
// empty (the registry is the only cost).
TEST(TracedRun, MetricsOnlyObserverBuffersNoEvents) {
  const Problem p = make_problem(60, 300, 3);
  const Accelerator accelerator{AcceleratorConfig{}};
  Observer obs;  // trace defaults to false
  accelerator.run_layer({.flow = Dataflow::kHybrid, .a_hat = &p.a_hat,
                         .x = &p.x, .w = &p.w, .observer = &obs});
  EXPECT_EQ(obs.trace().event_count(), 0u);
  EXPECT_FALSE(obs.metrics().empty());
}

}  // namespace
}  // namespace hymm
