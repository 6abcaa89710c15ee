//===- ObsTest.cpp - Observability spine: tracing + metrics ---------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for src/obs/: Chrome trace-event export (well-formedness,
/// span nesting, thread attribution and ring reuse, trace-id stamping),
/// histogram bucket and quantile golden values, Prometheus text
/// exposition, the trace-id wire round-trip through ServiceRequest, and
/// the disabled-mode zero-cost contract.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/Request.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace asdf;

namespace {

/// Every tracing test runs against a clean, enabled recorder and leaves
/// tracing disabled for the next suite.
class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::enableTracing();
    obs::clearTrace();
  }
  void TearDown() override {
    obs::disableTracing();
    obs::clearTrace();
  }
};

/// Parses exportChromeTrace() and returns the traceEvents array.
json::Value exportedEvents() {
  std::string Text = obs::exportChromeTrace();
  json::Value Doc;
  std::string Error;
  EXPECT_TRUE(json::parse(Text, Doc, Error)) << Error;
  const json::Value *Events = Doc.get("traceEvents");
  EXPECT_NE(Events, nullptr);
  return Events ? *Events : json::Value::array();
}

/// Finds the first event named \p Name; null if absent.
const json::Value *findEvent(const json::Value &Events,
                             const std::string &Name) {
  for (const json::Value &E : Events.elements())
    if (E.get("name") && E.get("name")->asString() == Name)
      return &E;
  return nullptr;
}

TEST_F(TraceTest, ChromeExportIsWellFormed) {
  {
    obs::Span Outer("outer", "test");
    obs::Span Inner("inner", "test");
  }
  json::Value Events = exportedEvents();
  ASSERT_EQ(Events.elements().size(), 2u);
  for (const json::Value &E : Events.elements()) {
    // Complete events: name/cat/ph/ts/dur/pid/tid, ph == "X".
    ASSERT_NE(E.get("name"), nullptr);
    ASSERT_NE(E.get("cat"), nullptr);
    ASSERT_NE(E.get("ph"), nullptr);
    EXPECT_EQ(E.get("ph")->asString(), "X");
    ASSERT_NE(E.get("ts"), nullptr);
    ASSERT_NE(E.get("dur"), nullptr);
    ASSERT_NE(E.get("pid"), nullptr);
    ASSERT_NE(E.get("tid"), nullptr);
    EXPECT_EQ(E.get("cat")->asString(), "test");
  }
}

TEST_F(TraceTest, SpansNestAndSortByStart) {
  {
    obs::Span Outer("outer", "test");
    obs::Span Inner("inner", "test");
  }
  json::Value Events = exportedEvents();
  const json::Value *Outer = findEvent(Events, "outer");
  const json::Value *Inner = findEvent(Events, "inner");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  double OuterTs = Outer->get("ts")->asDouble();
  double OuterDur = Outer->get("dur")->asDouble();
  double InnerTs = Inner->get("ts")->asDouble();
  double InnerDur = Inner->get("dur")->asDouble();
  // Containment: the inner span lies inside [outer.ts, outer.ts+dur].
  EXPECT_GE(InnerTs, OuterTs);
  EXPECT_LE(InnerTs + InnerDur, OuterTs + OuterDur + 1e-3);
  // Export sorts by start time: outer first.
  EXPECT_EQ(Events.elements()[0].get("name")->asString(), "outer");
}

TEST_F(TraceTest, ThreadsGetDistinctTids) {
  { obs::Span Sp("main-span", "test"); }
  std::thread T([] { obs::Span Sp("worker-span", "test"); });
  T.join();
  json::Value Events = exportedEvents();
  const json::Value *Main = findEvent(Events, "main-span");
  const json::Value *Worker = findEvent(Events, "worker-span");
  ASSERT_NE(Main, nullptr);
  ASSERT_NE(Worker, nullptr);
  EXPECT_NE(Main->get("tid")->asU64(), Worker->get("tid")->asU64());
}

/// This process's resident set size in bytes.
int64_t residentBytes() {
  std::ifstream Statm("/proc/self/statm");
  int64_t Pages = 0, Resident = 0;
  Statm >> Pages >> Resident;
  return Resident * static_cast<int64_t>(::sysconf(_SC_PAGESIZE));
}

TEST_F(TraceTest, ExitedThreadsHandTheirRingsOn) {
  // A ring is 8192 slots of 96 bytes. Kept per exited thread, 200
  // short-lived traced threads grew RSS by about 150 MiB; handed on, they
  // share one ring.
  int64_t Before = residentBytes();
  for (unsigned I = 0; I < 200; ++I)
    std::thread([I] { obs::Span Sp("short", std::to_string(I), "test"); })
        .join();
  EXPECT_LT(residentBytes() - Before, int64_t(32) << 20);
  json::Value Events = exportedEvents();
  for (unsigned I = 0; I < 200; ++I)
    EXPECT_NE(findEvent(Events, "short:" + std::to_string(I)), nullptr)
        << "span of thread " << I << " was not exported";
  obs::clearTrace();
  EXPECT_TRUE(exportedEvents().elements().empty());
}

TEST_F(TraceTest, TraceContextStampsAndRestores) {
  EXPECT_EQ(obs::currentTraceId(), 0u);
  {
    obs::TraceContext TC(42);
    EXPECT_EQ(obs::currentTraceId(), 42u);
    obs::Span Sp("tagged", "test");
    {
      obs::TraceContext Nested(7);
      EXPECT_EQ(obs::currentTraceId(), 7u);
    }
    EXPECT_EQ(obs::currentTraceId(), 42u);
  }
  EXPECT_EQ(obs::currentTraceId(), 0u);
  { obs::Span Sp("untagged", "test"); }

  json::Value Events = exportedEvents();
  const json::Value *Tagged = findEvent(Events, "tagged");
  ASSERT_NE(Tagged, nullptr);
  ASSERT_NE(Tagged->get("args"), nullptr);
  EXPECT_EQ(Tagged->get("args")->get("trace")->asU64(), 42u);
  const json::Value *Untagged = findEvent(Events, "untagged");
  ASSERT_NE(Untagged, nullptr);
  EXPECT_EQ(Untagged->get("args")->get("trace")->asU64(), 0u);
}

TEST_F(TraceTest, TwoPartSpanNameAndRetroactiveEmit) {
  { obs::Span Sp("qwerty", std::string("lower-bases"), "compile"); }
  obs::emitSpan("retro", "test", obs::nowNs(), 1500, 9);
  json::Value Events = exportedEvents();
  EXPECT_NE(findEvent(Events, "qwerty:lower-bases"), nullptr);
  const json::Value *Retro = findEvent(Events, "retro");
  ASSERT_NE(Retro, nullptr);
  EXPECT_EQ(Retro->get("args")->get("trace")->asU64(), 9u);
  EXPECT_DOUBLE_EQ(Retro->get("dur")->asDouble(), 1.5); // µs
}

TEST(TraceDisabledTest, DisabledModeRecordsNothing) {
  obs::disableTracing();
  obs::clearTrace();
  {
    obs::Span Sp("invisible", "test");
    obs::emitSpan("also-invisible", "test", 0, 1, 1);
  }
  obs::enableTracing();
  json::Value Events = exportedEvents();
  EXPECT_EQ(Events.elements().size(), 0u);
  obs::disableTracing();
}

TEST(TraceDisabledTest, DisabledSpanDoesNotAllocate) {
  obs::disableTracing();
  // The Span ctor taking a std::string promises no formatting work on the
  // disabled path; a long dynamic name must not touch the fixed buffers.
  std::string Long(1024, 'x');
  for (int I = 0; I < 1000; ++I) {
    obs::Span Sp("prefix", Long, "test");
    (void)Sp;
  }
  // No events and no drops recorded.
  EXPECT_EQ(obs::droppedSpanCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketLadderGoldenValues) {
  const auto &B = obs::Histogram::bounds();
  ASSERT_EQ(B.size(), obs::Histogram::NumFinite);
  EXPECT_DOUBLE_EQ(B.front(), 1e-6);
  EXPECT_DOUBLE_EQ(B[3], 1e-5);
  EXPECT_DOUBLE_EQ(B[18], 1.0);
  EXPECT_DOUBLE_EQ(B.back(), 60.0);
  for (size_t I = 1; I < B.size(); ++I)
    EXPECT_LT(B[I - 1], B[I]);
}

TEST(HistogramTest, ObservationsLandInGoldenBuckets) {
  obs::Histogram H;
  H.observe(5e-7);  // below the first bound -> bucket 0 (le 1e-6)
  H.observe(1e-6);  // exactly on a bound -> that bucket (le semantics)
  H.observe(3e-3);  // between 2e-3 and 5e-3 -> bucket of 5e-3
  H.observe(100.0); // above 60s -> overflow
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(11), 1u); // 5e-3 is bounds()[11]
  EXPECT_EQ(H.bucketCount(obs::Histogram::NumFinite), 1u);
  EXPECT_NEAR(H.sum(), 100.0 + 3e-3 + 1e-6 + 5e-7, 1e-9);
}

TEST(HistogramTest, QuantileGoldenValues) {
  obs::Histogram H;
  EXPECT_DOUBLE_EQ(H.quantile(0.5), 0.0); // empty
  // 90 fast (1ms bucket), 10 slow (1s bucket): p50/p90 in the fast
  // bucket, p99 in the slow one — quantiles are bucket upper bounds.
  for (int I = 0; I < 90; ++I)
    H.observe(0.8e-3);
  for (int I = 0; I < 10; ++I)
    H.observe(0.9);
  EXPECT_DOUBLE_EQ(H.quantile(0.50), 1e-3);
  EXPECT_DOUBLE_EQ(H.quantile(0.90), 1e-3);
  EXPECT_DOUBLE_EQ(H.quantile(0.99), 1.0);
  // Overflow clamps to the largest finite bound.
  obs::Histogram O;
  O.observe(1e6);
  EXPECT_DOUBLE_EQ(O.quantile(0.5), 60.0);
}

TEST(HistogramTest, JsonRoundTripPreservesQuantiles) {
  obs::Histogram H;
  for (int I = 0; I < 1000; ++I)
    H.observe(1e-5 * (I % 100 + 1));
  json::Value J = H.toJson();
  ASSERT_NE(J.get("p50"), nullptr);
  ASSERT_NE(J.get("p99"), nullptr);

  obs::Histogram Back;
  ASSERT_TRUE(obs::Histogram::fromJson(J, Back));
  EXPECT_EQ(Back.count(), H.count());
  EXPECT_DOUBLE_EQ(Back.sum(), H.sum());
  // The rebuilt histogram re-derives the byte-identical quantiles — the
  // property the bench agreement assertions rest on.
  EXPECT_DOUBLE_EQ(Back.quantile(0.50), J.get("p50")->asDouble());
  EXPECT_DOUBLE_EQ(Back.quantile(0.90), J.get("p90")->asDouble());
  EXPECT_DOUBLE_EQ(Back.quantile(0.99), J.get("p99")->asDouble());
}

TEST(HistogramTest, FromJsonRejectsMalformedShapes) {
  obs::Histogram Out;
  json::Value NotObj = json::Value::array();
  EXPECT_FALSE(obs::Histogram::fromJson(NotObj, Out));
  json::Value Empty = json::Value::object();
  EXPECT_FALSE(obs::Histogram::fromJson(Empty, Out));
  // Right keys, wrong bucket-array length.
  json::Value Short = json::Value::object();
  Short.set("buckets", json::Value::array());
  Short.set("count", json::Value::integer(uint64_t(0)));
  Short.set("sum", json::Value::number(0.0));
  EXPECT_FALSE(obs::Histogram::fromJson(Short, Out));
}

//===----------------------------------------------------------------------===//
// MetricsRegistry / Prometheus exposition
//===----------------------------------------------------------------------===//

TEST(MetricsTest, PrometheusExpositionFormat) {
  obs::MetricsRegistry Reg;
  Reg.counterFn("asdf_test_total", "test.count", "A test counter",
                [] { return uint64_t(3); });
  Reg.gaugeFn("asdf_test_depth", "test.depth", "A test gauge",
              [] { return 2.5; });
  Reg.counterFn("asdf_test_fn_total", "", "A read-time counter",
                [] { return uint64_t(7); });
  Reg.gaugeFn("asdf_test_budget", "budget", "A whole-valued gauge",
              [] { return 1e8; });
  obs::Histogram &H =
      Reg.histogram("asdf_test_seconds", "latency.test", "A histogram");
  H.observe(1.5e-6);
  H.observe(0.5);

  std::string Text = Reg.renderPrometheus();
  EXPECT_NE(Text.find("# HELP asdf_test_total A test counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE asdf_test_total counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("asdf_test_total 3\n"), std::string::npos);
  EXPECT_NE(Text.find("asdf_test_depth 2.5\n"), std::string::npos);
  EXPECT_NE(Text.find("asdf_test_fn_total 7\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE asdf_test_seconds histogram\n"),
            std::string::npos);
  // Cumulative buckets: the 0.5s observation is inside le="0.5" and every
  // later bound; +Inf carries the total count; _sum/_count close it out.
  EXPECT_NE(Text.find("asdf_test_seconds_bucket{le=\"2e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("asdf_test_seconds_bucket{le=\"0.5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(Text.find("asdf_test_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(Text.find("asdf_test_seconds_count 2\n"), std::string::npos);

  // Registration dedups by name: the first registration stays.
  Reg.counterFn("asdf_test_total", "other.count", "ignored duplicate",
                [] { return uint64_t(99); });
  EXPECT_EQ(&Reg.histogram("asdf_test_seconds", "", "ignored duplicate"), &H);
  EXPECT_EQ(Reg.renderPrometheus(), Text);

  // The JSON exposition of the same entries: nested by path in
  // registration order, path-less entries left out, whole-valued gauges
  // as exact integers, fractional ones as numbers, histograms in their
  // toJson form.
  json::Value J = Reg.toJson();
  EXPECT_EQ(J.write(), "{\"test\":{\"count\":3,\"depth\":2.5},"
                       "\"budget\":100000000,\"latency\":{\"test\":" +
                           H.toJson().write() + "}}");
  ASSERT_NE(J.get("budget"), nullptr);
  EXPECT_EQ(J.get("budget")->asU64(), 100000000u);
}

//===----------------------------------------------------------------------===//
// Wire round-trip
//===----------------------------------------------------------------------===//

TEST(WireTest, TraceIdRoundTrips) {
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::Run;
  R.Id = 5;
  R.Trace = 0xDEADBEEFCAFEull;
  R.Source = "kernel[] { '0' }";
  R.Shots = 3;
  json::Value J = R.toJson();
  ASSERT_NE(J.get("trace"), nullptr);

  ServiceRequest Back;
  std::string Error;
  ASSERT_TRUE(ServiceRequest::fromJson(J, Back, Error)) << Error;
  EXPECT_EQ(Back.Trace, 0xDEADBEEFCAFEull);
  EXPECT_EQ(Back.Id, 5u);
}

TEST(WireTest, TraceIdZeroIsOmitted) {
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::Stats;
  EXPECT_EQ(R.toJson().get("trace"), nullptr);
  ServiceRequest Back;
  std::string Error;
  ASSERT_TRUE(ServiceRequest::fromJson(R.toJson(), Back, Error)) << Error;
  EXPECT_EQ(Back.Trace, 0u);
}

TEST(WireTest, MetricsOpRoundTrips) {
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::Metrics;
  R.Id = 11;
  json::Value J = R.toJson();
  EXPECT_EQ(J.get("op")->asString(), "metrics");
  ServiceRequest Back;
  std::string Error;
  ASSERT_TRUE(ServiceRequest::fromJson(J, Back, Error)) << Error;
  EXPECT_EQ(Back.TheKind, ServiceRequest::Kind::Metrics);

  ServiceResponse Resp;
  Resp.Id = 11;
  Resp.Ok = true;
  Resp.MetricsText = "# HELP x y\nx 1\n";
  ServiceResponse RespBack;
  ASSERT_TRUE(
      ServiceResponse::fromJson(Resp.toJson(), RespBack, Error))
      << Error;
  EXPECT_EQ(RespBack.MetricsText, Resp.MetricsText);
}

TEST(WireTest, RequestKindNamesAreStable) {
  EXPECT_STREQ(requestKindName(ServiceRequest::Kind::Compile), "compile");
  EXPECT_STREQ(requestKindName(ServiceRequest::Kind::BindRun), "bind-run");
  EXPECT_STREQ(requestKindName(ServiceRequest::Kind::Metrics), "metrics");
}

} // namespace
