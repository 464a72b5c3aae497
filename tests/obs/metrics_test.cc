#include "obs/metrics.h"

#include <gtest/gtest.h>

#include "obs/json.h"

namespace df::obs {
namespace {

TEST(Counter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(Histogram, BucketPlacement) {
  Histogram h;
  h.record(0);  // bucket 0
  h.record(1);  // bucket 1: [1, 2)
  h.record(2);  // bucket 2: [2, 4)
  h.record(3);  // bucket 2
  h.record(4);  // bucket 3: [4, 8)
  const auto& b = h.buckets();
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(b[1], 1u);
  EXPECT_EQ(b[2], 2u);
  EXPECT_EQ(b[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 4u);
}

TEST(Histogram, ExtremeValuesStayInRange) {
  Histogram h;
  h.record(UINT64_MAX);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), UINT64_MAX);
  EXPECT_EQ(h.buckets()[Histogram::kBucketCount - 1], 1u);
  // The quantile estimate is clamped to the observed range.
  EXPECT_LE(h.quantile(0.99), UINT64_MAX);
  EXPECT_GE(h.quantile(0.01), h.min());
}

TEST(Histogram, QuantilesAreMonotonicAndClamped) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const uint64_t p50 = h.quantile(0.5);
  const uint64_t p90 = h.quantile(0.9);
  const uint64_t p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
}

TEST(Registry, LabeledMetricsAreDistinct) {
  Registry reg;
  Counter& a = reg.counter("engine.executions", "A1");
  Counter& b = reg.counter("engine.executions", "B");
  a.inc(3);
  b.inc(5);
  EXPECT_EQ(reg.counter("engine.executions", "A1").value(), 3u);
  EXPECT_EQ(reg.counter("engine.executions", "B").value(), 5u);
}

TEST(Registry, ReferencesAreStableAcrossInsertions) {
  Registry reg;
  Counter& first = reg.counter("stable");
  first.inc();
  // A burst of new keys must not invalidate the earlier reference.
  for (int i = 0; i < 100; ++i) {
    reg.counter("churn." + std::to_string(i)).inc();
    reg.histogram("churn_h." + std::to_string(i)).record(1);
  }
  first.inc();
  EXPECT_EQ(reg.counter("stable").value(), 2u);
}

TEST(Registry, SnapshotIsIsolatedFromLaterUpdates) {
  Registry reg;
  Counter& c = reg.counter("engine.bugs", "A1");
  Histogram& h = reg.histogram("phase.execute", "A1");
  c.inc(7);
  h.record(128);
  const Snapshot snap = reg.snapshot();
  c.inc(100);
  h.record(1 << 20);

  const auto* cv = snap.find_counter("engine.bugs", "A1");
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(cv->value, 7u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.find_counter("engine.bugs", "nope"), nullptr);
}

TEST(Registry, SnapshotJsonShape) {
  Registry reg;
  reg.counter("engine.executions", "A1").inc(10);
  reg.gauge("log.emitted", "warn").set(2);
  reg.histogram("phase.generate", "A1").record(1000);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.executions\""), std::string::npos);
  // Wall-dependent histogram fields carry the _ns suffix by contract.
  EXPECT_NE(json.find("\"p50_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"sum_ns\""), std::string::npos);
}

TEST(Registry, ResetClearsValuesButKeepsKeys) {
  Registry reg;
  reg.counter("a").inc(5);
  reg.histogram("h").record(9);
  reg.reset();
  EXPECT_EQ(reg.counter("a").value(), 0u);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.histograms.size(), 1u);
}

TEST(ScopedTimer, RecordsOnceOnDestruction) {
  Histogram h;
  {
    ScopedTimer t(&h);
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(ScopedTimer, NullHistogramIsNoOp) {
  ScopedTimer t(nullptr);  // must not crash or read the clock
}

TEST(JsonWriterBasics, EscapesAndNesting) {
  JsonWriter w;
  w.begin_object();
  w.field("title", "line1\nline\"2\"\\");
  w.key("arr").begin_array().value(uint64_t{1}).value(2.5).value(true)
      .end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"title\":\"line1\\nline\\\"2\\\"\\\\\","
            "\"arr\":[1,2.5,true]}");
}

TEST(JsonWriterBasics, EscapesControlBytesInKeysAndValues) {
  JsonWriter w;
  w.begin_object();
  w.field("\tk\"", std::string("\x01" "a\rb\x1f", 5));
  w.field("", "");
  w.field("utf8", "\xc3\xa9\\");
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"\\tk\\\"\":\"\\u0001a\\rb\\u001f\","
            "\"\":\"\","
            "\"utf8\":\"\xc3\xa9\\\\\"}");
}

TEST(JsonWriterBasics, RawInsertsVerbatim) {
  JsonWriter w;
  w.begin_object();
  w.key("events").begin_array();
  w.raw("{\"event\":\"bug\"}");
  w.raw("{\"event\":\"probe\"}");
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"events\":[{\"event\":\"bug\"},{\"event\":\"probe\"}]}");
}

}  // namespace
}  // namespace df::obs
