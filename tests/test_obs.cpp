// Tests for src/obs/: counter/gauge/HDR log-linear histogram semantics,
// concurrent increments through par::parallel_for, trace
// JSON well-formedness (parsed with tests/json_test_util.hpp), and the
// no-op path when obs is off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/knapsack/knapsack.hpp"
#include "src/obs/exporter.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/par/parallel_for.hpp"
#include "src/geom/angle.hpp"
#include "src/model/instance.hpp"
#include "src/model/io.hpp"
#include "src/srv/engine.hpp"
#include "tests/json_test_util.hpp"

using namespace sectorpack;
using testjson::JsonArray;
using testjson::JsonObject;
using testjson::JsonParser;
using testjson::JsonValue;

namespace {

/// Re-enable/disable around each test so ordering never leaks state.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_enabled(true); }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

}  // namespace

TEST_F(ObsTest, CounterAccumulatesAndSnapshots) {
  obs::Registry reg;
  const obs::Counter c = reg.counter("test.counter");
  c.inc();
  c.add(41);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("test.counter"), 42u);
  EXPECT_EQ(snap.counter("test.unregistered"), 0u);
}

TEST_F(ObsTest, SameNameSharesOneSlot) {
  obs::Registry reg;
  reg.counter("dup").inc();
  reg.counter("dup").add(2);
  EXPECT_EQ(reg.snapshot().counter("dup"), 3u);
  EXPECT_EQ(reg.snapshot().counters.size(), 1u);
}

TEST_F(ObsTest, DisabledWritesAreDropped) {
  obs::Registry reg;
  const obs::Counter c = reg.counter("test.noop");
  const obs::Gauge g = reg.gauge("test.noop_gauge");
  obs::set_enabled(false);
  c.add(100);
  g.set(3.5);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("test.noop"), 0u);
  EXPECT_TRUE(snap.gauges.empty());  // unset gauges are omitted
}

TEST_F(ObsTest, DefaultConstructedHandlesAreSafe) {
  const obs::Counter c;
  const obs::Gauge g;
  c.inc();
  g.set(1.0);  // must not crash
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  obs::Registry reg;
  const obs::Gauge g = reg.gauge("test.gauge");
  g.set(1.0);
  g.set(-2.5);
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "test.gauge");
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, -2.5);
}

TEST_F(ObsTest, ConcurrentCountersFromParallelFor) {
  obs::Registry reg;
  const obs::Counter c = reg.counter("test.parallel");
  const std::size_t n = 100000;
  par::parallel_for(n, 4, [&](std::size_t) { c.inc(); });
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("test.parallel"), n);
}

TEST_F(ObsTest, ResetZeroesValuesKeepsNames) {
  obs::Registry reg;
  reg.counter("test.reset").add(7);
  reg.gauge("test.reset_gauge").set(1.0);
  reg.reset();
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("test.reset"), 0u);
  EXPECT_TRUE(snap.gauges.empty());
  // Still registered: writing again works against the same slot.
  reg.counter("test.reset").inc();
  EXPECT_EQ(reg.snapshot().counter("test.reset"), 1u);
}

TEST_F(ObsTest, RegistriesAreIndependent) {
  obs::Registry a;
  obs::Registry b;
  a.counter("shared.name").add(5);
  b.counter("shared.name").add(9);
  EXPECT_EQ(a.snapshot().counter("shared.name"), 5u);
  EXPECT_EQ(b.snapshot().counter("shared.name"), 9u);
}

TEST_F(ObsTest, SnapshotJsonIsWellFormed) {
  obs::Registry reg;
  reg.counter("a.count").add(3);
  reg.gauge("b.gauge").set(2.25);
  reg.hdr_histogram("c.hist\"quoted").observe(5.0);
  const JsonValue root = JsonParser(reg.snapshot().to_json()).parse();
  const JsonObject& obj = root.object();
  EXPECT_DOUBLE_EQ(obj.at("counters").object().at("a.count").number(), 3.0);
  EXPECT_DOUBLE_EQ(obj.at("gauges").object().at("b.gauge").number(), 2.25);
  const JsonObject& hist =
      obj.at("histograms").object().at("c.hist\"quoted").object();
  EXPECT_DOUBLE_EQ(hist.at("count").number(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number(), 5.0);
  ASSERT_EQ(hist.at("buckets").array().size(), 1u);
}

TEST_F(ObsTest, SnapshotTextListsEveryMetric) {
  obs::Registry reg;
  reg.counter("t.count").add(3);
  reg.gauge("t.gauge").set(1.5);
  const std::string text = reg.snapshot().to_text();
  EXPECT_NE(text.find("t.count 3"), std::string::npos);
  EXPECT_NE(text.find("t.gauge 1.5"), std::string::npos);
}

TEST_F(ObsTest, TraceJsonWellFormedAndLoadable) {
  obs::trace_start();
  {
    const obs::ScopedSpan outer("test.outer");
    const obs::ScopedSpan inner("test.inner");
    obs::trace_counter("test.series", 1.25);
    obs::trace_instant("test.instant");
  }
  // Spans recorded from fan-out threads land in per-thread buffers.
  par::parallel_for(8, 2,
                    [&](std::size_t) { const obs::ScopedSpan span("test.worker"); });
  EXPECT_GE(obs::trace_event_count(), 4u);

  std::ostringstream os;
  obs::trace_stop(os);
  EXPECT_FALSE(obs::trace_enabled());

  const JsonValue root = JsonParser(os.str()).parse();
  const JsonArray& events = root.object().at("traceEvents").array();
  ASSERT_GE(events.size(), 4u);
  bool saw_outer = false;
  bool saw_counter = false;
  bool saw_worker = false;
  for (const JsonValue& ev : events) {
    const JsonObject& e = ev.object();
    // Every event carries the fields chrome://tracing requires.
    const std::string& ph = e.at("ph").str();
    EXPECT_TRUE(ph == "X" || ph == "C" || ph == "i");
    EXPECT_GE(e.at("ts").number(), 0.0);
    EXPECT_GT(e.at("tid").number(), 0.0);
    if (e.at("name").str() == "test.outer") {
      saw_outer = true;
      EXPECT_EQ(ph, "X");
      EXPECT_GE(e.at("dur").number(), 0.0);
    }
    if (e.at("name").str() == "test.series") {
      saw_counter = true;
      EXPECT_EQ(ph, "C");
      EXPECT_DOUBLE_EQ(e.at("args").object().at("value").number(), 1.25);
    }
    if (e.at("name").str() == "test.worker") saw_worker = true;
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_worker);
}

TEST_F(ObsTest, TraceFileRoundTrip) {
  obs::trace_start();
  { const obs::ScopedSpan span("test.file_span"); }
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::trace_stop_to_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const JsonValue root = JsonParser(ss.str()).parse();
  const JsonArray& events = root.object().at("traceEvents").array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].object().at("name").str(), "test.file_span");
}

TEST_F(ObsTest, TraceNoopWhenNoSession) {
  // No trace_start: spans must record nothing and cost nothing observable.
  EXPECT_FALSE(obs::trace_enabled());
  { const obs::ScopedSpan span("test.ignored"); }
  obs::trace_counter("test.ignored", 1.0);
  obs::trace_start();
  EXPECT_EQ(obs::trace_event_count(), 0u);  // prior events discarded
  std::ostringstream os;
  obs::trace_stop(os);
  const JsonValue root = JsonParser(os.str()).parse();
  EXPECT_TRUE(root.object().at("traceEvents").array().empty());
}

// ---------------------------------------------------------------------------
// HDR log-linear histograms

TEST_F(ObsTest, HdrBucketIndexEdges) {
  const std::size_t sub = std::size_t{1} << obs::kHdrSubBits;
  // Below range (including junk) lands in bucket 0.
  EXPECT_EQ(obs::hdr_bucket_index(-1.0), 0u);
  EXPECT_EQ(obs::hdr_bucket_index(0.0), 0u);
  EXPECT_EQ(obs::hdr_bucket_index(std::nan("")), 0u);
  // Exactly the range minimum is the first bucket; 1.0 starts the octave
  // at exponent 0.
  EXPECT_EQ(obs::hdr_bucket_index(std::ldexp(1.0, obs::kHdrMinExp)), 0u);
  EXPECT_EQ(obs::hdr_bucket_index(1.0),
            static_cast<std::size_t>(-obs::kHdrMinExp) * sub);
  // Above range clamps to the last bucket.
  EXPECT_EQ(obs::hdr_bucket_index(1e30), obs::kHdrBuckets - 1);
  // lower/upper bracket the value that maps into the bucket.
  for (double v : {0.002, 0.5, 1.0, 1.5, 3.25, 1000.0, 123456.0}) {
    const std::size_t b = obs::hdr_bucket_index(v);
    EXPECT_GE(v, obs::hdr_bucket_lower(b)) << v;
    EXPECT_LT(v, obs::hdr_bucket_upper(b)) << v;
  }
  // Buckets tile the range: each upper bound is the next lower bound, and
  // relative width never exceeds 2^-kHdrSubBits.
  for (std::size_t b = 0; b + 1 < obs::kHdrBuckets; ++b) {
    const double lo = obs::hdr_bucket_lower(b);
    const double hi = obs::hdr_bucket_upper(b);
    EXPECT_DOUBLE_EQ(hi, obs::hdr_bucket_lower(b + 1));
    EXPECT_LE((hi - lo) / lo,
              std::ldexp(1.0, -static_cast<int>(obs::kHdrSubBits)) + 1e-12);
  }
}

TEST_F(ObsTest, HdrHistogramStats) {
  obs::Registry reg;
  const obs::HdrHistogram h = reg.hdr_histogram("test.hdr");
  for (double v : {0.5, 1.0, 3.0, 100.0}) h.observe(v);
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.hdr_histograms.size(), 1u);
  const obs::HdrHistogramSnapshot& hs = snap.hdr_histograms[0];
  EXPECT_EQ(hs.name, "test.hdr");
  EXPECT_EQ(hs.count, 4u);
  EXPECT_DOUBLE_EQ(hs.sum, 104.5);
  EXPECT_DOUBLE_EQ(hs.min, 0.5);
  EXPECT_DOUBLE_EQ(hs.max, 100.0);
  EXPECT_DOUBLE_EQ(hs.mean(), 104.5 / 4.0);
  ASSERT_EQ(hs.buckets.size(), 4u);  // sparse: only non-empty buckets
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < hs.buckets.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(hs.buckets[i - 1].first, hs.buckets[i].first);
    }
    total += hs.buckets[i].second;
  }
  EXPECT_EQ(total, hs.count);
  EXPECT_DOUBLE_EQ(hs.quantile(0.0), hs.min);
  EXPECT_DOUBLE_EQ(hs.quantile(1.0), hs.max);
  // Lookup helper finds it; misses return nullptr.
  EXPECT_EQ(snap.hdr_histogram("test.hdr"), &hs);
  EXPECT_EQ(snap.hdr_histogram("test.other"), nullptr);
}

TEST_F(ObsTest, HdrQuantileWithinOnePercent) {
  obs::Registry reg;
  const obs::HdrHistogram h = reg.hdr_histogram("test.hdr_q");
  // Known distribution: 1..10000 each observed once, so the true q-quantile
  // is q*10000 (up to rank rounding). Spans ~13 octaves.
  const int n = 10000;
  for (int i = 1; i <= n; ++i) h.observe(static_cast<double>(i));
  const obs::Snapshot snap = reg.snapshot();
  const obs::HdrHistogramSnapshot* hs = snap.hdr_histogram("test.hdr_q");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, static_cast<std::uint64_t>(n));
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    const double exact = q * n;
    const double got = hs->quantile(q);
    // Acceptance bound: <= 1% relative error (the 7-bit precision gives
    // bucket widths <= 0.79%; allow rank rounding of +-1 sample on top).
    EXPECT_NEAR(got, exact, 0.01 * exact + 1.0) << "q=" << q;
  }
  // Monotone in q.
  double prev = hs->quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = hs->quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST_F(ObsTest, HdrDisabledAndDefaultHandlesAreSafe) {
  obs::Registry reg;
  const obs::HdrHistogram h = reg.hdr_histogram("test.hdr_off");
  obs::set_enabled(false);
  h.observe(5.0);
  ASSERT_EQ(reg.snapshot().hdr_histograms.size(), 1u);
  EXPECT_EQ(reg.snapshot().hdr_histograms[0].count, 0u);
  const obs::HdrHistogram empty;
  empty.observe(1.0);  // must not crash
}

TEST_F(ObsTest, HdrConcurrentObservationsMerge) {
  // Eighths sum exactly in a double in any order, so the snapshot of four
  // threads' observations must print the bytes of one thread's. 0 and 1e12
  // land in the clamping first and last buckets.
  const std::size_t n = 100000;
  const auto value = [](std::size_t i) {
    if (i == 1) return 1e12;
    return static_cast<double>(i % 8000) / 8.0;
  };
  std::uint64_t eighths = 0;
  for (std::size_t i = 2; i < n; ++i) eighths += i % 8000;
  const double sum = 1e12 + static_cast<double>(eighths) / 8.0;

  obs::Registry reg;
  obs::Registry serial_reg;
  // Registered on both sides, never written.
  (void)reg.hdr_histogram("test.hdr_idle");
  (void)serial_reg.hdr_histogram("test.hdr_idle");
  const obs::HdrHistogram h = reg.hdr_histogram("test.hdr_par");
  par::parallel_for(n, 4, [&](std::size_t i) { h.observe(value(i)); });
  const obs::HdrHistogram serial = serial_reg.hdr_histogram("test.hdr_par");
  for (std::size_t i = 0; i < n; ++i) serial.observe(value(i));

  const obs::Snapshot snap = reg.snapshot();
  const obs::HdrHistogramSnapshot* hs = snap.hdr_histogram("test.hdr_par");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, n);
  EXPECT_EQ(hs->sum, sum);
  EXPECT_EQ(hs->min, 0.0);
  EXPECT_EQ(hs->max, 1e12);
  std::uint64_t total = 0;
  for (const auto& [bucket, count] : hs->buckets) total += count;
  EXPECT_EQ(total, n);
  EXPECT_EQ(hs->buckets.front().first, 0u);
  EXPECT_EQ(hs->buckets.back().first, obs::kHdrBuckets - 1);

  const obs::Snapshot serial_snap = serial_reg.snapshot();
  EXPECT_EQ(snap.to_json(), serial_snap.to_json());
  EXPECT_EQ(snap.to_text(), serial_snap.to_text());
  EXPECT_EQ(obs::to_prometheus(snap), obs::to_prometheus(serial_snap));
}

TEST_F(ObsTest, HdrResetZeroesValuesKeepsRegistration) {
  obs::Registry reg;
  reg.hdr_histogram("test.hdr_reset").observe(3.0);
  reg.reset();
  ASSERT_EQ(reg.snapshot().hdr_histograms.size(), 1u);
  EXPECT_EQ(reg.snapshot().hdr_histograms[0].count, 0u);
  EXPECT_TRUE(reg.snapshot().hdr_histograms[0].buckets.empty());
  reg.hdr_histogram("test.hdr_reset").observe(9.0);
  EXPECT_EQ(reg.snapshot().hdr_histograms[0].count, 1u);
}

TEST_F(ObsTest, HdrSnapshotJsonAndText) {
  obs::Registry reg;
  reg.hdr_histogram("test.hdr_json").observe(2.5);
  reg.hdr_histogram("test.hdr_json").observe(40.0);
  const obs::Snapshot snap = reg.snapshot();
  const JsonValue root = JsonParser(snap.to_json()).parse();
  const JsonObject& hist =
      root.object().at("histograms").object().at("test.hdr_json").object();
  EXPECT_DOUBLE_EQ(hist.at("count").number(), 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number(), 42.5);
  EXPECT_DOUBLE_EQ(hist.at("precision_bits").number(),
                   static_cast<double>(obs::kHdrSubBits));
  EXPECT_GT(hist.at("p99").number(), 0.0);
  ASSERT_EQ(hist.at("buckets").array().size(), 2u);
  const std::string text = snap.to_text();
  EXPECT_NE(text.find("test.hdr_json count=2"), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Gauges across threads: each gauge is one atomic cell in the registry, so
// the snapshot value is the last write in wall-clock order, never a
// function of which thread wrote first.

TEST_F(ObsTest, GaugeConcurrentWritesYieldOneWrittenValue) {
  obs::Registry reg;
  // Register from the main thread first so registration order is fixed
  // before any worker writes.
  const obs::Gauge g = reg.gauge("test.gauge_race");
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 1000; ++i) {
        g.set(static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Whichever thread wrote last wins; the value must be one of the written
  // values, never a blend or the unset default.
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  const double v = snap.gauges[0].second;
  EXPECT_GE(v, 1.0);
  EXPECT_LE(v, 8.0);
  EXPECT_DOUBLE_EQ(v, std::floor(v));
  // A write after all joins is the definitive last write and must win.
  g.set(-7.5);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges[0].second, -7.5);
}

// ---------------------------------------------------------------------------
// Tracing under concurrent batch load: every request records exactly one
// "srv.request" span, and the trace stays parseable after 100 requests
// solved across multiple workers (run under TSan via the full suite).

TEST_F(ObsTest, TraceSpansMatchBatchRequestCount) {
  const model::Instance inst = model::InstanceBuilder{}
                                   .add_customer_polar(0.3, 5.0, 10.0)
                                   .add_customer_polar(2.1, 7.0, 4.0)
                                   .add_customer_polar(4.0, 3.0, 6.0)
                                   .add_antenna(geom::kPi / 3, 10.0, 12.0)
                                   .build();
  std::string line = "{\"instance\":\"";
  for (const char c : model::to_string(inst)) {
    if (c == '\n') {
      line += "\\n";
    } else if (c == '"') {
      line += "\\\"";
    } else {
      line += c;
    }
  }
  line += "\",\"solver\":\"greedy\"}";

  const std::size_t requests = 100;
  std::ostringstream input;
  for (std::size_t i = 0; i < requests; ++i) input << line << "\n";

  obs::trace_start();
  std::istringstream in(input.str());
  std::ostringstream out;
  srv::BatchConfig config;
  config.jobs = 4;
  config.cache_entries = 0;  // every request takes the full solve path
  const srv::BatchReport report = srv::run_batch(in, out, config);
  EXPECT_EQ(report.requests, requests);
  EXPECT_EQ(report.ok, requests);

  std::ostringstream trace;
  obs::trace_stop(trace);
  const JsonValue root = JsonParser(trace.str()).parse();
  const JsonArray& events = root.object().at("traceEvents").array();
  std::size_t request_spans = 0;
  for (const JsonValue& ev : events) {
    const JsonObject& e = ev.object();
    if (e.at("name").str() == "srv.request" && e.at("ph").str() == "X") {
      ++request_spans;
    }
  }
  EXPECT_EQ(request_spans, requests);
}

TEST_F(ObsTest, SolverCountersPopulate) {
  // End-to-end: the instrumented solvers feed the global registry.
  obs::reset();
  std::vector<knapsack::Item> items;
  for (int i = 1; i <= 10; ++i) {
    items.push_back({static_cast<double>(i), static_cast<double>(i)});
  }
  (void)knapsack::solve_exact_dp(items, 27.0);
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_GE(snap.counter("knapsack.dp_calls"), 1u);
  // 10 items, capacity 27 -> 10 * 28 cells.
  EXPECT_GE(snap.counter("knapsack.dp_cells"), 280u);
}
