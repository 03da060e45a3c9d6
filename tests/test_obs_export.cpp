// Tests for the serving-grade telemetry layer: Prometheus text exposition
// (src/obs/exporter), the schema-versioned stats envelope, the periodic
// Exporter thread, and the rolling-window SloTracker.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/exporter.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/slo.hpp"
#include "tests/json_test_util.hpp"

using namespace sectorpack;
using testjson::JsonObject;
using testjson::JsonParser;
using testjson::JsonValue;

namespace {

class ObsExportTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_enabled(true); }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parse "name value" / "name{le=\"x\"} value" exposition lines for one
/// metric; returns (le, value) pairs for its _bucket series.
std::vector<std::pair<std::string, double>> bucket_series(
    const std::string& text, const std::string& metric) {
  std::vector<std::pair<std::string, double>> out;
  std::istringstream is(text);
  std::string line;
  const std::string prefix = metric + "_bucket{le=\"";
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t close = line.find("\"}", prefix.size());
    out.emplace_back(line.substr(prefix.size(), close - prefix.size()),
                     std::stod(line.substr(close + 2)));
  }
  return out;
}

}  // namespace

TEST_F(ObsExportTest, PrometheusNameSanitizes) {
  EXPECT_EQ(obs::prometheus_name("srv.request_ms"),
            "sectorpack_srv_request_ms");
  EXPECT_EQ(obs::prometheus_name("quality.local-search.solves"),
            "sectorpack_quality_local_search_solves");
  EXPECT_EQ(obs::prometheus_name("ok_name_09"), "sectorpack_ok_name_09");
}

TEST_F(ObsExportTest, ToPrometheusCountersAndGauges) {
  obs::Registry reg;
  reg.counter("a.count").add(7);
  reg.gauge("b.gauge").set(-1.5);
  const std::string text = obs::to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE sectorpack_a_count counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("sectorpack_a_count 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sectorpack_b_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("sectorpack_b_gauge -1.5\n"), std::string::npos);
}

TEST_F(ObsExportTest, ToPrometheusHistogramIsCumulativeWithInf) {
  obs::Registry reg;
  const obs::HdrHistogram h = reg.hdr_histogram("c.hist_ms");
  for (double v : {0.5, 1.0, 3.0, 100.0, 100.0}) h.observe(v);
  const std::string text = obs::to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE sectorpack_c_hist_ms histogram\n"),
            std::string::npos);
  const auto series = bucket_series(text, "sectorpack_c_hist_ms");
  ASSERT_GE(series.size(), 2u);
  // Cumulative and nondecreasing; the final +Inf bucket equals _count.
  double prev = 0.0;
  for (const auto& [le, value] : series) {
    EXPECT_GE(value, prev) << "le=" << le;
    prev = value;
  }
  EXPECT_EQ(series.back().first, "+Inf");
  EXPECT_DOUBLE_EQ(series.back().second, 5.0);
  EXPECT_NE(text.find("sectorpack_c_hist_ms_count 5\n"), std::string::npos);
  EXPECT_NE(text.find("sectorpack_c_hist_ms_sum 204.5\n"), std::string::npos);
}

TEST_F(ObsExportTest, StatsEnvelopeCarriesVersionTimestampAndSnapshot) {
  obs::Registry reg;
  reg.counter("env.count").add(3);
  const std::string json = obs::stats_envelope_json(reg.snapshot(), 12.5, 4);
  const JsonValue root = JsonParser(json).parse();
  const JsonObject& obj = root.object();
  EXPECT_DOUBLE_EQ(obj.at("schema_version").number(),
                   static_cast<double>(obs::kStatsSchemaVersion));
  EXPECT_DOUBLE_EQ(obj.at("wall_ms").number(), 12.5);
  EXPECT_DOUBLE_EQ(obj.at("seq").number(), 4.0);
  // ISO-8601 UTC: "YYYY-MM-DDThh:mm:ss.mmmZ".
  const std::string& at = obj.at("emitted_at").str();
  ASSERT_EQ(at.size(), 24u);
  EXPECT_EQ(at[4], '-');
  EXPECT_EQ(at[10], 'T');
  EXPECT_EQ(at[19], '.');
  EXPECT_EQ(at.back(), 'Z');
  // The registry snapshot fields are spliced in unchanged.
  EXPECT_DOUBLE_EQ(obj.at("counters").object().at("env.count").number(), 3.0);
  // Without a seq, the key is omitted entirely.
  const JsonValue no_seq =
      JsonParser(obs::stats_envelope_json(reg.snapshot(), 1.0)).parse();
  EXPECT_EQ(no_seq.object().count("seq"), 0u);
}

TEST_F(ObsExportTest, ExporterWritesJsonlAndPromAndStopsCleanly) {
  obs::Registry reg;
  reg.counter("exp.count").add(11);
  const std::string dir = ::testing::TempDir();
  const std::string prom = dir + "obs_exporter_test.prom";
  const std::string jsonl = dir + "obs_exporter_test.jsonl";
  std::remove(prom.c_str());
  std::remove(jsonl.c_str());
  {
    obs::ExporterConfig config;
    config.interval_seconds = 0.02;
    config.prom_path = prom;
    config.jsonl_path = jsonl;
    obs::Exporter exporter(config, &reg);
    // Let at least one periodic tick fire before the final stop() export.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    exporter.stop();
    EXPECT_TRUE(exporter.healthy());
    EXPECT_GE(exporter.ticks(), 2u);
    exporter.stop();  // idempotent
  }
  // Prometheus file holds the latest full exposition.
  const std::string text = slurp(prom);
  EXPECT_NE(text.find("sectorpack_exp_count 11\n"), std::string::npos);
  // JSONL: one valid envelope per tick, seq strictly increasing from 0.
  std::ifstream in(jsonl);
  std::string line;
  long expected_seq = 0;
  while (std::getline(in, line)) {
    const JsonValue root = JsonParser(line).parse();
    EXPECT_DOUBLE_EQ(root.object().at("schema_version").number(),
                     static_cast<double>(obs::kStatsSchemaVersion));
    EXPECT_DOUBLE_EQ(root.object().at("seq").number(),
                     static_cast<double>(expected_seq));
    ++expected_seq;
  }
  EXPECT_GE(expected_seq, 2);
}

TEST_F(ObsExportTest, ExporterStopWhileTickMidWrite) {
  // Teardown race: stop() arrives while the export thread is likely
  // mid-tick (0.01 s interval, the minimum) and while a writer keeps
  // mutating the registry being snapshotted, a counter and a histogram's
  // buckets, sum, min and max alike. stop() must wake the in-flight wait,
  // let a mid-write tick finish, run the final export, and join; under
  // TSan any regression in the stop/tick handshake, in
  // Registry::snapshot's locking or in a racing write fails this test.
  obs::Registry reg;
  const std::string dir = ::testing::TempDir();
  const std::string prom = dir + "obs_exporter_midtick.prom";
  const std::string jsonl = dir + "obs_exporter_midtick.jsonl";
  std::remove(prom.c_str());
  std::remove(jsonl.c_str());
  obs::ExporterConfig config;
  config.interval_seconds = 0.01;
  config.prom_path = prom;
  config.jsonl_path = jsonl;
  obs::Exporter exporter(config, &reg);
  std::atomic<bool> quit{false};
  std::thread writer([&] {
    obs::Counter racing = reg.counter("exp.midtick");
    obs::HdrHistogram racing_ms = reg.hdr_histogram("exp.midtick_ms");
    for (std::uint64_t i = 0; !quit.load(std::memory_order_acquire); ++i) {
      racing.add(1);
      racing_ms.observe(static_cast<double>(i % 1000));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  exporter.stop();
  exporter.stop();  // idempotent even right after a mid-tick stop
  quit.store(true, std::memory_order_release);
  writer.join();
  EXPECT_TRUE(exporter.healthy());
  EXPECT_GE(exporter.ticks(), 1u);
  // The final export landed a complete exposition despite the race.
  EXPECT_NE(slurp(prom).find("sectorpack_exp_midtick"), std::string::npos);
  EXPECT_NE(slurp(prom).find("sectorpack_exp_midtick_ms_count"),
            std::string::npos);
}

TEST_F(ObsExportTest, ExporterInertWithoutPaths) {
  obs::Exporter exporter(obs::ExporterConfig{});
  exporter.stop();
  EXPECT_EQ(exporter.ticks(), 0u);
  EXPECT_TRUE(exporter.healthy());
}

TEST_F(ObsExportTest, ExporterReportsUnwritablePath) {
  obs::ExporterConfig config;
  config.interval_seconds = 60.0;  // only the final stop() export runs
  config.jsonl_path = "/nonexistent-dir/obs_exporter_test.jsonl";
  obs::Exporter exporter(config);
  exporter.stop();
  EXPECT_FALSE(exporter.healthy());
}

// ---------------------------------------------------------------------------
// SloTracker

TEST_F(ObsExportTest, SloTrackerEmptySummary) {
  const obs::SloTracker slo(16);
  const obs::SloTracker::Summary s = slo.summary();
  EXPECT_EQ(s.window, 16u);
  EXPECT_EQ(s.in_window, 0u);
  EXPECT_EQ(s.total, 0u);
  EXPECT_DOUBLE_EQ(s.p99_ms, 0.0);
}

TEST_F(ObsExportTest, SloTrackerExactPercentilesAndRates) {
  obs::SloTracker slo(100);
  // Latencies 1..100 ms, all solves; the odd requests hit their deadline.
  for (int i = 1; i <= 100; ++i) {
    slo.record(static_cast<double>(i), /*deadline_ok=*/i % 2 == 1,
               obs::SloKind::kSolve);
  }
  const obs::SloTracker::Summary s = slo.summary();
  EXPECT_EQ(s.in_window, 100u);
  EXPECT_EQ(s.total, 100u);
  EXPECT_EQ(s.solves, 100u);
  // Nearest-rank over 1..100: pXX is exactly XX.
  EXPECT_DOUBLE_EQ(s.p50_ms, 50.0);
  EXPECT_DOUBLE_EQ(s.p95_ms, 95.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 99.0);
  EXPECT_DOUBLE_EQ(s.deadline_hit_rate, 0.5);
  EXPECT_DOUBLE_EQ(s.cache_hit_rate, 0.0);
  const std::string str = s.to_string();
  EXPECT_NE(str.find("p99_ms=99"), std::string::npos);
  EXPECT_NE(str.find("deadline_hit_rate=0.5"), std::string::npos);
  EXPECT_NE(str.find("solves=100"), std::string::npos);
}

TEST_F(ObsExportTest, SloTrackerKindsKeepSolvePercentilesUndiluted) {
  obs::SloTracker slo(100);
  // Ten slow solves at 100ms, forty near-zero cache hits, ten rejected
  // requests. The old accounting let the hits drag p50 to ~0 and hid the
  // rejections entirely; the kinds keep the percentiles on solves only and
  // fold rejections into the deadline hit-rate.
  for (int i = 0; i < 10; ++i) {
    slo.record(100.0, /*deadline_ok=*/true, obs::SloKind::kSolve);
  }
  for (int i = 0; i < 40; ++i) {
    slo.record(0.01, /*deadline_ok=*/true, obs::SloKind::kCacheHit);
  }
  for (int i = 0; i < 10; ++i) {
    slo.record(0.0, /*deadline_ok=*/false, obs::SloKind::kRejected);
  }
  const obs::SloTracker::Summary s = slo.summary();
  EXPECT_EQ(s.in_window, 60u);
  EXPECT_EQ(s.solves, 10u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 100.0);
  // 50 of 60 window samples met their deadline (10 rejections missed).
  EXPECT_NEAR(s.deadline_hit_rate, 50.0 / 60.0, 1e-12);
  // Hits over answered requests only: 40 / (40 + 10).
  EXPECT_DOUBLE_EQ(s.cache_hit_rate, 0.8);
}

TEST_F(ObsExportTest, SloTrackerWindowEvictsOldSamples) {
  obs::SloTracker slo(4);
  for (int i = 0; i < 100; ++i) {
    slo.record(1000.0, /*deadline_ok=*/false, obs::SloKind::kSolve);
  }
  // The last 4 samples overwrite the slow history entirely.
  for (int i = 0; i < 4; ++i) {
    slo.record(1.0, /*deadline_ok=*/true, obs::SloKind::kSolve);
  }
  const obs::SloTracker::Summary s = slo.summary();
  EXPECT_EQ(s.window, 4u);
  EXPECT_EQ(s.in_window, 4u);
  EXPECT_EQ(s.total, 104u);
  EXPECT_EQ(s.solves, 4u);
  EXPECT_DOUBLE_EQ(s.p99_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.deadline_hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(s.cache_hit_rate, 0.0);
}

TEST_F(ObsExportTest, SloTrackerPublishSetsGauges) {
  obs::Registry reg;
  obs::SloTracker slo(8);
  slo.record(10.0, /*deadline_ok=*/true, obs::SloKind::kSolve);
  slo.record(20.0, /*deadline_ok=*/false, obs::SloKind::kCacheHit);
  slo.publish(&reg);
  const obs::Snapshot snap = reg.snapshot();
  double window = 0.0;
  double p99 = 0.0;
  double hit = -1.0;
  double solves = -1.0;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "slo.window") window = value;
    if (name == "slo.p99_ms") p99 = value;
    if (name == "slo.deadline_hit_rate") hit = value;
    if (name == "slo.solve_samples") solves = value;
  }
  EXPECT_DOUBLE_EQ(window, 8.0);
  // Percentiles cover the solve only; the cache hit is excluded.
  EXPECT_DOUBLE_EQ(p99, 10.0);
  EXPECT_DOUBLE_EQ(hit, 0.5);
  EXPECT_DOUBLE_EQ(solves, 1.0);
}

TEST_F(ObsExportTest, SloTrackerConcurrentRecords) {
  obs::SloTracker slo(1024);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&slo] {
      for (int i = 0; i < 500; ++i) {
        slo.record(5.0, /*deadline_ok=*/true, obs::SloKind::kSolve);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::SloTracker::Summary s = slo.summary();
  EXPECT_EQ(s.total, 2000u);
  EXPECT_EQ(s.in_window, 1024u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 5.0);
}
