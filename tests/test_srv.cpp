// The batch request engine (src/srv/): the strict flat-JSON parser, the
// instance fingerprint, the LRU result cache, the bounded admission queue,
// and run_batch end to end -- including the soundness-critical properties:
// every response, cache hit or miss, is byte-identical to a single-shot
// solve of that request's instance (a reordered copy is a different input
// and misses), whatever the job count, and every request gets exactly one
// response no matter how malformed its line is.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/sectorpack.hpp"
#include "src/srv/cache.hpp"
#include "src/srv/drain.hpp"

using namespace sectorpack;

namespace {

model::Instance small_instance() {
  return model::InstanceBuilder{}
      .add_customer_polar(0.3, 5.0, 10.0)
      .add_customer_polar(2.1, 7.0, 4.0)
      .add_customer_polar(4.0, 3.0, 6.0)
      .add_customer_polar(5.5, 8.0, 2.0)
      .add_antenna(geom::kPi / 3, 10.0, 12.0)
      .add_antenna(geom::kPi / 2, 10.0, 8.0)
      .build();
}

/// The same instance with customers and antennas listed in a different
/// order (same multiset of entities).
model::Instance small_instance_permuted() {
  return model::InstanceBuilder{}
      .add_customer_polar(5.5, 8.0, 2.0)
      .add_customer_polar(0.3, 5.0, 10.0)
      .add_customer_polar(4.0, 3.0, 6.0)
      .add_customer_polar(2.1, 7.0, 4.0)
      .add_antenna(geom::kPi / 2, 10.0, 8.0)
      .add_antenna(geom::kPi / 3, 10.0, 12.0)
      .build();
}

std::string json_line(const std::string& instance_text,
                      const std::string& extra = "") {
  std::string line = "{\"instance\":\"";
  for (const char c : instance_text) {
    if (c == '\n') {
      line += "\\n";
    } else if (c == '"') {
      line += "\\\"";
    } else {
      line += c;
    }
  }
  line += "\"";
  line += extra;
  line += "}";
  return line;
}

srv::BatchReport run(const std::string& input, std::string* output,
                     const srv::BatchConfig& config = {}) {
  std::istringstream in(input);
  std::ostringstream out;
  const srv::BatchReport report = srv::run_batch(in, out, config);
  *output = out.str();
  return report;
}

std::vector<srv::JsonObject> parse_responses(const std::string& output) {
  std::vector<srv::JsonObject> responses;
  std::istringstream is(output);
  std::string line;
  while (std::getline(is, line)) {
    responses.push_back(srv::parse_flat_object(line));
  }
  return responses;
}

std::string field(const srv::JsonObject& o, const std::string& key) {
  const auto it = o.find(key);
  return it == o.end() ? std::string() : it->second.string;
}

// ---------------------------------------------------------------- jsonl

TEST(SrvJsonl, ParsesEveryScalarKind) {
  const srv::JsonObject o = srv::parse_flat_object(
      " { \"s\" : \"a\\tb\\u00e9\\ud83d\\ude00\" , \"n\" : -1.5e2 , "
      "\"t\" : true , \"f\" : false , \"z\" : null } ");
  ASSERT_EQ(o.size(), 5u);
  EXPECT_EQ(o.at("s").kind, srv::JsonValue::Kind::kString);
  EXPECT_EQ(o.at("s").string, "a\tb\xC3\xA9\xF0\x9F\x98\x80");
  EXPECT_EQ(o.at("n").kind, srv::JsonValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(o.at("n").number, -150.0);
  EXPECT_TRUE(o.at("t").boolean);
  EXPECT_FALSE(o.at("f").boolean);
  EXPECT_EQ(o.at("z").kind, srv::JsonValue::Kind::kNull);
}

TEST(SrvJsonl, RejectsMalformedInput) {
  EXPECT_THROW(srv::parse_flat_object(""), std::runtime_error);
  EXPECT_THROW(srv::parse_flat_object("[1]"), std::runtime_error);
  EXPECT_THROW(srv::parse_flat_object("{\"a\":{}}"), std::runtime_error);
  EXPECT_THROW(srv::parse_flat_object("{\"a\":[1]}"), std::runtime_error);
  EXPECT_THROW(srv::parse_flat_object("{\"a\":1,\"a\":2}"),
               std::runtime_error);
  EXPECT_THROW(srv::parse_flat_object("{\"a\":1} junk"), std::runtime_error);
  EXPECT_THROW(srv::parse_flat_object("{\"a\":1"), std::runtime_error);
  EXPECT_THROW(srv::parse_flat_object("{\"a\":01}"), std::runtime_error);
  EXPECT_THROW(srv::parse_flat_object("{\"a\":nul}"), std::runtime_error);
  EXPECT_THROW(srv::parse_flat_object("{\"a\":\"\x01\"}"),
               std::runtime_error);
  EXPECT_THROW(srv::parse_flat_object("{\"a\":\"\\ud83d\"}"),
               std::runtime_error);  // lone high surrogate
}

TEST(SrvJsonl, RejectsEveryUnpairedSurrogateShape) {
  const auto error_of = [](std::string_view line) {
    try {
      (void)srv::parse_flat_object(line);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  // Stray low surrogate with no preceding high half.
  EXPECT_NE(error_of("{\"a\":\"\\udc00\"}").find("stray low surrogate"),
            std::string::npos);
  // High surrogate at end of string, before a literal character, and
  // before a non-\u escape: all unpaired, all named as such (not a generic
  // "expected ..." from the cursor).
  EXPECT_NE(error_of("{\"a\":\"\\ud83d\"}").find("unpaired high surrogate"),
            std::string::npos);
  EXPECT_NE(error_of("{\"a\":\"\\ud83dx\"}").find("unpaired high surrogate"),
            std::string::npos);
  EXPECT_NE(
      error_of("{\"a\":\"\\ud83d\\n\"}").find("unpaired high surrogate"),
      std::string::npos);
  // High surrogate followed by a \u escape outside DC00-DFFF.
  EXPECT_NE(error_of("{\"a\":\"\\ud83d\\u0041\"}")
                .find("not followed by a low surrogate"),
            std::string::npos);
  // Double high surrogate is the same rejection.
  EXPECT_NE(error_of("{\"a\":\"\\ud83d\\ud83d\"}")
                .find("not followed by a low surrogate"),
            std::string::npos);
  // A well-formed pair still decodes.
  const srv::JsonObject ok =
      srv::parse_flat_object("{\"a\":\"\\ud83d\\ude00\"}");
  EXPECT_EQ(ok.at("a").string, "\xF0\x9F\x98\x80");
}

TEST(SrvJsonl, RejectsOutOfRangeNumbers) {
  // Syntactically valid JSON numbers whose value overflows a double must
  // be a clean parse error, not inf.
  EXPECT_THROW(srv::parse_flat_object("{\"a\":1e999}"), std::runtime_error);
  EXPECT_THROW(srv::parse_flat_object("{\"a\":-1e999}"), std::runtime_error);
  // Large-but-representable survives.
  const srv::JsonObject ok = srv::parse_flat_object("{\"a\":1e308}");
  EXPECT_DOUBLE_EQ(ok.at("a").number, 1e308);
}

// ---------------------------------------------------------------- requests

TEST(SrvRequest, DefaultsAndFields) {
  const srv::Request req = srv::parse_request(
      "{\"id\":\"x\",\"instance_file\":\"f.inst\",\"solver\":\"annealing\","
      "\"seed\":9,\"iterations\":50,\"time_limit\":1.5}",
      7);
  EXPECT_EQ(req.index, 7u);
  EXPECT_EQ(req.id, "x");
  EXPECT_EQ(req.instance_file, "f.inst");
  EXPECT_EQ(req.solver.family, "annealing");
  EXPECT_EQ(req.solver.seed, 9u);
  EXPECT_EQ(req.solver.iterations, 50u);
  EXPECT_DOUBLE_EQ(req.time_limit, 1.5);

  const srv::Request defaults =
      srv::parse_request("{\"instance\":\"text\"}", 0);
  EXPECT_EQ(defaults.solver.family, "local-search");
  EXPECT_EQ(defaults.solver.seed, 1u);
  EXPECT_EQ(defaults.solver.iterations, 2000u);
  EXPECT_LT(defaults.time_limit, 0.0);  // no per-request budget
}

TEST(SrvRequest, RejectsBadRequests) {
  // Unknown field, missing/duplicated instance source, unknown solver,
  // non-integer seed, negative time limit.
  EXPECT_THROW(srv::parse_request("{\"instance\":\"x\",\"nope\":1}", 0),
               std::runtime_error);
  EXPECT_THROW(srv::parse_request("{\"solver\":\"greedy\"}", 0),
               std::runtime_error);
  EXPECT_THROW(
      srv::parse_request("{\"instance\":\"x\",\"instance_file\":\"y\"}", 0),
      std::runtime_error);
  EXPECT_THROW(
      srv::parse_request("{\"instance\":\"x\",\"solver\":\"qaoa\"}", 0),
      std::runtime_error);
  EXPECT_THROW(srv::parse_request("{\"instance\":\"x\",\"seed\":1.5}", 0),
               std::runtime_error);
  EXPECT_THROW(srv::parse_request("{\"instance\":\"x\",\"seed\":-1}", 0),
               std::runtime_error);
  EXPECT_THROW(
      srv::parse_request("{\"instance\":\"x\",\"time_limit\":-2}", 0),
      std::runtime_error);
  // Absurd budgets are a protocol error, not a deadline-overflow hazard:
  // anything above 1e8 seconds (~3 years) is rejected at parse time.
  EXPECT_THROW(
      srv::parse_request("{\"instance\":\"x\",\"time_limit\":1e9}", 0),
      std::runtime_error);
  EXPECT_THROW(
      srv::parse_request("{\"instance\":\"x\",\"time_limit\":1e308}", 0),
      std::runtime_error);
  // The boundary itself is accepted.
  EXPECT_DOUBLE_EQ(
      srv::parse_request("{\"instance\":\"x\",\"time_limit\":1e8}", 0)
          .time_limit,
      1e8);
}

// ------------------------------------------------------------- fingerprint

TEST(SrvFingerprint, ReorderingChangesKey) {
  // The solvers break ties by index, so entity order is part of the input:
  // reordering the customers changes the key, and so does reordering the
  // antennas.
  const srv::SolverKey key;
  const srv::Fingerprint fp =
      srv::canonicalize(small_instance(), key).fingerprint;
  EXPECT_EQ(srv::canonicalize(small_instance(), key).fingerprint, fp);

  const model::Instance customers_reordered = model::InstanceBuilder{}
      .add_customer_polar(2.1, 7.0, 4.0)  // first two customers swapped
      .add_customer_polar(0.3, 5.0, 10.0)
      .add_customer_polar(4.0, 3.0, 6.0)
      .add_customer_polar(5.5, 8.0, 2.0)
      .add_antenna(geom::kPi / 3, 10.0, 12.0)
      .add_antenna(geom::kPi / 2, 10.0, 8.0)
      .build();
  const model::Instance antennas_reordered = model::InstanceBuilder{}
      .add_customer_polar(0.3, 5.0, 10.0)
      .add_customer_polar(2.1, 7.0, 4.0)
      .add_customer_polar(4.0, 3.0, 6.0)
      .add_customer_polar(5.5, 8.0, 2.0)
      .add_antenna(geom::kPi / 2, 10.0, 8.0)  // antennas swapped
      .add_antenna(geom::kPi / 3, 10.0, 12.0)
      .build();
  const srv::Fingerprint by_customers =
      srv::canonicalize(customers_reordered, key).fingerprint;
  const srv::Fingerprint by_antennas =
      srv::canonicalize(antennas_reordered, key).fingerprint;
  EXPECT_NE(by_customers, fp);
  EXPECT_NE(by_antennas, fp);
  EXPECT_NE(by_customers, by_antennas);
  EXPECT_NE(srv::canonicalize(small_instance_permuted(), key).fingerprint, fp);
}

TEST(SrvFingerprint, TextFormattingInvariant) {
  // The same instance spelled three ways: generated text, extra blank-free
  // v1 text with different float spellings, and v2 with the default value
  // and min_range columns written out explicitly. All hash identically
  // because the fingerprint is over parsed, resolved numbers, never bytes.
  const std::string v1 =
      "sectorpack-instance v1\n"
      "customers 2\n"
      "1.0 2.0 3\n"
      "4 5 6\n"
      "antennas 1\n"
      "1.5 10 20\n";
  const std::string v1_respelled =
      "sectorpack-instance v1\n"
      "customers 2\n"
      "1 2 3.0\n"
      "4.0 5.0 6\n"
      "antennas 1\n"
      "1.5e0 10.0 2e1\n";
  const std::string v2 =
      "sectorpack-instance v2\n"
      "customers 2\n"
      "1 2 3 3\n"
      "4 5 6 6\n"
      "antennas 1\n"
      "1.5 10 20 0\n";
  const srv::SolverKey key;
  const auto fp1 =
      srv::canonicalize(model::instance_from_string(v1), key).fingerprint;
  const auto fp1b = srv::canonicalize(
      model::instance_from_string(v1_respelled), key).fingerprint;
  const auto fp2 =
      srv::canonicalize(model::instance_from_string(v2), key).fingerprint;
  EXPECT_EQ(fp1, fp1b);
  EXPECT_EQ(fp1, fp2);
}

TEST(SrvFingerprint, DistinguishesProblemAndSolverChanges) {
  const model::Instance base = small_instance();
  const srv::SolverKey key;
  const srv::Fingerprint fp = srv::canonicalize(base, key).fingerprint;

  model::Instance demand_changed = model::InstanceBuilder{}
      .add_customer_polar(0.3, 5.0, 11.0)  // demand 10 -> 11
      .add_customer_polar(2.1, 7.0, 4.0)
      .add_customer_polar(4.0, 3.0, 6.0)
      .add_customer_polar(5.5, 8.0, 2.0)
      .add_antenna(geom::kPi / 3, 10.0, 12.0)
      .add_antenna(geom::kPi / 2, 10.0, 8.0)
      .build();
  EXPECT_NE(srv::canonicalize(demand_changed, key).fingerprint, fp);

  model::Instance moved = model::InstanceBuilder{}
      .add_customer_polar(0.31, 5.0, 10.0)  // theta 0.3 -> 0.31
      .add_customer_polar(2.1, 7.0, 4.0)
      .add_customer_polar(4.0, 3.0, 6.0)
      .add_customer_polar(5.5, 8.0, 2.0)
      .add_antenna(geom::kPi / 3, 10.0, 12.0)
      .add_antenna(geom::kPi / 2, 10.0, 8.0)
      .build();
  EXPECT_NE(srv::canonicalize(moved, key).fingerprint, fp);

  srv::SolverKey other = key;
  other.seed = 2;
  EXPECT_NE(srv::canonicalize(base, other).fingerprint, fp);
  other = key;
  other.iterations = 1999;
  EXPECT_NE(srv::canonicalize(base, other).fingerprint, fp);
  other = key;
  other.family = "greedy";
  EXPECT_NE(srv::canonicalize(base, other).fingerprint, fp);
  other = key;
  other.portfolio = "greedy,local-search";
  EXPECT_NE(srv::canonicalize(base, other).fingerprint, fp);
}

TEST(SrvFingerprint, CollisionSmokeOverGenerators) {
  // Not a proof, just a tripwire: many generated instances, all distinct
  // fingerprints (128 bits of splitmix64 mixing should never collide here).
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  const srv::SolverKey key;
  int total = 0;
  for (const sim::Spatial spatial :
       {sim::Spatial::kUniformDisk, sim::Spatial::kHotspots,
        sim::Spatial::kRing, sim::Spatial::kArcBand}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      sim::WorkloadConfig wc;
      wc.num_customers = 30;
      wc.spatial = spatial;
      sim::AntennaConfig ac;
      ac.count = 3;
      sim::Rng rng(seed);
      const model::Instance inst = sim::make_instance(wc, ac, rng);
      seen.insert({srv::canonicalize(inst, key).fingerprint.hi,
                   srv::canonicalize(inst, key).fingerprint.lo});
      ++total;
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), total);
}

// ------------------------------------------------------------------ cache

TEST(SrvCache, LruEvictionAndCounters) {
  srv::ResultCache cache(2);
  model::Solution sol;
  sol.status = model::SolveStatus::kComplete;
  const srv::Fingerprint a{1, 1}, b{2, 2}, c{3, 3};
  EXPECT_FALSE(cache.lookup(a).has_value());
  cache.insert(a, sol);
  cache.insert(b, sol);
  EXPECT_TRUE(cache.lookup(a).has_value());  // bumps a over b
  cache.insert(c, sol);                      // evicts b (LRU)
  EXPECT_TRUE(cache.lookup(a).has_value());
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_TRUE(cache.lookup(c).has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(SrvCache, ZeroCapacityDisablesStorage) {
  srv::ResultCache cache(0);
  model::Solution sol;
  cache.insert({1, 1}, sol);
  EXPECT_FALSE(cache.lookup({1, 1}).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

// ----------------------------------------------------------- bounded queue

TEST(SrvBoundedQueue, BoundsAndDrainsAcrossThreads) {
  par::BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  // Fill to capacity; the next push would block, so use the timed variant.
  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(q.try_push_for(v, std::chrono::milliseconds(10)));
  }
  int overflow = 99;
  EXPECT_FALSE(q.try_push_for(overflow, std::chrono::milliseconds(5)));

  std::thread producer([&q] {
    for (int i = 4; i < 200; ++i) q.push(int{i});
    q.close();
  });
  std::vector<int> got;
  int v = 0;
  while (q.pop(v)) got.push_back(v);
  producer.join();
  ASSERT_EQ(got.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_FALSE(q.pop(v));  // closed and drained
}

TEST(SrvBoundedQueue, PushAfterCloseFails) {
  par::BoundedQueue<int> q(2);
  q.close();
  int v = 1;
  EXPECT_FALSE(q.push(std::move(v)));
  EXPECT_FALSE(q.try_push_for(v, std::chrono::milliseconds(1)));
}

// ----------------------------------------------------------------- engine

TEST(SrvEngine, MixedBatchOneResponsePerRequest) {
  const std::string inst_text = model::to_string(small_instance());
  std::string input;
  input += json_line(inst_text, ",\"id\":\"good\",\"solver\":\"greedy\"");
  input += "\n";
  input += "this is not json\n";
  input += "\n";  // blank: skipped, no response
  input += json_line("garbage instance", ",\"id\":\"badinst\"");
  input += "\n";
  input += json_line(inst_text, ",\"id\":\"t0\",\"time_limit\":0");
  input += "\n";

  std::string output;
  srv::BatchConfig config;
  config.jobs = 2;
  const srv::BatchReport report = run(input, &output, config);

  EXPECT_EQ(report.requests, 4u);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.invalid, 2u);
  EXPECT_EQ(report.budget_exhausted, 1u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_FALSE(report.interrupted);

  const auto responses = parse_responses(output);
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_DOUBLE_EQ(responses[i].at("index").number,
                     static_cast<double>(i));  // input order preserved
  }
  EXPECT_EQ(field(responses[0], "status"), "ok");
  EXPECT_EQ(field(responses[0], "id"), "good");
  EXPECT_EQ(field(responses[1], "status"), "invalid");
  EXPECT_EQ(field(responses[2], "status"), "invalid");
  EXPECT_EQ(field(responses[2], "id"), "badinst");
  EXPECT_EQ(field(responses[3], "status"), "budget_exhausted");
}

TEST(SrvEngine, CacheMissMatchesSingleShotByteForByte) {
  const model::Instance inst = small_instance();
  const std::string inst_text = model::to_string(inst);
  std::string output;
  const std::string req =
      json_line(inst_text, ",\"solver\":\"greedy\"") + "\n";
  srv::BatchConfig config;
  config.jobs = 1;
  run(req, &output, config);
  const auto responses = parse_responses(output);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(field(responses[0], "cache"), "miss");
  EXPECT_EQ(field(responses[0], "solution"),
            model::to_string(sectors::solve_greedy(inst)));
}

TEST(SrvEngine, PermutedInstanceMissesAndMatchesRunSolver) {
  // A reordered copy is a different input: it misses and gets exactly its
  // own direct answer. A same-order resubmission still hits and is served
  // the stored solution unchanged.
  const model::Instance permuted = small_instance_permuted();
  const std::string original = model::to_string(small_instance());
  std::string input;
  input += json_line(original, ",\"id\":\"a\",\"solver\":\"greedy\"");
  input += "\n";
  input += json_line(model::to_string(permuted),
                     ",\"id\":\"b\",\"solver\":\"greedy\"");
  input += "\n";
  input += json_line(original, ",\"id\":\"c\",\"solver\":\"greedy\"");
  input += "\n";

  std::string output;
  srv::BatchConfig config;
  config.jobs = 1;  // deterministic order: "a" populates, "c" hits
  const srv::BatchReport report = run(input, &output, config);
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_EQ(report.cache_misses, 2u);

  const auto responses = parse_responses(output);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(field(responses[0], "fingerprint"),
            field(responses[1], "fingerprint"));
  EXPECT_EQ(field(responses[1], "cache"), "miss");
  srv::SolverKey key;
  key.family = "greedy";
  EXPECT_EQ(field(responses[1], "solution"),
            model::to_string(srv::run_solver(permuted, key, {})));
  EXPECT_EQ(field(responses[2], "fingerprint"),
            field(responses[0], "fingerprint"));
  EXPECT_EQ(field(responses[2], "cache"), "hit");
  EXPECT_EQ(field(responses[2], "solution"), field(responses[0], "solution"));
}

TEST(SrvEngine, DisabledCacheCountsEveryMiss) {
  // A disabled cache stores nothing, but every request still looks it up,
  // so the stats show it as 0 hits out of N rather than as no cache.
  const std::string inst_text = model::to_string(small_instance());
  std::string input;
  for (int i = 0; i < 3; ++i) {
    input += json_line(inst_text, ",\"solver\":\"greedy\"");
    input += "\n";
  }
  std::string output;
  srv::BatchConfig config;
  config.jobs = 1;
  config.cache_entries = 0;
  const srv::BatchReport report = run(input, &output, config);
  EXPECT_EQ(report.ok, 3u);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.cache_misses, 3u);
  for (const auto& r : parse_responses(output)) {
    EXPECT_EQ(field(r, "cache"), "miss");
  }
}

TEST(SrvEngine, BudgetExhaustedIncumbentsAreNotCached) {
  const std::string inst_text = model::to_string(small_instance());
  std::string input;
  input += json_line(inst_text, ",\"id\":\"a\",\"time_limit\":0");
  input += "\n";
  input += json_line(inst_text, ",\"id\":\"b\"");
  input += "\n";
  std::string output;
  srv::BatchConfig config;
  config.jobs = 1;
  const srv::BatchReport report = run(input, &output, config);
  // Request "a" degrades and must not poison the cache for "b".
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.cache_misses, 2u);
  const auto responses = parse_responses(output);
  EXPECT_EQ(field(responses[0], "status"), "budget_exhausted");
  EXPECT_EQ(field(responses[1], "status"), "ok");
}

TEST(SrvEngine, GlobalBudgetZeroRejectsEverything) {
  const std::string inst_text = model::to_string(small_instance());
  std::string input;
  for (int i = 0; i < 5; ++i) input += json_line(inst_text) + "\n";
  std::string output;
  srv::BatchConfig config;
  config.jobs = 2;
  config.time_limit = 0.0;
  const srv::BatchReport report = run(input, &output, config);
  EXPECT_EQ(report.requests, 5u);
  EXPECT_EQ(report.rejected, 5u);
  const auto responses = parse_responses(output);
  ASSERT_EQ(responses.size(), 5u);
  for (const auto& r : responses) {
    EXPECT_EQ(field(r, "status"), "rejected");
  }
}

TEST(SrvEngine, InterruptFlagDrainsWithRejections) {
  const std::string inst_text = model::to_string(small_instance());
  std::string input;
  for (int i = 0; i < 5; ++i) input += json_line(inst_text) + "\n";
  std::string output;
  std::atomic<bool> interrupt{true};  // pre-set: drain before any admission
  srv::BatchConfig config;
  config.jobs = 2;
  config.interrupt = &interrupt;
  const srv::BatchReport report = run(input, &output, config);
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.rejected, 5u);
  EXPECT_EQ(parse_responses(output).size(), 5u);
}

/// Input that sets an interrupt flag when the reader hits its end: every
/// line is already read, so only a drain that keeps watching after the
/// last line can notice the flag.
class InterruptAtEndOfInput : public std::streambuf {
 public:
  InterruptAtEndOfInput(std::string text, std::atomic<bool>* flag)
      : text_(std::move(text)), flag_(flag) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  // Called only once the whole text was consumed.
  int_type underflow() override {
    flag_->store(true);
    return traits_type::eof();
  }

 private:
  std::string text_;
  std::atomic<bool>* flag_;
};

/// Three requests that each run out their 5 s budget unless cancelled.
std::string slow_requests() {
  const std::string inst_text = model::to_string(small_instance());
  std::string input;
  for (int i = 0; i < 3; ++i) {
    input += json_line(inst_text,
                       ",\"solver\":\"annealing\",\"iterations\":2000000000"
                       ",\"time_limit\":5");
    input += "\n";
  }
  return input;
}

TEST(SrvEngine, InterruptAfterLastLineCancelsAndRejects) {
  std::atomic<bool> interrupt{false};
  InterruptAtEndOfInput buf(slow_requests(), &interrupt);
  std::istream in(&buf);
  std::ostringstream out;
  srv::BatchConfig config;
  config.jobs = 1;
  config.interrupt = &interrupt;
  const srv::BatchReport report = srv::run_batch(in, out, config);

  EXPECT_TRUE(report.interrupted);
  const auto responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 3u);
  // Line 0 was in flight (budget_exhausted) or still queued (rejected).
  EXPECT_NE(field(responses[0], "status"), "ok");
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(field(responses[i], "status"), "rejected") << "line " << i;
    EXPECT_EQ(field(responses[i], "error"), "batch draining (interrupted)");
  }
}

// ---------------------------------------------------------------------------
// The drain itself: no thread watches the flag, so the armed deadlines and
// draining() must read it on their own.

TEST(SrvDrain, InterruptWithLapsedBudgetNamesTheInterruptOnce) {
  obs::set_enabled(true);
  obs::reset();
  std::atomic<bool> interrupt{true};
  srv::Drain drain("batch", 0.0, &interrupt);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(drain.draining());
  EXPECT_EQ(drain.reason(), "batch draining (interrupted)");
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  EXPECT_EQ(snap.counter("deadline.expired.srv.batch"), 1u);
}

TEST(SrvDrain, LapsedBudgetWithClearFlagNamesTheBudget) {
  std::atomic<bool> interrupt{false};
  srv::Drain drain("serve", 0.0, &interrupt);
  EXPECT_TRUE(drain.draining());
  EXPECT_EQ(drain.reason(), "global time limit exhausted");
}

TEST(SrvDrain, ArmedDeadlineReadsTheFlagWithoutDraining) {
  // What a solve in flight sees when SIGINT lands: its deadline expires at
  // the next check, before anything calls draining().
  std::atomic<bool> interrupt{false};
  srv::Drain drain("batch", -1.0, &interrupt);
  const core::Deadline deadline = drain.arm(-1.0).deadline;
  EXPECT_FALSE(deadline.expired());
  std::thread handler([&interrupt] { interrupt.store(true); });
  handler.join();
  EXPECT_TRUE(deadline.expired());
  EXPECT_EQ(drain.reason(), "");
  EXPECT_TRUE(drain.draining());
  EXPECT_EQ(drain.reason(), "batch draining (interrupted)");
}

TEST(SrvEngine, GlobalBudgetAfterLastLineRejectsUnstarted) {
  std::string output;
  srv::BatchConfig config;
  config.jobs = 1;
  config.time_limit = 0.3;
  const srv::BatchReport report = run(slow_requests(), &output, config);

  EXPECT_EQ(report.rejected, 2u);
  EXPECT_TRUE(report.interrupted);
  const auto responses = parse_responses(output);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(field(responses[0], "status"), "budget_exhausted");
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(field(responses[i], "status"), "rejected") << "line " << i;
    EXPECT_EQ(field(responses[i], "error"), "global time limit exhausted");
  }
}

TEST(SrvEngine, ParallelBatchIsCompleteAndSound) {
  // 60 requests over 8 workers with a tiny admission queue: every request
  // gets its response, in input order, and every response -- hit or miss
  // -- is byte-identical to the single-shot solve of that request's
  // instance, so which requests hit cannot show in the output.
  const model::Instance inst_a = small_instance();
  const model::Instance inst_b = small_instance_permuted();
  const std::string a = model::to_string(inst_a);
  const std::string b = model::to_string(inst_b);
  std::string input;
  for (int i = 0; i < 60; ++i) {
    const char* solver = (i % 3 == 0) ? "greedy"
                         : (i % 3 == 1) ? "local-search"
                                        : "uniform";
    input += json_line(i % 2 == 0 ? a : b,
                       std::string(",\"solver\":\"") + solver + "\"");
    input += "\n";
  }
  std::string output;
  srv::BatchConfig config;
  config.jobs = 8;
  config.queue_capacity = 4;  // force backpressure on the admission path
  const srv::BatchReport report = run(input, &output, config);
  EXPECT_EQ(report.requests, 60u);
  EXPECT_EQ(report.ok, 60u);
  EXPECT_EQ(report.cache_hits + report.cache_misses, 60u);
  EXPECT_GT(report.cache_hits, 0u);

  const auto responses = parse_responses(output);
  ASSERT_EQ(responses.size(), 60u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const model::Instance& inst = i % 2 == 0 ? inst_a : inst_b;
    EXPECT_DOUBLE_EQ(responses[i].at("index").number, static_cast<double>(i));
    EXPECT_EQ(field(responses[i], "status"), "ok");
    const model::Solution sol =
        model::solution_from_string(field(responses[i], "solution"));
    EXPECT_TRUE(verify::verify_solution(inst, sol).ok) << "response " << i;
    srv::SolverKey key;
    key.family = field(responses[i], "solver");
    EXPECT_EQ(field(responses[i], "solution"),
              model::to_string(srv::run_solver(inst, key, {})))
        << "response " << i << " (cache " << field(responses[i], "cache")
        << ")";
  }
}

/// `customers` under three identical antennas of width 1 rad whose range
/// covers the whole [-10, 10]^2 grid.
model::Instance with_identical_fleet(
    const std::vector<model::Customer>& customers) {
  model::InstanceBuilder builder;
  for (const model::Customer& c : customers) {
    builder.add_customer(c.pos.x, c.pos.y, c.demand);
  }
  return builder.add_identical_antennas(3, 1.0, 15.0, 12.0).build();
}

TEST(SrvEngine, ReorderedCopiesAnswerTheSameInEveryRun) {
  // A tie-heavy instance -- 40 customers at integer positions in
  // [-10, 10]^2 (origin dropped), demands 1-3, identical antennas -- then
  // seven copies with the customers shuffled, then the instance again.
  // Many packings tie and the solvers break ties by index, so a copy's own
  // answer need not be the original's answer renumbered: for this instance
  // they differ for six of the seven copies, in every family. Streamed
  // through four jobs, where which copy is solved first is a race, every
  // run must give every request the answer it gets with the cache off.
  sim::Rng rng(4);
  std::vector<model::Customer> customers;
  while (customers.size() < 40) {
    const std::int64_t x = rng.uniform_int(std::int64_t{-10}, std::int64_t{10});
    const std::int64_t y = rng.uniform_int(std::int64_t{-10}, std::int64_t{10});
    if (x == 0 && y == 0) continue;
    model::Customer c;
    c.pos = {static_cast<double>(x), static_cast<double>(y)};
    c.demand =
        static_cast<double>(rng.uniform_int(std::int64_t{1}, std::int64_t{3}));
    customers.push_back(c);
  }
  const std::string original =
      model::to_string(with_identical_fleet(customers));
  std::vector<std::string> texts{original};
  sim::Rng shuffle(4007);
  for (int copy = 0; copy < 7; ++copy) {
    std::vector<model::Customer> shuffled = customers;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[shuffle.uniform_int(i)]);
    }
    texts.push_back(model::to_string(with_identical_fleet(shuffled)));
  }
  texts.push_back(original);

  std::string input;
  for (const char* family : {"greedy", "local-search", "annealing", "race"}) {
    for (const std::string& text : texts) {
      input += json_line(text, std::string(",\"solver\":\"") + family +
                                   "\",\"iterations\":200");
      input += "\n";
    }
  }
  const std::size_t requests = 4 * texts.size();
  const auto solutions = [&](std::size_t cache_entries) {
    std::string output;
    srv::BatchConfig config;
    config.jobs = 4;
    config.cache_entries = cache_entries;
    const srv::BatchReport report = run(input, &output, config);
    EXPECT_EQ(report.ok, requests);
    EXPECT_EQ(report.cache_hits + report.cache_misses, requests);
    std::vector<std::string> out;
    for (const auto& r : parse_responses(output)) {
      out.push_back(field(r, "solution"));
    }
    return out;
  };

  const std::vector<std::string> uncached = solutions(0);
  ASSERT_EQ(uncached.size(), requests);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const std::vector<std::string> cached = solutions(128);
    ASSERT_EQ(cached.size(), requests);
    std::string differing;
    for (std::size_t i = 0; i < requests; ++i) {
      if (cached[i] != uncached[i]) differing += " " + std::to_string(i);
    }
    EXPECT_TRUE(differing.empty())
        << "run " << repeat << ": responses differ from the cache-off run:"
        << differing;
  }
}

TEST(SrvEngine, AccessLogOneLinePerRequestInResponseOrder) {
  const std::string inst_text = model::to_string(small_instance());
  std::string input;
  for (int i = 0; i < 20; ++i) {
    input += json_line(inst_text, ",\"id\":\"req" + std::to_string(i) +
                                      "\",\"solver\":\"greedy\""
                                      ",\"time_limit\":5");
    input += "\n";
  }
  input += "not json at all\n";  // still gets an access-log line

  std::ostringstream access;
  std::string output;
  srv::BatchConfig config;
  config.jobs = 4;
  config.access_log = &access;
  const srv::BatchReport report = run(input, &output, config);
  EXPECT_EQ(report.requests, 21u);

  // One line per request, in response (= input) order, with the per-request
  // telemetry fields; lines parse as flat JSON objects.
  std::vector<srv::JsonObject> lines;
  std::istringstream is(access.str());
  std::string line;
  while (std::getline(is, line)) {
    lines.push_back(srv::parse_flat_object(line));
  }
  ASSERT_EQ(lines.size(), 21u);
  const auto responses = parse_responses(output);
  ASSERT_EQ(responses.size(), 21u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_DOUBLE_EQ(lines[i].at("index").number, static_cast<double>(i));
    EXPECT_EQ(field(lines[i], "status"), field(responses[i], "status"));
    EXPECT_GE(lines[i].at("queue_us").number, 0.0);
  }
  // Solved lines carry solver/cache/fingerprint/latency/deadline fields.
  const srv::JsonObject& solved = lines[0];
  EXPECT_EQ(field(solved, "solver"), "greedy");
  const std::string cache = field(solved, "cache");
  EXPECT_TRUE(cache == "hit" || cache == "miss");
  EXPECT_EQ(field(solved, "fingerprint").size(), 32u);
  EXPECT_GT(solved.at("solve_us").number, 0.0);
  EXPECT_DOUBLE_EQ(solved.at("deadline_budget_ms").number, 5000.0);
  EXPECT_GT(solved.at("deadline_used_ms").number, 0.0);
  // The malformed request's line reports the parse error, not solver data.
  EXPECT_EQ(field(lines[20], "status"), "invalid");
  EXPECT_FALSE(field(lines[20], "error").empty());
  EXPECT_EQ(lines[20].count("solver"), 0u);
}

TEST(SrvEngine, BatchReportCarriesSloSummary) {
  const std::string inst_text = model::to_string(small_instance());
  std::string input;
  for (int i = 0; i < 8; ++i) {
    input += json_line(inst_text, ",\"solver\":\"greedy\"");
    input += "\n";
  }
  std::string output;
  srv::BatchConfig config;
  config.jobs = 2;
  config.slo_window = 4;
  const srv::BatchReport report = run(input, &output, config);
  EXPECT_EQ(report.ok, 8u);
  EXPECT_NE(report.slo_summary.find("window=4/4"), std::string::npos);
  EXPECT_NE(report.slo_summary.find("total=8"), std::string::npos);
  EXPECT_NE(report.slo_summary.find("p99_ms="), std::string::npos);
  EXPECT_NE(report.slo_summary.find("deadline_hit_rate=1"),
            std::string::npos);
  EXPECT_NE(report.to_string().find("slo["), std::string::npos);
}

TEST(SrvEngine, RunSolverMatchesDirectCalls) {
  const model::Instance inst = small_instance();
  const core::SolveOptions opts;
  EXPECT_EQ(model::to_string(srv::run_solver(inst, {"greedy", 1, 2000, ""}, opts)),
            model::to_string(sectors::solve_greedy(inst)));
  EXPECT_EQ(model::to_string(
                srv::run_solver(inst, {"local-search", 1, 2000, ""}, opts)),
            model::to_string(sectors::solve_local_search(inst)));
  sectors::AnnealConfig anneal;
  anneal.seed = 5;
  anneal.iterations = 100;
  EXPECT_EQ(
      model::to_string(srv::run_solver(inst, {"annealing", 5, 100, ""}, opts)),
      model::to_string(sectors::solve_annealing(inst, anneal)));
  EXPECT_FALSE(srv::is_known_solver("qaoa"));
  EXPECT_THROW(static_cast<void>(srv::run_solver(inst, {"qaoa", 1, 1, ""}, opts)),
               std::invalid_argument);
}

// The registry is the single source of truth for family names: the engine
// validation, the dispatch, the CLI help, and the race portfolio parser
// all read it, so this test is the drift tripwire -- adding a family to
// one consumer but not the table cannot pass.
TEST(SrvSolverRegistry, SingleSourceOfTruth) {
  const std::span<const srv::SolverFamily> families = srv::solver_families();
  ASSERT_FALSE(families.empty());

  std::set<std::string> names;
  std::set<int> priorities;
  for (const srv::SolverFamily& family : families) {
    // Engine validation agrees with the table row by row.
    EXPECT_TRUE(srv::is_known_solver(family.name)) << family.name;
    EXPECT_EQ(srv::find_solver_family(family.name), &family) << family.name;
    EXPECT_NE(family.run, nullptr) << family.name;
    // Names unique, priorities unique (the race tie-break requires a
    // total order over families).
    EXPECT_TRUE(names.insert(family.name).second) << family.name;
    EXPECT_TRUE(priorities.insert(family.priority).second) << family.name;
    // Generated help text carries every family.
    EXPECT_NE(srv::solver_family_names("|").find(family.name),
              std::string::npos)
        << family.name;
  }
  // The forcing function for this PR: `race` is a registered family, and
  // every historical family is still present.
  for (const char* expected :
       {"greedy", "local-search", "uniform", "annealing", "exact", "shard",
        "race"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
  EXPECT_EQ(srv::find_solver_family("qaoa"), nullptr);

  // Seedable families expose warm starts; a family that does not cannot
  // be handed one by the race (the exchange checks for nullptr).
  EXPECT_NE(srv::find_solver_family("local-search")->run_seeded, nullptr);
  EXPECT_NE(srv::find_solver_family("annealing")->run_seeded, nullptr);
  EXPECT_EQ(srv::find_solver_family("greedy")->run_seeded, nullptr);
}

}  // namespace
