// The session serving layer (src/srv/session.*, src/srv/serve.*): the
// soundness-critical contract that an incremental re-solve after any delta
// is byte-identical to srv::run_solver on a fresh Instance built from the
// same post-delta records, plus the session store, the serve protocol loop
// (one response per line, failure isolation, session limit), and
// cooperative drain (in-flight op answered, later lines rejected, sessions
// closed).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/sectorpack.hpp"

using namespace sectorpack;

namespace {

// ------------------------------------------------------------- fixtures

/// k identical antennas over a uniform disk (greedy's shared-cache path).
model::Instance identical_instance(std::size_t n, std::uint64_t seed) {
  return sim::uniform_disk_instance(n, 3, geom::kPi / 3, 25.0, seed);
}

/// Non-identical annular ring antennas: radial bands partition the disk,
/// so a customer delta dirties few bands and the window memo earns hits.
model::Instance annular_instance(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  sim::WorkloadConfig wl;
  wl.num_customers = n;
  wl.disk_radius = 90.0;
  std::vector<model::Customer> customers = sim::generate_customers(wl, rng);
  std::vector<model::AntennaSpec> antennas;
  for (std::size_t b = 0; b < 3; ++b) {
    model::AntennaSpec spec;
    spec.rho = geom::kPi / 2 + 0.1 * static_cast<double>(b);
    spec.min_range = 30.0 * static_cast<double>(b);
    spec.range = spec.min_range + 30.0;
    spec.capacity = 40.0 + 5.0 * static_cast<double>(b);
    antennas.push_back(spec);
  }
  return model::Instance(std::move(customers), std::move(antennas));
}

/// Fresh instance from the session's current records: what a client
/// re-sending the post-delta problem from scratch would register.
model::Instance rebuilt(const srv::Session& session) {
  const model::Instance& inst = session.instance();
  return model::Instance(
      std::vector<model::Customer>(inst.customers().begin(),
                                   inst.customers().end()),
      std::vector<model::AntennaSpec>(inst.antennas().begin(),
                                      inst.antennas().end()));
}

/// The byte-identity check: session solution vs run_solver on a rebuilt
/// instance, compared through the canonical text encoding.
void expect_identical(const srv::Session& session, const std::string& what) {
  const model::Solution fresh =
      srv::run_solver(rebuilt(session), session.solver(), {});
  EXPECT_EQ(model::to_string(session.solution()), model::to_string(fresh))
      << "incremental re-solve diverged from from-scratch solve after "
      << what;
}

model::Customer random_customer(std::mt19937_64& gen) {
  std::uniform_real_distribution<double> coord(-85.0, 85.0);
  std::uniform_int_distribution<int> demand(1, 9);
  model::Customer c;
  c.pos = {coord(gen), coord(gen)};
  c.demand = static_cast<double>(demand(gen));
  return c;
}

// ------------------------------------------------- session byte-identity

class SessionIdentity : public ::testing::TestWithParam<bool> {};

/// Randomized cross-check: a stream of mixed deltas, each followed by a
/// bitwise diff against the from-scratch path. Runs for both the
/// identical-antennas branch of greedy and the annular (per-antenna cache)
/// branch.
TEST_P(SessionIdentity, RandomizedDeltaStreamMatchesFromScratch) {
  const bool annular = GetParam();
  model::Instance inst =
      annular ? annular_instance(60, 7) : identical_instance(60, 7);
  srv::Session session(std::move(inst), srv::SolverKey{"greedy", 1, 0, ""});
  const srv::ResolveStats init = session.solve_initial({});
  EXPECT_TRUE(init.incremental);
  expect_identical(session, "solve_initial");

  std::mt19937_64 gen(annular ? 11u : 12u);
  std::uniform_int_distribution<int> pick_op(0, 3);
  for (int step = 0; step < 24; ++step) {
    const int op = pick_op(gen);
    const std::size_t n = session.instance().num_customers();
    if (op == 0 || n < 8) {
      session.customer_add(random_customer(gen), {});
      expect_identical(session, "customer_add");
    } else if (op == 1) {
      std::uniform_int_distribution<std::size_t> idx(0, n - 1);
      session.customer_remove(idx(gen), {});
      expect_identical(session, "customer_remove");
    } else if (op == 2) {
      std::uniform_int_distribution<std::size_t> idx(0, n - 1);
      std::uniform_int_distribution<int> demand(1, 9);
      session.demand_set(idx(gen), static_cast<double>(demand(gen)), {});
      expect_identical(session, "demand_set");
    } else {
      model::AntennaSpec spec;
      spec.rho = geom::kPi / 3;
      std::uniform_real_distribution<double> range(40.0, 90.0);
      spec.range = range(gen);
      spec.capacity = 30.0;
      session.antenna_add(spec, {});
      expect_identical(session, "antenna_add");
    }
  }
  EXPECT_EQ(session.deltas(), 24u);
}

INSTANTIATE_TEST_SUITE_P(GreedyBranches, SessionIdentity,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& branch) {
                           return branch.param ? "AnnularAntennas"
                                               : "IdenticalAntennas";
                         });

/// A non-greedy session takes the full-resolve fallback every delta --
/// trivially identical, and the stats say so.
TEST(Session, NonGreedyFamilyFallsBackToFullResolve) {
  srv::Session session(identical_instance(30, 3),
                       srv::SolverKey{"local-search", 1, 200, ""});
  const srv::ResolveStats init = session.solve_initial({});
  EXPECT_FALSE(init.incremental);
  expect_identical(session, "solve_initial (local-search)");

  std::mt19937_64 gen(5);
  const srv::ResolveStats stats = session.customer_add(random_customer(gen), {});
  EXPECT_FALSE(stats.incremental);
  EXPECT_EQ(stats.memo_hits, 0u);
  expect_identical(session, "customer_add (local-search)");
}

/// Reverting a delta returns the unserved-band fingerprints to previously
/// memoized keys: the replay must then be served from the memo.
TEST(Session, RevertedDeltaHitsTheWindowMemo) {
  srv::Session session(annular_instance(50, 9), srv::SolverKey{"greedy", 1, 0, ""});
  session.solve_initial({});

  std::mt19937_64 gen(21);
  const model::Customer c = random_customer(gen);
  session.customer_add(c, {});
  // Remove the customer just added (it is the last index).
  const srv::ResolveStats stats =
      session.customer_remove(session.instance().num_customers() - 1, {});
  expect_identical(session, "add-then-remove");
  EXPECT_GT(stats.memo_hits, 0u)
      << "replaying the original instance should find its own memo entries";
  EXPECT_EQ(stats.fresh_evals, 0u)
      << "every (antenna, round) key was seen during solve_initial";
  EXPECT_EQ(stats.dirty_ratio, 0.0);
}

}  // namespace

namespace sectorpack::srv {

/// Test-only access to a session's window memo (a friend of Session). The
/// entry it forges is the first one a replay reads: antenna j's round-0
/// verdict, keyed by its whole in-band fingerprint.
struct SessionTestPeer {
  /// Overwrites that entry; false when there was none to overwrite.
  static bool forge_round0(Session& session, std::size_t j, double value,
                           std::vector<std::size_t> sids) {
    const std::size_t slot = session.inst_.antennas_identical() ? 0 : j;
    const auto it = session.memo_[slot].find(session.band_fp_[j]);
    if (it == session.memo_[slot].end()) return false;
    it->second.value = value;
    it->second.chosen_sids = std::move(sids);
    return true;
  }
  static std::size_t sid(const Session& session, std::size_t i) {
    return session.sid_[i];
  }
  static std::size_t next_sid(const Session& session) {
    return session.next_sid_;
  }
};

}  // namespace sectorpack::srv

namespace {

/// Beyond every annular_instance band (the outermost ends at radius 90):
/// adding it changes no band fingerprint, so every replay key repeats.
model::Customer out_of_range_customer() {
  model::Customer c;
  c.pos = {150.0, 0.0};
  c.demand = 1.0;
  return c;
}

/// Collision backstop 1: a memo entry naming a retired or never-issued sid
/// is dropped and swept afresh, and the answer stays byte-identical.
TEST(Session, MemoEntryWithDeadSidIsSweptAfresh) {
  for (const bool retired : {true, false}) {
    SCOPED_TRACE(retired ? "retired sid" : "never-issued sid");
    const srv::SolverKey key{"greedy", 1, 0, ""};
    srv::Session control(annular_instance(50, 9), key);
    srv::Session forged(annular_instance(50, 9), key);
    control.solve_initial({});
    forged.solve_initial({});

    std::size_t dead = srv::SessionTestPeer::next_sid(forged) + 1000;
    if (retired) {
      forged.customer_add(out_of_range_customer(), {});
      const std::size_t last = forged.instance().num_customers() - 1;
      dead = srv::SessionTestPeer::sid(forged, last);
      forged.customer_remove(last, {});
    }
    ASSERT_TRUE(srv::SessionTestPeer::forge_round0(forged, 0, 1.0, {dead}));

    const srv::ResolveStats want =
        control.customer_add(out_of_range_customer(), {});
    const srv::ResolveStats got =
        forged.customer_add(out_of_range_customer(), {});
    EXPECT_EQ(want.fresh_evals, 0u);  // the delta dirtied no key
    EXPECT_TRUE(got.incremental);
    EXPECT_EQ(got.evals, want.evals);
    EXPECT_EQ(got.fresh_evals, 1u);
    EXPECT_EQ(got.memo_hits, want.memo_hits - 1);
    expect_identical(forged, "a memo entry naming a dead sid");
  }
}

/// Collision backstop 2: a forged verdict over live, unserved sids that
/// overfills the antenna wins its round, so the replay's assignment is
/// infeasible; verify catches it and the session answers from scratch.
TEST(Session, InfeasibleMemoVerdictFallsBackToFullSolve) {
  srv::Session session(annular_instance(120, 9),
                       srv::SolverKey{"greedy", 1, 0, ""});
  session.solve_initial({});
  const model::Instance& inst = session.instance();
  std::vector<std::size_t> band;
  double demand = 0.0;
  for (std::size_t i = 0; i < inst.num_customers(); ++i) {
    if (!inst.in_range(i, 0)) continue;
    band.push_back(srv::SessionTestPeer::sid(session, i));
    demand += inst.demand(i);
  }
  ASSERT_GT(demand, inst.antenna(0).capacity);
  ASSERT_TRUE(srv::SessionTestPeer::forge_round0(session, 0, 1e9, band));

  const srv::ResolveStats stats =
      session.customer_add(out_of_range_customer(), {});
  EXPECT_FALSE(stats.incremental);
  expect_identical(session, "an infeasible memo verdict");

  // The fallback dropped the memos; the next delta replays again.
  EXPECT_TRUE(session.customer_add(out_of_range_customer(), {}).incremental);
  expect_identical(session, "the delta after the fallback");
}

/// Validation failures must leave instance and solution untouched.
TEST(Session, InvalidDeltaLeavesSessionOnPreviousState) {
  srv::Session session(identical_instance(20, 4), srv::SolverKey{"greedy", 1, 0, ""});
  session.solve_initial({});
  const std::string before_inst = model::to_string(session.instance());
  const std::string before_sol = model::to_string(session.solution());

  EXPECT_THROW(session.demand_set(0, -1.0, {}), std::invalid_argument);
  EXPECT_THROW(session.customer_remove(10'000, {}), std::out_of_range);
  EXPECT_THROW(session.demand_set(10'000, 2.0, {}), std::out_of_range);
  model::AntennaSpec bad;
  bad.rho = -1.0;
  EXPECT_THROW(session.antenna_add(bad, {}), std::invalid_argument);

  EXPECT_EQ(model::to_string(session.instance()), before_inst);
  EXPECT_EQ(model::to_string(session.solution()), before_sol);
  EXPECT_EQ(session.deltas(), 0u);
}

// --------------------------------------------------------- session store

TEST(SessionStore, CreateFindCloseAndNumericIdOrder) {
  srv::SessionStore store;
  std::vector<std::string> created;
  for (int i = 0; i < 11; ++i) {
    created.push_back(
        store.create(identical_instance(10, 1), srv::SolverKey{"greedy", 1, 0, ""}));
  }
  EXPECT_EQ(created.front(), "s0");
  EXPECT_EQ(created.back(), "s10");
  EXPECT_EQ(store.size(), 11u);

  ASSERT_NE(store.find("s3"), nullptr);
  EXPECT_EQ(store.find("nope"), nullptr);
  EXPECT_TRUE(store.close("s3"));
  EXPECT_FALSE(store.close("s3"));
  EXPECT_EQ(store.find("s3"), nullptr);
  EXPECT_EQ(store.size(), 10u);

  store.clear();
  EXPECT_EQ(store.size(), 0u);
}

// ------------------------------------------------------- serve protocol

std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

std::string register_line(const model::Instance& inst,
                          const std::string& extra = "") {
  return "{\"op\":\"register\",\"instance\":\"" + escaped(model::to_string(inst)) +
         "\",\"solver\":\"greedy\"" + extra + "}";
}

srv::ServeReport run(const std::string& input, std::string* output,
                     const srv::ServeConfig& config = {}) {
  std::istringstream in(input);
  std::ostringstream out;
  const srv::ServeReport report = srv::run_serve(in, out, config);
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

TEST(Serve, EveryLineGetsOneResponseInInputOrder) {
  const model::Instance inst = identical_instance(20, 2);
  const std::string input =
      register_line(inst, ",\"id\":\"r0\"") + "\n" +
      "\n" +  // blank: skipped, no response
      "{\"op\":\"customer_add\",\"session\":\"s0\",\"x\":1.0,\"y\":2.0,"
      "\"demand\":3}\n" +
      "{\"op\":\"demand_set\",\"session\":\"s0\",\"customer\":0,"
      "\"demand\":5}\n" +
      "not json at all\n" +
      "{\"op\":\"customer_remove\",\"session\":\"nope\",\"customer\":0}\n" +
      "{\"op\":\"close\",\"session\":\"s0\"}\n";
  std::string output;
  const srv::ServeReport report = run(input, &output);
  const std::vector<srv::JsonObject> rs = parse_responses(output);
  ASSERT_EQ(rs.size(), 6u);

  EXPECT_EQ(field(rs[0], "status"), "ok");
  EXPECT_EQ(field(rs[0], "op"), "register");
  EXPECT_EQ(field(rs[0], "id"), "r0");
  EXPECT_EQ(field(rs[0], "session"), "s0");
  EXPECT_EQ(rs[0].at("index").number, 0.0);
  EXPECT_FALSE(field(rs[0], "solution").empty());

  EXPECT_EQ(field(rs[1], "status"), "ok");
  EXPECT_EQ(field(rs[1], "op"), "customer_add");
  EXPECT_TRUE(rs[1].at("incremental").boolean);
  EXPECT_EQ(rs[1].at("index").number, 1.0);  // blank line took no ordinal

  EXPECT_EQ(field(rs[2], "status"), "ok");
  EXPECT_EQ(field(rs[2], "op"), "demand_set");

  EXPECT_EQ(field(rs[3], "status"), "invalid");
  EXPECT_FALSE(field(rs[3], "error").empty());

  EXPECT_EQ(field(rs[4], "status"), "invalid");
  EXPECT_NE(field(rs[4], "error").find("unknown session"), std::string::npos);

  EXPECT_EQ(field(rs[5], "status"), "ok");
  EXPECT_EQ(field(rs[5], "op"), "close");

  EXPECT_EQ(report.requests, 6u);
  EXPECT_EQ(report.registers, 1u);
  EXPECT_EQ(report.deltas, 2u);
  EXPECT_EQ(report.ok, 4u);
  EXPECT_EQ(report.invalid, 2u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_FALSE(report.interrupted);
}

/// A failed delta leaves the session serving its previous solution: the
/// next good delta still matches the from-scratch path.
TEST(Serve, FailedDeltaIsIsolatedFromTheSession) {
  const model::Instance inst = identical_instance(20, 6);
  const std::string input =
      register_line(inst) + "\n" +
      "{\"op\":\"demand_set\",\"session\":\"s0\",\"customer\":999,"
      "\"demand\":5}\n" +
      "{\"op\":\"demand_set\",\"session\":\"s0\",\"customer\":0,"
      "\"demand\":5}\n";
  std::string output;
  run(input, &output);
  const std::vector<srv::JsonObject> rs = parse_responses(output);
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(field(rs[1], "status"), "invalid");
  EXPECT_EQ(field(rs[2], "status"), "ok");

  // The surviving response's solution must equal the from-scratch solve of
  // the instance with only the *valid* delta applied.
  model::Instance fresh = identical_instance(20, 6);
  fresh.set_demand(0, 5.0);
  const model::Solution sol = srv::run_solver(fresh, srv::SolverKey{"greedy", 1, 0, ""}, {});
  std::string expect = model::to_string(sol);
  EXPECT_EQ(field(rs[2], "solution"), expect);
}

TEST(Serve, SessionLimitRejectsExtraRegisters) {
  const model::Instance inst = identical_instance(10, 2);
  const std::string input = register_line(inst) + "\n" + register_line(inst) +
                            "\n" + register_line(inst) + "\n";
  srv::ServeConfig config;
  config.max_sessions = 2;
  std::string output;
  const srv::ServeReport report = run(input, &output, config);
  const std::vector<srv::JsonObject> rs = parse_responses(output);
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(field(rs[0], "status"), "ok");
  EXPECT_EQ(field(rs[1], "status"), "ok");
  EXPECT_EQ(field(rs[2], "status"), "invalid");
  EXPECT_NE(field(rs[2], "error").find("session limit"), std::string::npos);
  EXPECT_EQ(report.registers, 2u);
}

/// A zero-second per-op budget still answers with a feasible incumbent
/// (status budget_exhausted), and the session remains usable afterwards.
TEST(Serve, ZeroBudgetDeltaAnswersWithFeasibleIncumbent) {
  const model::Instance inst = identical_instance(40, 8);
  const std::string input =
      register_line(inst) + "\n" +
      "{\"op\":\"customer_add\",\"session\":\"s0\",\"x\":1.0,\"y\":2.0,"
      "\"demand\":3,\"time_limit\":0}\n" +
      "{\"op\":\"demand_set\",\"session\":\"s0\",\"customer\":0,"
      "\"demand\":5}\n";
  std::string output;
  const srv::ServeReport report = run(input, &output);
  const std::vector<srv::JsonObject> rs = parse_responses(output);
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(field(rs[1], "status"), "budget_exhausted");
  EXPECT_FALSE(field(rs[1], "solution").empty());
  EXPECT_EQ(field(rs[2], "status"), "ok");
  EXPECT_EQ(report.budget_exhausted, 1u);
  EXPECT_EQ(report.ok, 2u);
  EXPECT_FALSE(report.interrupted);
}

// ----------------------------------------------------------------- drain

/// A streambuf that flips an interrupt flag after N lines have been
/// consumed, so the drain path triggers at a deterministic point in the
/// input stream.
class InterruptAfterLines : public std::streambuf {
 public:
  InterruptAfterLines(std::string text, std::size_t lines,
                      std::atomic<bool>* flag)
      : text_(std::move(text)), remaining_(lines), flag_(flag) {}

 protected:
  // No get area: every character funnels through uflow(), so the line
  // counter sees each newline the moment std::getline consumes it.
  int_type underflow() override {
    return pos_ < text_.size() ? traits_type::to_int_type(text_[pos_])
                               : traits_type::eof();
  }

  int_type uflow() override {
    if (pos_ >= text_.size()) return traits_type::eof();
    const char c = text_[pos_++];
    if (c == '\n' && remaining_ > 0 && --remaining_ == 0) {
      flag_->store(true);
    }
    return traits_type::to_int_type(c);
  }

 private:
  std::string text_;
  std::size_t pos_ = 0;
  std::size_t remaining_;
  std::atomic<bool>* flag_;
};

TEST(Serve, DrainAnswersEarlierLinesAndRejectsLaterOnes) {
  const model::Instance inst = identical_instance(20, 5);
  std::string input = register_line(inst) + "\n";
  input +=
      "{\"op\":\"customer_add\",\"session\":\"s0\",\"x\":1.0,\"y\":2.0,"
      "\"demand\":3}\n";
  for (int i = 0; i < 3; ++i) {
    input +=
        "{\"op\":\"demand_set\",\"session\":\"s0\",\"customer\":0,"
        "\"demand\":4}\n";
  }

  // Interrupt fires the moment line 1's trailing newline is consumed --
  // after line 0 was handled, before line 1 is. Line 0 must be answered
  // ok; lines 1-4 land in the drain window, where each must be answered
  // (ok / budget_exhausted if it slipped in before the flag was noticed,
  // rejected after), and once one line is rejected every later line is
  // too.
  std::atomic<bool> interrupt{false};
  InterruptAfterLines buf(input, 2, &interrupt);
  std::istream in(&buf);
  std::ostringstream out;
  srv::ServeConfig config;
  config.interrupt = &interrupt;
  const srv::ServeReport report = srv::run_serve(in, out, config);

  const std::vector<srv::JsonObject> rs = parse_responses(out.str());
  ASSERT_EQ(rs.size(), 5u);  // every line answered, even under drain
  EXPECT_EQ(field(rs[0], "status"), "ok");
  bool rejected_seen = false;
  for (std::size_t i = 1; i < rs.size(); ++i) {
    const std::string status = field(rs[i], "status");
    if (rejected_seen) {
      EXPECT_EQ(status, "rejected") << "line " << i;
    } else {
      EXPECT_TRUE(status == "ok" || status == "budget_exhausted" ||
                  status == "rejected")
          << "line " << i << " status " << status;
      rejected_seen = status == "rejected";
    }
  }
  EXPECT_TRUE(rejected_seen) << "drain should reject at least the last line";
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.requests, 5u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_FALSE(report.slo_summary.empty());
}

TEST(Serve, GlobalBudgetZeroRejectsEverythingButAnswersEveryLine) {
  const model::Instance inst = identical_instance(10, 3);
  const std::string input = register_line(inst) + "\n" +
                            "{\"op\":\"close\",\"session\":\"s0\"}\n";
  srv::ServeConfig config;
  config.time_limit = 0.0;
  std::string output;
  const srv::ServeReport report = run(input, &output, config);
  const std::vector<srv::JsonObject> rs = parse_responses(output);
  ASSERT_EQ(rs.size(), 2u);
  for (const srv::JsonObject& r : rs) {
    EXPECT_EQ(field(r, "status"), "rejected");
  }
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.rejected, 2u);
}

// ------------------------------------------------------- op-line parsing

TEST(ServeOpParse, StrictFieldChecks) {
  // Unknown op.
  EXPECT_THROW(srv::parse_serve_op("{\"op\":\"frobnicate\"}", 0),
               std::runtime_error);
  // register requires exactly one instance source.
  EXPECT_THROW(srv::parse_serve_op("{\"op\":\"register\"}", 0),
               std::runtime_error);
  EXPECT_THROW(
      srv::parse_serve_op(
          "{\"op\":\"register\",\"instance\":\"x\",\"instance_file\":\"y\"}",
          0),
      std::runtime_error);
  // Delta ops require a session.
  EXPECT_THROW(
      srv::parse_serve_op(
          "{\"op\":\"customer_remove\",\"customer\":0}", 0),
      std::runtime_error);
  // Unknown fields are rejected per-op (x/y belong to customer_add only).
  EXPECT_THROW(
      srv::parse_serve_op(
          "{\"op\":\"demand_set\",\"session\":\"s0\",\"customer\":0,"
          "\"demand\":1,\"x\":2}",
          0),
      std::runtime_error);
  // customer index must be an exact non-negative integer.
  EXPECT_THROW(
      srv::parse_serve_op(
          "{\"op\":\"customer_remove\",\"session\":\"s0\",\"customer\":1.5}",
          0),
      std::runtime_error);
  EXPECT_THROW(
      srv::parse_serve_op(
          "{\"op\":\"customer_remove\",\"session\":\"s0\",\"customer\":-1}",
          0),
      std::runtime_error);

  const srv::ServeOp op = srv::parse_serve_op(
      "{\"op\":\"customer_add\",\"session\":\"s7\",\"x\":1.5,\"y\":-2.0,"
      "\"demand\":3,\"value\":9,\"id\":\"tag\",\"time_limit\":2.5}",
      4);
  EXPECT_EQ(op.index, 4u);
  EXPECT_EQ(op.op, "customer_add");
  EXPECT_EQ(op.session, "s7");
  EXPECT_EQ(op.id, "tag");
  EXPECT_DOUBLE_EQ(op.time_limit, 2.5);
  EXPECT_DOUBLE_EQ(op.customer_rec.pos.x, 1.5);
  EXPECT_DOUBLE_EQ(op.customer_rec.pos.y, -2.0);
  EXPECT_DOUBLE_EQ(op.customer_rec.demand, 3.0);
  EXPECT_DOUBLE_EQ(op.customer_rec.value, 9.0);

  // value defaults to kValueIsDemand when omitted.
  const srv::ServeOp add = srv::parse_serve_op(
      "{\"op\":\"customer_add\",\"session\":\"s0\",\"x\":0,\"y\":0,"
      "\"demand\":1}",
      0);
  EXPECT_DOUBLE_EQ(add.customer_rec.value, model::Customer::kValueIsDemand);
}

/// The message `parse` throws; empty when it parses.
template <typename Parse>
std::string parse_error(const Parse& parse) {
  try {
    (void)parse();
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

/// A batch request and a serve `register` op share one solve-field parser:
/// the same bad field gets the same message, byte for byte, from both.
TEST(ServeOpParse, SolveFieldErrorsMatchBatchRequests) {
  const struct {
    const char* fields;
    const char* error;
  } cases[] = {
      {R"("solver":"greedy")",
       "exactly one of 'instance_file' and 'instance' is required"},
      {R"("instance":"x","instance_file":"y")",
       "exactly one of 'instance_file' and 'instance' is required"},
      {R"("instance":7)", "field 'instance' must be a string"},
      {R"("instance_file":null)", "field 'instance_file' must be a string"},
      {R"("instance":"x","solver":"qaoa")", "unknown solver 'qaoa'"},
      {R"("instance":"x","solver":3)", "field 'solver' must be a string"},
      {R"("instance":"x","seed":"1")", "field 'seed' must be a number"},
      {R"("instance":"x","seed":1.5)",
       "field 'seed' must be a non-negative integer"},
      {R"("instance":"x","seed":-1)",
       "field 'seed' must be a non-negative integer"},
      {R"("instance":"x","iterations":true)",
       "field 'iterations' must be a number"},
      {R"("instance":"x","iterations":1e300)",
       "field 'iterations' must be a non-negative integer"},
      {R"("instance":"x","solver":"race","portfolio":5)",
       "field 'portfolio' must be a string"},
      {R"("instance":"x","portfolio":"greedy")",
       "field 'portfolio' requires solver 'race'"},
      {R"("instance":"x","solver":"race","portfolio":"greedy,race")",
       "portfolio: 'race' cannot race itself"},
      {R"("instance":"x","time_limit":-2)",
       "field 'time_limit' must be a number >= 0"},
      {R"("instance":"x","time_limit":"soon")",
       "field 'time_limit' must be a number >= 0"},
      {R"("instance":"x","time_limit":1e9)",
       "field 'time_limit' out of range (max 1e8 seconds)"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.fields);
    const std::string batch = parse_error([&] {
      return srv::parse_request(std::string("{") + c.fields + "}", 0);
    });
    const std::string serve = parse_error([&] {
      return srv::parse_serve_op(
          std::string(R"({"op":"register",)") + c.fields + "}", 0);
    });
    EXPECT_EQ(batch, c.error);
    EXPECT_EQ(serve, batch);
  }
}

}  // namespace
