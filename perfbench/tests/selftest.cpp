// Tests of the benchmark's own code: percentiles and the ten-beyond rule,
// the line-timestamping streams (alone and around run_serve), the metric
// name grammar, seeded inputs, the span recorder and the result line.
//
// Build and run: python3 perfbench/run.py --selftest

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "src/model/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/srv/jsonl.hpp"
#include "src/srv/serve.hpp"
#include "stats.hpp"
#include "streams.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ++g_failures;                                                       \
      std::printf("  FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);       \
    }                                                                     \
  } while (false)

void test_percentile() {
  const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  CHECK(percentile(ten, 0.5) == 5.0);  // rank ceil(0.5 * 10) = 5
  CHECK(percentile(ten, 0.0) == 1.0);
  CHECK(percentile(ten, 1.0) == 10.0);
  CHECK(percentile(ten, 0.95) == 10.0);  // rank 10
  CHECK(percentile(ten, 0.9) == 9.0);    // rank 9, despite 0.9 * 10 rounding
  CHECK(percentile({}, 0.5) == 0.0);
  CHECK(median(ten) == 5.0);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  CHECK(percentile(hundred, 0.99) == 99.0);
  CHECK(nearest_rank(100, 0.99) == 99);
  CHECK(nearest_rank(1000, 0.99) == 990);
  CHECK(nearest_rank(0, 0.5) == 0);
}

void test_ten_beyond_rule() {
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(percentile_supported(1000, 0.99));
  CHECK(!percentile_supported(999, 0.99));
  CHECK(percentile_supported(20, 0.5));
  CHECK(!percentile_supported(19, 0.5));
  CHECK(!percentile_supported(0, 0.5));
  CHECK(!percentile_supported(100, 0.99));  // p99 of 100 is the max
}

void test_metric_names() {
  for (const char* good : {"latency_p50_ms", "srv.queue_wait_p99_ms",
                           "trace.coverage", "1st-metric", "a"}) {
    CHECK(valid_metric_name(good));
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "ops/s", "quote\"", "ünicode"}) {
    CHECK(!valid_metric_name(bad));
  }
  CHECK(valid_metric_name(std::string(64, 'm')));
  CHECK(!valid_metric_name(std::string(65, 'm')));
}

void test_line_feed() {
  const std::vector<std::string> lines = {"first", "", "third line"};
  std::size_t produced = 0;
  LineFeed feed([&](std::string& line) {
    if (produced == lines.size()) return false;
    line = lines[produced++];
    return true;
  });
  std::istream in(&feed);
  std::string got;
  CHECK(produced == 0);  // nothing is produced before the first read
  CHECK(std::getline(in, got) && got == "first");
  CHECK(produced == 1);  // only the line read so far
  CHECK(feed.taken().size() == 1);
  CHECK(std::getline(in, got) && got.empty());
  CHECK(std::getline(in, got) && got == "third line");
  CHECK(produced == 3);
  CHECK(!std::getline(in, got));
  CHECK(feed.taken().size() == 3);
  CHECK(std::is_sorted(feed.taken().begin(), feed.taken().end()));
}

void test_line_stamp() {
  std::vector<std::string> sunk;
  std::vector<std::size_t> indices;
  LineStamp stamp([&](std::size_t i, std::string_view line) {
    indices.push_back(i);
    sunk.emplace_back(line);
  });
  std::ostream out(&stamp);
  out << "one" << '\n' << "two\nthr";
  CHECK(stamp.written().size() == 2);
  out << "ee" << std::flush;
  CHECK(stamp.written().size() == 2);  // no '\n' yet: not a line
  out << "\n\n";
  CHECK(stamp.written().size() == 4);
  CHECK((sunk == std::vector<std::string>{"one", "two", "three", ""}));
  CHECK((indices == std::vector<std::size_t>{0, 1, 2, 3}));
  CHECK(std::is_sorted(stamp.written().begin(), stamp.written().end()));
}

// The two wrappers around a line echo loop: each line's reply is stamped
// after the line was taken, one to one.
void test_echo_latency() {
  std::size_t next = 0;
  LineFeed feed([&](std::string& line) {
    if (next == 5) return false;
    line = "op" + std::to_string(next++);
    return true;
  });
  LineStamp stamp;
  std::istream in(&feed);
  std::ostream out(&stamp);
  for (std::string line; std::getline(in, line);) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    out << line << "\n";
  }
  CHECK(feed.taken().size() == 5);
  CHECK(stamp.written().size() == 5);
  for (std::size_t i = 0; i < 5; ++i) {
    CHECK(ms_between(feed.taken()[i], stamp.written()[i]) >= 2.0);
    if (i > 0) CHECK(feed.taken()[i] >= stamp.written()[i - 1]);
  }
}

// run_serve through both wrappers, as serve_churn drives it: one reply per
// op, and each op produced only after the previous reply was written.
void test_serve_closed_loop() {
  sectorpack::sim::Rng rng = stream(5, "selftest");
  const std::string text = sectorpack::model::to_string(
      Instance(disk_customers(300, rng), thin_rings(3, 20.0, 16.0)));
  ChurnClient client(5, sectorpack::model::instance_from_string(text));
  const std::string register_op =
      "{\"op\":\"register\",\"solver\":\"greedy\",\"instance\":\"" +
      sectorpack::obs::json_escape(text) + "\"}";
  std::size_t sent = 0;
  bool closed = true;
  LineStamp stamp;
  LineFeed feed([&](std::string& line) {
    closed = closed && stamp.written().size() == sent;
    if (sent == 12) return false;
    line = sent == 0 ? register_op : client.next_op();
    ++sent;
    return true;
  });
  std::istream in(&feed);
  std::ostream out(&stamp);
  const sectorpack::srv::ServeReport report =
      sectorpack::srv::run_serve(in, out, sectorpack::srv::ServeConfig{});
  CHECK(closed);
  CHECK(report.ok == 12);
  CHECK(feed.taken().size() == 12);
  CHECK(stamp.written().size() == 12);
  for (std::size_t i = 0; i < 12 && i < stamp.written().size(); ++i) {
    CHECK(stamp.written()[i] >= feed.taken()[i]);
  }
}

void test_same_seed_same_inputs() {
  using sectorpack::model::to_string;
  CHECK(to_string(cli_solve_instance(7)) == to_string(cli_solve_instance(7)));
  CHECK(to_string(cli_solve_instance(7)) != to_string(cli_solve_instance(8)));
  CHECK(to_string(serve_churn_instance(7)) ==
        to_string(serve_churn_instance(7)));
  {
    const Instance a = huge_solve_instance(7);
    const Instance b = huge_solve_instance(7);
    CHECK(a.num_customers() == 1'000'000 && a.num_antennas() == 16);
    CHECK(std::equal(a.thetas().begin(), a.thetas().end(),
                     b.thetas().begin(), b.thetas().end()));
    CHECK(std::equal(a.demands().begin(), a.demands().end(),
                     b.demands().begin(), b.demands().end()));
  }
  {
    const BatchMix a = batch_mix_input(7);
    const BatchMix b = batch_mix_input(7);
    const BatchMix c = batch_mix_input(8);
    CHECK(a.instances.size() == b.instances.size());
    CHECK(a.requests.size() == b.requests.size());
    bool same = true;
    for (std::size_t i = 0; i < a.instances.size(); ++i) {
      same = same && to_string(a.instances[i]) == to_string(b.instances[i]);
    }
    std::vector<std::string> la;
    std::vector<std::string> lb;
    std::vector<std::string> lc;
    for (std::size_t r = 0; r < a.requests.size(); ++r) {
      la.push_back(request_line(r, "f" + std::to_string(a.requests[r].instance),
                                a.requests[r]));
      lb.push_back(request_line(r, "f" + std::to_string(b.requests[r].instance),
                                b.requests[r]));
      lc.push_back(request_line(r, "f" + std::to_string(c.requests[r].instance),
                                c.requests[r]));
    }
    CHECK(same);
    CHECK(la == lb);
    // The request order is fixed by design; the seed draws the instances.
    CHECK(la == lc);
    CHECK(to_string(a.instances[0]) != to_string(c.instances[0]));
  }
  {
    const Instance initial = serve_churn_instance(7);
    ChurnClient a(7, initial);
    ChurnClient b(7, initial);
    bool same = true;
    for (int i = 0; i < 200; ++i) same = same && a.next_op() == b.next_op();
    CHECK(same);
    CHECK(to_string(a.rebuild()) == to_string(b.rebuild()));
  }
}

// The batch stream's shape: request and key counts, and every resubmission
// repeats a request at most 96 lines back.
void test_batch_stream_shape() {
  const BatchMix mix = batch_mix_input(3);
  CHECK(mix.instances.size() == 96);
  CHECK(mix.requests.size() == 250);
  std::vector<std::string> keys;
  for (const BatchMix::Request& r : mix.requests) {
    keys.push_back(std::to_string(r.instance) + "/" + r.solver);
    CHECK(r.iterations == (r.solver == "annealing" || r.solver == "race"
                               ? 100u
                               : 2000u));
  }
  std::vector<std::string> distinct = keys;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  CHECK(distinct.size() == 150);  // more than the 128-entry result cache
  // Every repeat comes at least 40 lines (the engine's reorder window)
  // after the key's last use, with fewer than 128 other keys between: a
  // guaranteed cache hit.
  std::size_t repeats = 0;
  for (std::size_t at = 0; at < keys.size(); ++at) {
    std::size_t last = at;
    for (std::size_t b = at; b-- > 0;) {
      if (keys[b] == keys[at]) {
        last = b;
        break;
      }
    }
    if (last == at) continue;
    ++repeats;
    std::vector<std::string> between(keys.begin() + static_cast<long>(last) + 1,
                                     keys.begin() + static_cast<long>(at));
    std::sort(between.begin(), between.end());
    between.erase(std::unique(between.begin(), between.end()), between.end());
    CHECK(at - last >= 40);
    CHECK(between.size() < 128);
  }
  CHECK(repeats == 100);
  for (const Instance& inst : mix.instances) {
    CHECK(inst.num_customers() >= 250 && inst.num_customers() <= 2000);
    CHECK(inst.num_antennas() >= 3 && inst.num_antennas() <= 6);
  }
}

void test_churn_client() {
  const Instance initial = serve_churn_instance(9);
  ChurnClient client(9, initial);
  std::size_t adds = 0;
  std::size_t removes = 0;
  std::size_t sets = 0;
  for (int i = 0; i < 1000; ++i) {
    const sectorpack::srv::JsonObject op =
        sectorpack::srv::parse_flat_object(client.next_op());
    const std::string kind = op.at("op").string;
    adds += kind == "customer_add";
    removes += kind == "customer_remove";
    sets += kind == "demand_set";
  }
  CHECK(adds + removes + sets == 1000);
  CHECK(adds > 300 && removes > 300 && sets > 100);
  const Instance now = client.rebuild();
  CHECK(now.num_customers() + removes == initial.num_customers() + adds);
  CHECK(!now.is_value_weighted());
  CHECK(client.trivial_bound() ==
        std::min(now.total_demand(), now.total_capacity()));
}

void test_recorder() {
  Recorder rec;
  {
    const auto op = rec.op(0);
    {
      const auto a = rec.span("a");
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
      const auto b = rec.span("b");
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    const auto p = rec.probe(0, "probe");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<Span>& spans = rec.spans();
  CHECK(spans.size() == 4);
  CHECK(spans[1].parent == 0 && spans[2].parent == 1 && spans[3].parent == -1);
  CHECK(spans[2].op == 0 && spans[3].op == 0);
  const std::vector<std::int64_t> self = rec.self_ns();
  CHECK(self[1] + self[2] == spans[1].end_ns - spans[1].start_ns);
  CHECK(self[0] + self[1] + self[2] == spans[0].end_ns - spans[0].start_ns);
  const LayerTable t = layer_table(rec);
  CHECK(t.ops == 1);
  CHECK(t.self_ms.count("a") == 1 && t.self_ms.count("b") == 1);
  CHECK(t.self_ms.count("probe") == 0 && t.probe_ms.count("probe") == 1);
  CHECK(t.self_ms.at("b") >= 4.0 && t.self_ms.at("a") >= 4.0);
  // Coverage is the layers' self time over op wall; the op's trailing
  // 2 ms sleep is in no layer.
  const double wall = static_cast<double>(spans[0].end_ns - spans[0].start_ns) / 1e6;
  CHECK(std::abs(t.coverage() - (t.self_ms.at("a") + t.self_ms.at("b")) / wall) <
        1e-9);
  CHECK(t.op_wall_ms == wall);
  CHECK(t.coverage() < 1.0);
  CHECK(t.per_op_ms("probe") >= 1.0);  // per probe call
  CHECK(t.per_op_ms("absent") == 0.0);

  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string json = os.str();
  CHECK(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0) == 0);
  std::size_t events = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  CHECK(events == 4);

  bool threw = false;
  try {
    const auto a = rec.span("a");
    const auto op = rec.op(1);  // an op cannot nest inside a span
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);

  Recorder off(false);
  {
    const auto op = off.op(0);
    const auto a = off.span("a");
  }
  CHECK(off.spans().empty());
}

void test_result_line() {
  RunResult r;
  r.add("latency_p50_ms", 1.0 / 3.0, "ms", 7);
  r.add("setup_s", 2.5, "s", 3);
  r.op(true);
  r.op_failed("boom");
  CHECK(!r.correct());
  CHECK(r.attempted() == 2 && r.failed() == 1);
  CHECK(r.to_json() ==
        "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{"
        "\"latency_p50_ms\":{\"value\":0.33333333333333331,\"unit\":\"ms\"},"
        "\"setup_s\":{\"value\":2.5,\"unit\":\"s\"}}}");
  const auto throws = [&](const std::function<void()>& fn) {
    try {
      fn();
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  CHECK(throws([&] { r.add("setup_s", 1.0, "s", 1); }));
  CHECK(throws([&] { r.add("bad name", 1.0, "s", 1); }));
  CHECK(throws([&] {
    r.add("nan_metric", std::numeric_limits<double>::quiet_NaN(), "s", 1);
  }));
  std::ostringstream human;
  std::ostringstream json;
  r.print(human, json, "title");
  CHECK(json.str() == r.to_json() + "\n");
  CHECK(human.str().find("latency_p50_ms") != std::string::npos);
  CHECK(human.str().find("failed_frac") != std::string::npos);
}

}  // namespace

int main() {
  const struct {
    const char* name;
    void (*fn)();
  } tests[] = {
      {"percentile", test_percentile},
      {"ten_beyond_rule", test_ten_beyond_rule},
      {"metric_names", test_metric_names},
      {"line_feed", test_line_feed},
      {"line_stamp", test_line_stamp},
      {"echo_latency", test_echo_latency},
      {"serve_closed_loop", test_serve_closed_loop},
      {"same_seed_same_inputs", test_same_seed_same_inputs},
      {"batch_stream_shape", test_batch_stream_shape},
      {"churn_client", test_churn_client},
      {"recorder", test_recorder},
      {"result_line", test_result_line},
  };
  for (const auto& t : tests) {
    const int before = g_failures;
    t.fn();
    std::printf("%-24s %s\n", t.name, g_failures == before ? "ok" : "FAILED");
  }
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
