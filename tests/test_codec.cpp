// The text codec (src/model/io.cpp, obs::json_number, obs::json_escape)
// against the std::istream/std::ostream code it replaced, kept below as the
// reference: the same accept/reject, the same error text and the same value
// bits on a grammar corpus and on mutated texts, and the same bytes from the
// writers for random doubles across every exponent. The suite is named
// CodecFuzz so that `scripts/check.sh --fuzz` runs it under ASan+UBSan.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/model/io.hpp"
#include "src/obs/metrics.hpp"

namespace model = sectorpack::model;
namespace obs = sectorpack::obs;

namespace {

// ---------------------------------------------------------------------------
// The reference: the stream codec as it stood before the from_chars one.

namespace ref {

constexpr std::size_t kReserveCap = 1 << 16;

std::string next_line(std::istream& is, const char* what) {
  std::string line;
  while (std::getline(is, line)) {
    const auto pos = line.find('#');
    if (pos != std::string::npos) line.erase(pos);
    const auto first = line.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r\n");
    return line.substr(first, last - first + 1);
  }
  throw std::runtime_error(std::string("unexpected EOF while reading ") +
                           what);
}

void require_line_end(std::istringstream& ls, const char* what,
                      const std::string& line) {
  std::string extra;
  if (ls >> extra) {
    throw std::runtime_error(std::string("trailing garbage on ") + what +
                             " line: '" + line + "'");
  }
}

std::size_t parse_count(const std::string& line, const std::string& keyword) {
  std::istringstream ls(line);
  std::string kw;
  long long count = -1;
  if (!(ls >> kw >> count) || kw != keyword || count < 0) {
    throw std::runtime_error("expected '" + keyword + " <count>' line, got '" +
                             line + "'");
  }
  if (static_cast<std::size_t>(count) > model::kMaxIoCount) {
    throw std::runtime_error("implausible " + keyword + " count in '" + line +
                             "' (max " + std::to_string(model::kMaxIoCount) +
                             ")");
  }
  require_line_end(ls, keyword.c_str(), line);
  return static_cast<std::size_t>(count);
}

std::size_t expect_count(std::istream& is, const std::string& keyword) {
  return parse_count(next_line(is, keyword.c_str()), keyword);
}

void write_instance(std::ostream& os, const model::Instance& inst) {
  const bool extended =
      inst.is_value_weighted() || inst.has_annular_antennas();
  os << (extended ? "sectorpack-instance v2\n" : "sectorpack-instance v1\n");
  os << std::setprecision(17);
  os << "customers " << inst.num_customers() << "\n";
  for (std::size_t i = 0; i < inst.num_customers(); ++i) {
    const model::Customer& c = inst.customer(i);
    os << c.pos.x << " " << c.pos.y << " " << c.demand;
    if (extended) os << " " << inst.value(i);
    os << "\n";
  }
  os << "antennas " << inst.num_antennas() << "\n";
  for (const model::AntennaSpec& a : inst.antennas()) {
    os << a.rho << " " << a.range << " " << a.capacity;
    if (extended) os << " " << a.min_range;
    os << "\n";
  }
}

model::Instance read_instance(std::istream& is) {
  const std::string header = next_line(is, "header");
  bool extended = false;
  if (header == "sectorpack-instance v2") {
    extended = true;
  } else if (header != "sectorpack-instance v1") {
    throw std::runtime_error("bad instance header");
  }
  const std::size_t n = expect_count(is, "customers");
  std::vector<model::Customer> customers;
  customers.reserve(std::min(n, kReserveCap));
  for (std::size_t i = 0; i < n; ++i) {
    const std::string line = next_line(is, "customer");
    std::istringstream ls(line);
    model::Customer c;
    if (!(ls >> c.pos.x >> c.pos.y >> c.demand)) {
      throw std::runtime_error("bad customer line: '" + line + "'");
    }
    if (extended && !(ls >> c.value)) {
      throw std::runtime_error("bad customer line (missing value column): '" +
                               line + "'");
    }
    require_line_end(ls, "customer", line);
    customers.push_back(c);
  }
  const std::size_t k = expect_count(is, "antennas");
  std::vector<model::AntennaSpec> antennas;
  antennas.reserve(std::min(k, kReserveCap));
  for (std::size_t j = 0; j < k; ++j) {
    const std::string line = next_line(is, "antenna");
    std::istringstream ls(line);
    model::AntennaSpec a;
    if (!(ls >> a.rho >> a.range >> a.capacity)) {
      throw std::runtime_error("bad antenna line: '" + line + "'");
    }
    if (extended && !(ls >> a.min_range)) {
      throw std::runtime_error("bad antenna line (missing min_range): '" +
                               line + "'");
    }
    require_line_end(ls, "antenna", line);
    antennas.push_back(a);
  }
  return model::Instance{std::move(customers), std::move(antennas)};
}

void write_solution(std::ostream& os, const model::Solution& sol) {
  os << "sectorpack-solution v1\n";
  if (sol.status != model::SolveStatus::kComplete) {
    os << "status " << model::to_string(sol.status) << "\n";
  }
  os << std::setprecision(17);
  os << "alphas " << sol.alpha.size() << "\n";
  for (double a : sol.alpha) os << a << "\n";
  os << "assign " << sol.assign.size() << "\n";
  for (std::int32_t a : sol.assign) os << a << "\n";
}

model::Solution read_solution(std::istream& is) {
  if (next_line(is, "header") != "sectorpack-solution v1") {
    throw std::runtime_error("bad solution header");
  }
  model::Solution sol;
  std::string line = next_line(is, "alphas");
  if (line.rfind("status", 0) == 0) {
    std::istringstream ls(line);
    std::string kw;
    std::string value;
    if (!(ls >> kw >> value) || kw != "status") {
      throw std::runtime_error("bad status line: '" + line + "'");
    }
    if (value == "complete") {
      sol.status = model::SolveStatus::kComplete;
    } else if (value == "budget_exhausted") {
      sol.status = model::SolveStatus::kBudgetExhausted;
    } else {
      throw std::runtime_error("unknown solution status: '" + line + "'");
    }
    require_line_end(ls, "status", line);
    line = next_line(is, "alphas");
  }
  const std::size_t k = parse_count(line, "alphas");
  sol.alpha.reserve(std::min(k, kReserveCap));
  for (std::size_t j = 0; j < k; ++j) {
    const std::string aline = next_line(is, "alpha");
    std::istringstream ls(aline);
    double a = 0.0;
    if (!(ls >> a)) {
      throw std::runtime_error("bad alpha line: '" + aline + "'");
    }
    require_line_end(ls, "alpha", aline);
    sol.alpha.push_back(a);
  }
  const std::size_t n = expect_count(is, "assign");
  sol.assign.reserve(std::min(n, kReserveCap));
  for (std::size_t i = 0; i < n; ++i) {
    const std::string aline = next_line(is, "assign");
    std::istringstream ls(aline);
    std::int32_t a = 0;
    if (!(ls >> a)) {
      throw std::runtime_error("bad assign line: '" + aline + "'");
    }
    require_line_end(ls, "assign", aline);
    sol.assign.push_back(a);
  }
  return sol;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Outcomes: the error text, or every parsed value's bits in file order.

struct Outcome {
  std::string error;
  std::vector<std::uint64_t> bits;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void push_instance(const model::Instance& inst, Outcome& out) {
  out.bits.push_back(inst.num_customers());
  for (const model::Customer& c : inst.customers()) {
    for (const double v : {c.pos.x, c.pos.y, c.demand, c.value}) {
      out.bits.push_back(bits(v));
    }
  }
  out.bits.push_back(inst.num_antennas());
  for (const model::AntennaSpec& a : inst.antennas()) {
    for (const double v : {a.rho, a.range, a.capacity, a.min_range}) {
      out.bits.push_back(bits(v));
    }
  }
}

void push_solution(const model::Solution& sol, Outcome& out) {
  out.bits.push_back(static_cast<std::uint64_t>(sol.status));
  out.bits.push_back(sol.alpha.size());
  for (const double a : sol.alpha) out.bits.push_back(bits(a));
  for (const std::int32_t a : sol.assign) {
    out.bits.push_back(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(a)));
  }
}

template <typename Read>
Outcome outcome_of(Read&& read) {
  Outcome out;
  try {
    read(out);
  } catch (const std::invalid_argument& e) {
    out.error = std::string("invalid_argument: ") + e.what();
  } catch (const std::runtime_error& e) {
    out.error = std::string("runtime_error: ") + e.what();
  }
  return out;
}

/// The text with control bytes spelled out, for failure messages.
std::string shown(const std::string& text) { return ref::json_escape(text); }

/// Counts of the corpus texts each reader pair accepted and rejected.
struct Tally {
  int accepted = 0;
  int rejected = 0;
};

void expect_same_instance(const std::string& text, Tally& tally) {
  const Outcome got = outcome_of([&](Outcome& o) {
    push_instance(model::instance_from_string(text), o);
  });
  const Outcome want = outcome_of([&](Outcome& o) {
    std::istringstream is(text);
    push_instance(ref::read_instance(is), o);
  });
  EXPECT_EQ(got.error, want.error) << "text: " << shown(text);
  EXPECT_EQ(got.bits, want.bits) << "text: " << shown(text);
  ++(want.error.empty() ? tally.accepted : tally.rejected);
}

void expect_same_solution(const std::string& text, Tally& tally) {
  const Outcome got = outcome_of([&](Outcome& o) {
    push_solution(model::solution_from_string(text), o);
  });
  const Outcome want = outcome_of([&](Outcome& o) {
    std::istringstream is(text);
    push_solution(ref::read_solution(is), o);
  });
  EXPECT_EQ(got.error, want.error) << "text: " << shown(text);
  EXPECT_EQ(got.bits, want.bits) << "text: " << shown(text);
  ++(want.error.empty() ? tally.accepted : tally.rejected);
}

// ---------------------------------------------------------------------------
// The corpus.

/// Number spellings where from_chars and operator>> part ways, and their
/// neighbours.
std::vector<std::string> number_spellings() {
  std::vector<std::string> s = {
      // signs
      "1", "+1", "-1", "+-1", "-+1", "++1", "--1", "+", "-", "+.5", "-.5",
      // zeros, points
      "0", "-0", "+0", "-0.0", "000", "007", "0.5", ".5", "5.", ".", "-.",
      "1.5.3",
      // exponents
      "1e5", "1E5", "1e+5", "1e-5", "1.e5", ".e5", "e5", "1e", "1e+", "1e-",
      "1E", "1ee5", "1e5e5", "1e5.5", "1e0000000000000000000000000005",
      "0e400", "0e-400", "-0e999999",
      // overflow, underflow, subnormals
      "1e-400", "-1e-400", "1e400", "-1e400", "3e999999", "1e-320",
      "4.9e-324", "-4.9e-324", "2.4e-324", "2.5e-324",
      "2.2250738585072011e-308", "1.7976931348623157e308",
      "1.7976931348623159e308", "-1.7976931348623159e308",
      "1e-99999999999999999999", "1e99999999999999999999",
      "1" + std::string(400, '0') + "e-100",
      "1" + std::string(400, '0') + "e-10",
      "0." + std::string(400, '0') + "1e100",
      "0." + std::string(400, '0') + "1e-10",
      // spellings from_chars knows and operator>> does not
      "inf", "-inf", "+inf", "INF", "infinity", "nan", "-nan", "NaN",
      "nan(1)", "0x10", "0X1p3",
      // no separator needed between fields
      "1,5", "1-2", "1+2", "12abc", "1e5x",
      // long mantissas, ties
      "123456789012345678901234567890", "0.1", "0.30000000000000004",
      "9007199254740993",
      "2.00000000000000011102230246251565404236316680908203125",
      // whitespace around and inside
      "\v1", "\f1", "1\v", "\t1", "1\r", "\r1", "1\v2", "1\f2",
      std::string("1\0", 2), std::string("\0" "1", 2)};
  return s;
}

/// Instance and solution texts with `s` in each numeric position.
std::vector<std::string> instance_texts_with(const std::string& s) {
  const std::string v1 = "sectorpack-instance v1\n";
  const std::string v2 = "sectorpack-instance v2\n";
  return {
      v1 + "customers 1\n" + s + " 2 3\nantennas 1\n0.5 10 5\n",
      v1 + "customers 1\n1 " + s + " 3\nantennas 1\n0.5 10 5\n",
      v1 + "customers 1\n1 2 " + s + "\nantennas 1\n0.5 10 5\n",
      v1 + "customers 1\n" + s + " " + s + " " + s +
          "\nantennas 1\n0.5 10 5\n",
      v1 + "customers 1\n" + s + s + s + "\nantennas 1\n0.5 10 5\n",
      v1 + "customers 1\n1 2 3\nantennas 1\n" + s + " 10 5\n",
      v1 + "customers 1\n1 2 3\nantennas 1\n0.5 " + s + " 5\n",
      v1 + "customers 1\n1 2 3\nantennas 1\n0.5 10 " + s + "\n",
      v2 + "customers 1\n1 2 3 " + s + "\nantennas 1\n0.5 10 5 0\n",
      v2 + "customers 1\n1 2 3 4\nantennas 1\n0.5 10 5 " + s + "\n",
      v2 + "customers 1\n1 2 3" + s + "\nantennas 0\n",
  };
}

std::vector<std::string> solution_texts_with(const std::string& s) {
  const std::string h = "sectorpack-solution v1\n";
  return {
      h + "alphas 1\n" + s + "\nassign 0\n",
      h + "alphas 2\n" + s + "\n" + s + s + "\nassign 0\n",
      h + "alphas 0\nassign 1\n" + s + "\n",
      h + "status budget_exhausted\nalphas 1\n" + s + "\nassign 1\n" + s +
          "\n",
  };
}

const char* const kCounts[] = {
    "1", "+1", "01", "1.0", "0x1", "+-1", "-1", "-0", "+0", "\v1", "1 extra",
    "1#c", "1e0", "", "1,", "+5", "5.0", "0x5",
    "99999999999999999999", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "100000000", "100000001"};

/// Count lines, keywords and headers, forged and otherwise.
std::vector<std::string> framing_instances() {
  std::vector<std::string> texts;
  for (const char* c : kCounts) {
    const std::string count = c;
    texts.push_back("sectorpack-instance v1\ncustomers " + count +
                    "\n1 2 3\nantennas 1\n0.5 10 5\n");
    texts.push_back("sectorpack-instance v1\ncustomers 1\n1 2 3\nantennas " +
                    count + "\n0.5 10 5\n");
    texts.push_back("sectorpack-instance v2\ncustomers " + count +
                    "\n1 2 3 4\nantennas 0\n");
  }
  for (const char* kw : {"customers", "Customers", "customer", "customers5",
                         "customers\v1", "customers\t1", "customers:"}) {
    texts.push_back(std::string("sectorpack-instance v1\n") + kw +
                    " 1\n1 2 3\nantennas 0\n");
  }
  for (const char* header :
       {"sectorpack-instance v1", "sectorpack-instance v2",
        "sectorpack-instance v3", "sectorpack-instance  v1",
        " sectorpack-instance v1 ", "sectorpack-instance v1 # c",
        "\vsectorpack-instance v1", "sectorpack-instance v1\r",
        "sectorpack-instance\tv1", "sectorpack-solution v1", ""}) {
    texts.push_back(std::string(header) + "\ncustomers 1\n1 2 3\nantennas 0\n");
  }
  // Comments, trailing tokens, truncated v2 lines, forged counts, junk after
  // the last antenna (never read).
  for (const char* text : {
           "# c\nsectorpack-instance v1 # c\n\n  customers 1 # c\n 1 2 3 #\n"
           "antennas 0 #\n",
           "sectorpack-instance v1\ncustomers 1\n1 2 3 junk\nantennas 0\n",
           "sectorpack-instance v1\ncustomers 1\n1 2 3 4\nantennas 0\n",
           "sectorpack-instance v1\ncustomers 1\n1 2 3\nantennas 1\n"
           "0.5 10 5 oops\n",
           "sectorpack-instance v2\ncustomers 1\n1 2 3 4 5\nantennas 0\n",
           "sectorpack-instance v2\ncustomers 1\n1 2 3\nantennas 0\n",
           "sectorpack-instance v2\ncustomers 0\nantennas 1\n0.5 10 5\n",
           "sectorpack-instance v2\ncustomers 2\n1 2 3 4\n1 2 3\nantennas 0\n",
           "sectorpack-instance v1\ncustomers 100000000\n1 2 3\n",
           "sectorpack-instance v1\ncustomers 3\n1 2 3\n\n\n\n\n",
           "sectorpack-instance v1\ncustomers 0\nantennas 100000000\n",
           "sectorpack-instance v1\ncustomers 0\nantennas 0\njunk after\n",
           "sectorpack-instance v1\ncustomers 1\n-1 2 0\nantennas 0\n",
           "sectorpack-instance v1\ncustomers 1\n1 2 3\nantennas 1\n9 10 5\n",
           "sectorpack-instance v2\ncustomers 1\n1 2 3 -2\nantennas 0\n",
           "sectorpack-instance v2\ncustomers 1\n1 2 3 -1\nantennas 0\n",
       }) {
    texts.push_back(text);
  }
  return texts;
}

std::vector<std::string> framing_solutions() {
  std::vector<std::string> texts;
  for (const char* c : kCounts) {
    const std::string count = c;
    texts.push_back("sectorpack-solution v1\nalphas " + count +
                    "\n0.5\nassign 0\n");
    texts.push_back("sectorpack-solution v1\nalphas 0\nassign " + count +
                    "\n1\n");
  }
  for (const char* assign :
       {"0", "-1", "+3", "3.0", "0x3", "2147483647", "2147483648",
        "-2147483648", "-2147483649", "99999999999999999999", "-", "+",
        "1 2", "1-1", "\v3", "3e0", "+-3"}) {
    texts.push_back(
        std::string("sectorpack-solution v1\nalphas 0\nassign 1\n") + assign +
        "\n");
  }
  for (const char* status :
       {"status complete", "status budget_exhausted", "status",
        "status bogus", "statusx complete", "status complete extra",
        "status\vcomplete", "status  complete", "status\tbudget_exhausted",
        "status=complete", "status complete # c"}) {
    texts.push_back(std::string("sectorpack-solution v1\n") + status +
                    "\nalphas 1\n0.5\nassign 1\n0\n");
  }
  for (const char* text :
       {"", "garbage", "sectorpack-instance v1\n",
        "sectorpack-solution v1\nalphas 9223372036854775807\n",
        "sectorpack-solution v1\nalphas 0\nassign 9223372036854775807\n",
        "sectorpack-solution v1\nalphas 1\n0.5 junk\nassign 0\n",
        "sectorpack-solution v1\nalphas 0 0\nassign 0\n",
        "sectorpack-solution v1\nalphas x\n"}) {
    texts.push_back(text);
  }
  return texts;
}

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = 0; (at = text.find(from, at)) != std::string::npos;
       at += to.size()) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// A text under every whole-file respelling: CRLF, tabs, leading \v and \f,
/// no final newline, blank and comment lines between, and every prefix.
std::vector<std::string> respellings(const std::string& text) {
  std::vector<std::string> out = {
      text,
      replace_all(text, "\n", "\r\n"),
      replace_all(text, " ", "\t"),
      replace_all(text, "\n", "\n\v"),
      replace_all(text, "\n", "\n\f"),
      replace_all(text, "\n", "\n  \t\r\n# note\n"),
      text.substr(0, text.size() - 1),
  };
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    out.push_back(text.substr(0, cut));
  }
  return out;
}

const char* const kInstanceV1 =
    "sectorpack-instance v1\ncustomers 3\n3 4 2.5\n-1.25 0.5 7\n"
    "1e-3 -2E2 1.5e+1\nantennas 2\n1.25 10 9\n0.5 20 4\n";
const char* const kInstanceV2 =
    "sectorpack-instance v2\ncustomers 2\n3 4 2.5 1\n-1 0.5 7 0\n"
    "antennas 2\n1.25 10 9 0\n0.5 20 4 2.5\n";
const char* const kSolution =
    "sectorpack-solution v1\nstatus budget_exhausted\nalphas 2\n"
    "0.25\n3.75\nassign 3\n0\n-1\n1\n";

TEST(CodecFuzz, NumberSpellingsReadAsOperatorExtractionReadThem) {
  Tally tally;
  for (const std::string& s : number_spellings()) {
    for (const std::string& text : instance_texts_with(s)) {
      expect_same_instance(text, tally);
    }
    for (const std::string& text : solution_texts_with(s)) {
      expect_same_solution(text, tally);
    }
  }
  // Both outcomes occur in earnest, not just one of them.
  EXPECT_GT(tally.accepted, 150);
  EXPECT_GT(tally.rejected, 400);
}

TEST(CodecFuzz, FramingMatchesTheStreamReader) {
  Tally tally;
  for (const std::string& text : framing_instances()) {
    expect_same_instance(text, tally);
  }
  for (const std::string& text : framing_solutions()) {
    expect_same_solution(text, tally);
  }
  EXPECT_GT(tally.accepted, 30);
  EXPECT_GT(tally.rejected, 100);
}

TEST(CodecFuzz, RespellingsAndEveryPrefixMatchTheStreamReader) {
  Tally tally;
  for (const char* base : {kInstanceV1, kInstanceV2}) {
    for (const std::string& text : respellings(base)) {
      expect_same_instance(text, tally);
    }
  }
  for (const std::string& text : respellings(kSolution)) {
    expect_same_solution(text, tally);
  }
  EXPECT_GT(tally.accepted, 15);
  EXPECT_GT(tally.rejected, 250);
}

TEST(CodecFuzz, MutatedTextsMatchTheStreamReader) {
  // Random edits drawn from the bytes the grammar turns on.
  const std::string alphabet = std::string("0123456789.eE+-  \t\n\r\v\f#xni,") +
                               '\0';
  std::mt19937_64 rng(20071);
  Tally tally;
  for (int iter = 0; iter < 3000; ++iter) {
    const bool solution = iter % 3 == 2;
    std::string text = solution ? kSolution
                                : (iter % 3 == 0 ? kInstanceV1 : kInstanceV2);
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = rng() % (text.size() + 1);
      const char c = alphabet[rng() % alphabet.size()];
      switch (rng() % 3) {
        case 0:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c);
          break;
        case 1:
          if (at < text.size()) text[at] = c;
          break;
        default:
          if (at < text.size()) {
            text.erase(text.begin() + static_cast<std::ptrdiff_t>(at));
          }
      }
    }
    if (solution) {
      expect_same_solution(text, tally);
    } else {
      expect_same_instance(text, tally);
    }
  }
  EXPECT_GT(tally.accepted, 150);
  EXPECT_GT(tally.rejected, 2000);
}

// ---------------------------------------------------------------------------
// Writers.

/// Doubles across every exponent: random bit patterns (each exponent equally
/// likely), random subnormals, and the edges.
std::vector<double> doubles(std::mt19937_64& rng, std::size_t count) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  constexpr double kMin = std::numeric_limits<double>::min();
  std::vector<double> out = {0.0,  -0.0,  kDenorm, -kDenorm, kMax,
                             -kMax, kMin,  0.1,     1.0 / 3,  1e-5,
                             1e-4, 1e15,  1e16,    1e17,     123456.789,
                             1e21, 0.5};
  while (out.size() < count) {
    const std::uint64_t pattern = rng();
    double v = std::bit_cast<double>(pattern);
    if (out.size() % 8 == 0) {  // a subnormal
      v = std::bit_cast<double>(pattern & 0x800fffffffffffffULL);
    }
    if (std::isfinite(v)) out.push_back(v);
  }
  return out;
}

TEST(CodecFuzz, SolutionWriterMatchesTheStreamWriter) {
  std::mt19937_64 rng(7);
  model::Solution sol;
  sol.alpha = doubles(rng, 20000);
  for (const double special : {std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN(),
                               -std::numeric_limits<double>::quiet_NaN()}) {
    sol.alpha.push_back(special);
  }
  sol.assign = {0, -1, 1, 9, 10, 99, 12345,
                std::numeric_limits<std::int32_t>::max(),
                std::numeric_limits<std::int32_t>::min()};
  for (int i = 0; i < 1000; ++i) {
    sol.assign.push_back(static_cast<std::int32_t>(rng()));
  }
  for (const model::SolveStatus status :
       {model::SolveStatus::kComplete, model::SolveStatus::kBudgetExhausted}) {
    sol.status = status;
    std::ostringstream os;
    ref::write_solution(os, sol);
    const std::string text = model::to_string(sol);
    ASSERT_EQ(text, os.str());
    std::string escaped = "{\"solution\":\"";
    model::append_solution_escaped(escaped, sol);
    EXPECT_EQ(escaped, "{\"solution\":\"" + ref::json_escape(text));
  }
  // Finite alphas read back bit for bit, through both readers.
  sol.alpha.resize(sol.alpha.size() - 4);
  const std::string text = model::to_string(sol);
  Outcome got;
  push_solution(model::solution_from_string(text), got);
  Outcome want;
  push_solution(sol, want);
  EXPECT_EQ(got.bits, want.bits);
  Tally tally;
  expect_same_solution(text, tally);
}

TEST(CodecFuzz, InstanceWriterMatchesTheStreamWriter) {
  std::mt19937_64 rng(11);
  const std::vector<double> pool = doubles(rng, 8000);
  const auto positive = [&](std::size_t i) {
    const double v = std::fabs(pool[i % pool.size()]);
    return v > 0.0 ? v : 1.0;
  };
  for (const bool extended : {false, true}) {
    std::vector<model::Customer> customers;
    for (std::size_t i = 0; i + 3 < pool.size(); i += 3) {
      model::Customer c;
      c.pos = {pool[i], pool[i + 1]};
      c.demand = positive(i + 2);
      if (extended) c.value = positive(i + 3);
      customers.push_back(c);
    }
    std::vector<model::AntennaSpec> antennas;
    for (std::size_t j = 0; j < 40; ++j) {
      model::AntennaSpec a;
      a.rho = std::ldexp(1.0 + static_cast<double>(j % 7) / 7.0,
                         -static_cast<int>(j * 25));
      a.range = positive(j + 1);
      a.capacity = j % 5 == 0 ? 0.0 : positive(j + 2);
      a.min_range = extended ? a.range * 0.5 : 0.0;
      antennas.push_back(a);
    }
    const model::Instance inst(std::move(customers), std::move(antennas));
    std::ostringstream os;
    ref::write_instance(os, inst);
    const std::string text = model::to_string(inst);
    ASSERT_EQ(text, os.str());
    Outcome got;
    push_instance(model::instance_from_string(text), got);
    Outcome want;
    push_instance(inst, want);
    EXPECT_EQ(got.bits, want.bits);
    Tally tally;
    expect_same_instance(text, tally);
    EXPECT_EQ(tally.accepted, 1);
  }
}

TEST(CodecFuzz, JsonNumberMatchesStreamPrecision12) {
  std::mt19937_64 rng(12);
  for (const double v : doubles(rng, 50000)) {
    ASSERT_EQ(obs::json_number(v), ref::json_number(v)) << bits(v);
  }
  for (const double v : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(obs::json_number(v), "null");
  }
}

TEST(CodecFuzz, JsonEscapeMatchesTheReference) {
  std::mt19937_64 rng(13);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string s(rng() % 64, '\0');
    for (char& c : s) c = static_cast<char>(rng() % 256);
    ASSERT_EQ(obs::json_escape(s), ref::json_escape(s)) << iter;
  }
  EXPECT_EQ(obs::json_escape(""), "");
  EXPECT_EQ(obs::json_escape("plain"), "plain");
}

// ---------------------------------------------------------------------------
// The file readers: one whole read of a file or of stdin, and errors that
// name the path.

class CodecFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string dir =
        (std::filesystem::temp_directory_path() / "sectorpack_codec_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    dir_ = dir;
  }
  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::string write(const std::string& name, const std::string& text) const {
    const std::string path = (dir_ / name).string();
    std::ofstream(path, std::ios::binary) << text;
    return path;
  }

  std::filesystem::path dir_;
};

/// An instance text well past one read chunk.
std::string big_instance_text() {
  std::ostringstream os;
  os << "sectorpack-instance v1\ncustomers 6000\n";
  for (int i = 0; i < 6000; ++i) {
    os << (i * 0.37) << " " << (i * -1.5) << " " << (1 + i % 7) << "\n";
  }
  os << "antennas 2\n1 500 100\n2 800 50\n";
  return os.str();
}

TEST_F(CodecFiles, FileAndStdinReadAsTheString) {
  const std::string text = big_instance_text();
  ASSERT_GT(text.size(), std::size_t{1} << 16);
  Outcome want;
  push_instance(model::instance_from_string(text), want);

  Outcome from_file;
  push_instance(model::read_instance_file(write("big.inst", text)), from_file);
  EXPECT_EQ(from_file.bits, want.bits);

  std::istringstream fake_stdin(text);
  std::streambuf* const saved = std::cin.rdbuf(fake_stdin.rdbuf());
  Outcome from_stdin;
  push_instance(model::read_instance_file("-"), from_stdin);
  std::cin.rdbuf(saved);
  EXPECT_EQ(from_stdin.bits, want.bits);

  const std::string sol = model::to_string(model::Solution::empty_for(
      model::instance_from_string(text)));
  EXPECT_EQ(model::to_string(model::read_solution_file(write("s.sol", sol))),
            sol);
}

TEST_F(CodecFiles, ErrorsNameTheFile) {
  const std::string bad_sol =
      write("bad.sol", "sectorpack-solution v1\nalphas x\n");
  try {
    (void)model::read_solution_file(bad_sol);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              bad_sol + ": expected 'alphas <count>' line, got 'alphas x'");
  }
  const std::string bad_inst = write(
      "bad.inst", "sectorpack-instance v1\ncustomers 1\n1 2 -3\nantennas 0\n");
  try {
    (void)model::read_instance_file(bad_inst);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              bad_inst + ": customer demand must be finite and > 0");
  }
  const std::string missing = (dir_ / "missing.sol").string();
  try {
    (void)model::read_solution_file(missing);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "cannot open " + missing);
  }
}

}  // namespace
