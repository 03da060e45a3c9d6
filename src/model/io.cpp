#include "src/model/io.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace sectorpack::model {

namespace {

// reserve() is further capped by stream plausibility: a count that is
// legal but larger than the remaining stream could possibly hold (every
// entity costs at least ~2 bytes of line) must not allocate gigabytes
// before the EOF check catches it; growth past the cap falls back to
// amortized push_back.
constexpr std::size_t kReserveCap = 1 << 16;

// Read the next non-comment, non-blank line; throw on EOF.
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

// After all expected fields were extracted, the rest of the line must be
// whitespace. Trailing tokens are rejected: `1 2 3 junk` is not a valid
// 3-column customer, and an extra numeric column silently changes meaning
// between the v1 and v2 formats.
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
  if (static_cast<std::size_t>(count) > kMaxIoCount) {
    throw std::runtime_error("implausible " + keyword + " count in '" + line +
                             "' (max " + std::to_string(kMaxIoCount) + ")");
  }
  require_line_end(ls, keyword.c_str(), line);
  return static_cast<std::size_t>(count);
}

std::size_t expect_count(std::istream& is, const std::string& keyword) {
  return parse_count(next_line(is, keyword.c_str()), keyword);
}

}  // namespace

void write_instance(std::ostream& os, const Instance& inst) {
  // v1: 3-column customers and antennas. v2 (any extended feature present):
  // customers gain a <value> column, antennas a <min_range> column.
  const bool extended =
      inst.is_value_weighted() || inst.has_annular_antennas();
  os << (extended ? "sectorpack-instance v2\n" : "sectorpack-instance v1\n");
  os << std::setprecision(17);
  os << "customers " << inst.num_customers() << "\n";
  for (std::size_t i = 0; i < inst.num_customers(); ++i) {
    const Customer& c = inst.customer(i);
    os << c.pos.x << " " << c.pos.y << " " << c.demand;
    if (extended) os << " " << inst.value(i);
    os << "\n";
  }
  os << "antennas " << inst.num_antennas() << "\n";
  for (const AntennaSpec& a : inst.antennas()) {
    os << a.rho << " " << a.range << " " << a.capacity;
    if (extended) os << " " << a.min_range;
    os << "\n";
  }
}

Instance read_instance(std::istream& is) {
  const std::string header = next_line(is, "header");
  bool extended = false;
  if (header == "sectorpack-instance v2") {
    extended = true;
  } else if (header != "sectorpack-instance v1") {
    throw std::runtime_error("bad instance header");
  }
  const std::size_t n = expect_count(is, "customers");
  std::vector<Customer> customers;
  customers.reserve(std::min(n, kReserveCap));
  for (std::size_t i = 0; i < n; ++i) {
    const std::string line = next_line(is, "customer");
    std::istringstream ls(line);
    Customer c;
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
  std::vector<AntennaSpec> antennas;
  antennas.reserve(std::min(k, kReserveCap));
  for (std::size_t j = 0; j < k; ++j) {
    const std::string line = next_line(is, "antenna");
    std::istringstream ls(line);
    AntennaSpec a;
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
  return Instance{std::move(customers), std::move(antennas)};
}

Instance read_instance_file(const std::string& path) {
  if (path == "-") return read_instance(std::cin);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  try {
    return read_instance(in);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void write_solution(std::ostream& os, const Solution& sol) {
  os << "sectorpack-solution v1\n";
  // Complete solutions keep the historical format byte-for-byte; the status
  // line only appears for anytime (deadline-truncated) results.
  if (sol.status != SolveStatus::kComplete) {
    os << "status " << to_string(sol.status) << "\n";
  }
  os << std::setprecision(17);
  os << "alphas " << sol.alpha.size() << "\n";
  for (double a : sol.alpha) os << a << "\n";
  os << "assign " << sol.assign.size() << "\n";
  for (std::int32_t a : sol.assign) os << a << "\n";
}

Solution read_solution(std::istream& is) {
  if (next_line(is, "header") != "sectorpack-solution v1") {
    throw std::runtime_error("bad solution header");
  }
  Solution sol;
  // Optional "status <complete|budget_exhausted>" line before the alphas.
  std::string line = next_line(is, "alphas");
  if (line.rfind("status", 0) == 0) {
    std::istringstream ls(line);
    std::string kw;
    std::string value;
    if (!(ls >> kw >> value) || kw != "status") {
      throw std::runtime_error("bad status line: '" + line + "'");
    }
    if (value == "complete") {
      sol.status = SolveStatus::kComplete;
    } else if (value == "budget_exhausted") {
      sol.status = SolveStatus::kBudgetExhausted;
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

std::string to_string(const Instance& inst) {
  std::ostringstream os;
  write_instance(os, inst);
  return os.str();
}

Instance instance_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_instance(is);
}

std::string to_string(const Solution& sol) {
  std::ostringstream os;
  write_solution(os, sol);
  return os.str();
}

Solution solution_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_solution(is);
}

}  // namespace sectorpack::model
