#include "src/model/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace sectorpack::model {

namespace {

// ------------------------------------------------------------------ reading
//
// The readers scan the whole text once. The grammar is operator>>'s over
// getline'd lines, byte for byte, as the stream reference in
// tests/test_codec.cpp pins it: lines split at '\n', '#' cuts a comment,
// " \t\r" is trimmed from both ends and a line left empty is skipped. Each
// field skips C-locale whitespace, and a number ends where its spelling
// does, so `1-2` holds two numbers.

constexpr std::string_view kTrim = " \t\r\n";

/// The "C" locale's isspace: what operator>> skips before a field.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }

std::string quoted(std::string_view line) {
  return "'" + std::string(line) + "'";
}

class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  /// The next line that is not blank once its comment is cut, trimmed.
  std::string_view next(const char* what) {
    while (!rest_.empty()) {
      const std::size_t eol = std::min(rest_.find('\n'), rest_.size());
      std::string_view line = rest_.substr(0, eol);
      rest_.remove_prefix(std::min(eol + 1, rest_.size()));
      line = line.substr(0, line.find('#'));
      const std::size_t first = line.find_first_not_of(kTrim);
      if (first != std::string_view::npos) {
        return line.substr(first, line.find_last_not_of(kTrim) - first + 1);
      }
    }
    throw std::runtime_error(std::string("unexpected EOF while reading ") +
                             what);
  }

  /// The lines left in the text: no count can describe more entities and
  /// still be read in full, so reserve() never goes past this. Counted
  /// with memchr, which is several times faster than std::count at -O2.
  [[nodiscard]] std::size_t left() const {
    std::size_t lines = 1;
    const char* p = rest_.data();
    const char* const end = p + rest_.size();
    while (p != end) {
      p = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      if (p == nullptr) break;
      ++lines;
      ++p;
    }
    return lines;
  }

 private:
  std::string_view rest_;
};

/// Whether an out-of-range spelling is too small rather than too large:
/// the decimal exponent of its first significant digit is negative.
/// from_chars reports both; strtod, under operator>>, read an underflow as
/// a signed zero and failed only on an overflow.
bool underflows(const char* p, const char* end) {
  if (*p == '-') ++p;
  long long lead = 0;  // decimal exponent of the first significant digit
  bool point = false;
  bool found = false;
  for (; p != end && *p != 'e' && *p != 'E'; ++p) {
    if (*p == '.') {
      point = true;
    } else if (found || *p != '0') {
      if (!found && point) --lead;
      if (found && !point) ++lead;
      found = true;
    } else if (point) {
      --lead;  // a leading zero after the point
    }
  }
  long long exponent = 0;
  if (p != end) {
    ++p;
    const bool negative = p != end && *p == '-';
    if (p != end && (*p == '+' || *p == '-')) ++p;
    // Saturated far above any digit count a text can hold.
    constexpr long long kSaturated = 1'000'000'000'000'000;
    for (; p != end; ++p) {
      exponent = std::min(exponent * 10 + (*p - '0'), kSaturated);
    }
    if (negative) exponent = -exponent;
  }
  return lead + exponent < 0;
}

/// The fields of one line, read the way operator>> read them from an
/// istringstream over it.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// A whitespace-delimited token, as operator>> into a std::string.
  bool word(std::string_view& out) {
    skip_space();
    const char* const begin = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    out = std::string_view(begin, static_cast<std::size_t>(p_ - begin));
    return !out.empty();
  }

  /// A double, as operator>> (num_get, then strtod) read it. num_get takes
  /// a sign, digits with at most one '.', then an 'e' or 'E' once a digit
  /// was seen, an exponent sign and digits; strtod must use all of that.
  bool number(double& out) {
    skip_space();
    const char* const begin = p_;
    const char* p = begin;
    if (p != end_ && (*p == '+' || *p == '-')) ++p;
    bool digits = false;
    for (bool point = false; p != end_; ++p) {
      if (is_digit(*p)) {
        digits = true;
      } else if (*p == '.' && !point) {
        point = true;
      } else {
        break;
      }
    }
    if (digits && p != end_ && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p != end_ && (*p == '+' || *p == '-')) ++p;
      while (p != end_ && is_digit(*p)) ++p;
    }
    p_ = p;
    // from_chars takes no '+'. It must use the whole spelling, as strtod
    // had to: `1e`, `1e+` and `.` fail.
    const char* const first = begin != p && *begin == '+' ? begin + 1 : begin;
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(first, p, v);
    if (ptr != p || ec == std::errc::invalid_argument) return false;
    if (ec == std::errc::result_out_of_range) {
      if (!underflows(first, p)) return false;
      v = *first == '-' ? -0.0 : 0.0;
    }
    out = v;
    return true;
  }

  /// A base-10 integer in Int's range, as operator>> read it: from_chars
  /// plus the leading '+' operator>> also took.
  template <typename Int>
  bool integer(Int& out) {
    skip_space();
    const char* first = p_;
    if (first != end_ && *first == '+') {
      ++first;
      if (first == end_ || !is_digit(*first)) return false;
    }
    const auto [ptr, ec] = std::from_chars(first, end_, out);
    p_ = ptr;
    return ec == std::errc();
  }

  /// Only whitespace is left.
  bool done() {
    skip_space();
    return p_ == end_;
  }

 private:
  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

// Trailing tokens are rejected: `1 2 3 junk` is not a valid 3-column
// customer, and an extra numeric column silently changes meaning between
// the v1 and v2 formats.
void require_end(Fields& fields, const char* what, std::string_view line) {
  if (!fields.done()) {
    throw std::runtime_error(std::string("trailing garbage on ") + what +
                             " line: " + quoted(line));
  }
}

std::size_t parse_count(std::string_view line, const char* keyword) {
  Fields fields(line);
  std::string_view kw;
  long long count = -1;
  if (!fields.word(kw) || !fields.integer(count) || kw != keyword ||
      count < 0) {
    throw std::runtime_error(std::string("expected '") + keyword +
                             " <count>' line, got " + quoted(line));
  }
  if (static_cast<std::size_t>(count) > kMaxIoCount) {
    throw std::runtime_error(std::string("implausible ") + keyword +
                             " count in " + quoted(line) + " (max " +
                             std::to_string(kMaxIoCount) + ")");
  }
  require_end(fields, keyword, line);
  return static_cast<std::size_t>(count);
}

/// An instance's entity lists, parsed; the Instance is built from them.
struct Entities {
  std::vector<Customer> customers;
  std::vector<AntennaSpec> antennas;
};

Entities parse_instance(std::string_view text) {
  Lines lines(text);
  const std::string_view header = lines.next("header");
  bool extended = false;
  if (header == "sectorpack-instance v2") {
    extended = true;
  } else if (header != "sectorpack-instance v1") {
    throw std::runtime_error("bad instance header");
  }
  Entities parsed;
  const std::size_t n = parse_count(lines.next("customers"), "customers");
  parsed.customers.reserve(std::min(n, lines.left()));
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view line = lines.next("customer");
    Fields fields(line);
    Customer c;
    if (!(fields.number(c.pos.x) && fields.number(c.pos.y) &&
          fields.number(c.demand))) {
      throw std::runtime_error("bad customer line: " + quoted(line));
    }
    if (extended && !fields.number(c.value)) {
      throw std::runtime_error("bad customer line (missing value column): " +
                               quoted(line));
    }
    require_end(fields, "customer", line);
    parsed.customers.push_back(c);
  }
  const std::size_t k = parse_count(lines.next("antennas"), "antennas");
  parsed.antennas.reserve(std::min(k, lines.left()));
  for (std::size_t j = 0; j < k; ++j) {
    const std::string_view line = lines.next("antenna");
    Fields fields(line);
    AntennaSpec a;
    if (!(fields.number(a.rho) && fields.number(a.range) &&
          fields.number(a.capacity))) {
      throw std::runtime_error("bad antenna line: " + quoted(line));
    }
    if (extended && !fields.number(a.min_range)) {
      throw std::runtime_error("bad antenna line (missing min_range): " +
                               quoted(line));
    }
    require_end(fields, "antenna", line);
    parsed.antennas.push_back(a);
  }
  return parsed;
}

Solution parse_solution(std::string_view text) {
  Lines lines(text);
  if (lines.next("header") != "sectorpack-solution v1") {
    throw std::runtime_error("bad solution header");
  }
  Solution sol;
  // Optional "status <complete|budget_exhausted>" line before the alphas.
  std::string_view line = lines.next("alphas");
  if (line.starts_with("status")) {
    Fields fields(line);
    std::string_view kw;
    std::string_view value;
    if (!fields.word(kw) || !fields.word(value) || kw != "status") {
      throw std::runtime_error("bad status line: " + quoted(line));
    }
    if (value == "complete") {
      sol.status = SolveStatus::kComplete;
    } else if (value == "budget_exhausted") {
      sol.status = SolveStatus::kBudgetExhausted;
    } else {
      throw std::runtime_error("unknown solution status: " + quoted(line));
    }
    require_end(fields, "status", line);
    line = lines.next("alphas");
  }
  const std::size_t k = parse_count(line, "alphas");
  sol.alpha.reserve(std::min(k, lines.left()));
  for (std::size_t j = 0; j < k; ++j) {
    const std::string_view aline = lines.next("alpha");
    Fields fields(aline);
    double a = 0.0;
    if (!fields.number(a)) {
      throw std::runtime_error("bad alpha line: " + quoted(aline));
    }
    require_end(fields, "alpha", aline);
    sol.alpha.push_back(a);
  }
  const std::size_t n = parse_count(lines.next("assign"), "assign");
  sol.assign.reserve(std::min(n, lines.left()));
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view aline = lines.next("assign");
    Fields fields(aline);
    std::int32_t a = 0;
    if (!fields.integer(a)) {
      throw std::runtime_error("bad assign line: " + quoted(aline));
    }
    require_end(fields, "assign", aline);
    sol.assign.push_back(a);
  }
  return sol;
}

/// All of `in` from where it stands: `expected` bytes in one call, then
/// whatever follows (a pipe or a terminal, which cannot tell its size) in
/// chunks. A read error ends the text, as it ended the getline loop of the
/// stream readers ("unexpected EOF" for a directory).
std::string read_all(std::istream& in, std::uintmax_t expected) {
  std::string text(static_cast<std::size_t>(expected), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  char chunk[1 << 16];
  while (in) {
    in.read(chunk, sizeof chunk);
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

/// The whole file at `path`; "-" reads stdin.
std::string read_file(const std::string& path) {
  if (path == "-") return read_all(std::cin, 0);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::error_code ec;
  std::uintmax_t size = 0;
  if (std::filesystem::is_regular_file(path, ec)) {
    size = std::filesystem::file_size(path, ec);
  }
  return read_all(in, ec ? 0 : size);
}

/// Runs `parse`; its failure names `path`. Stdin ("-") has no name.
template <typename Parse>
auto naming(const std::string& path, Parse&& parse) {
  if (path == "-") return parse();
  try {
    return parse();
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

// ------------------------------------------------------------------ writing

/// Widest %.17g spelling: sign, 17 digits, point, "e-308".
constexpr std::size_t kDoubleChars = 24;

/// Appends `v` as operator<< wrote it at precision 17 (printf's %.17g).
void put(std::string& out, double v) {
  char buf[kDoubleChars + 8];
  out.append(buf, std::to_chars(buf, std::end(buf), v,
                                std::chars_format::general, 17)
                      .ptr);
}

template <typename Int>
  requires std::is_integral_v<Int>
void put(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, std::end(buf), v).ptr);
}

/// The solution format with `eol` ending each line.
void write_solution(std::string& out, const Solution& sol,
                    std::string_view eol) {
  // Alphas at their widest, assign entries at the width of the largest
  // antenna index plus a sign; anything wider only grows the string.
  const std::size_t index_chars = std::to_string(sol.alpha.size()).size() + 1;
  out.reserve(out.size() + 64 +
              sol.alpha.size() * (kDoubleChars + eol.size()) +
              sol.assign.size() * (index_chars + eol.size()));
  out += "sectorpack-solution v1";
  out += eol;
  // Complete solutions keep the historical format byte-for-byte; the status
  // line only appears for anytime (deadline-truncated) results.
  if (sol.status != SolveStatus::kComplete) {
    out += "status ";
    out += to_string(sol.status);
    out += eol;
  }
  out += "alphas ";
  put(out, sol.alpha.size());
  out += eol;
  for (const double a : sol.alpha) {
    put(out, a);
    out += eol;
  }
  out += "assign ";
  put(out, sol.assign.size());
  out += eol;
  for (const std::int32_t a : sol.assign) {
    put(out, a);
    out += eol;
  }
}

}  // namespace

Instance read_instance_file(const std::string& path) {
  Entities parsed;
  {
    const std::string text = read_file(path);
    parsed = naming(path, [&] { return parse_instance(text); });
  }  // the text is released before the Instance is built
  return naming(path, [&] {
    return Instance{std::move(parsed.customers), std::move(parsed.antennas)};
  });
}

Solution read_solution_file(const std::string& path) {
  const std::string text = read_file(path);
  return naming(path, [&] { return parse_solution(text); });
}

std::string to_string(const Instance& inst) {
  // v1: 3-column customers and antennas. v2 (any extended feature present):
  // customers gain a <value> column, antennas a <min_range> column.
  const bool extended =
      inst.is_value_weighted() || inst.has_annular_antennas();
  const std::size_t line_chars = (extended ? 4 : 3) * (kDoubleChars + 1);
  std::string out;
  out.reserve(96 + (inst.num_customers() + inst.num_antennas()) * line_chars);
  out += extended ? "sectorpack-instance v2\n" : "sectorpack-instance v1\n";
  out += "customers ";
  put(out, inst.num_customers());
  out += '\n';
  for (std::size_t i = 0; i < inst.num_customers(); ++i) {
    const Customer& c = inst.customer(i);
    put(out, c.pos.x);
    out += ' ';
    put(out, c.pos.y);
    out += ' ';
    put(out, c.demand);
    if (extended) {
      out += ' ';
      put(out, inst.value(i));
    }
    out += '\n';
  }
  out += "antennas ";
  put(out, inst.num_antennas());
  out += '\n';
  for (const AntennaSpec& a : inst.antennas()) {
    put(out, a.rho);
    out += ' ';
    put(out, a.range);
    out += ' ';
    put(out, a.capacity);
    if (extended) {
      out += ' ';
      put(out, a.min_range);
    }
    out += '\n';
  }
  return out;
}

Instance instance_from_string(const std::string& text) {
  Entities parsed = parse_instance(text);
  return Instance{std::move(parsed.customers), std::move(parsed.antennas)};
}

std::string to_string(const Solution& sol) {
  std::string out;
  write_solution(out, sol, "\n");
  return out;
}

Solution solution_from_string(const std::string& text) {
  return parse_solution(text);
}

void append_solution_escaped(std::string& out, const Solution& sol) {
  write_solution(out, sol, "\\n");
}

}  // namespace sectorpack::model
