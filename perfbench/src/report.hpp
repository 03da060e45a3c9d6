#pragma once
// One benchmark run's outcome: named metrics with unit and sample count,
// the op tally, and the output checks. print() writes the human table and
// then, as the last line of stdout, the JSON result object:
//
//   {"correct":true,"attempted":N,"failed":F,"metrics":{"<name>":
//     {"value":V,"unit":"U"},...}}

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  // shown in the human table only
};

class RunResult {
 public:
  /// Record a metric; throws std::invalid_argument on a bad name, a
  /// duplicate name, or a non-finite value.
  void add(std::string name, double value, std::string unit,
           std::size_t samples, std::string note = {});

  /// Count one attempted op; `ok` false counts it as failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A failed output check: the run is not correct. Keeps the first few
  /// reasons for the report.
  void check_failed(const std::string& reason);
  /// An op that was attempted and failed its check.
  void op_failed(const std::string& reason) {
    op(false);
    check_failed(reason);
  }

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// Human-readable lines (to `human`), then the JSON object as one line
  /// (to `json`).
  void print(std::ostream& human, std::ostream& json,
             const std::string& title) const;

  /// The JSON result object, without a trailing newline.
  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] const Metric* find(const std::string& name) const;

  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> reasons_;
  std::size_t reasons_dropped_ = 0;
};

/// A double with all its significant digits, as a JSON number.
[[nodiscard]] std::string full_precision(double v);

}  // namespace perfbench
