#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxReasons = 8;

}  // namespace

std::string full_precision(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void RunResult::add(std::string name, double value, std::string unit,
                    std::size_t samples, std::string note) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("perfbench: bad metric name '" + name + "'");
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("perfbench: duplicate metric '" + name + "'");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("perfbench: metric '" + name +
                                "' is not finite");
  }
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), samples, std::move(note)});
}

void RunResult::check_failed(const std::string& reason) {
  correct_ = false;
  if (reasons_.size() < kMaxReasons) {
    reasons_.push_back(reason);
  } else {
    ++reasons_dropped_;
  }
}

const Metric* RunResult::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string RunResult::to_json() const {
  std::ostringstream os;
  os << "{\"correct\":" << (correct_ ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) os << ",";
    os << "\"" << sectorpack::obs::json_escape(m.name)
       << "\":{\"value\":" << full_precision(m.value) << ",\"unit\":\""
       << sectorpack::obs::json_escape(m.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

void RunResult::print(std::ostream& human, std::ostream& json,
                      const std::string& title) const {
  char line[256];
  human << title << "\n";
  std::snprintf(line, sizeof line, "  %-26s %16s %-6s %8s\n", "metric",
                "value", "unit", "samples");
  human << line;
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof line, "  %-26s %16.6g %-6s %8zu", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    human << line;
    if (!m.note.empty()) human << "  " << m.note;
    human << "\n";
  }
  const double failed_frac =
      attempted_ > 0
          ? static_cast<double>(failed_) / static_cast<double>(attempted_)
          : 0.0;
  std::snprintf(line, sizeof line, "  %-26s %16.6g %-6s %8llu\n",
                "failed_frac", failed_frac, "1",
                static_cast<unsigned long long>(attempted_));
  human << line;
  human << "  checks: " << (correct_ ? "all passed" : "FAILED") << "\n";
  for (const std::string& r : reasons_) human << "    " << r << "\n";
  if (reasons_dropped_ > 0) {
    human << "    ... and " << reasons_dropped_ << " more\n";
  }
  human.flush();
  json << to_json() << "\n";
  json.flush();
}

}  // namespace perfbench
