#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.hpp"

namespace perfbench {

Recorder::Recorder(bool on) : on_(on), origin_(Clock::now()) {}

Recorder::Scope Recorder::op(std::uint32_t id) {
  if (!open_.empty()) throw std::logic_error("perfbench: nested op span");
  op_ = id;
  return Scope(*this, begin(kOpSpan));
}

Recorder::Scope Recorder::probe(std::uint32_t id, const char* name) {
  if (!open_.empty()) throw std::logic_error("perfbench: probe inside a span");
  op_ = id;
  return Scope(*this, begin(name));
}

std::int32_t Recorder::begin(const char* name) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  // Stamp last, so the recorder's own bookkeeping stays outside the span.
  spans_.back().start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  return id;
}

void Recorder::end(std::int32_t id) {
  if (id < 0) return;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now;
  open_.pop_back();
  if (open_.empty()) op_ = kNoOp;
}

void Recorder::annotate(std::int32_t id, std::string args) {
  if (id < 0) return;
  spans_.at(static_cast<std::size_t>(id)).args = std::move(args);
}

std::vector<std::int64_t> Recorder::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

void Recorder::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char num[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << sectorpack::obs::json_escape(s.name)
       << "\",\"cat\":\"perfbench\",\"pid\":1,\"tid\":1";
    std::snprintf(num, sizeof num, "%.3f",
                  static_cast<double>(s.start_ns) / 1e3);
    os << ",\"ts\":" << num << ",\"ph\":\"X\"";
    std::snprintf(num, sizeof num, "%.3f",
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << ",\"dur\":" << num << ",\"args\":{\"span\":" << i
       << ",\"parent\":" << s.parent;
    if (s.op != kNoOp) os << ",\"op\":" << s.op;
    if (!s.args.empty()) os << "," << s.args;
    os << "}}";
  }
  os << "]}\n";
}

double LayerTable::coverage() const {
  double covered = 0.0;
  for (const auto& [layer, ms] : self_ms) covered += ms;
  return op_wall_ms > 0.0 ? covered / op_wall_ms : 0.0;
}

double LayerTable::per_op_ms(std::string_view layer) const {
  const std::string key(layer);
  if (const auto it = self_ms.find(key); it != self_ms.end() && ops > 0) {
    return it->second / static_cast<double>(ops);
  }
  if (const auto it = probe_ms.find(key); it != probe_ms.end()) {
    return it->second / static_cast<double>(calls.at(key));
  }
  return 0.0;
}

LayerTable layer_table(const Recorder& recorder) {
  LayerTable table;
  const std::vector<Span>& spans = recorder.spans();
  const std::vector<std::int64_t> self = recorder.self_ns();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op == kNoOp) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.parent < 0 && std::string_view(s.name) == kOpSpan) {
      ++table.ops;
      table.op_wall_ms += ms;
      continue;
    }
    if (s.parent < 0) {
      table.probe_ms[s.name] += ms;
      ++table.calls[s.name];
      continue;
    }
    table.self_ms[s.name] += static_cast<double>(self[i]) / 1e6;
    ++table.calls[s.name];
  }
  return table;
}

void print_layer_table(std::ostream& os, const LayerTable& table) {
  std::vector<std::pair<std::string, double>> rows(table.self_ms.begin(),
                                                   table.self_ms.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  const double wall = table.op_wall_ms;
  char line[160];
  std::snprintf(line, sizeof line, "  %-24s %12s %8s %8s\n", "layer",
                "self ms/op", "share", "calls");
  os << line;
  for (const auto& [layer, ms] : rows) {
    std::snprintf(line, sizeof line, "  %-24s %12.4f %7.1f%% %8zu\n",
                  layer.c_str(), table.per_op_ms(layer),
                  wall > 0.0 ? 100.0 * ms / wall : 0.0,
                  table.calls.at(layer));
    os << line;
  }
  const double ops = static_cast<double>(std::max<std::size_t>(table.ops, 1));
  std::snprintf(line, sizeof line, "  %-24s %12.4f %7.1f%% %8zu\n",
                "(op wall)", wall / ops, 100.0, table.ops);
  os << line;
  std::snprintf(line, sizeof line, "  coverage %.4f of op wall time\n",
                table.coverage());
  os << line;
  for (const auto& [probe, ms] : table.probe_ms) {
    std::snprintf(line, sizeof line, "  probe %-18s %12.4f ms/call %6zu\n",
                  probe.c_str(), table.per_op_ms(probe), table.calls.at(probe));
    os << line;
  }
}

}  // namespace perfbench
