#pragma once
// Span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code, around each public
// call into a layer: name (the layer, named after its src/ module), start,
// end, parent span, and the id of the op it belongs to. They stay in memory
// until the run ends, then feed the per-layer table and a Chrome
// trace-event dump in the format obs::trace writes ("ph":"X" events, times
// in microseconds).
//
// A layer's self time is its span's duration minus the time its child
// spans cover. Each op is a root span named "op"; its own self time is the
// part of the op no layer span accounts for, so coverage = 1 - op self /
// op wall. The recorder is single-threaded: the traced run replays each
// workload's call sequence on one thread.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "streams.hpp"

namespace perfbench {

inline constexpr std::uint32_t kNoOp = 0xffffffffu;
inline constexpr const char* kOpSpan = "op";

struct Span {
  const char* name = "";  // string literal: stored by pointer
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  std::int32_t parent = -1;  // index into the span list; -1 for a root
  std::uint32_t op = kNoOp;
  std::string args;  // extra JSON members for the trace dump, or empty
};

class Recorder {
 public:
  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Recorder& recorder, std::int32_t id) : recorder_(&recorder),
                                                 id_(id) {}
    ~Scope() { recorder_->end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int32_t id() const noexcept { return id_; }

   private:
    Recorder* recorder_;
    std::int32_t id_;
  };

  /// A recorder made with `on` false records nothing: its scopes cost one
  /// branch, so the untraced pass runs the same code as the traced one.
  explicit Recorder(bool on = true);

  /// Open a span under the innermost open one.
  [[nodiscard]] Scope span(const char* name) { return Scope(*this, begin(name)); }
  /// Open an op: a root span named "op" whose id tags every span inside.
  [[nodiscard]] Scope op(std::uint32_t id);
  /// Open a probe: a root span outside any op, tagged with op `id`. Probes
  /// time a layer call the benchmark makes beside the op (on a copy of its
  /// input), so they never count toward op wall time or coverage.
  [[nodiscard]] Scope probe(std::uint32_t id, const char* name);

  /// Attach extra JSON object members (`"key":value,...`) to a span.
  void annotate(std::int32_t id, std::string args);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Duration minus the time covered by direct children, per span (ns).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  /// Chrome trace-event JSON, loadable in chrome://tracing or Perfetto.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint32_t op_ = kNoOp;
};

/// Self time by layer over every span inside an op, plus op wall time.
struct LayerTable {
  std::size_t ops = 0;
  double op_wall_ms = 0.0;  // summed over ops
  std::map<std::string, double> self_ms;  // layer -> summed self time
  std::map<std::string, double> probe_ms;  // probe -> summed duration
  std::map<std::string, std::size_t> calls;  // spans of each layer/probe

  /// Summed self time of the layer spans / summed op wall time.
  [[nodiscard]] double coverage() const;
  /// Mean self time per op of `layer`, or for a probe its mean time per
  /// call; 0 when it never ran.
  [[nodiscard]] double per_op_ms(std::string_view layer) const;
};

[[nodiscard]] LayerTable layer_table(const Recorder& recorder);

/// "layer  ms/op  share  calls" rows, widest first, for the human report.
void print_layer_table(std::ostream& os, const LayerTable& table);

}  // namespace perfbench
