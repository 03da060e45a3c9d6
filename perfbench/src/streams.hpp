#pragma once
// Line-timestamping stream buffers: how the benchmark measures run_batch
// and run_serve from outside, through the same std::istream/std::ostream
// they take in production.
//
// LineFeed hands the program one input line at a time, asking a producer
// for each line only when the program reads past the previous one, and
// stamps the moment each line is taken. With run_serve's sequential loop
// this is a closed loop with one client: the next op is produced only once
// the reply to the previous one has been written. LineStamp collects the
// program's output, stamps the moment each line's '\n' is written, and
// passes every complete line to a sink. Line i's latency is
// written()[i] - taken()[i] when outputs and inputs pair up one to one.

#include <chrono>
#include <cstddef>
#include <functional>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_between(Clock::time_point from, Clock::time_point to);

class LineFeed : public std::streambuf {
 public:
  /// Fills `line` (without its '\n') and returns true, or returns false at
  /// the end of input.
  using Producer = std::function<bool(std::string& line)>;

  explicit LineFeed(Producer producer);

  /// When each line was taken, in input order.
  [[nodiscard]] const std::vector<Clock::time_point>& taken() const noexcept {
    return taken_;
  }

 protected:
  int_type underflow() override;

 private:
  Producer producer_;
  std::string line_;
  bool done_ = false;
  std::vector<Clock::time_point> taken_;
};

class LineStamp : public std::streambuf {
 public:
  /// Called with each complete line (without its '\n') and its 0-based
  /// ordinal, after the line's stamp is taken.
  using Sink = std::function<void(std::size_t index, std::string_view line)>;

  explicit LineStamp(Sink sink = {});

  /// When each line's '\n' was written, in output order.
  [[nodiscard]] const std::vector<Clock::time_point>& written()
      const noexcept {
    return written_;
  }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void append(const char* s, std::size_t n);

  Sink sink_;
  std::string current_;
  std::vector<Clock::time_point> written_;
};

}  // namespace perfbench
