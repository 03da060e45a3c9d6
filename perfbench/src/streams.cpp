#include "streams.hpp"

#include <utility>

namespace perfbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

LineFeed::LineFeed(Producer producer) : producer_(std::move(producer)) {}

LineFeed::int_type LineFeed::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (done_ || !producer_(line_)) {
    done_ = true;
    return traits_type::eof();
  }
  line_.push_back('\n');
  taken_.push_back(Clock::now());
  setg(line_.data(), line_.data(), line_.data() + line_.size());
  return traits_type::to_int_type(*gptr());
}

LineStamp::LineStamp(Sink sink) : sink_(std::move(sink)) {}

LineStamp::int_type LineStamp::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  const char c = traits_type::to_char_type(ch);
  append(&c, 1);
  return ch;
}

std::streamsize LineStamp::xsputn(const char* s, std::streamsize n) {
  append(s, static_cast<std::size_t>(n));
  return n;
}

void LineStamp::append(const char* s, std::size_t n) {
  std::string_view rest(s, n);
  for (std::size_t nl = rest.find('\n'); nl != std::string_view::npos;
       nl = rest.find('\n')) {
    written_.push_back(Clock::now());
    current_.append(rest.substr(0, nl));
    if (sink_) sink_(written_.size() - 1, current_);
    current_.clear();
    rest.remove_prefix(nl + 1);
  }
  current_.append(rest);
}

}  // namespace perfbench
