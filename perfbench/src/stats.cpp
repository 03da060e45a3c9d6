#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <numeric>

#include "src/bench_util/stats.hpp"

namespace perfbench {

double percentile(std::span<const double> samples, double q) {
  return sectorpack::bench_util::percentile(samples, q);
}

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  // Recover the rank bench_util::percentile selects by asking it for the
  // percentile of the ranks themselves, so the two can never disagree.
  std::vector<double> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 1.0);
  return static_cast<std::size_t>(
      sectorpack::bench_util::percentile(ranks, q));
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyond;
}

double median(std::span<const double> samples) {
  return percentile(samples, 0.5);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name.front())) == 0) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
