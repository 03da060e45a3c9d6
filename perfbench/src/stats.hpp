#pragma once
// Sample statistics and metric-name rules for the benchmark's reports.
//
// Percentiles are nearest-rank (bench_util::percentile, the repository's
// one percentile rule): always an observed sample, never interpolated. A
// tail percentile is only meaningful when enough samples lie beyond it, so
// the report states whether each one it prints is supported.

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before the report calls it
/// supported (the choosing-metrics rule: at least ten).
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::span<const double> samples, double q);

/// 1-based nearest rank of the q-percentile among n samples (0 when n == 0).
[[nodiscard]] std::size_t nearest_rank(std::size_t n, double q);

/// Samples strictly beyond the q-percentile's rank: n - nearest_rank(n, q).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// True when at least kMinBeyond samples lie beyond the q-percentile.
[[nodiscard]] bool percentile_supported(std::size_t n, double q);

[[nodiscard]] double median(std::span<const double> samples);

/// Metric names: 1 to 64 characters from [A-Za-z0-9_.-], starting with a
/// letter or a digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

}  // namespace perfbench
