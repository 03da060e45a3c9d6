#pragma once
// Plain-text serialization of instances and solutions.
//
// Instance format (line oriented, '#' starts a comment):
//   sectorpack-instance v1
//   customers <n>
//   <x> <y> <demand>          (n lines)
//   antennas <k>
//   <rho> <range> <capacity>  (k lines)
//
// Value-weighted instances use header "sectorpack-instance v2" and a fourth
// customer column <value>. write_instance picks the smallest format that
// preserves the instance; read_instance accepts both.
//
// Solution format:
//   sectorpack-solution v1
//   status budget_exhausted   (optional; absent means complete)
//   alphas <k>
//   <alpha>                   (k lines)
//   assign <n>
//   <antenna index or -1>     (n lines)
//
// Parsing is strict: counts are bounded (no forged-header allocations),
// and every line must contain exactly its expected fields -- trailing
// tokens are a parse error, not silently ignored. All malformed input
// raises std::runtime_error naming the offending line.

#include <cstddef>
#include <iosfwd>
#include <string>

#include "src/model/solution.hpp"

namespace sectorpack::model {

/// Largest customer or antenna count the readers accept. No real instance
/// comes close; a larger header is a forgery trying to drive reserve()
/// into std::length_error / std::bad_alloc instead of a clean parse error.
/// `sectorpack generate` bounds --n and --k by it too, so it never writes
/// a file the reader rejects.
inline constexpr std::size_t kMaxIoCount = 100'000'000;

void write_instance(std::ostream& os, const Instance& inst);
[[nodiscard]] Instance read_instance(std::istream& is);

/// Open `path` and parse it as an instance; "-" reads stdin. Open and parse
/// failures both raise std::runtime_error naming the path, so callers (the
/// CLI, the batch engine) report one uniform error shape per request.
[[nodiscard]] Instance read_instance_file(const std::string& path);

void write_solution(std::ostream& os, const Solution& sol);
[[nodiscard]] Solution read_solution(std::istream& is);

[[nodiscard]] std::string to_string(const Instance& inst);
[[nodiscard]] Instance instance_from_string(const std::string& text);
[[nodiscard]] std::string to_string(const Solution& sol);
[[nodiscard]] Solution solution_from_string(const std::string& text);

}  // namespace sectorpack::model
