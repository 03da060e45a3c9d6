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
// customer column <value>. to_string picks the smallest format that
// preserves the instance; the readers accept both.
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
// raises std::runtime_error naming the offending line. The number grammar
// is the one `operator>>` reads (docs/file_formats.md); the readers scan
// the whole text once with std::from_chars, and the writers format with
// std::to_chars at 17 significant digits, so doubles roundtrip bit-exactly.

#include <cstddef>
#include <string>

#include "src/model/solution.hpp"

namespace sectorpack::model {

/// Largest customer or antenna count the readers accept. No real instance
/// comes close; a larger header is a forgery trying to drive reserve()
/// into std::length_error / std::bad_alloc instead of a clean parse error.
/// `sectorpack generate` bounds --n and --k by it too, so it never writes
/// a file the reader rejects.
inline constexpr std::size_t kMaxIoCount = 100'000'000;

/// Read `path` whole and parse it as an instance; "-" reads stdin. Open and
/// parse failures both raise std::runtime_error naming the path, so callers
/// (the CLI, the batch engine) report one uniform error shape per request.
[[nodiscard]] Instance read_instance_file(const std::string& path);
/// The solution counterpart of read_instance_file.
[[nodiscard]] Solution read_solution_file(const std::string& path);

[[nodiscard]] std::string to_string(const Instance& inst);
[[nodiscard]] Instance instance_from_string(const std::string& text);
[[nodiscard]] std::string to_string(const Solution& sol);
[[nodiscard]] Solution solution_from_string(const std::string& text);

/// Append `sol` to `out` as it sits inside a JSON string: the bytes of
/// obs::json_escape(to_string(sol)), written in one pass. The solution
/// format's only character that JSON escapes is '\n'.
void append_solution_escaped(std::string& out, const Solution& sol);

}  // namespace sectorpack::model
