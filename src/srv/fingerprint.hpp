#pragma once
// Instance fingerprints for the batch result cache.
//
// Two requests hit the same cache entry exactly when they describe the
// same *input*: the same customers and the same antennas in the same
// order, and the same solver configuration (family, seed, iterations,
// portfolio). The solvers take entities in index order and break ties by
// index, so a reordered copy of an instance is a different input with its
// own answer, and it gets its own key. Text differences -- whitespace,
// float spelling, v1 vs v2 format when the extra columns are at their
// defaults -- do not change the fingerprint, because it hashes parsed,
// resolved values; any change to a demand, position, value, antenna spec,
// seed or solver family does.
//
// The 128-bit fingerprint hashes the entities in file order plus the
// solver key, in O(n). Signed zeros are collapsed (-0.0 hashes as +0.0);
// NaNs never reach this layer (model::io rejects them at parse time).

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/model/solution.hpp"

namespace sectorpack::srv {

/// 128-bit instance+config hash (two independently seeded 64-bit sequence
/// hashes; collisions are negligible at batch scale, and a verify pass on
/// every cache hit backstops them anyway).
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }

  /// 32 hex digits, for logs and responses.
  [[nodiscard]] std::string to_hex() const;
};

struct FingerprintHasher {
  [[nodiscard]] std::size_t operator()(const Fingerprint& fp) const noexcept {
    return static_cast<std::size_t>(fp.hi ^ (fp.lo * 0x9E3779B97F4A7C15ULL));
  }
};

/// The solver configuration that participates in the cache key. `seed` and
/// `iterations` only steer the annealing family today, and `portfolio`
/// (a comma-separated family list) only the race family, but all are
/// hashed for every family: a conservative key never serves a stale
/// result.
struct SolverKey {
  std::string family = "local-search";
  std::uint64_t seed = 1;
  std::uint64_t iterations = 2000;
  std::string portfolio;  // race only; empty = the default portfolio
};

/// An instance's cache identity. Only the fingerprint is left: the wrapper
/// and the two identity projections below remain because perfbench's traced
/// batch replay calls them, and ROADMAP item 7 deletes all three along
/// with its `srv.project` layer.
struct CanonicalInstance {
  Fingerprint fingerprint;
};

[[nodiscard]] CanonicalInstance canonicalize(const model::Instance& inst,
                                             const SolverKey& key);

/// Identity: the cache stores the solution as solved. Deleted by ROADMAP
/// item 7 together with the `srv.project` layer.
[[nodiscard]] model::Solution to_canonical(const CanonicalInstance& canon,
                                           const model::Solution& sol);

/// Identity: a hit is served exactly as stored. Deleted by ROADMAP item 7
/// together with the `srv.project` layer.
[[nodiscard]] model::Solution from_canonical(const CanonicalInstance& canon,
                                             const model::Solution& canonical);

}  // namespace sectorpack::srv
