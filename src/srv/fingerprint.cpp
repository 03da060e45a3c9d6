#include "src/srv/fingerprint.hpp"

#include <array>
#include <bit>

#include "src/model/instance.hpp"

namespace sectorpack::srv {

namespace {

// splitmix64 finalizer: the standard full-avalanche 64-bit mixer.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Hash a double by bit pattern, with -0.0 collapsed onto +0.0 so the two
// presentations of zero (which compare equal and are interchangeable in
// every solver) share a fingerprint. Integer compare, no float-eq.
std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  constexpr std::uint64_t kNegativeZero = 0x8000000000000000ULL;
  if (bits == kNegativeZero) bits = 0;
  return bits;
}

// Order-dependent sequence hash: the fingerprint follows file order.
class SeqHash {
 public:
  explicit SeqHash(std::uint64_t seed) : h_(mix64(seed)) {}

  void update(std::uint64_t v) noexcept { h_ = mix64(h_ ^ v) + 0x1D8E4E27C47D124FULL; }
  void update_double(double v) noexcept { update(double_bits(v)); }
  void update_bytes(const std::string& s) noexcept {
    update(s.size());
    std::uint64_t acc = 0;
    int n = 0;
    for (const char c : s) {
      acc = (acc << 8) | static_cast<unsigned char>(c);
      if (++n == 8) {
        update(acc);
        acc = 0;
        n = 0;
      }
    }
    if (n > 0) update(acc);
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return mix64(h_); }

 private:
  std::uint64_t h_;
};

}  // namespace

std::string Fingerprint::to_hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = kHex[(hi >> (4 * i)) & 0xF];
    out[static_cast<std::size_t>(31 - i)] = kHex[(lo >> (4 * i)) & 0xF];
  }
  return out;
}

CanonicalInstance canonicalize(const model::Instance& inst,
                               const SolverKey& key) {
  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();
  // Two independently seeded sequence hashes over identical input = one
  // 128-bit fingerprint.
  std::array<SeqHash, 2> h{SeqHash{0x5EC7095AC4ULL}, SeqHash{0xBA7C4C0DEULL}};
  for (SeqHash& hash : h) {
    hash.update(n);
    for (std::size_t i = 0; i < n; ++i) {
      const model::Customer& c = inst.customer(i);
      hash.update_double(c.pos.x);
      hash.update_double(c.pos.y);
      hash.update_double(c.demand);
      // Resolved value (kValueIsDemand -> demand), so a v1 file and a v2
      // file spelling the default explicitly hash identically.
      hash.update_double(inst.value(i));
    }
    hash.update(k);
    for (std::size_t j = 0; j < k; ++j) {
      const model::AntennaSpec& a = inst.antenna(j);
      hash.update_double(a.rho);
      hash.update_double(a.range);
      hash.update_double(a.capacity);
      hash.update_double(a.min_range);
    }
    hash.update_bytes(key.family);
    hash.update(key.seed);
    hash.update(key.iterations);
    hash.update_bytes(key.portfolio);
  }
  return {{h[0].digest(), h[1].digest()}};
}

model::Solution to_canonical(const CanonicalInstance& /*canon*/,
                             const model::Solution& sol) {
  return sol;
}

model::Solution from_canonical(const CanonicalInstance& /*canon*/,
                               const model::Solution& canonical) {
  return canonical;
}

}  // namespace sectorpack::srv
