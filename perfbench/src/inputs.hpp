#pragma once
// Seeded input generators for the four workloads. Every input is a pure
// function of the --seed argument: the same seed yields byte-identical
// instance files, request lines and op streams, and the program under test
// receives only these generated inputs.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/model/instance.hpp"
#include "src/sim/rng.hpp"

namespace perfbench {

using sectorpack::model::AntennaSpec;
using sectorpack::model::Customer;
using sectorpack::model::Instance;

/// An independent random stream per (seed, purpose).
[[nodiscard]] sectorpack::sim::Rng stream(std::uint64_t seed,
                                          std::string_view purpose);

/// `k` thin annular ring antennas (radial width 3) at inner radii
/// first + j * spacing, with slowly growing beam and capacity -- the shape
/// bench_s2_serve uses. Distinct specs, so greedy keeps one window cache
/// per antenna.
[[nodiscard]] std::vector<AntennaSpec> thin_rings(std::size_t k, double first,
                                                  double spacing);

/// n customers uniform over a disk of radius 120, integer demands 1..10.
[[nodiscard]] std::vector<Customer> disk_customers(std::size_t n,
                                                   sectorpack::sim::Rng& rng);

/// cli_solve: 2e5 customers, 6 rings (the bench_s2_serve shape).
[[nodiscard]] Instance cli_solve_instance(std::uint64_t seed);
/// huge_solve: 1e6 customers, 16 rings.
[[nodiscard]] Instance huge_solve_instance(std::uint64_t seed);
/// serve_churn: 1e5 customers, 6 rings (the bench_s2_serve shape).
[[nodiscard]] Instance serve_churn_instance(std::uint64_t seed);

/// batch_mix: a set of small instances and a request stream over them.
struct BatchMix {
  struct Request {
    std::size_t instance = 0;
    std::string solver;
    std::uint64_t iterations = 2000;  // the request default
  };
  std::vector<Instance> instances;
  std::vector<Request> requests;
};

/// The solver families batch_mix requests.
[[nodiscard]] std::span<const char* const> batch_families();

[[nodiscard]] BatchMix batch_mix_input(std::uint64_t seed);

/// One batch request line naming an instance file.
[[nodiscard]] std::string request_line(std::size_t index,
                                       const std::string& instance_file,
                                       const BatchMix::Request& request);

/// serve_churn's client: produces the delta op stream for session "s0" and
/// keeps a shadow copy of the session's customer records, so the benchmark
/// can rebuild the post-delta instance a reply must match.
class ChurnClient {
 public:
  /// `initial` must be the instance exactly as the server parsed it.
  ChurnClient(std::uint64_t seed, const Instance& initial);

  /// The next op line, applied to the shadow: customer_add and
  /// customer_remove two fifths each, demand_set one fifth (on a customer
  /// whose value follows its demand).
  [[nodiscard]] std::string next_op();

  /// Ops produced so far.
  [[nodiscard]] std::size_t ops() const noexcept { return ops_; }
  /// A fresh instance built from the current shadow records.
  [[nodiscard]] Instance rebuild() const;
  /// min(total demand, total capacity) of the shadow -- what
  /// bounds::trivial_bound returns on rebuild() (integer demands keep the
  /// running sum exact).
  [[nodiscard]] double trivial_bound() const noexcept;

 private:
  sectorpack::sim::Rng rng_;
  std::vector<Customer> customers_;
  std::vector<AntennaSpec> antennas_;
  double total_demand_ = 0.0;
  double total_capacity_ = 0.0;
  std::size_t ops_ = 0;
};

/// The register op for serve_churn.
[[nodiscard]] std::string register_line(const std::string& instance_file);

}  // namespace perfbench
