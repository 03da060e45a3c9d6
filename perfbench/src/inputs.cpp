#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "report.hpp"
#include "src/geom/angle.hpp"
#include "src/geom/vec2.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/generators.hpp"

namespace perfbench {

namespace sim = sectorpack::sim;
namespace geom = sectorpack::geom;

namespace {

constexpr double kDiskRadius = 120.0;

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Instance ring_instance(std::uint64_t seed, std::string_view purpose,
                       std::size_t n, std::vector<AntennaSpec> rings) {
  sim::Rng rng = stream(seed, purpose);
  return Instance(disk_customers(n, rng), std::move(rings));
}

}  // namespace

sim::Rng stream(std::uint64_t seed, std::string_view purpose) {
  return sim::Rng(seed ^ (fnv1a(purpose) * 0x9E3779B97F4A7C15ULL));
}

std::vector<AntennaSpec> thin_rings(std::size_t k, double first,
                                    double spacing) {
  std::vector<AntennaSpec> rings;
  for (std::size_t j = 0; j < k; ++j) {
    const auto jd = static_cast<double>(j);
    AntennaSpec spec;
    spec.rho = 0.7 + 0.05 * jd;
    spec.min_range = first + spacing * jd;
    spec.range = spec.min_range + 3.0;
    spec.capacity = 60.0 + 10.0 * jd;
    rings.push_back(spec);
  }
  return rings;
}

std::vector<Customer> disk_customers(std::size_t n, sim::Rng& rng) {
  sim::WorkloadConfig wl;
  wl.num_customers = n;
  wl.disk_radius = kDiskRadius;
  wl.demand = sim::DemandDist::kUniformInt;
  wl.demand_min = 1;
  wl.demand_max = 10;
  return sim::generate_customers(wl, rng);
}

Instance cli_solve_instance(std::uint64_t seed) {
  return ring_instance(seed, "cli_solve", 200'000, thin_rings(6, 20.0, 16.0));
}

Instance huge_solve_instance(std::uint64_t seed) {
  return ring_instance(seed, "huge_solve", 1'000'000,
                       thin_rings(16, 12.0, 6.5));
}

Instance serve_churn_instance(std::uint64_t seed) {
  return ring_instance(seed, "serve_churn", 100'000,
                       thin_rings(6, 20.0, 16.0));
}

std::span<const char* const> batch_families() {
  static constexpr const char* kFamilies[] = {"greedy", "local-search",
                                              "uniform", "annealing", "race"};
  return kFamilies;
}

BatchMix batch_mix_input(std::uint64_t seed) {
  // 96 instances whose shapes come from fixed ladders, so every seed asks
  // for about the same work and only the customers (positions, demands)
  // and the request order vary: 250..2000 customers, 3..6 antennas. Even
  // instances saturate (wide beams, total capacity a fifth of the demand:
  // greedy usually packs every antenna full, which is trivial_bound, so
  // race stops after its greedy lane) and cycle through every spatial
  // shape. Odd ones have spare capacity and narrow beams (the bound is out
  // of reach, so race starts its Phase-B lanes) and spread their customers
  // (disk or ring): a narrow beam on a hotspot or arc band makes a solve
  // up to 20x slower, and a handful of such requests would decide a
  // pass's time alone.
  constexpr std::size_t kInstances = 96;
  constexpr sim::Spatial kShapes[] = {
      sim::Spatial::kUniformDisk, sim::Spatial::kHotspots,
      sim::Spatial::kRing, sim::Spatial::kArcBand};
  sim::Rng rng = stream(seed, "batch_mix");
  BatchMix mix;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const bool saturating = i % 2 == 0;
    // Two fixed permutations of an even ladder over [0, 1].
    const double size_step = static_cast<double>((i * 37) % kInstances) / 95.0;
    const double beam_step = static_cast<double>((i * 53) % kInstances) / 95.0;
    sim::WorkloadConfig wl;
    wl.num_customers = 250 + static_cast<std::size_t>(1750.0 * size_step);
    wl.spatial = saturating ? kShapes[(i / 2) % 4] : kShapes[(i / 2) % 2 * 2];
    wl.demand = sim::DemandDist::kUniformInt;
    wl.demand_min = 1;
    wl.demand_max = 10;
    wl.band_center = rng.uniform(0.0, geom::kTwoPi);
    sim::AntennaConfig ac;
    ac.count = 3 + (i / 8) % 4;
    ac.range = 250.0;
    ac.rho = saturating ? geom::kPi / 3.0 + 2.0 * geom::kPi / 3.0 * beam_step
                        : geom::kPi / 16.0 + geom::kPi / 16.0 * beam_step;
    ac.capacity_fraction = saturating ? 0.2 : 1.5;
    mix.instances.push_back(sim::make_instance(wl, ac, rng));
  }

  // 250 requests: 150 distinct (instance, solver) keys -- more than the
  // result cache's 128 entries, so it evicts -- 30 per family over
  // instances spread across the ladders, and 100 exact resubmissions of a
  // request 48..112 lines earlier. The engine admits a line only after
  // every line 40 or more before it was answered (its reorder window), and
  // fewer than 128 other keys come between, so each resubmission hits the
  // cache. The order is fixed (a stride permutation), so a seed changes
  // what each request solves, not where the slow ones queue. Annealing,
  // alone or as a race lane, runs 100 iterations instead of 2000, so a
  // pass of the stream takes about a second on four workers.
  constexpr std::size_t kPerFamily = 30;
  constexpr std::size_t kResubmit = 100;
  constexpr std::size_t kFirstResubmit = 112;
  constexpr std::uint64_t kAnnealIterations = 100;
  const std::span<const char* const> families = batch_families();
  const std::size_t distinct = families.size() * kPerFamily;
  std::vector<BatchMix::Request> fresh;
  for (std::size_t j = 0; j < distinct; ++j) {
    const std::size_t key = (j * 67) % distinct;  // 67 is prime to 150
    const std::size_t f = key % families.size();
    BatchMix::Request req{(f * 19 + 3 * (key / families.size())) % kInstances,
                          families[f]};
    if (req.solver == "annealing" || req.solver == "race") {
      req.iterations = kAnnealIterations;
    }
    fresh.push_back(std::move(req));
  }
  // Past the first 112 lines the resubmissions spread evenly over the
  // remaining 138, between the last 38 fresh keys.
  const std::size_t total = distinct + kResubmit;
  const std::size_t span = total - kFirstResubmit;
  std::size_t next = 0;
  for (std::size_t at = 0; at < total; ++at) {
    const std::size_t k = at - std::min(at, kFirstResubmit);
    const bool resubmit = at >= kFirstResubmit &&
                          (k + 1) * kResubmit / span > k * kResubmit / span;
    if (resubmit) {
      const std::size_t back = 48 + (at * 29) % 65;
      mix.requests.push_back(mix.requests[at - back]);
    } else {
      mix.requests.push_back(fresh[next++]);
    }
  }
  return mix;
}

std::string request_line(std::size_t index, const std::string& instance_file,
                         const BatchMix::Request& request) {
  std::ostringstream os;
  os << "{\"id\":\"r" << index << "\",\"instance_file\":\""
     << sectorpack::obs::json_escape(instance_file) << "\",\"solver\":\""
     << sectorpack::obs::json_escape(request.solver)
     << "\",\"iterations\":" << request.iterations << "}";
  return os.str();
}

ChurnClient::ChurnClient(std::uint64_t seed, const Instance& initial)
    : rng_(stream(seed, "serve_churn.ops")),
      customers_(initial.customers().begin(), initial.customers().end()),
      antennas_(initial.antennas().begin(), initial.antennas().end()) {
  for (const Customer& c : customers_) total_demand_ += c.demand;
  for (const AntennaSpec& a : antennas_) total_capacity_ += a.capacity;
}

std::string ChurnClient::next_op() {
  ++ops_;
  const std::uint64_t kind = rng_.uniform_int(std::uint64_t{5});
  const std::size_t n = customers_.size();
  std::size_t i = n == 0 ? 0 : static_cast<std::size_t>(
                                   rng_.uniform_int(std::uint64_t{n}));
  if (kind == 4) {
    // demand_set only moves customers whose value follows their demand:
    // the instance file carries an explicit value column (annular antennas
    // force format v2), and a demand_set on such a customer leaves its old
    // value behind, which would turn the instance value-weighted as the
    // run goes on. Customers this client added follow their demand.
    std::size_t scanned = 0;
    while (scanned < n && customers_[i].value != Customer::kValueIsDemand) {
      i = i + 1 == n ? 0 : i + 1;
      ++scanned;
    }
    if (scanned == n) i = n;  // none yet: add one instead
  }
  std::ostringstream os;
  os << "{\"op\":\"";
  if (kind < 2 || n == 0 || (kind == 4 && i == n)) {
    Customer c;
    c.pos = geom::from_polar(rng_.uniform(0.0, geom::kTwoPi),
                             kDiskRadius * std::sqrt(rng_.uniform01()));
    c.demand = static_cast<double>(rng_.uniform_int(1, 10));
    customers_.push_back(c);
    total_demand_ += c.demand;
    os << "customer_add\",\"session\":\"s0\",\"x\":"
       << full_precision(c.pos.x) << ",\"y\":" << full_precision(c.pos.y)
       << ",\"demand\":" << full_precision(c.demand) << "}";
  } else if (kind < 4) {
    total_demand_ -= customers_[i].demand;
    customers_.erase(customers_.begin() + static_cast<std::ptrdiff_t>(i));
    os << "customer_remove\",\"session\":\"s0\",\"customer\":" << i << "}";
  } else {
    const auto demand = static_cast<double>(rng_.uniform_int(1, 10));
    total_demand_ += demand - customers_[i].demand;
    customers_[i].demand = demand;
    os << "demand_set\",\"session\":\"s0\",\"customer\":" << i
       << ",\"demand\":" << full_precision(demand) << "}";
  }
  return os.str();
}

Instance ChurnClient::rebuild() const {
  return Instance(customers_, antennas_);
}

double ChurnClient::trivial_bound() const noexcept {
  return std::min(total_demand_, total_capacity_);
}

std::string register_line(const std::string& instance_file) {
  return "{\"op\":\"register\",\"solver\":\"greedy\",\"instance_file\":\"" +
         sectorpack::obs::json_escape(instance_file) + "\"}";
}

}  // namespace perfbench
