#pragma once
// Problem model for "Packing to angles and sectors".
//
// A base station at the origin, n customers in the plane with positive
// demands, and k directional antennas. Antenna j has angular width rho_j,
// range R_j and capacity c_j. A solution orients each antenna and assigns
// each customer to at most one antenna whose (oriented) sector contains it,
// subject to the antenna capacities; the objective is the served demand.
//
// Which customers antenna j can ever reach -- its radial band -- depends on
// (min_range_j, R_j) alone, never on the orientation; only the angular test
// moves with alpha_j. So the instance keeps one radial band table (built
// on first use, shared by every solve of the instance), and orientation-
// dependent queries test angles over a band instead of over all n
// customers.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/geom/polar_grid.hpp"
#include "src/geom/sector.hpp"
#include "src/geom/vec2.hpp"

namespace sectorpack::model {

struct Customer {
  geom::Vec2 pos;
  double demand = 1.0;
  /// Objective contribution when served (revenue / priority). Negative
  /// means "use the demand" -- the paper's base objective where served
  /// demand is what counts. Capacity is always consumed by `demand`.
  double value = kValueIsDemand;

  static constexpr double kValueIsDemand = -1.0;
};

struct AntennaSpec {
  double rho = geom::kTwoPi;  // angular width, radians, in (0, 2*pi]
  double range = 1.0;         // coverage radius R, > 0
  double capacity = 1.0;      // total demand the antenna can serve, >= 0
  /// Near-field dead zone: customers closer than this are NOT coverable by
  /// this antenna. 0 (the default) gives the paper's plain sector.
  double min_range = 0.0;
};

/// Immutable problem instance with cached polar coordinates.
///
/// Customer storage is SoA: theta/radius/demand/value live in separate
/// arrays (span accessors below) so bucket and sweep scans touch one dense
/// stream each; the `Customer` records remain available as a compatibility
/// view holding the Cartesian positions.
class Instance {
 public:
  Instance() = default;
  Instance(std::vector<Customer> customers, std::vector<AntennaSpec> antennas);

  [[nodiscard]] std::size_t num_customers() const noexcept {
    return customers_.size();
  }
  [[nodiscard]] std::size_t num_antennas() const noexcept {
    return antennas_.size();
  }

  [[nodiscard]] const Customer& customer(std::size_t i) const {
    return customers_[i];
  }
  [[nodiscard]] const AntennaSpec& antenna(std::size_t j) const {
    return antennas_[j];
  }
  [[nodiscard]] std::span<const Customer> customers() const noexcept {
    return customers_;
  }
  [[nodiscard]] std::span<const AntennaSpec> antennas() const noexcept {
    return antennas_;
  }

  /// Polar angle of customer i, normalized into [0, 2*pi).
  [[nodiscard]] double theta(std::size_t i) const { return thetas_[i]; }
  /// Distance of customer i from the base station.
  [[nodiscard]] double radius(std::size_t i) const { return radii_[i]; }
  [[nodiscard]] double demand(std::size_t i) const { return demands_[i]; }
  /// Objective contribution of customer i (== demand unless the instance
  /// is value-weighted).
  [[nodiscard]] double value(std::size_t i) const { return values_[i]; }
  [[nodiscard]] std::span<const double> thetas() const noexcept {
    return thetas_;
  }
  [[nodiscard]] std::span<const double> radii() const noexcept {
    return radii_;
  }
  [[nodiscard]] std::span<const double> demands() const noexcept {
    return demands_;
  }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }

  /// True when customer i is within antenna j's radial band
  /// [min_range, range] (radial test only; angle is orientation-dependent).
  [[nodiscard]] bool in_range(std::size_t i, std::size_t j) const {
    return radii_[i] <= antennas_[j].range * (1.0 + geom::kRadiusEps) &&
           radii_[i] >= antennas_[j].min_range * (1.0 - geom::kRadiusEps);
  }

  /// The sector covered by antenna j when oriented at `alpha`.
  [[nodiscard]] geom::Sector sector(std::size_t j, double alpha) const {
    return geom::Sector{alpha, antennas_[j].rho, antennas_[j].range,
                        antennas_[j].min_range};
  }

  /// True when some antenna has a near-field dead zone (min_range > 0).
  [[nodiscard]] bool has_annular_antennas() const noexcept;

  /// Indices of the customers in antenna j's radial band, ascending:
  /// exactly the i with in_range(i, j). The band table behind the span is
  /// built on first use, one pass over the radii per distinct band; the
  /// customer mutators keep it up to date, and a copy or add_antenna drops
  /// it. Antennas with equal (min_range, range) share one list.
  /// Thread-safe: concurrent first callers race to publish one table
  /// (losers discard theirs). The span stays valid until the instance is
  /// mutated, assigned or destroyed.
  [[nodiscard]] std::span<const std::size_t> band(std::size_t j) const;

  /// A copy of band(j) into `out`. Library code reads band(j); this stays
  /// for callers that want an owned vector.
  void in_range_customers(std::size_t j, std::vector<std::size_t>& out) const;

  /// The polar grid spatial index over the customers, built lazily on first
  /// use and cached for the instance's lifetime. Thread-safe like band().
  [[nodiscard]] const geom::PolarGrid& polar_grid() const;

  /// The grid if the crossover policy says an orientation-dependent sector
  /// query (assign::compute_eligibility) should use it right now, nullptr
  /// for the band path. Under kAuto the O(n log n) build is additionally
  /// deferred ski-rental style: the first geom::kGridBuildAfterQueries
  /// calls answer nullptr, and only an instance that keeps getting queried
  /// pays for a build -- a one-shot solve on a fresh instance (e.g. a shard
  /// sub-solve) never does. Forced modes bypass the deferral. Results are
  /// bit-identical either way; only wall time depends on the answer.
  /// Radial queries never come here: band() serves them in every mode.
  [[nodiscard]] const geom::PolarGrid* spatial_index() const;

  [[nodiscard]] double total_demand() const noexcept { return total_demand_; }
  [[nodiscard]] double total_value() const noexcept { return total_value_; }
  [[nodiscard]] double total_capacity() const noexcept {
    return total_capacity_;
  }

  /// True when some customer's objective value differs from its demand.
  /// Several bounds (the flow relaxations) are only valid on unweighted
  /// instances and check this.
  [[nodiscard]] bool is_value_weighted() const noexcept {
    return value_weighted_;
  }

  /// True when all antennas have the same (rho, range, capacity).
  [[nodiscard]] bool antennas_identical() const noexcept;

  /// True when every customer is within every antenna's range -- the
  /// "packing to angles" special case where radii are irrelevant. Reads
  /// (and so builds) the band table.
  [[nodiscard]] bool is_angles_only() const;

  // ------------------------------------------------------------- mutators
  //
  // Delta mutators for session serving (sectorpack serve). Each validates
  // its input exactly like the constructor (strong guarantee: throws
  // without mutating), applies the structural edit, then recomputes every
  // derived array and aggregate by replaying the constructor's loops --
  // same iteration order, same summation order -- so a mutated instance is
  // *bitwise* indistinguishable from one freshly constructed from the same
  // customer/antenna records (the serve byte-identity contract rests on
  // this). The band table follows each edit: add_customer and
  // remove_customer update its lists in place, set_demand moves no one and
  // leaves it alone, and add_antenna drops it (it lacks the new band).
  // add_customer and remove_customer also drop the polar grid, which views
  // the old SoA buffers, and restart the ski-rental deferral counter; a
  // demand edit keeps both, as it moves no customer.

  /// Append a customer; returns its index (== num_customers() - 1).
  std::size_t add_customer(const Customer& c);
  /// Remove customer `i`; customers above shift down by one (indices into
  /// any previously obtained Solution are stale). Throws std::out_of_range.
  void remove_customer(std::size_t i);
  /// Change customer `i`'s demand. A kValueIsDemand customer's objective
  /// value follows the new demand; an explicit value is left untouched
  /// (which can flip is_value_weighted() in either direction, exactly as a
  /// fresh construction would). Throws std::out_of_range /
  /// std::invalid_argument.
  void set_demand(std::size_t i, double demand);
  /// Append an antenna; returns its index (== num_antennas() - 1).
  std::size_t add_antenna(const AntennaSpec& a);

 private:
  /// Rebuild thetas_/radii_/demands_/values_, the totals, and the
  /// value-weighted flag from customers_/antennas_, replaying the
  /// constructor's order so results are bitwise identical to a fresh
  /// build. O(n + k) including a polar conversion per customer.
  void recompute_aggregates();
  /// The cheap half of recompute_aggregates: refold demands_/values_, the
  /// totals, and the value-weighted flag, leaving thetas_/radii_ alone
  /// (each is a pure per-customer function, so mutators maintain them
  /// element-wise). Same left-fold order as the constructor, so totals
  /// stay bitwise identical to a fresh build without the O(n) trig the
  /// full rebuild pays -- this is what keeps a serving delta on a big
  /// session cheap. Callers must have sized thetas_/radii_ to match
  /// customers_ already. O(n + k), additions and comparisons only.
  void refold_scalars();
  /// Drop the polar grid and restart the ski-rental counter.
  void drop_grid() noexcept;

  // A lazily built structure derived from the instance (the band table, the
  // polar grid), published once per owner. Readers see it immutable; only
  // the (non-const, exclusive) mutators edit it through peek_mut(). A plain
  // member type (instead of std::once_flag or a mutex) keeps Instance
  // copyable and movable: copies drop it (the grid views the copied-from
  // vectors' buffers), moves transfer it (vector moves keep the heap
  // buffers the grid views point into).
  template <class T>
  class Lazy {
   public:
    Lazy() noexcept = default;
    Lazy(const Lazy& /*other*/) noexcept {}
    Lazy(Lazy&& other) noexcept : ptr_(other.take()) {}
    Lazy& operator=(const Lazy& other) noexcept {
      if (this != &other) reset();
      return *this;
    }
    Lazy& operator=(Lazy&& other) noexcept {
      if (this != &other) {
        reset();
        ptr_.store(other.take(), std::memory_order_release);
      }
      return *this;
    }
    ~Lazy() { reset(); }

    /// The published value, or nullptr.
    [[nodiscard]] const T* peek() const noexcept {
      return ptr_.load(std::memory_order_acquire);
    }
    /// The published value for the owner's mutators to edit, or nullptr.
    [[nodiscard]] T* peek_mut() noexcept {
      return ptr_.load(std::memory_order_acquire);
    }
    /// The published value; without one, builds T(args...) and publishes
    /// it. Concurrent first callers each build, one publishes, and the
    /// others discard theirs and return the winner's.
    template <class... Args>
    const T& get(const Args&... args) const {
      if (const T* have = peek()) return *have;
      T* fresh = new T(args...);
      T* expected = nullptr;
      if (ptr_.compare_exchange_strong(expected, fresh,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return *fresh;
      }
      delete fresh;
      return *expected;
    }
    void reset() noexcept {
      delete ptr_.exchange(nullptr, std::memory_order_acq_rel);
    }

   private:
    T* take() noexcept {
      return ptr_.exchange(nullptr, std::memory_order_acq_rel);
    }
    mutable std::atomic<T*> ptr_{nullptr};
  };

  // One list per distinct radial band; antenna j reads lists[of[j]], whose
  // members have lo <= radius <= hi for bounds[of[j]] == {lo, hi}.
  struct BandTable {
    BandTable(std::span<const double> radii,
              std::span<const AntennaSpec> antennas);
    /// Customer i, the new last one, at radius r: appended to every list
    /// whose bounds hold r.
    void append(std::size_t i, double r);
    /// Customer i removed: dropped from its lists, and every higher index
    /// shifted down by one. One pass per list.
    void erase(std::size_t i);
    std::vector<std::size_t> of;
    std::vector<std::vector<std::size_t>> lists;
    std::vector<std::pair<double, double>> bounds;
  };

  // Sector queries answered by the band path while deferring the grid
  // build (see spatial_index). Not copied or moved: a new home means a new
  // amortization.
  struct QueryCount {
    mutable std::atomic<std::uint32_t> value{0};
    QueryCount() noexcept = default;
    QueryCount(const QueryCount& /*other*/) noexcept {}
    QueryCount& operator=(const QueryCount& /*other*/) noexcept {
      return *this;
    }
  };

  std::vector<Customer> customers_;
  std::vector<AntennaSpec> antennas_;
  std::vector<double> thetas_;
  std::vector<double> radii_;
  std::vector<double> demands_;
  std::vector<double> values_;  // resolved (kValueIsDemand -> demand)
  double total_demand_ = 0.0;
  double total_value_ = 0.0;
  double total_capacity_ = 0.0;
  bool value_weighted_ = false;
  // Last members: assigned after the vectors on copy/move.
  Lazy<BandTable> bands_;
  Lazy<geom::PolarGrid> grid_;
  QueryCount grid_deferred_;
};

/// Fluent helper for building instances in examples and tests.
class InstanceBuilder {
 public:
  InstanceBuilder& add_customer(double x, double y, double demand) {
    customers_.push_back({{x, y}, demand});
    return *this;
  }
  InstanceBuilder& add_customer_polar(double theta, double r, double demand) {
    customers_.push_back({geom::from_polar(theta, r), demand});
    return *this;
  }
  /// Value-weighted customer: `value` is the objective contribution,
  /// `demand` what it consumes from the serving antenna's capacity.
  InstanceBuilder& add_weighted_customer_polar(double theta, double r,
                                               double demand, double value) {
    customers_.push_back({geom::from_polar(theta, r), demand, value});
    return *this;
  }
  InstanceBuilder& add_antenna(double rho, double range, double capacity,
                               double min_range = 0.0) {
    antennas_.push_back({rho, range, capacity, min_range});
    return *this;
  }
  InstanceBuilder& add_identical_antennas(std::size_t k, double rho,
                                          double range, double capacity) {
    for (std::size_t j = 0; j < k; ++j) add_antenna(rho, range, capacity);
    return *this;
  }
  [[nodiscard]] Instance build() const { return {customers_, antennas_}; }

 private:
  std::vector<Customer> customers_;
  std::vector<AntennaSpec> antennas_;
};

}  // namespace sectorpack::model
