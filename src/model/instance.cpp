#include "src/model/instance.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

namespace sectorpack::model {

namespace {

void validate_customer(const Customer& c) {
  if (!(c.demand > 0.0) || !std::isfinite(c.demand)) {
    throw std::invalid_argument("customer demand must be finite and > 0");
  }
  if (c.value != Customer::kValueIsDemand &&
      (!(c.value >= 0.0) || !std::isfinite(c.value))) {
    throw std::invalid_argument(
        "customer value must be finite and >= 0 (or kValueIsDemand)");
  }
}

void validate_antenna(const AntennaSpec& a) {
  if (!(a.rho > 0.0) || a.rho > geom::kTwoPi + geom::kAngleEps) {
    throw std::invalid_argument("antenna rho must be in (0, 2*pi]");
  }
  if (!(a.range > 0.0) || !std::isfinite(a.range)) {
    throw std::invalid_argument("antenna range must be finite and > 0");
  }
  if (a.capacity < 0.0 || !std::isfinite(a.capacity)) {
    throw std::invalid_argument("antenna capacity must be finite and >= 0");
  }
  if (a.min_range < 0.0 || a.min_range >= a.range ||
      !std::isfinite(a.min_range)) {
    throw std::invalid_argument("antenna min_range must be in [0, range)");
  }
}

}  // namespace

Instance::Instance(std::vector<Customer> customers,
                   std::vector<AntennaSpec> antennas)
    : customers_(std::move(customers)), antennas_(std::move(antennas)) {
  for (const Customer& c : customers_) validate_customer(c);
  for (const AntennaSpec& a : antennas_) validate_antenna(a);
  recompute_aggregates();
}

void Instance::recompute_aggregates() {
  thetas_.clear();
  radii_.clear();
  thetas_.reserve(customers_.size());
  radii_.reserve(customers_.size());
  for (const Customer& c : customers_) {
    const geom::Polar p = geom::to_polar(c.pos);
    thetas_.push_back(p.theta);
    radii_.push_back(p.r);
  }
  refold_scalars();
}

void Instance::refold_scalars() {
  demands_.clear();
  values_.clear();
  demands_.reserve(customers_.size());
  values_.reserve(customers_.size());
  total_demand_ = 0.0;
  total_value_ = 0.0;
  total_capacity_ = 0.0;
  value_weighted_ = false;
  // Left-fold in index order, matching what a fresh construction does, so
  // totals are bitwise reproducible (floating-point addition is not
  // associative; an incremental += after a removal would drift).
  for (const Customer& c : customers_) {
    double v = c.value;
    if (v == Customer::kValueIsDemand) {
      v = c.demand;
    } else if (v != c.demand) {
      value_weighted_ = true;
    }
    demands_.push_back(c.demand);
    values_.push_back(v);
    total_demand_ += c.demand;
    total_value_ += v;
  }
  for (const AntennaSpec& a : antennas_) total_capacity_ += a.capacity;
}

void Instance::drop_grid() noexcept {
  grid_.reset();
  // sp-sync: relaxed restart of the ski-rental counter; an off-by-a-few
  // build point is fine (see spatial_index()).
  grid_deferred_.value.store(0, std::memory_order_relaxed);
}

std::size_t Instance::add_customer(const Customer& c) {
  validate_customer(c);
  customers_.push_back(c);
  // Each polar coordinate is a pure function of its own customer: append
  // the one conversion instead of redoing the O(n) trig pass. Matches
  // what recompute_aggregates would produce element-for-element.
  const geom::Polar p = geom::to_polar(c.pos);
  thetas_.push_back(p.theta);
  radii_.push_back(p.r);
  refold_scalars();
  const std::size_t i = customers_.size() - 1;
  if (BandTable* t = bands_.peek_mut()) t->append(i, p.r);
  drop_grid();
  return i;
}

void Instance::remove_customer(std::size_t i) {
  if (i >= customers_.size()) {
    throw std::out_of_range("Instance::remove_customer: index out of range");
  }
  customers_.erase(customers_.begin() + static_cast<std::ptrdiff_t>(i));
  thetas_.erase(thetas_.begin() + static_cast<std::ptrdiff_t>(i));
  radii_.erase(radii_.begin() + static_cast<std::ptrdiff_t>(i));
  refold_scalars();
  if (BandTable* t = bands_.peek_mut()) t->erase(i);
  drop_grid();
}

void Instance::set_demand(std::size_t i, double demand) {
  if (i >= customers_.size()) {
    throw std::out_of_range("Instance::set_demand: index out of range");
  }
  Customer c = customers_[i];
  c.demand = demand;
  validate_customer(c);
  // Position unchanged: thetas_/radii_ stay, and with them the band
  // table, the grid and the deferral count.
  customers_[i] = c;
  refold_scalars();
}

std::size_t Instance::add_antenna(const AntennaSpec& a) {
  validate_antenna(a);
  antennas_.push_back(a);
  refold_scalars();
  // The band table lacks the new antenna's band. The grid would still
  // hold, but the ski-rental counter amortizes queries for *this* workload
  // shape; restarting it is the conservative reading and costs a handful
  // of band scans at most.
  bands_.reset();
  drop_grid();
  return antennas_.size() - 1;
}

Instance::BandTable::BandTable(std::span<const double> radii,
                               std::span<const AntennaSpec> antennas)
    : of(antennas.size()) {
  // Distinct bands in order of first appearance, keyed by the two bounds
  // in_range compares against (hoisted: the same products every time).
  std::map<std::pair<double, double>, std::size_t> seen;
  std::vector<std::size_t> scratch;
  for (std::size_t j = 0; j < antennas.size(); ++j) {
    const double lo = antennas[j].min_range * (1.0 - geom::kRadiusEps);
    const double hi = antennas[j].range * (1.0 + geom::kRadiusEps);
    const auto [it, fresh] = seen.emplace(std::pair{lo, hi}, lists.size());
    of[j] = it->second;
    if (!fresh) continue;
    bounds.emplace_back(lo, hi);
    // One pass in ascending customer order. It writes every index and
    // advances only past members, so it has no branch to mispredict (with
    // one, the pass over thin rings took three times as long); the spare
    // slot takes the writes after the last member.
    scratch.resize(radii.size() + 1);
    std::size_t* out = scratch.data();
    for (std::size_t i = 0; i < radii.size(); ++i) {
      *out = i;
      out += static_cast<std::size_t>((radii[i] <= hi) & (radii[i] >= lo));
    }
    lists.emplace_back(scratch.data(), out);
  }
}

void Instance::BandTable::append(std::size_t i, double r) {
  for (std::size_t l = 0; l < lists.size(); ++l) {
    if (r <= bounds[l].second && r >= bounds[l].first) lists[l].push_back(i);
  }
}

void Instance::BandTable::erase(std::size_t i) {
  for (std::vector<std::size_t>& list : lists) {
    // Indices below i keep their slots; from the first one >= i on, each
    // moves down a slot if i was a member and down a value either way.
    auto from = std::lower_bound(list.begin(), list.end(), i);
    auto to = from;
    if (from != list.end() && *from == i) ++from;
    for (; from != list.end(); ++from) *to++ = *from - 1;
    list.erase(to, list.end());
  }
}

std::span<const std::size_t> Instance::band(std::size_t j) const {
  const BandTable& t = bands_.get(radii_, antennas_);
  return t.lists[t.of[j]];
}

void Instance::in_range_customers(std::size_t j,
                                  std::vector<std::size_t>& out) const {
  const std::span<const std::size_t> members = band(j);
  out.assign(members.begin(), members.end());
}

const geom::PolarGrid& Instance::polar_grid() const {
  return grid_.get(thetas_, radii_);
}

const geom::PolarGrid* Instance::spatial_index() const {
  switch (geom::spatial_index_mode()) {
    case geom::SpatialIndexMode::kForceFlat:
      return nullptr;
    case geom::SpatialIndexMode::kForceIndexed:
      return &polar_grid();
    case geom::SpatialIndexMode::kAuto:
      break;
  }
  if (customers_.size() < geom::kSpatialIndexMinCustomers) return nullptr;
  if (const geom::PolarGrid* grid = grid_.peek()) return grid;
  // Deferral: answer from the bands until enough queries accumulated to
  // amortize the build.
  // sp-sync: relaxed counter -- an off-by-a-few build point is fine.
  if (grid_deferred_.value.fetch_add(1, std::memory_order_relaxed) <
      geom::kGridBuildAfterQueries) {
    return nullptr;
  }
  return &polar_grid();
}

bool Instance::antennas_identical() const noexcept {
  for (std::size_t j = 1; j < antennas_.size(); ++j) {
    if (antennas_[j].rho != antennas_[0].rho ||
        antennas_[j].range != antennas_[0].range ||
        antennas_[j].capacity != antennas_[0].capacity ||
        antennas_[j].min_range != antennas_[0].min_range) {
      return false;
    }
  }
  return true;
}

bool Instance::has_annular_antennas() const noexcept {
  for (const AntennaSpec& a : antennas_) {
    if (a.min_range > 0.0) return true;
  }
  return false;
}

bool Instance::is_angles_only() const {
  for (std::size_t j = 0; j < antennas_.size(); ++j) {
    if (band(j).size() != customers_.size()) return false;
  }
  return true;
}

}  // namespace sectorpack::model
