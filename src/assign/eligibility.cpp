#include <stdexcept>

#include "src/assign/assign.hpp"
#include "src/geom/polar_grid.hpp"

namespace sectorpack::assign {

Eligibility compute_eligibility(const model::Instance& inst,
                                std::span<const double> alphas) {
  if (alphas.size() != inst.num_antennas()) {
    throw std::invalid_argument("compute_eligibility: alphas size mismatch");
  }
  Eligibility e;
  e.per_antenna.resize(inst.num_antennas());
  const geom::PolarGrid* grid = inst.spatial_index();
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    const geom::Sector sec = inst.sector(j, alphas[j]);
    if (grid != nullptr) {
      grid->collect_sector(sec, e.per_antenna[j]);
      continue;
    }
    // A customer outside j's band fails the sector's radial test, so
    // testing the band alone finds every member, in ascending order.
    for (const std::size_t i : inst.band(j)) {
      if (sec.contains(geom::Polar{inst.theta(i), inst.radius(i)})) {
        e.per_antenna[j].push_back(i);
      }
    }
  }
  return e;
}

std::vector<std::vector<std::int32_t>> per_customer(const Eligibility& e,
                                                    std::size_t num_customers) {
  std::vector<std::vector<std::int32_t>> lists(num_customers);
  for (std::size_t j = 0; j < e.per_antenna.size(); ++j) {
    for (const std::size_t i : e.per_antenna[j]) {
      lists[i].push_back(static_cast<std::int32_t>(j));
    }
  }
  return lists;
}

}  // namespace sectorpack::assign
