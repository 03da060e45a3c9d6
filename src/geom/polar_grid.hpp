#pragma once
// Polar grid spatial index: angular wedges x annular rings over a point set
// given in polar coordinates.
//
// The query it answers: which customers does this (annular) sector cover?
// That is assign::compute_eligibility's question for each antenna at fixed
// orientations, asked once per local-search reassignment and once per
// annealing iteration. The radial half of it -- which customers have radius
// in [r_lo, r_hi] -- depends on no orientation, so model::Instance answers
// it once per instance with its band table (Instance::band), and the band
// path then tests angles over one band. The grid instead buckets customers
// into W uniform angular wedges x R annular rings (ring edges at radius
// quantiles, so the median radius is an edge and clustered workloads --
// ring roads, hotspots -- stay balanced) and answers a sector query by
// touching only the buckets its arc and band overlap.
//
// Bit-identity contract. Grid queries are *conservative bucket pruning plus
// the exact flat predicate*: candidate buckets are chosen so that every
// point satisfying the query predicate is in some candidate bucket, then
// each candidate is re-tested with the same floating-point comparison the
// flat scan performs, and results are returned in ascending point index --
// the exact vector the flat loop produces. Downstream solver behavior is
// therefore independent of which path ran; the crossover below is purely a
// performance knob.
//
// Lifetime: the grid stores *views* of the theta/radius arrays it was built
// over; the caller keeps those arrays alive and unchanged (model::Instance
// is immutable and owns both).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/geom/angle.hpp"
#include "src/geom/sector.hpp"

namespace sectorpack::geom {

/// Global crossover control for the two flat-vs-indexed call sites: the
/// sector query (the band path or the grid, model::Instance::spatial_index)
/// and WindowSweep's sort. kAuto uses the size threshold below; the force
/// modes pin one path (outputs are bit-identical either way, so this is
/// safe as a process-wide setting -- it exists for benchmarks, tests, and
/// the check.sh byte-identity gate).
enum class SpatialIndexMode { kAuto, kForceFlat, kForceIndexed };

void set_spatial_index_mode(SpatialIndexMode mode) noexcept;
[[nodiscard]] SpatialIndexMode spatial_index_mode() noexcept;

/// Crossover threshold: below this many points a flat scan's single pass
/// beats building/probing the grid (the scan is branch-predictable and the
/// grid's candidate sort costs m log m); above it bucket pruning wins.
/// Measured on bench_f7_huge -- the win at 1e6 is >5x, the loss at 1e3 is
/// noise-level, so the exact value is not sensitive.
inline constexpr std::size_t kSpatialIndexMinCustomers = 4096;

/// True when call sites should take the indexed path for n points under the
/// current mode.
[[nodiscard]] bool use_spatial_index(std::size_t n) noexcept;

/// Build deferral under kAuto (model::Instance::spatial_index): an
/// instance's grid is built only after this many sector queries ran on the
/// band path, so a one-shot solve never pays the O(n log n) build for a
/// handful of band scans. Ski-rental: by the time the build happens, at
/// most ~this many scans were "wasted", within a constant factor of the
/// offline-optimal choice whatever the final query count turns out to be.
inline constexpr std::uint32_t kGridBuildAfterQueries = 32;

class PolarGrid {
 public:
  /// Build over points (thetas[i], radii[i]). Thetas may be any finite
  /// angles (binning normalizes); radii must be what the query predicates
  /// will be compared against (model::Instance's cached polar radii).
  /// O(n log n): one sort of the radii for quantile ring edges, one
  /// counting sort into cells.
  PolarGrid(std::span<const double> thetas, std::span<const double> radii);

  [[nodiscard]] std::size_t num_points() const noexcept {
    return radii_.size();
  }
  [[nodiscard]] std::size_t num_wedges() const noexcept { return wedges_; }
  [[nodiscard]] std::size_t num_rings() const noexcept { return rings_; }

  /// Point indices of one (ring, wedge) cell, ascending. The cell iterator
  /// primitive collect_sector is built on; exposed for tests and for
  /// callers that want custom bucket walks.
  [[nodiscard]] std::span<const std::size_t> cell(std::size_t ring,
                                                  std::size_t wedge) const {
    const std::size_t c = ring * wedges_ + wedge;
    return {items_.data() + cell_start_[c], cell_start_[c + 1] - cell_start_[c]};
  }

  /// Indices i with sector.contains({thetas[i], radii[i]}) -- the exact
  /// predicate of the flat eligibility scan. `out` is cleared and filled
  /// ascending.
  void collect_sector(const Sector& sector,
                      std::vector<std::size_t>& out) const;

 private:
  [[nodiscard]] std::size_t ring_of(double r) const noexcept;
  [[nodiscard]] std::size_t wedge_of(double theta_normalized) const noexcept;

  std::span<const double> thetas_;
  std::span<const double> radii_;
  std::size_t wedges_ = 0;
  std::size_t rings_ = 0;
  double inv_wedge_width_ = 0.0;
  std::vector<double> ring_edges_;       // rings_+1, edges_[0]=0, last=+inf
  std::vector<std::size_t> cell_start_;  // CSR offsets, ring-major
  std::vector<std::size_t> items_;       // point indices, ascending per cell
  std::vector<std::size_t> origin_;      // indices with radius exactly 0.0
};

}  // namespace sectorpack::geom
