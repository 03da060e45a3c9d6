#include "src/geom/polar_grid.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "src/obs/metrics.hpp"

namespace sectorpack::geom {

namespace {

std::atomic<SpatialIndexMode> g_spatial_mode{SpatialIndexMode::kAuto};

// Out of line for the same reason as record_sweep_build: keep static-init
// guards and counter calls away from the query loops' codegen.
[[gnu::noinline]] void record_grid_build(std::size_t points,
                                         std::size_t wedges,
                                         std::size_t rings) {
  static const obs::Counter c_builds = obs::counter("grid.builds");
  static const obs::Counter c_points = obs::counter("grid.points");
  static const obs::Counter c_cells = obs::counter("grid.cells");
  c_builds.inc();
  c_points.add(points);
  c_cells.add(wedges * rings);
}

[[gnu::noinline]] void record_sector_query(std::size_t tested,
                                           std::size_t results) {
  static const obs::Counter c_queries = obs::counter("grid.queries.sector");
  static const obs::Counter c_tested = obs::counter("grid.candidates");
  static const obs::Counter c_results = obs::counter("grid.results");
  c_queries.inc();
  c_tested.add(tested);
  c_results.add(results);
}

std::size_t next_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

// sp-sync: relaxed config knob; set once at CLI startup before solving
// begins, and a reader seeing the old mode momentarily would only take the
// (equally correct, byte-identical) other query path.
void set_spatial_index_mode(SpatialIndexMode mode) noexcept {
  g_spatial_mode.store(mode, std::memory_order_relaxed);
}

SpatialIndexMode spatial_index_mode() noexcept {
  return g_spatial_mode.load(std::memory_order_relaxed);
}

bool use_spatial_index(std::size_t n) noexcept {
  switch (spatial_index_mode()) {
    case SpatialIndexMode::kForceFlat: return false;
    case SpatialIndexMode::kForceIndexed: return n > 0;
    case SpatialIndexMode::kAuto: break;
  }
  return n >= kSpatialIndexMinCustomers;
}

PolarGrid::PolarGrid(std::span<const double> thetas,
                     std::span<const double> radii)
    : thetas_(thetas), radii_(radii) {
  const std::size_t n = radii.size();

  // Auto-tuning. Wedges: ~sqrt(n), power of two so the candidate-wedge walk
  // of narrow arcs stays short relative to a whole ring. Rings: keep mean
  // cell occupancy around 8 points -- a sector query re-tests every
  // candidate cell of each ring its band touches, so ring thickness
  // (n / rings) bounds the per-query candidate count for thin radial bands;
  // quantile edges (below) make the occupancy hold for clustered radii too.
  // The clamps keep degenerate sizes sane: tiny inputs only reach here
  // under kForceIndexed.
  wedges_ = std::clamp<std::size_t>(next_pow2(static_cast<std::size_t>(
                                        std::sqrt(static_cast<double>(n)))),
                                    8, 1024);
  const std::size_t target_rings =
      std::clamp<std::size_t>(n / (wedges_ * 8), 4, 256);
  inv_wedge_width_ = static_cast<double>(wedges_) / kTwoPi;

  // Ring edges at radius quantiles: edge k is the k/R-quantile of the
  // (finite) radii, so the median radius is the middle edge and every ring
  // holds ~n/R points whatever the radial distribution. Duplicate quantiles
  // (mass concentrated at one radius) collapse; the sentinel +inf edge
  // catches everything above the top quantile, including non-finite radii
  // (which every query predicate then rejects, exactly as the flat scan
  // does).
  std::vector<double> sorted;
  sorted.reserve(n);
  for (double r : radii_) {
    if (std::isfinite(r) && r >= 0.0) sorted.push_back(r);
  }
  std::sort(sorted.begin(), sorted.end());
  ring_edges_.push_back(0.0);
  for (std::size_t k = 1; k < target_rings && !sorted.empty(); ++k) {
    const double e = sorted[(k * sorted.size()) / target_rings];
    if (e > ring_edges_.back()) ring_edges_.push_back(e);
  }
  ring_edges_.push_back(std::numeric_limits<double>::infinity());
  rings_ = ring_edges_.size() - 1;

  // Counting sort into ring-major cells; filling in ascending point index
  // keeps every cell's list ascending, which is what lets queries return
  // flat-scan order after one final sort of the (small) result set.
  const std::size_t cells = wedges_ * rings_;
  cell_start_.assign(cells + 1, 0);
  std::vector<std::size_t> cell_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = radii_[i];
    const double t = thetas_[i];
    const std::size_t w =
        std::isfinite(t) ? wedge_of(normalize(t)) : std::size_t{0};
    cell_of[i] = ring_of(r) * wedges_ + w;
    ++cell_start_[cell_of[i] + 1];
    if (r == 0.0) origin_.push_back(i);
  }
  for (std::size_t c = 0; c < cells; ++c) cell_start_[c + 1] += cell_start_[c];
  items_.resize(n);
  std::vector<std::size_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) items_[cursor[cell_of[i]]++] = i;

  record_grid_build(n, wedges_, rings_);
}

std::size_t PolarGrid::ring_of(double r) const noexcept {
  if (!std::isfinite(r) || r < 0.0) return rings_ - 1;
  const auto first = ring_edges_.begin() + 1;
  return static_cast<std::size_t>(
      std::upper_bound(first, ring_edges_.end(), r) - first);
}

std::size_t PolarGrid::wedge_of(double theta_normalized) const noexcept {
  const std::size_t w =
      static_cast<std::size_t>(theta_normalized * inv_wedge_width_);
  return w < wedges_ ? w : wedges_ - 1;
}

void PolarGrid::collect_sector(const Sector& sector,
                               std::vector<std::size_t>& out) const {
  out.clear();
  if (radii_.empty()) return;
  std::size_t tested = 0;

  // Points exactly at the origin pass Sector::contains regardless of angle
  // (once the radial band admits r == 0), so their wedge is meaningless;
  // test them unconditionally and skip them in the cell walk below.
  for (std::size_t idx : origin_) {
    ++tested;
    if (sector.contains(Polar{thetas_[idx], radii_[idx]})) out.push_back(idx);
  }

  const double band_hi = sector.radius() * (1.0 + kRadiusEps);
  const double band_lo = sector.min_radius() * (1.0 - kRadiusEps);
  const std::size_t k0 = ring_of(std::max(band_lo, 0.0));
  const std::size_t k1 = ring_of(std::max(band_hi, 0.0));

  // Candidate wedges: Arc::contains accepts angles in
  // [start - kAngleEps, start + width + kAngleEps], so cover that span plus
  // slack for wedge_of's floating-point rounding at bucket boundaries (one
  // extra wedge on each side). Conservative only -- every candidate is
  // re-tested with the exact predicate.
  const Arc& arc = sector.arc();
  std::size_t w0 = 0;
  std::size_t nw = wedges_;
  const double coverage = arc.width() + 2.0 * kAngleEps;
  if (!arc.is_full() && coverage < kTwoPi) {
    nw = static_cast<std::size_t>(coverage * inv_wedge_width_) + 3;
    if (nw >= wedges_) {
      nw = wedges_;
      w0 = 0;
    } else {
      w0 = wedge_of(normalize(arc.start() - kAngleEps));
      w0 = (w0 + wedges_ - 1) % wedges_;
      ++nw;
    }
  }

  for (std::size_t k = k0; k <= k1; ++k) {
    for (std::size_t t = 0; t < nw; ++t) {
      std::size_t w = w0 + t;
      if (w >= wedges_) w -= wedges_;
      for (std::size_t idx : cell(k, w)) {
        if (radii_[idx] == 0.0) continue;  // handled via origin_ above
        ++tested;
        if (sector.contains(Polar{thetas_[idx], radii_[idx]})) {
          out.push_back(idx);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  record_sector_query(tested, out.size());
}

}  // namespace sectorpack::geom
