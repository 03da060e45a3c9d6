#include "src/geom/angle.hpp"

namespace sectorpack::geom {

double normalize(double radians) noexcept {
  // fmod returns its argument exactly when |radians| < 2*pi, so the call is
  // skipped there; the steps below then see the same value either way.
  double a =
      std::fabs(radians) < kTwoPi ? radians : std::fmod(radians, kTwoPi);
  if (a < 0.0) a += kTwoPi;
  // Two boundary hazards around the multiples of 2*pi:
  //  * a tiny negative input (e.g. -1e-18) survives fmod unchanged, and the
  //    += kTwoPi correction rounds it up to exactly kTwoPi -- outside the
  //    documented half-open range; fold it back to 0.
  //  * fmod of -0.0 (and of exact negative multiples of 2*pi) yields -0.0,
  //    which skips the < 0.0 branch. -0.0 compares inside [0, 2*pi) but
  //    serializes as "-0" and flips signbit-sensitive callers; adding +0.0
  //    rewrites it to +0.0 and is exact for every other value.
  if (a >= kTwoPi) a = 0.0;
  return a + 0.0;
}

double ccw_delta(double from, double to) noexcept {
  return normalize(to - from);
}

double angular_distance(double a, double b) noexcept {
  const double d = ccw_delta(a, b);
  return d <= kPi ? d : kTwoPi - d;
}

bool angles_equal(double a, double b) noexcept {
  return angular_distance(a, b) <= kAngleEps;
}

}  // namespace sectorpack::geom
