#include "src/geom/angle.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/sim/rng.hpp"

namespace geom = sectorpack::geom;

namespace {

// normalize as it was before it skipped fmod below 2*pi: the reference the
// shortcut must match bit for bit.
double normalize_with_fmod(double radians) {
  double a = std::fmod(radians, geom::kTwoPi);
  if (a < 0.0) a += geom::kTwoPi;
  if (a >= geom::kTwoPi) a = 0.0;
  return a + 0.0;
}

}  // namespace

TEST(Angle, NormalizeBasics) {
  EXPECT_DOUBLE_EQ(geom::normalize(0.0), 0.0);
  EXPECT_DOUBLE_EQ(geom::normalize(geom::kTwoPi), 0.0);
  EXPECT_DOUBLE_EQ(geom::normalize(-geom::kTwoPi), 0.0);
  EXPECT_NEAR(geom::normalize(geom::kPi), geom::kPi, 1e-15);
  EXPECT_NEAR(geom::normalize(-geom::kPi), geom::kPi, 1e-15);
  EXPECT_NEAR(geom::normalize(3.0 * geom::kPi), geom::kPi, 1e-12);
}

TEST(Angle, NormalizeRange) {
  for (double a = -100.0; a <= 100.0; a += 0.37) {
    const double n = geom::normalize(a);
    EXPECT_GE(n, 0.0) << "input " << a;
    EXPECT_LT(n, geom::kTwoPi) << "input " << a;
  }
}

TEST(Angle, NormalizeIdempotent) {
  for (double a = -50.0; a <= 50.0; a += 0.21) {
    const double once = geom::normalize(a);
    EXPECT_DOUBLE_EQ(geom::normalize(once), once) << "input " << a;
  }
}

TEST(Angle, NormalizeNearMultipleOfTwoPi) {
  // Values epsilon-below a multiple of 2*pi must stay in [0, 2*pi).
  const double just_under = std::nextafter(geom::kTwoPi, 0.0);
  EXPECT_LT(geom::normalize(just_under), geom::kTwoPi);
  EXPECT_LT(geom::normalize(4.0 * geom::kTwoPi - 1e-18), geom::kTwoPi);
}

TEST(Angle, NormalizeBoundaryRegressions) {
  // Tiny negative inputs: fmod leaves them unchanged and the += 2*pi
  // correction rounds to exactly 2*pi, which must fold back to 0, never
  // escape the half-open range.
  EXPECT_DOUBLE_EQ(geom::normalize(-1e-18), 0.0);
  EXPECT_LT(geom::normalize(-1e-18), geom::kTwoPi);
  EXPECT_DOUBLE_EQ(geom::normalize(1e-18), 1e-18);

  // Exact multiples of 2*pi from either side map to +0.0.
  EXPECT_DOUBLE_EQ(geom::normalize(geom::kTwoPi), 0.0);
  EXPECT_DOUBLE_EQ(geom::normalize(-geom::kTwoPi), 0.0);
  EXPECT_DOUBLE_EQ(geom::normalize(2.0 * geom::kTwoPi), 0.0);
  EXPECT_DOUBLE_EQ(geom::normalize(-2.0 * geom::kTwoPi), 0.0);

  // Signed zero: fmod(-0.0, 2*pi) is -0.0, which skips the negative-branch
  // correction; the result must still be +0.0 (serializers print "-0" and
  // signbit-based callers misbehave otherwise).
  EXPECT_FALSE(std::signbit(geom::normalize(-0.0)));
  EXPECT_FALSE(std::signbit(geom::normalize(0.0)));
  EXPECT_FALSE(std::signbit(geom::normalize(-geom::kTwoPi)));
  EXPECT_FALSE(std::signbit(geom::normalize(-2.0 * geom::kTwoPi)));

  // One ulp below 4*pi: fmod is exact, so the result sits just below 2*pi
  // and must stay strictly inside the range.
  const double four_pi = 2.0 * geom::kTwoPi;
  const double n = geom::normalize(std::nextafter(four_pi, 0.0));
  EXPECT_GE(n, 0.0);
  EXPECT_LT(n, geom::kTwoPi);

  // Denormal-scale negatives behave like -1e-18.
  EXPECT_GE(geom::normalize(-1e-300), 0.0);
  EXPECT_LT(geom::normalize(-1e-300), geom::kTwoPi);
}

TEST(Angle, NormalizeMatchesFmodReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  const double below = std::nextafter(geom::kTwoPi, 0.0);
  std::vector<double> inputs = {
      0.0, -0.0, below, -below, geom::kTwoPi, -geom::kTwoPi, -1e-18, 1e-18,
      kDenormMin, -kDenormMin, 1e-310, -1e-310,
      std::numeric_limits<double>::min(), -std::numeric_limits<double>::min(),
      kInf, -kInf, std::numeric_limits<double>::quiet_NaN(), geom::kPi,
      -geom::kPi, std::nextafter(geom::kTwoPi, kInf),
      std::nextafter(-geom::kTwoPi, -kInf), 1e300, -1e300};
  for (int m = 2; m <= 64; m *= 2) {
    const double multiple = m * geom::kTwoPi;
    for (const double x : {multiple, std::nextafter(multiple, 0.0),
                           std::nextafter(multiple, kInf)}) {
      inputs.push_back(x);
      inputs.push_back(-x);
    }
  }
  sectorpack::sim::Rng rng(20261019);
  for (int i = 0; i < 100000; ++i) {
    // Most draws inside (-4*pi, 4*pi), where the shortcut and the fold
    // meet; the rest spread over many magnitudes.
    inputs.push_back(i % 4 == 0 ? std::ldexp(rng.uniform(-1.0, 1.0),
                                             static_cast<int>(
                                                 rng.uniform_int(-60, 60)))
                                : rng.uniform(-2.0, 2.0) * geom::kTwoPi);
  }
  for (const double x : inputs) {
    const double want = normalize_with_fmod(x);
    const double got = geom::normalize(x);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "input " << x << " (bits " << std::bit_cast<std::uint64_t>(x)
        << "): " << got << " vs " << want;
    if (std::isnan(want)) continue;
    EXPECT_FALSE(std::signbit(got)) << "input " << x;
  }
}

TEST(Angle, CcwDeltaBasics) {
  EXPECT_DOUBLE_EQ(geom::ccw_delta(1.0, 1.0), 0.0);
  EXPECT_NEAR(geom::ccw_delta(0.0, geom::kPi), geom::kPi, 1e-15);
  EXPECT_NEAR(geom::ccw_delta(geom::kPi, 0.0), geom::kPi, 1e-15);
  EXPECT_NEAR(geom::ccw_delta(6.0, 0.5), 0.5 + geom::kTwoPi - 6.0, 1e-12);
}

TEST(Angle, CcwDeltaAntisymmetry) {
  // ccw_delta(a, b) + ccw_delta(b, a) == 2*pi for distinct directions.
  sectorpack::sim::Rng rng(7);
  for (int t = 0; t < 200; ++t) {
    const double a = rng.uniform(0.0, geom::kTwoPi);
    const double b = rng.uniform(0.0, geom::kTwoPi);
    if (geom::angles_equal(a, b)) continue;
    EXPECT_NEAR(geom::ccw_delta(a, b) + geom::ccw_delta(b, a), geom::kTwoPi,
                1e-9);
  }
}

TEST(Angle, AngularDistanceSymmetricAndBounded) {
  sectorpack::sim::Rng rng(11);
  for (int t = 0; t < 200; ++t) {
    const double a = rng.uniform(-10.0, 10.0);
    const double b = rng.uniform(-10.0, 10.0);
    const double d1 = geom::angular_distance(a, b);
    const double d2 = geom::angular_distance(b, a);
    EXPECT_NEAR(d1, d2, 1e-12);
    EXPECT_GE(d1, 0.0);
    EXPECT_LE(d1, geom::kPi + 1e-12);
  }
}

TEST(Angle, AngularDistanceTriangleInequality) {
  sectorpack::sim::Rng rng(13);
  for (int t = 0; t < 200; ++t) {
    const double a = rng.uniform(0.0, geom::kTwoPi);
    const double b = rng.uniform(0.0, geom::kTwoPi);
    const double c = rng.uniform(0.0, geom::kTwoPi);
    EXPECT_LE(geom::angular_distance(a, c),
              geom::angular_distance(a, b) + geom::angular_distance(b, c) +
                  1e-9);
  }
}

TEST(Angle, AnglesEqualWrap) {
  EXPECT_TRUE(geom::angles_equal(0.0, geom::kTwoPi));
  EXPECT_TRUE(geom::angles_equal(geom::kTwoPi - 1e-12, 0.0));
  EXPECT_TRUE(geom::angles_equal(1e-12, geom::kTwoPi - 1e-12));
  EXPECT_FALSE(geom::angles_equal(0.0, 0.1));
  EXPECT_FALSE(geom::angles_equal(0.0, geom::kPi));
}

TEST(Angle, DegreesRoundtrip) {
  for (double deg = -720.0; deg <= 720.0; deg += 13.5) {
    EXPECT_NEAR(geom::rad_to_deg(geom::deg_to_rad(deg)), deg, 1e-10);
  }
  EXPECT_NEAR(geom::deg_to_rad(180.0), geom::kPi, 1e-15);
  EXPECT_NEAR(geom::deg_to_rad(90.0), geom::kPi / 2.0, 1e-15);
}

// Property sweep: rotation by a full turn is the identity on normalized
// angles, for a range of starting points and turn counts.
class AngleTurnProperty : public ::testing::TestWithParam<int> {};

TEST_P(AngleTurnProperty, FullTurnsAreIdentity) {
  const int turns = GetParam();
  sectorpack::sim::Rng rng(static_cast<std::uint64_t>(turns) * 97 + 1);
  for (int t = 0; t < 100; ++t) {
    const double a = rng.uniform(0.0, geom::kTwoPi);
    const double rotated = geom::normalize(a + turns * geom::kTwoPi);
    EXPECT_TRUE(geom::angles_equal(a, rotated))
        << "a=" << a << " turns=" << turns << " rotated=" << rotated;
  }
}

INSTANTIATE_TEST_SUITE_P(Turns, AngleTurnProperty,
                         ::testing::Values(-17, -5, -1, 1, 2, 3, 8, 33));
