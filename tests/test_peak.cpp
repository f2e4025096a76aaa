// Peak detection and parabolic refinement.

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/peak.hpp"

namespace bis::dsp {
namespace {

TEST(Argmax, FindsMaximum) {
  std::vector<double> xs = {1.0, 5.0, 3.0};
  EXPECT_EQ(argmax(xs), 1u);
}

TEST(Argmax, EmptyThrows) {
  std::vector<double> xs;
  EXPECT_THROW(argmax(xs), std::invalid_argument);
}

TEST(ParabolicRefine, ExactForQuadratic) {
  // Samples of -(x - 1.3)^2 at x = 0, 1, 2: vertex at 1.3.
  std::vector<double> xs = {-(0.0 - 1.3) * (0.0 - 1.3), -(1.0 - 1.3) * (1.0 - 1.3),
                            -(2.0 - 1.3) * (2.0 - 1.3)};
  EXPECT_NEAR(parabolic_refine(xs, 1), 1.3, 1e-12);
}

TEST(ParabolicRefine, EdgeFallsBack) {
  std::vector<double> xs = {3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(parabolic_refine(xs, 0), 0.0);
  EXPECT_DOUBLE_EQ(parabolic_refine(xs, 2), 2.0);
}

TEST(ParabolicRefine, ClampsToHalfBin) {
  std::vector<double> xs = {1.0, 1.0, 0.0};  // degenerate plateau edge
  const double r = parabolic_refine(xs, 1);
  EXPECT_GE(r, 0.5);
  EXPECT_LE(r, 1.5);
}

TEST(FindPeak, SubBinAccuracyOnSampledGaussian) {
  // Gaussian bump centred at 10.37 bins.
  std::vector<double> xs(21);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double d = static_cast<double>(i) - 10.37;
    xs[i] = std::exp(-d * d / 8.0);
  }
  const auto p = find_peak(xs);
  EXPECT_EQ(p.index, 10u);
  EXPECT_NEAR(p.refined_index, 10.37, 0.02);
}

}  // namespace
}  // namespace bis::dsp
