// Interpolation / regridding — the primitives under BiScatter's IF
// correction (Eq. 15 pairwise interpolation).

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/resample.hpp"

namespace bis::dsp {
namespace {

TEST(Linspace, EndpointsAndSpacing) {
  const auto g = linspace(0.0, 10.0, 11);
  ASSERT_EQ(g.size(), 11u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 10.0);
  for (std::size_t i = 1; i < g.size(); ++i)
    EXPECT_NEAR(g[i] - g[i - 1], 1.0, 1e-12);
}

TEST(RegridLinear, ReproducesLinearFunction) {
  const auto x = linspace(0.0, 1.0, 11);
  const auto f = [](double v) { return cdouble(3.0 * v - 1.0, 0.5 - 2.0 * v); };
  CVec y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = f(x[i]);
  const auto q = linspace(0.05, 0.95, 19);
  const auto r = regrid_linear(x, std::span<const cdouble>(y), q);
  ASSERT_EQ(r.size(), q.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_NEAR(r[i].real(), f(q[i]).real(), 1e-12);
    EXPECT_NEAR(r[i].imag(), f(q[i]).imag(), 1e-12);
  }
  // Exact at the knots; queries outside the table clamp to its end values.
  const std::vector<double> knots_and_outside = {0.0, x[3], 1.0, -5.0, 9.0};
  const auto k = regrid_linear(x, std::span<const cdouble>(y), knots_and_outside);
  EXPECT_EQ(k[0], y.front());
  EXPECT_EQ(k[1], y[3]);
  EXPECT_EQ(k[2], y.back());
  EXPECT_EQ(k[3], y.front());
  EXPECT_EQ(k[4], y.back());
}

TEST(RegridLinear, ComplexInterpolatesBothParts) {
  std::vector<double> x = {0.0, 1.0};
  CVec y = {cdouble(0.0, 2.0), cdouble(4.0, 0.0)};
  std::vector<double> q = {0.5};
  const auto r = regrid_linear(x, std::span<const cdouble>(y), q);
  EXPECT_NEAR(r[0].real(), 2.0, 1e-12);
  EXPECT_NEAR(r[0].imag(), 1.0, 1e-12);
}

TEST(RegridLinear, SmoothFunctionAccuracy) {
  // Dense e^{jx} regridded onto a shifted grid: linear interp error ~ h².
  const auto x = linspace(0.0, 6.283, 200);
  CVec y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    y[i] = cdouble(std::cos(x[i]), std::sin(x[i]));
  const auto q = linspace(0.01, 6.27, 173);
  const auto r = regrid_linear(x, std::span<const cdouble>(y), q);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_NEAR(r[i].real(), std::cos(q[i]), 2e-4);
    EXPECT_NEAR(r[i].imag(), std::sin(q[i]), 2e-4);
  }
}

TEST(RegridLinear, RequiresMatchingSizes) {
  const std::vector<double> x = {0.0, 1.0, 2.0};
  const CVec y = {cdouble(0.0, 0.0), cdouble(1.0, 0.0)};
  const std::vector<double> q = {0.5};
  EXPECT_THROW(regrid_linear(x, std::span<const cdouble>(y), q),
               std::invalid_argument);
}

}  // namespace
}  // namespace bis::dsp
