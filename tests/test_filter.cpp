// Filter behaviour: the moving average.

#include <gtest/gtest.h>

#include "dsp/filter.hpp"

namespace bis::dsp {
namespace {

TEST(MovingAverage, FlatInputUnchanged) {
  std::vector<double> x(20, 3.0);
  const auto y = moving_average(x, 5);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], 3.0, 1e-12);
}

TEST(MovingAverage, SmoothsImpulse) {
  std::vector<double> x(11, 0.0);
  x[5] = 5.0;
  const auto y = moving_average(x, 5);
  EXPECT_NEAR(y[5], 1.0, 1e-12);  // spread over the window
  EXPECT_NEAR(y[9], 1.0, 1e-12);  // trailing window still contains it
  EXPECT_NEAR(y[10], 0.0, 1e-12);
}

}  // namespace
}  // namespace bis::dsp
