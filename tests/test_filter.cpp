// Filter behaviour: moving average and DC blocker.

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "dsp/filter.hpp"
#include "dsp/goertzel.hpp"

namespace bis::dsp {
namespace {

std::vector<double> tone(std::size_t n, double freq, double fs) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(kTwoPi * freq * static_cast<double>(i) / fs);
  return x;
}

double steady_amplitude(const std::vector<double>& y, double freq, double fs) {
  // Measure over the second half to skip transients.
  const std::size_t n = y.size() / 2;
  const std::span<const double> tail(y.data() + n, n);
  return 2.0 * std::abs(goertzel(tail, freq, fs)) / static_cast<double>(n);
}

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

TEST(DcBlocker, RemovesDcKeepsTone) {
  const double fs = 500e3;
  DcBlocker blocker(0.95);
  std::vector<double> x = tone(4000, 60e3, fs);
  for (auto& v : x) v += 2.0;  // large DC pedestal
  const auto y = blocker.process(x);
  // Steady-state mean near zero, tone preserved.
  double mean = 0.0;
  for (std::size_t i = 2000; i < 4000; ++i) mean += y[i];
  mean /= 2000.0;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(steady_amplitude(y, 60e3, fs), 1.0, 0.1);
}

TEST(DcBlocker, ResetClearsMemory) {
  DcBlocker b(0.9);
  b.process(10.0);
  b.reset();
  EXPECT_DOUBLE_EQ(b.process(0.0), 0.0);
}

}  // namespace
}  // namespace bis::dsp
