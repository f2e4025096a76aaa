#pragma once

/// @file filter.hpp
/// The tag's envelope-stream filters: a moving-average smoother (the period
/// gate's energy profile) and a DC blocker (the burst gate).

#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace bis::dsp {

/// Moving-average smoother ("same" output length).
std::vector<double> moving_average(std::span<const double> x, std::size_t window);

/// DC-blocking filter y[n] = x[n] − x[n−1] + r·y[n−1].
class DcBlocker {
 public:
  explicit DcBlocker(double r = 0.995);
  double process(double x);
  std::vector<double> process(std::span<const double> x);
  void reset();

 private:
  double r_;
  double prev_x_ = 0.0;
  double prev_y_ = 0.0;
};

}  // namespace bis::dsp
