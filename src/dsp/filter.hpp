#pragma once

/// @file filter.hpp
/// The tag's envelope-stream filter: a moving-average smoother (the period
/// gate's energy profile).

#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace bis::dsp {

/// Moving-average smoother ("same" output length).
std::vector<double> moving_average(std::span<const double> x, std::size_t window);

}  // namespace bis::dsp
