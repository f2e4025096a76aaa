#include "dsp/filter.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bis::dsp {

std::vector<double> moving_average(std::span<const double> x, std::size_t window) {
  BIS_CHECK(window > 0);
  std::vector<double> out(x.size(), 0.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += x[i];
    if (i >= window) acc -= x[i - window];
    const std::size_t n = std::min(i + 1, window);
    out[i] = acc / static_cast<double>(n);
  }
  return out;
}

}  // namespace bis::dsp
