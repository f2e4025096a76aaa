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

DcBlocker::DcBlocker(double r) : r_(r) { BIS_CHECK(r > 0.0 && r < 1.0); }

double DcBlocker::process(double x) {
  const double y = x - prev_x_ + r_ * prev_y_;
  prev_x_ = x;
  prev_y_ = y;
  return y;
}

std::vector<double> DcBlocker::process(std::span<const double> x) {
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = process(x[i]);
  return out;
}

void DcBlocker::reset() { prev_x_ = prev_y_ = 0.0; }

}  // namespace bis::dsp
