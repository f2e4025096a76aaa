#include "dsp/goertzel.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"

namespace bis::dsp {

cdouble goertzel(std::span<const double> x, double freq, double fs) {
  BIS_CHECK(fs > 0.0);
  const double omega = kTwoPi * freq / fs;
  const double coeff = 2.0 * std::cos(omega);
  double s_prev = 0.0;
  double s_prev2 = 0.0;
  for (const double sample : x) {
    const double s = (sample + coeff * s_prev) - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }
  // Final complex correction step.
  const double real = s_prev - s_prev2 * std::cos(omega);
  const double imag = s_prev2 * std::sin(omega);
  return {real, imag};
}

double goertzel_power(std::span<const double> x, double freq, double fs) {
  return std::norm(goertzel(x, freq, fs));
}

}  // namespace bis::dsp
