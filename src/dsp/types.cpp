#include "dsp/types.hpp"

namespace bis::dsp {

RVec remove_dc(std::span<const double> xs) {
  RVec out(xs.begin(), xs.end());
  if (out.empty()) return out;
  double mean = 0.0;
  for (double x : out) mean += x;
  mean /= static_cast<double>(out.size());
  for (double& x : out) x -= mean;
  return out;
}

}  // namespace bis::dsp
