#include "phy/ber.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"

namespace bis::phy {
namespace {

constexpr double kZ95 = 1.959963984540054;  // two-sided 95 % normal quantile

double wilson_bound(std::size_t errors, std::size_t total, bool upper) {
  if (total == 0) return upper ? 1.0 : 0.0;
  const double n = static_cast<double>(total);
  const double p = static_cast<double>(errors) / n;
  const double z2 = kZ95 * kZ95;
  const double denom = 1.0 + z2 / n;
  const double centre = p + z2 / (2.0 * n);
  const double margin = kZ95 * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  const double bound = (centre + (upper ? margin : -margin)) / denom;
  return std::clamp(bound, 0.0, 1.0);
}

}  // namespace

void ErrorCounter::add(std::size_t errors, std::size_t bits) {
  BIS_CHECK(errors <= bits);
  errors_ += errors;
  total_ += bits;
}

double ErrorCounter::rate() const {
  return total_ == 0 ? 0.0 : static_cast<double>(errors_) / static_cast<double>(total_);
}

double ErrorCounter::wilson_upper_95() const { return wilson_bound(errors_, total_, true); }

double ErrorCounter::wilson_lower_95() const { return wilson_bound(errors_, total_, false); }

double ook_theoretical_ber(double snr_db) {
  const double snr = from_db(snr_db);
  return 0.5 * std::exp(-snr / 2.0);
}

}  // namespace bis::phy
