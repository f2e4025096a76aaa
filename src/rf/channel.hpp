#pragma once

/// @file channel.hpp
/// Propagation channel between radar and tag. The paper evaluates in an
/// indoor office "with substantial multipath propagation"; we model the
/// channel as a line-of-sight path plus a configurable set of secondary
/// paths (wall/ground bounces). Each path carries an excess delay and a
/// gain relative to LoS. Multipath matters twice in BiScatter:
///  - at the tag, delayed chirp copies beat against the direct copy inside
///    the decoder, creating spurious tones at α·Δτ (handled in TagFrontend);
///  - at the radar, clutter returns appear as extra range-profile peaks
///    (handled by background subtraction, paper §3.3).

#include <vector>

namespace bis::rf {

struct MultipathTap {
  double excess_delay_s = 0.0;   ///< Delay relative to the LoS path.
  double relative_gain_db = 0.0; ///< Gain relative to the LoS path (negative).
  double phase_rad = 0.0;        ///< Static phase rotation of the tap.
};

struct ChannelModel {
  std::vector<MultipathTap> taps;  ///< Secondary paths (LoS is implicit).

  /// Typical indoor office profile: two wall bounces and a ground bounce.
  static ChannelModel indoor_office();
};

}  // namespace bis::rf
