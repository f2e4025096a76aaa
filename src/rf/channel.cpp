#include "rf/channel.hpp"

namespace bis::rf {

ChannelModel ChannelModel::indoor_office() {
  ChannelModel ch;
  // Tap gains are as seen by the tag's patch antenna: off-axis bounces are
  // attenuated by the element pattern on top of the longer path.
  ch.taps = {
      {8e-9, -28.0, 0.9},   // near wall bounce
      {21e-9, -32.0, 2.4},  // far wall bounce
      {5e-9, -30.0, 4.1},   // ground bounce
  };
  return ch;
}

}  // namespace bis::rf
