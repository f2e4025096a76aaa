#pragma once

/// @file biscatter.hpp
/// Umbrella header: the BiScatter public API.
///
/// BiScatter (SIGCOMM 2024) is an integrated two-way radar backscatter
/// communication and sensing system: an off-the-shelf FMCW radar talks to
/// low-power tags by Chirp-Slope-Shift-Keying (downlink), the tags answer by
/// modulated retro-reflection (uplink), and the radar keeps sensing and
/// localizing throughout. See README.md for a tour and DESIGN.md for the
/// architecture and the hardware-substitution notes.
///
/// Typical use:
///   bis::core::SystemConfig cfg;           // 9 GHz preset, prototype tag
///   cfg.tag_range_m = 3.0;
///   bis::core::LinkSimulator link(cfg);
///   link.calibrate_tag();                  // one-time Δf calibration
///   auto down = link.run_downlink(bis::phy::string_to_bits("hi tag"));
///   auto up = link.run_uplink({1, 0, 1, 1}, /*downlink_active=*/false);

#include "common/constants.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/experiments.hpp"
#include "core/inventory.hpp"
#include "core/link_simulator.hpp"
#include "core/network.hpp"
#include "core/system_config.hpp"
#include "phy/ber.hpp"
#include "phy/bits.hpp"
#include "phy/crc.hpp"
#include "phy/datarate.hpp"
#include "phy/packet.hpp"
#include "phy/slope_alphabet.hpp"
#include "phy/uplink.hpp"
#include "radar/receive_chain.hpp"
#include "radar/tag_detector.hpp"
#include "radar/uplink_decoder.hpp"
#include "rf/chirp.hpp"
#include "rf/link_budget.hpp"
#include "rf/microstrip.hpp"
#include "tag/power_model.hpp"
#include "tag/tag_node.hpp"
