#pragma once

/// @file checks.hpp
/// Output checks the workloads apply to every engine call. They compare
/// plain values, so the self-tests can show that one flipped bit or one
/// altered round record makes them fail.

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/inventory.hpp"
#include "phy/bits.hpp"

namespace perfbench {

/// What one link produced: its decoded uplink bits and its report's outcome
/// counters (obs::RunReport::outcome_key).
struct LinkOutcome {
  bis::phy::Bits bits;
  std::string outcome_key;
};

/// Number of links whose outcome differs from the reference, index for
/// index. A length mismatch counts every unmatched link.
inline std::size_t link_mismatches(std::span<const LinkOutcome> got,
                                   std::span<const LinkOutcome> want) {
  std::size_t bad = got.size() > want.size() ? got.size() - want.size()
                                             : want.size() - got.size();
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i)
    if (got[i].bits != want[i].bits || got[i].outcome_key != want[i].outcome_key)
      ++bad;
  return bad;
}

/// Every field of every round record except the wall time, compared
/// exactly (the floating Q bit for bit).
inline bool rounds_equal(const std::vector<bis::core::InventoryRound>& a,
                         const std::vector<bis::core::InventoryRound>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].round != b[i].round || a[i].q != b[i].q || a[i].slots != b[i].slots ||
        a[i].idle_slots != b[i].idle_slots ||
        a[i].singleton_slots != b[i].singleton_slots ||
        a[i].collision_slots != b[i].collision_slots || a[i].reads != b[i].reads ||
        a[i].pending_after != b[i].pending_after ||
        std::memcmp(&a[i].q_fp_after, &b[i].q_fp_after, sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// A drain is complete when nothing is pending and every tag is marked
/// inventoried.
inline bool fully_drained(std::size_t pending,
                          const std::vector<std::uint8_t>& inventoried) {
  if (pending != 0 || inventoried.empty()) return false;
  for (std::uint8_t v : inventoried)
    if (v != 1) return false;
  return true;
}

}  // namespace perfbench
