#pragma once

/// @file precision.hpp
/// The DSP path's one numeric contract: double everywhere, FMA forbidden in
/// the kernel layer, outputs bit-identical across SIMD targets and thread
/// counts. The enum has a single value; it remains only because perfbench's
/// host record and inventory workload name it (DESIGN.md §16).

namespace bis::dsp {

enum class Precision {
  kDoubleStrict,  ///< Bit-identical, no FMA, 4-lane double.
};

constexpr const char* precision_name(Precision) { return "double_strict"; }

}  // namespace bis::dsp
