#pragma once

/// @file kernel_table.hpp
/// Internal dispatch table shared by the kernel backends. Each backend
/// translation unit (scalar / SSE2 / AVX2) fills one table with its function
/// pointers; dispatch.cpp selects which table routes the public API.

#include <complex>
#include <cstdint>
#include <span>

#include "dsp/kernels/kernels.hpp"

namespace bis::dsp::kernels::detail {

struct KernelTable {
  void (*mag)(std::span<const cdouble>, std::span<double>);
  void (*norm)(std::span<const cdouble>, std::span<double>);
  void (*apply_window_r)(std::span<const double>, std::span<const double>,
                         std::span<double>);
  void (*apply_window_c)(std::span<const cdouble>, std::span<const double>,
                         std::span<cdouble>);
  void (*axpy)(double, std::span<const double>, std::span<double>);
  void (*scale_add)(std::span<double>, double, double, std::span<const double>);
  void (*scale_r)(std::span<double>, double);
  void (*quantize)(std::span<double>, double, double, double, double);
  double (*sum_sq)(std::span<const double>);
  void (*butterfly)(std::span<double>, std::span<double>, std::span<double>,
                    std::span<double>, double, double);
  void (*butterfly_unit)(std::span<double>, std::span<double>,
                         std::span<double>, std::span<double>);
  void (*untangle_norm)(std::span<const double>, std::span<const double>,
                        std::span<const double>, std::span<const double>,
                        double, double, std::span<double>);
  void (*tagscore)(std::span<const double>, std::span<const std::uint32_t>,
                   std::span<const double>, std::span<const double>,
                   std::size_t, std::span<double>, std::span<double>);
  void (*tone_glrt)(std::span<const double>, std::span<const double>,
                    std::span<const double>, std::span<const double>,
                    std::span<const double>, double, std::span<double>);
};

/// Backend accessors. The scalar table always exists; the SIMD tables are
/// compiled only on x86-64 with the BIS_SIMD CMake option ON (dispatch.cpp
/// references them under BIS_HAVE_SIMD_BACKENDS).
const KernelTable& scalar_table();
const KernelTable& sse2_table();
const KernelTable& avx2_table();

}  // namespace bis::dsp::kernels::detail
