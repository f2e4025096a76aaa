#pragma once

/// @file resample.hpp
/// Interpolation and regridding. BiScatter's IF-correction step (paper §3.3,
/// Eq. 15) rescales each chirp's range profile — whose bin spacing depends on
/// that chirp's slope — onto a common range grid using pairwise interpolation
/// between FFT bins. These are the primitives it uses.
///
/// Under CSSK the per-chirp range axis takes only |slope alphabet| distinct
/// values, so the interval search that regrid_linear repeats per query bin
/// per chirp is pure waste after the first chirp of each slope. RegridPlan
/// precomputes the (index, weight) pair per query bin once per (source axis,
/// target grid) and replays it as a tight gather loop; cached_regrid_plan
/// memoizes plans process-wide exactly like the FFT plan cache, with
/// hit/miss counters exported through `bis.dsp.regrid_plan_*` metrics.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace bis::dsp {

/// Linear regrid of complex samples (x, y) onto every point of @p xq,
/// interpolating real and imaginary parts. x must be strictly increasing,
/// size >= 2; queries outside the table clamp to its end values.
CVec regrid_linear(std::span<const double> x, std::span<const cdouble> y,
                   std::span<const double> xq);

/// Precomputed linear-regrid stencil for a fixed (source axis, target grid)
/// pair: per query bin, the source interval index and interpolation weight.
/// apply() reproduces regrid_linear bit-for-bit (identical arithmetic per
/// bin) without any per-query interval search.
class RegridPlan {
 public:
  /// @p x strictly increasing, size >= 2. Cost: one interval search per
  /// query bin, paid once.
  RegridPlan(std::span<const double> x, std::span<const double> xq);

  std::size_t n_source() const { return n_source_; }
  std::size_t n_queries() const { return index_.size(); }

  /// out[q] = y[i_q]·(1−t_q) + y[i_q+1]·t_q. y.size() must equal
  /// n_source(), out.size() must equal n_queries(). out must not alias y.
  void apply(std::span<const cdouble> y, std::span<cdouble> out) const;

 private:
  std::vector<std::uint32_t> index_;  ///< Lower source bin per query.
  std::vector<double> weight_;        ///< t in [0, 1]; clamps are 0 / 1.
  std::size_t n_source_ = 0;
};

using RegridPlanPtr = std::shared_ptr<const RegridPlan>;

/// Process-wide memoized plan lookup keyed by the full (x, xq) contents
/// (bitwise double compare, so a hit is exact). Thread-safe; safe to call
/// from parallel_for lanes. The cache stops inserting beyond a fixed plan
/// budget (lookups still work, extra axes just rebuild per call) so
/// adversarial sweeps cannot grow it without bound.
RegridPlanPtr cached_regrid_plan(std::span<const double> x,
                                 std::span<const double> xq);

/// Plan-cache observability (hits/misses count cached_regrid_plan calls;
/// plans is the number of distinct pairs currently cached).
struct RegridPlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t plans = 0;
};
RegridPlanCacheStats regrid_plan_cache_stats();

/// Drop all cached plans and reset the stats (tests/benchmarks).
void regrid_plan_cache_clear();

/// Evenly spaced grid [start, stop] with n points (n >= 2).
std::vector<double> linspace(double start, double stop, std::size_t n);

/// Allocation-free variant: writes the grid into @p out (resized to n).
void linspace_into(double start, double stop, std::size_t n,
                   std::vector<double>& out);

}  // namespace bis::dsp
