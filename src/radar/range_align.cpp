#include "radar/range_align.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/resample.hpp"
#include "obs/trace.hpp"

namespace bis::radar {

dsp::RVec AlignedProfiles::column_magnitude(std::size_t bin) const {
  dsp::RVec out(rows.size());
  column_magnitude(bin, out);
  return out;
}

void AlignedProfiles::column_magnitude(std::size_t bin, std::span<double> out) const {
  BIS_CHECK(bin < n_bins());
  BIS_CHECK(out.size() == rows.size());
  for (std::size_t m = 0; m < rows.size(); ++m) out[m] = std::abs(rows[m][bin]);
}

void AlignedProfiles::column_magnitude(std::size_t bin, std::size_t first,
                                       std::size_t count,
                                       std::span<double> out) const {
  BIS_CHECK(bin < n_bins());
  BIS_CHECK(first + count <= rows.size());
  BIS_CHECK(out.size() == count);
  for (std::size_t m = 0; m < count; ++m)
    out[m] = std::abs(rows[first + m][bin]);
}

void AlignedProfiles::column_magnitude_f32(std::size_t bin, std::size_t first,
                                           std::size_t count,
                                           std::span<float> out) const {
  BIS_CHECK(bin < n_bins());
  BIS_CHECK(first + count <= rows.size());
  BIS_CHECK(out.size() == count);
  for (std::size_t m = 0; m < count; ++m)
    out[m] = std::sqrt(static_cast<float>(std::norm(rows[first + m][bin])));
}

dsp::CVec AlignedProfiles::column(std::size_t bin) const {
  dsp::CVec out(rows.size());
  column(bin, out);
  return out;
}

void AlignedProfiles::column(std::size_t bin, std::span<dsp::cdouble> out) const {
  BIS_CHECK(bin < n_bins());
  BIS_CHECK(out.size() == rows.size());
  for (std::size_t m = 0; m < rows.size(); ++m) out[m] = rows[m][bin];
}

RangeAligner::RangeAligner(const RangeAlignConfig& config) : config_(config) {}

AlignedProfiles RangeAligner::align(std::span<const RangeProfile> profiles,
                                    ThreadPool* pool) const {
  AlignedProfiles out;
  align_into(profiles, pool, out);
  return out;
}

void RangeAligner::align_into(std::span<const RangeProfile> profiles,
                              ThreadPool* pool, AlignedProfiles& out) const {
  BIS_TRACE_SPAN("radar.if_correction");
  BIS_CHECK(!profiles.empty());
  out.chirp_period_s = profiles.front().chirp.period();

  if (!config_.enabled) {
    // Ablation baseline (Fig. 7a): ignore the per-chirp range scaling and
    // stack raw bins. The "range grid" is only nominally meaningful (taken
    // from the first chirp) — exactly the ambiguity the paper illustrates.
    const std::size_t n = profiles.front().bins.size();
    out.rows.resize(profiles.size());
    bis::parallel_for(pool, 0, profiles.size(), [&](std::size_t i) {
      const auto& p = profiles[i];
      auto& row = out.rows[i];
      row.assign(n, dsp::cdouble(0.0, 0.0));
      const std::size_t m = std::min(n, p.bins.size());
      std::copy(p.bins.begin(), p.bins.begin() + static_cast<long>(m), row.begin());
    });
    const auto& first = profiles.front();
    out.range_grid.resize(n);
    for (std::size_t i = 0; i < n && i < first.bins.size(); ++i)
      out.range_grid[i] = first.bin_range_m(i);
    return;
  }

  // Common coverage: every chirp can see at least min(R_max); the grid stops
  // there so no row needs extrapolation.
  double r_cover = profiles.front().max_range_m();
  std::size_t max_fft = 0;
  for (const auto& p : profiles) {
    r_cover = std::min(r_cover, p.max_range_m());
    max_fft = std::max(max_fft, p.n_fft);
  }
  const double r_max = config_.max_range_m > 0.0
                           ? std::min(config_.max_range_m, r_cover)
                           : r_cover;
  const std::size_t n_grid = config_.grid_bins > 0 ? config_.grid_bins : max_fft;
  BIS_CHECK(n_grid >= 2);

  dsp::linspace_into(0.0, r_max, n_grid, out.range_grid);
  out.rows.resize(profiles.size());
  bis::parallel_for(pool, 0, profiles.size(), [&](std::size_t i) {
    const auto& p = profiles[i];
    // The per-chirp range axis takes only |slope alphabet| distinct values;
    // fill it into per-thread scratch instead of allocating per chirp.
    thread_local std::vector<double> axis;
    axis.resize(p.bins.size());
    for (std::size_t k = 0; k < axis.size(); ++k) axis[k] = p.bin_range_m(k);
    // CSSK reuses a handful of slopes, so the (axis, grid) pair repeats
    // across chirps and frames: replay the memoized stencil instead of
    // re-running the per-bin interval search (bit-identical output).
    const auto plan = dsp::cached_regrid_plan(axis, out.range_grid);
    out.rows[i].resize(out.range_grid.size());
    plan->apply(p.bins, out.rows[i]);
  });
}

void subtract_background(AlignedProfiles& profiles, std::size_t background_row) {
  subtract_background(profiles, 0, profiles.rows.size(), background_row);
}

void subtract_background(AlignedProfiles& profiles, std::size_t first,
                         std::size_t count, std::size_t background_row) {
  BIS_CHECK(first + count <= profiles.rows.size());
  BIS_CHECK(background_row < count);
  // Subtract in place against a reference to the background row — no copy.
  // Rows other than the background are independent of it, and the
  // background row itself is handled last (it becomes exactly zero).
  const dsp::CVec& background = profiles.rows[first + background_row];
  // Complex subtraction is component-wise, so each row is its 2n interleaved
  // reals and row −= background is kaxpy with a = −1 (x + (−1)·y ≡ x − y
  // bit-for-bit in IEEE-754).
  const std::span<const double> bg_flat(
      reinterpret_cast<const double*>(background.data()), 2 * background.size());
  for (std::size_t r = first; r < first + count; ++r) {
    if (r == first + background_row) continue;
    auto& row = profiles.rows[r];
    BIS_CHECK(row.size() == background.size());
    dsp::kernels::kaxpy(
        -1.0, bg_flat,
        std::span<double>(reinterpret_cast<double*>(row.data()), 2 * row.size()));
  }
  auto& bg = profiles.rows[first + background_row];
  std::fill(bg.begin(), bg.end(), dsp::cdouble(0.0, 0.0));
}

}  // namespace bis::radar
