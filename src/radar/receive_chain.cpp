#include "radar/receive_chain.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/resample.hpp"
#include "dsp/window.hpp"
#include "obs/trace.hpp"

namespace bis::radar {
namespace {

/// Calls fn(chirp, samples) for every chirp of @p alphabet that yields IF
/// samples at the chain's rate: the one walk over an alphabet's chirps.
template <typename Fn>
void for_each_chirp(const ReceiveChain& chain,
                    const phy::SlopeAlphabet& alphabet, Fn&& fn) {
  for (std::size_t slot = 0; slot < alphabet.slot_count(); ++slot) {
    const rf::ChirpParams chirp = alphabet.chirp(slot);
    const std::size_t n = chain.samples_per_chirp(chirp);
    if (n > 0) fn(chirp, n);
  }
}

}  // namespace

double RangeProfile::bin_range_m(std::size_t n) const {
  BIS_CHECK(n_fft > 0);
  return static_cast<double>(n) / static_cast<double>(n_fft) * max_range_m();
}

double RangeProfile::bin_spacing_m() const {
  BIS_CHECK(n_fft > 0);
  return max_range_m() / static_cast<double>(n_fft);
}

double RangeProfile::max_range_m() const {
  return chirp.max_unambiguous_range(sample_rate_hz);
}

std::vector<double> RangeProfile::range_axis() const {
  std::vector<double> axis;
  range_axis(axis);
  return axis;
}

void RangeProfile::range_axis(std::vector<double>& axis) const {
  BIS_CHECK(n_fft > 0);
  const double n = static_cast<double>(n_fft);
  const double r_max = max_range_m();
  axis.resize(bins.size());
  for (std::size_t k = 0; k < axis.size(); ++k)
    axis[k] = static_cast<double>(k) / n * r_max;
}

dsp::RVec AlignedProfiles::column_magnitude(std::size_t bin) const {
  dsp::RVec out(rows.size());
  column_magnitude(bin, out);
  return out;
}

void AlignedProfiles::column_magnitude(std::size_t bin, std::span<double> out) const {
  column_magnitude(bin, 0, rows.size(), out);
}

void AlignedProfiles::column_magnitude(std::size_t bin, std::size_t first,
                                       std::size_t count,
                                       std::span<double> out) const {
  BIS_CHECK(bin < n_bins());
  BIS_CHECK(first + count <= rows.size());
  BIS_CHECK(out.size() == count);
  // Gather the column, then take kmag's sqrt(re² + im²): the one magnitude
  // the radar path uses (std::abs would call hypot, which is several times
  // slower and differs in the last bit on about one value in six).
  thread_local dsp::CVec col;
  col.resize(count);
  for (std::size_t m = 0; m < count; ++m) col[m] = rows[first + m][bin];
  dsp::kernels::kmag(col, out);
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

ReceiveChain::ReceiveChain(double sample_rate_hz, const RangeAlignConfig& align,
                           bool background_subtraction)
    : sample_rate_hz_(sample_rate_hz),
      align_(align),
      background_subtraction_(background_subtraction) {
  BIS_CHECK(sample_rate_hz_ > 0.0);
}

std::size_t ReceiveChain::fft_size(std::size_t samples) {
  return dsp::next_power_of_two(samples) * 2;
}

std::size_t ReceiveChain::samples_per_chirp(const rf::ChirpParams& chirp) const {
  return static_cast<std::size_t>(std::floor(chirp.duration_s * sample_rate_hz_));
}

void ReceiveChain::range_fft(std::span<const dsp::cdouble> if_samples,
                             const rf::ChirpParams& chirp,
                             RangeProfile& out) const {
  BIS_TRACE_SPAN("radar.range_fft");
  BIS_CHECK(!if_samples.empty());
  // CSSK frames reuse a handful of chirp lengths, so the window and the FFT
  // plan for this size are cache hits on every chirp after the first.
  const auto w = dsp::cached_window(dsp::WindowType::kHann, if_samples.size());
  thread_local dsp::CVec xw;
  xw.resize(if_samples.size());
  dsp::kernels::kapply_window(if_samples, *w, xw);
  const std::size_t n_fft = fft_size(if_samples.size());
  dsp::fft_padded_into(xw, n_fft, out.bins);
  // Normalize by the window sum so tone amplitude is comparable across
  // chirps with different sample counts (different CSSK durations). Scaled
  // by the reciprocal through the kernel layer (one divide per chirp instead
  // of one per bin).
  const double norm = dsp::window_sum(*w);
  dsp::kernels::kscale(std::span<dsp::cdouble>(out.bins), 1.0 / norm);
  out.chirp = chirp;
  out.sample_rate_hz = sample_rate_hz_;
  out.n_fft = n_fft;
}

void ReceiveChain::range_fft(std::span<const rf::ChirpParams> chirps,
                             ReceiveFrame& frame, ThreadPool* pool) const {
  BIS_TRACE_SPAN("radar.range_fft_frame");
  BIS_CHECK(frame.if_samples.size() == chirps.size());
  frame.profiles.resize(chirps.size());
  bis::parallel_for(pool, 0, chirps.size(), [&](std::size_t i) {
    range_fft(frame.if_samples[i], chirps[i], frame.profiles[i]);
  });
}

void ReceiveChain::regrid(std::span<const RangeProfile> profiles,
                          ThreadPool* pool, AlignedProfiles& out) const {
  BIS_TRACE_SPAN("radar.if_correction");
  BIS_CHECK(!profiles.empty());
  out.chirp_period_s = profiles.front().chirp.period();

  // Common coverage: every chirp can see at least min(R_max); the grid stops
  // there so no row needs extrapolation.
  double r_cover = profiles.front().max_range_m();
  std::size_t max_fft = 0;
  for (const auto& p : profiles) {
    r_cover = std::min(r_cover, p.max_range_m());
    max_fft = std::max(max_fft, p.n_fft);
  }
  const double r_max =
      align_.max_range_m > 0.0 ? std::min(align_.max_range_m, r_cover) : r_cover;
  const std::size_t n_grid = align_.grid_bins > 0 ? align_.grid_bins : max_fft;
  BIS_CHECK(n_grid >= 2);

  dsp::linspace_into(0.0, r_max, n_grid, out.range_grid);
  out.rows.resize(profiles.size());
  bis::parallel_for(pool, 0, profiles.size(), [&](std::size_t i) {
    const auto& p = profiles[i];
    // The per-chirp range axis takes only |slope alphabet| distinct values;
    // fill it into per-thread scratch instead of allocating per chirp.
    thread_local std::vector<double> axis;
    p.range_axis(axis);
    // CSSK reuses a handful of slopes, so the (axis, grid) pair repeats
    // across chirps and frames: replay the memoized stencil instead of
    // re-running the per-bin interval search (bit-identical output).
    const auto plan = dsp::cached_regrid_plan(axis, out.range_grid);
    out.rows[i].resize(out.range_grid.size());
    plan->apply(p.bins, out.rows[i]);
  });
}

void ReceiveChain::if_correct(ReceiveFrame& frame, ThreadPool* pool,
                              std::size_t window) const {
  const std::size_t n = frame.profiles.size();
  if (window == 0) window = n;
  BIS_CHECK_MSG(window > 0 && n % window == 0,
                "background windows must tile the frame");
  regrid(frame.profiles, pool, frame.aligned);
  if (!background_subtraction_) return;
  // A window touches only its own rows, so windows fan across the pool.
  bis::parallel_for(pool, 0, n / window, [&](std::size_t w) {
    subtract_background(frame.aligned, w * window, window, 0);
  });
}

AlphabetExtent ReceiveChain::extent(const phy::SlopeAlphabet& alphabet) const {
  AlphabetExtent e;
  for_each_chirp(*this, alphabet, [&](const rf::ChirpParams& chirp, std::size_t n) {
    e.max_samples = std::max(e.max_samples, n);
    e.max_fft_bins = std::max(e.max_fft_bins, fft_size(n));
    e.covered_range_m =
        std::min(e.covered_range_m, chirp.max_unambiguous_range(sample_rate_hz_));
  });
  return e;
}

void ReceiveChain::reserve(ReceiveFrame& frame, std::size_t n_chirps,
                           const AlphabetExtent& extent) {
  frame.if_samples.resize(n_chirps);
  for (auto& s : frame.if_samples) s.reserve(extent.max_samples);
  frame.profiles.resize(n_chirps);
  for (auto& p : frame.profiles) p.bins.reserve(extent.max_fft_bins);
}

void ReceiveChain::warm(const phy::SlopeAlphabet& alphabet) const {
  dsp::CVec silence;
  RangeProfile profile;
  AlignedProfiles aligned;
  for_each_chirp(*this, alphabet, [&](const rf::ChirpParams& chirp, std::size_t n) {
    // A dry range FFT builds this chirp length's window and FFT plan in the
    // shared caches and sizes the calling thread's scratch; regridding the
    // resulting (empty) profile builds the slot's regrid plan against the
    // configured grid — the exact (axis, grid) key frames will look up when
    // the grid is pinned, since the axis depends only on the chirp
    // metadata, never the samples.
    silence.assign(n, dsp::cdouble(0.0, 0.0));
    range_fft(silence, chirp, profile);
    regrid(std::span<const RangeProfile>(&profile, 1), nullptr, aligned);
  });
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
