#include "radar/range_processor.hpp"

#include "common/check.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bis::radar {

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
  std::vector<double> axis(bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) axis[i] = bin_range_m(i);
  return axis;
}

RangeProcessor::RangeProcessor(const RangeProcessorConfig& config) : config_(config) {
  BIS_CHECK(config_.zero_pad_factor >= 1 && config_.zero_pad_factor <= 16);
}

RangeProfile RangeProcessor::process(std::span<const dsp::cdouble> if_samples,
                                     const rf::ChirpParams& chirp,
                                     double sample_rate_hz) const {
  RangeProfile profile;
  process_into(if_samples, chirp, sample_rate_hz, profile);
  return profile;
}

void RangeProcessor::process_into(std::span<const dsp::cdouble> if_samples,
                                  const rf::ChirpParams& chirp,
                                  double sample_rate_hz,
                                  RangeProfile& out) const {
  BIS_TRACE_SPAN("radar.range_fft");
  BIS_CHECK(!if_samples.empty());
  BIS_CHECK(sample_rate_hz > 0.0);
  // CSSK frames reuse a handful of chirp lengths, so the window and the FFT
  // plan for this size are cache hits on every chirp after the first.
  const auto w = dsp::cached_window(config_.window, if_samples.size());
  thread_local dsp::CVec xw;
  xw.resize(if_samples.size());
  dsp::kernels::kapply_window(if_samples, *w, xw);
  const std::size_t n_fft =
      dsp::next_power_of_two(if_samples.size()) * config_.zero_pad_factor;
  dsp::fft_padded_into(xw, n_fft, out.bins);
  // Normalize by the window sum so tone amplitude is comparable across
  // chirps with different sample counts (different CSSK durations). Scaled
  // by the reciprocal through the kernel layer (one divide per chirp instead
  // of one per bin).
  const double norm = dsp::window_sum(*w);
  dsp::kernels::kscale(std::span<dsp::cdouble>(out.bins), 1.0 / norm);
  out.chirp = chirp;
  out.sample_rate_hz = sample_rate_hz;
  out.n_fft = n_fft;
}

std::vector<RangeProfile> RangeProcessor::process_frame(
    std::span<const dsp::CVec> chirp_samples,
    std::span<const rf::ChirpParams> chirps, double sample_rate_hz,
    ThreadPool* pool) const {
  std::vector<RangeProfile> profiles;
  process_frame_into(chirp_samples, chirps, sample_rate_hz, pool, profiles);
  return profiles;
}

void RangeProcessor::process_frame_into(
    std::span<const dsp::CVec> chirp_samples,
    std::span<const rf::ChirpParams> chirps, double sample_rate_hz,
    ThreadPool* pool, std::vector<RangeProfile>& out) const {
  BIS_TRACE_SPAN("radar.range_fft_frame");
  BIS_CHECK(chirp_samples.size() == chirps.size());
  static obs::Counter& chirps_processed =
      obs::Registry::instance().counter("bis.radar.chirps_processed");
  chirps_processed.add(chirp_samples.size());
  out.resize(chirp_samples.size());
  bis::parallel_for(pool, 0, chirp_samples.size(), [&](std::size_t i) {
    process_into(chirp_samples[i], chirps[i], sample_rate_hz, out[i]);
  });
}

}  // namespace bis::radar
