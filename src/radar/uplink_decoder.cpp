#include "radar/uplink_decoder.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bis::radar {

UplinkDecoder::UplinkDecoder(phy::UplinkConfig config) : config_(std::move(config)) {
  phy::validate_uplink_config(config_);
}

void UplinkDecoder::decode_into(const AlignedProfiles& profiles,
                                std::size_t tag_bin,
                                UplinkDecodeResult& out) const {
  BIS_CHECK(tag_bin < profiles.n_bins());
  thread_local dsp::RVec col;
  col.resize(profiles.n_chirps());
  profiles.column_magnitude(tag_bin, col);
  decode_series_into(col, out);
}

void UplinkDecoder::decode_series_into(std::span<const double> series,
                                       UplinkDecodeResult& out) const {
  BIS_TRACE_SPAN("radar.uplink_decode");
  const std::size_t block = config_.chirps_per_symbol;
  BIS_CHECK_MSG(series.size() >= block, "series shorter than one uplink symbol");
  const double slow_fs = 1.0 / config_.chirp_period_s;

  out.symbols.clear();
  out.bits.clear();
  out.symbol_confidence.clear();
  const std::size_t n_symbols = series.size() / block;
  const std::size_t bps = phy::uplink_bits_per_symbol(config_);

  for (std::size_t s = 0; s < n_symbols; ++s) {
    const std::span<const double> raw(series.data() + s * block, block);
    // Per-thread buffer replicating remove_dc arithmetic exactly (copy, mean
    // over the copy, subtract) without the per-symbol allocation.
    thread_local dsp::RVec centred;
    centred.assign(raw.begin(), raw.end());
    double mean = 0.0;
    for (double x : centred) mean += x;
    mean /= static_cast<double>(centred.size());
    for (double& x : centred) x -= mean;

    if (config_.scheme == phy::UplinkScheme::kFsk) {
      thread_local std::vector<double> powers;
      powers.resize(config_.mod_frequencies_hz.size());
      for (std::size_t f = 0; f < powers.size(); ++f)
        powers[f] =
            dsp::goertzel_power(centred, config_.mod_frequencies_hz[f], slow_fs);
      std::size_t best = 0;
      for (std::size_t f = 1; f < powers.size(); ++f)
        if (powers[f] > powers[best]) best = f;
      double runner_up = 0.0;
      for (std::size_t f = 0; f < powers.size(); ++f)
        if (f != best) runner_up = std::max(runner_up, powers[f]);
      out.symbols.push_back(best);
      out.symbol_confidence.push_back(
          runner_up > 0.0 ? powers[best] / runner_up : powers[best]);
    } else {
      // OOK: compare the assigned tone against an off-tone noise estimate.
      const double f_on = config_.mod_frequencies_hz.front();
      const double on_power = dsp::goertzel_power(centred, f_on, slow_fs);
      // Probe a few frequencies away from the tone (and its 2nd harmonic).
      thread_local std::vector<double> probes;
      probes.clear();
      for (double factor : {0.37, 0.61, 1.43, 1.71}) {
        const double f = f_on * factor;
        if (f < slow_fs / 2.0)
          probes.push_back(dsp::goertzel_power(centred, f, slow_fs));
      }
      const double noise = probes.empty() ? 1e-30 : bis::median(probes);
      const bool bit = on_power > ook_threshold_ratio_ * std::max(noise, 1e-30);
      out.symbols.push_back(bit ? 1 : 0);
      out.symbol_confidence.push_back(on_power / std::max(noise, 1e-30));
    }
  }
  // Inline symbols_to_bits (same MSB-first expansion and range check),
  // appending into the retained bits buffer.
  out.bits.reserve(out.symbols.size() * bps);
  for (auto sym : out.symbols) {
    BIS_CHECK(sym < (static_cast<std::size_t>(1) << bps));
    for (std::size_t b = bps; b-- > 0;)
      out.bits.push_back(static_cast<int>((sym >> b) & 1));
  }
  static obs::Counter& symbols =
      obs::Registry::instance().counter("bis.radar.uplink_symbols_decoded");
  symbols.add(out.symbols.size());
}

}  // namespace bis::radar
