#include "dsp/matched_filter.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "dsp/types.hpp"

namespace bis::dsp {

RVec square_wave_signature(double mod_freq, double duty,
                           std::size_t n_chirps, double chirp_period,
                           std::size_t n_fft, std::size_t n_harmonics) {
  BIS_CHECK(mod_freq > 0.0);
  BIS_CHECK(duty > 0.0 && duty < 1.0);
  BIS_CHECK(n_chirps > 1);
  BIS_CHECK(chirp_period > 0.0);
  BIS_CHECK(n_fft >= n_chirps);

  const double slow_fs = 1.0 / chirp_period;  // slow-time sample rate
  RVec sig(n_fft / 2 + 1, 0.0);
  const double bin_hz = slow_fs / static_cast<double>(n_fft);

  // Fourier series of a unipolar square wave with the given duty cycle:
  // |c_k| = duty·|sinc(k·duty)| at harmonics k·mod_freq. Windowed over
  // n_chirps samples, each harmonic spreads into a Dirichlet kernel; we place
  // the kernel main lobe (±1 bin of the exact frequency) per harmonic.
  for (std::size_t h = 1; h <= n_harmonics; ++h) {
    const double fh = mod_freq * static_cast<double>(h);
    if (fh >= slow_fs / 2.0) break;
    const double arg = kPi * static_cast<double>(h) * duty;
    const double amp = duty * std::abs(arg == 0.0 ? 1.0 : std::sin(arg) / arg);
    const double pos = fh / bin_hz;
    const auto centre = static_cast<long long>(std::llround(pos));
    for (long long b = centre - 1; b <= centre + 1; ++b) {
      if (b < 0 || b >= static_cast<long long>(sig.size())) continue;
      const double dist = std::abs(static_cast<double>(b) - pos);
      // Triangular approximation of the main lobe is adequate for matching.
      const double lobe = std::max(0.0, 1.0 - dist);
      sig[static_cast<std::size_t>(b)] += amp * lobe;
    }
  }
  return sig;
}

double signature_score(std::span<const double> spectrum, std::span<const double> signature) {
  BIS_CHECK(spectrum.size() == signature.size());
  // Contrast between the signature-weighted power and the off-signature
  // level. (A plain cosine similarity is useless here: spectra are
  // non-negative, so any broadband spectrum correlates highly with any
  // signature.) Returns ≈1 when the energy sits on the signature comb,
  // ≈0 for a flat spectrum, <0 when the comb is depressed.
  //
  // One-pass form: accumulate the total non-DC power alongside the
  // on-support sums and recover the off-support power as total − spec_on.
  // This lets TagDetector::detect_many reuse one shared total per range bin
  // across every tag's signature while staying bit-identical to this
  // reference (see signature_score_from).
  double on = 0.0, on_w = 0.0, spec_on = 0.0, total = 0.0;
  std::size_t n_on = 0;
  for (std::size_t i = 1; i < spectrum.size(); ++i) {  // skip DC
    total += spectrum[i];
    if (signature[i] > 0.0) {
      on += spectrum[i] * signature[i];
      on_w += signature[i];
      spec_on += spectrum[i];
      ++n_on;
    }
  }
  const std::size_t off_n = (spectrum.size() - 1) - n_on;
  return signature_score_from(on, on_w, spec_on, total, off_n);
}

double signature_score_from(double on, double on_w, double spec_on,
                            double total, std::size_t off_n) {
  if (on_w == 0.0 || off_n == 0) return 0.0;
  const double on_mean = on / on_w;
  const double off_mean = (total - spec_on) / static_cast<double>(off_n);
  const double denom = on_mean + off_mean;
  if (denom <= 0.0) return 0.0;
  return (on_mean - off_mean) / denom;
}

}  // namespace bis::dsp
