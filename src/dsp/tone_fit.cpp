#include "dsp/tone_fit.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"

namespace bis::dsp {
namespace {

/// Gram sums a Window stores per frequency (Σcc, Σcs, Σcw, Σss, Σsw).
constexpr std::size_t kGramSums = 5;
/// Frequencies scored side by side: the bank pads its frequency count to a
/// multiple of this, so every block has a fixed trip count the compiler
/// maps onto vector lanes. Each lane still sums its samples i = 0…n−1.
constexpr std::size_t kLanes = 8;

/// Solve the symmetric 3×3 system G·θ = b by Cramer's rule and return the
/// explained energy bᵀθ. Returns 0 for a singular system.
double explained_energy(const double g[3][3], const double b[3]) {
  const double det = g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1]) -
                     g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0]) +
                     g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]);
  if (std::abs(det) < 1e-30) return 0.0;
  const double inv_det = 1.0 / det;
  double theta[3];
  for (int i = 0; i < 3; ++i) {
    double m[3][3];
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c) m[r][c] = g[r][c];
    for (int r = 0; r < 3; ++r) m[r][i] = b[r];
    const double det_i = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
                         m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
                         m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    theta[i] = det_i * inv_det;
  }
  return b[0] * theta[0] + b[1] * theta[1] + b[2] * theta[2];
}

}  // namespace

ToneGlrtBank::ToneGlrtBank(std::span<const double> freqs, double fs,
                           std::size_t max_length)
    : n_freqs_(freqs.size()),
      stride_((freqs.size() + kLanes - 1) / kLanes * kLanes),
      max_length_(max_length),
      cos_(max_length * stride_, 0.0),
      sin_(max_length * stride_, 0.0) {
  BIS_CHECK(fs > 0.0);
  for (std::size_t f = 0; f < n_freqs_; ++f) {
    const double freq = freqs[f];
    BIS_CHECK(freq > 0.0 && freq < fs / 2.0);
    const double omega = kTwoPi * freq / fs;
    for (std::size_t i = 0; i < max_length_; ++i) {
      cos_[i * stride_ + f] = std::cos(omega * static_cast<double>(i));
      sin_[i * stride_ + f] = std::sin(omega * static_cast<double>(i));
    }
  }
}

ToneGlrtBank::Window ToneGlrtBank::window(std::span<const double> weights) const {
  BIS_CHECK(weights.size() <= max_length_);
  Window win;
  win.weights_.assign(weights.begin(), weights.end());
  win.gram_.resize(kGramSums * stride_);
  for (const double w : weights) win.uu_ += w * w;
  for (std::size_t f0 = 0; f0 < stride_; f0 += kLanes) {
    double g[kGramSums][kLanes] = {};
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const double w = weights[i];
      const double* cos_i = cos_.data() + i * stride_ + f0;
      const double* sin_i = sin_.data() + i * stride_ + f0;
      for (std::size_t k = 0; k < kLanes; ++k) {
        const double c = w * cos_i[k];
        const double s = w * sin_i[k];
        g[0][k] += c * c;
        g[1][k] += c * s;
        g[2][k] += c * w;
        g[3][k] += s * s;
        g[4][k] += s * w;
      }
    }
    for (std::size_t j = 0; j < kGramSums; ++j)
      std::copy_n(g[j], kLanes, win.gram_.data() + j * stride_ + f0);
  }
  return win;
}

void ToneGlrtBank::scores(std::span<const double> x, const Window& window,
                          std::span<double> out) const {
  BIS_CHECK(x.size() == window.size());
  BIS_CHECK(window.gram_.size() == kGramSums * stride_);
  BIS_CHECK(out.size() == n_freqs_);
  const std::size_t n = x.size();
  if (n < 4) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const double* w = window.weights_.data();
  // The DC column's projection w·(w·x) is the same for every frequency.
  double ux = 0.0;
  for (std::size_t i = 0; i < n; ++i) ux += w[i] * (w[i] * x[i]);
  const double uu = window.uu_;
  const double dc_only = uu > 0.0 ? ux * ux / uu : 0.0;
  const double* g = window.gram_.data();

  for (std::size_t f0 = 0; f0 < stride_; f0 += kLanes) {
    double bc[kLanes] = {};
    double bs[kLanes] = {};
    for (std::size_t i = 0; i < n; ++i) {
      const double xv = w[i] * x[i];
      const double* cos_i = cos_.data() + i * stride_ + f0;
      const double* sin_i = sin_.data() + i * stride_ + f0;
      for (std::size_t k = 0; k < kLanes; ++k) {
        bc[k] += (w[i] * cos_i[k]) * xv;
        bs[k] += (w[i] * sin_i[k]) * xv;
      }
    }
    for (std::size_t f = f0; f < std::min(f0 + kLanes, n_freqs_); ++f) {
      const double cc = g[f], cs = g[stride_ + f], cu = g[2 * stride_ + f];
      const double ss = g[3 * stride_ + f], su = g[4 * stride_ + f];
      const double gm[3][3] = {{cc, cs, cu}, {cs, ss, su}, {cu, su, uu}};
      const double b[3] = {bc[f - f0], bs[f - f0], ux};
      out[f] = std::max(0.0, explained_energy(gm, b) - dc_only);
    }
  }
}

namespace {

void scores_once(std::span<const double> x, std::span<const double> freqs,
                 double fs, std::span<const double> weights,
                 std::span<double> out) {
  BIS_CHECK(weights.empty() || weights.size() == x.size());
  const ToneGlrtBank bank(freqs, fs, x.size());
  const std::vector<double> ones(weights.empty() ? x.size() : 0, 1.0);
  bank.scores(x, bank.window(weights.empty() ? ones : weights), out);
}

}  // namespace

double tone_glrt_score(std::span<const double> x, double freq, double fs,
                       std::span<const double> weights) {
  double score = 0.0;
  scores_once(x, std::span<const double>(&freq, 1), fs, weights,
              std::span<double>(&score, 1));
  return score;
}

std::vector<double> tone_glrt_scores(std::span<const double> x,
                                     std::span<const double> freqs, double fs,
                                     std::span<const double> weights) {
  std::vector<double> out(freqs.size());
  scores_once(x, freqs, fs, weights, out);
  return out;
}

ToneFit tone_fit(std::span<const double> x, double freq, double fs,
                 std::span<const double> weights) {
  BIS_CHECK(fs > 0.0);
  BIS_CHECK(freq > 0.0 && freq < fs / 2.0);
  BIS_CHECK(weights.empty() || weights.size() == x.size());
  ToneFit fit;
  const std::size_t n = x.size();
  if (n < 4) return fit;

  const double omega = kTwoPi * freq / fs;
  double g[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  double b[3] = {0, 0, 0};
  double uu = 0.0, ux = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    const double c = w * std::cos(omega * static_cast<double>(i));
    const double s = w * std::sin(omega * static_cast<double>(i));
    const double u = w;
    const double xv = w * x[i];
    g[0][0] += c * c;
    g[0][1] += c * s;
    g[0][2] += c * u;
    g[1][1] += s * s;
    g[1][2] += s * u;
    g[2][2] += u * u;
    b[0] += c * xv;
    b[1] += s * xv;
    b[2] += u * xv;
    uu += u * u;
    ux += u * xv;
  }
  g[1][0] = g[0][1];
  g[2][0] = g[0][2];
  g[2][1] = g[1][2];

  // Solve for the coefficients (Cramer, as in explained_energy but keeping θ).
  const double det = g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1]) -
                     g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0]) +
                     g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]);
  if (std::abs(det) < 1e-30) return fit;
  const double inv_det = 1.0 / det;
  double theta[3];
  for (int i = 0; i < 3; ++i) {
    double m[3][3];
    for (int r = 0; r < 3; ++r)
      for (int c2 = 0; c2 < 3; ++c2) m[r][c2] = g[r][c2];
    for (int r = 0; r < 3; ++r) m[r][i] = b[r];
    const double det_i = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
                         m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
                         m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    theta[i] = det_i * inv_det;
  }
  fit.a = theta[0];
  fit.b = theta[1];
  fit.dc = theta[2];
  const double full = b[0] * theta[0] + b[1] * theta[1] + b[2] * theta[2];
  const double dc_only = uu > 0.0 ? ux * ux / uu : 0.0;
  fit.score = std::max(0.0, full - dc_only);
  // a·cos(ωn) + b·sin(ωn) = A·cos(ωn + φ) with φ = atan2(−b, a).
  fit.phase_rad = std::atan2(-fit.b, fit.a);
  return fit;
}

double tone_known_phase_score(std::span<const double> x, double freq,
                              double phase_rad, double fs,
                              std::span<const double> weights) {
  BIS_CHECK(fs > 0.0);
  BIS_CHECK(freq > 0.0 && freq < fs / 2.0);
  BIS_CHECK(weights.empty() || weights.size() == x.size());
  const std::size_t n = x.size();
  if (n < 4) return 0.0;

  // 2×2 LS: columns t[n] = w·cos(ωn + φ) and u[n] = w.
  const double omega = kTwoPi * freq / fs;
  double tt = 0.0, tu = 0.0, uu = 0.0, tx = 0.0, ux = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    const double t = w * std::cos(omega * static_cast<double>(i) + phase_rad);
    const double u = w;
    const double xv = w * x[i];
    tt += t * t;
    tu += t * u;
    uu += u * u;
    tx += t * xv;
    ux += u * xv;
  }
  const double det = tt * uu - tu * tu;
  if (std::abs(det) < 1e-30 || uu <= 0.0) return 0.0;
  const double a = (tx * uu - ux * tu) / det;
  const double d = (ux * tt - tx * tu) / det;
  const double full = a * tx + d * ux;
  const double dc_only = ux * ux / uu;
  return std::max(0.0, full - dc_only);
}

}  // namespace bis::dsp
