#include "dsp/tone_fit.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "dsp/kernels/kernels.hpp"

namespace bis::dsp {
namespace {

using kernels::kToneGlrtLanes;

/// Gram sums of the weighted design columns, the first plan runs.
constexpr std::size_t kGramSums = 5;
static_assert(kernels::kGlrtCc == 0 && kernels::kGlrtSu == kGramSums - 1);

}  // namespace

ToneGlrtBank::ToneGlrtBank(std::span<const double> freqs, double fs,
                           std::size_t max_length)
    : n_freqs_(freqs.size()),
      stride_((freqs.size() + kToneGlrtLanes - 1) / kToneGlrtLanes *
              kToneGlrtLanes),
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
  win.plan_.resize(kernels::kGlrtRuns * stride_);
  for (const double w : weights) win.uu_ += w * w;
  for (std::size_t f0 = 0; f0 < stride_; f0 += kToneGlrtLanes) {
    double g[kGramSums][kToneGlrtLanes] = {};
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const double w = weights[i];
      const double* cos_i = cos_.data() + i * stride_ + f0;
      const double* sin_i = sin_.data() + i * stride_ + f0;
      for (std::size_t k = 0; k < kToneGlrtLanes; ++k) {
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
      std::copy_n(g[j], kToneGlrtLanes, win.plan_.data() + j * stride_ + f0);
  }
  // The data-free part of the 3×3 Cramer solve over G = [[cc, cs, cu],
  // [cs, ss, su], [cu, su, uu]], expanded along the first row.
  const double uu = win.uu_;
  const auto run = [&](kernels::ToneGlrtRun r) {
    return win.plan_.data() + r * stride_;
  };
  for (std::size_t f = 0; f < stride_; ++f) {
    const double cc = run(kernels::kGlrtCc)[f], cs = run(kernels::kGlrtCs)[f];
    const double cu = run(kernels::kGlrtCu)[f], ss = run(kernels::kGlrtSs)[f];
    const double su = run(kernels::kGlrtSu)[f];
    const double m0 = ss * uu - su * su;
    const double m1 = cs * uu - su * cu;
    const double m2 = cs * su - ss * cu;
    const double det = cc * m0 - cs * m1 + cu * m2;
    run(kernels::kGlrtM0)[f] = m0;
    run(kernels::kGlrtM1)[f] = m1;
    run(kernels::kGlrtM2)[f] = m2;
    run(kernels::kGlrtInvDet)[f] = std::abs(det) < 1e-30 ? 0.0 : 1.0 / det;
  }
  return win;
}

void ToneGlrtBank::scores(std::span<const double> x, const Window& window,
                          std::span<double> out) const {
  BIS_CHECK(x.size() == window.size());
  BIS_CHECK(window.plan_.size() == kernels::kGlrtRuns * stride_);
  BIS_CHECK(out.size() == n_freqs_);
  if (x.size() < 4) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  kernels::ktoneglrt(x, window.weights_, cos_, sin_, window.plan_, window.uu_,
                     out);
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

  // Solve for the coefficients (Cramer, as the planned bank does, keeping θ).
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
