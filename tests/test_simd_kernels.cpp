// SIMD kernel layer: bit-identity of every kernel across all available
// dispatch targets, against independent scalar references written here (not
// the library's own scalar backend). Covers empty spans, length 1, lane
// width ± 1, misaligned sub-spans, and end-to-end LinkSimulator frame parity.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "core/link_simulator.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/tone_fit.hpp"
#include "dsp/types.hpp"
#include "dsp/window.hpp"
#include "rf/adc.hpp"

namespace bis::dsp::kernels {
namespace {

// ---------------------------------------------------------------------------
// Deterministic data + bitwise comparison helpers

/// Deterministic pseudo-random doubles in roughly [-1, 1): an LCG so the test
/// owns its data (no RNG library dependence, identical on every platform).
double det(std::uint64_t i) {
  std::uint64_t s = i * 6364136223846793005ull + 1442695040888963407ull;
  s ^= s >> 33;
  return static_cast<double>(static_cast<std::int64_t>(s)) / 9.3e18;
}

RVec det_real(std::size_t n, std::uint64_t salt = 0) {
  RVec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = det(i + 1000 * salt);
  return v;
}

CVec det_complex(std::size_t n, std::uint64_t salt = 0) {
  CVec v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = cdouble(det(2 * i + 1000 * salt), det(2 * i + 1 + 1000 * salt));
  return v;
}

::testing::AssertionResult bits_eq(std::span<const double> a,
                                   std::span<const double> b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i]
             << " (bit patterns differ)";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult bits_eq(std::span<const cdouble> a,
                                   std::span<const cdouble> b) {
  return bits_eq(
      std::span<const double>(reinterpret_cast<const double*>(a.data()), 2 * a.size()),
      std::span<const double>(reinterpret_cast<const double*>(b.data()), 2 * b.size()));
}

::testing::AssertionResult bits_eq(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b))
    return ::testing::AssertionFailure() << a << " vs " << b << " (bits differ)";
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Independent references (NOT the library's scalar backend)

RVec ref_mag(std::span<const cdouble> x) {
  RVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = std::sqrt(x[i].real() * x[i].real() + x[i].imag() * x[i].imag());
  return out;
}

RVec ref_norm(std::span<const cdouble> x) {
  RVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
  return out;
}

/// The documented normative reduction: 4 independent accumulators over full
/// blocks combined as (acc0 + acc1) + (acc2 + acc3), sequential tail.
double ref_blocked_sum_sq(std::span<const double> x) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = x.size() - x.size() % 4;
  for (std::size_t i = 0; i < n4; i += 4)
    for (std::size_t j = 0; j < 4; ++j) acc[j] += x[i + j] * x[i + j];
  double sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (std::size_t i = n4; i < x.size(); ++i) sum += x[i] * x[i];
  return sum;
}

/// The per-sample scorer the planned tone GLRT bank replaced, kept as its
/// reference: libm cos/sin at every sample, all eleven sums in one pass,
/// Cramer solve. Sets @p det to the 3×3 system's determinant (0 below 4
/// samples).
double reference_glrt(std::span<const double> x, double freq, double fs,
                      std::span<const double> weights, double& det) {
  det = 0.0;
  const std::size_t n = x.size();
  if (n < 4) return 0.0;
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
  const auto det3 = [](const double m[3][3]) {
    return m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
           m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
           m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
  };
  det = det3(g);
  double full = 0.0;
  if (std::abs(det) >= 1e-30) {
    const double inv_det = 1.0 / det;
    double theta[3];
    for (int k = 0; k < 3; ++k) {
      double m[3][3];
      for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) m[r][c] = g[r][c];
      for (int r = 0; r < 3; ++r) m[r][k] = b[r];
      theta[k] = det3(m) * inv_det;
    }
    full = b[0] * theta[0] + b[1] * theta[1] + b[2] * theta[2];
  }
  const double dc_only = uu > 0.0 ? ux * ux / uu : 0.0;
  return std::max(0.0, full - dc_only);
}

// ---------------------------------------------------------------------------
// Target iteration

std::vector<SimdTarget> available_targets() {
  std::vector<SimdTarget> out;
  for (SimdTarget t : {SimdTarget::kScalar, SimdTarget::kSse2, SimdTarget::kAvx2})
    if (target_available(t)) out.push_back(t);
  return out;
}

/// Restores the pre-test dispatch target (dispatch state is process-global).
class SimdKernels : public ::testing::Test {
 protected:
  void TearDown() override { set_target(saved_); }
  SimdTarget saved_ = active_target();
};

const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 1000};

}  // namespace

TEST_F(SimdKernels, ScalarAlwaysAvailable) {
  EXPECT_TRUE(target_available(SimdTarget::kScalar));
  EXPECT_TRUE(set_target(SimdTarget::kScalar));
  EXPECT_EQ(active_target(), SimdTarget::kScalar);
  EXPECT_STREQ(target_name(SimdTarget::kScalar), "scalar");
}

TEST_F(SimdKernels, NameBasedOverride) {
  EXPECT_TRUE(set_target("scalar"));
  EXPECT_TRUE(set_target("off"));  // alias
  EXPECT_EQ(active_target(), SimdTarget::kScalar);
  EXPECT_FALSE(set_target("avx512"));
  EXPECT_FALSE(set_target(""));
  EXPECT_EQ(active_target(), SimdTarget::kScalar);  // unchanged on failure
}

TEST_F(SimdKernels, ElementwiseKernelsMatchReferenceOnAllTargets) {
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (std::size_t n : kSizes) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const auto xc = det_complex(n, 1);
      const auto xr = det_real(n, 3);
      const auto w = det_real(n, 4);

      RVec out(n);
      kmag(xc, out);
      EXPECT_TRUE(bits_eq(out, ref_mag(xc)));
      knorm(xc, out);
      EXPECT_TRUE(bits_eq(out, ref_norm(xc)));

      kapply_window(xr, w, out);
      {
        RVec ref(n);
        for (std::size_t i = 0; i < n; ++i) ref[i] = xr[i] * w[i];
        EXPECT_TRUE(bits_eq(out, ref));
      }
      CVec outc(n);
      kapply_window(xc, w, outc);
      {
        CVec ref(n);
        for (std::size_t i = 0; i < n; ++i)
          ref[i] = cdouble(xc[i].real() * w[i], xc[i].imag() * w[i]);
        EXPECT_TRUE(bits_eq(outc, ref));
      }

      {
        RVec y = det_real(n, 5);
        RVec ref = y;
        kaxpy(0.37, xr, y);
        for (std::size_t i = 0; i < n; ++i) ref[i] += 0.37 * xr[i];
        EXPECT_TRUE(bits_eq(y, ref));
      }
      {
        RVec y = det_real(n, 6);
        RVec ref = y;
        kscale_add(y, 1.75, 0.37, xr);
        for (std::size_t i = 0; i < n; ++i) ref[i] = 1.75 * (ref[i] + 0.37 * xr[i]);
        EXPECT_TRUE(bits_eq(y, ref));
      }
      {
        RVec y = det_real(n, 7);
        RVec ref = y;
        kscale(std::span<double>(y), 0.731);
        for (double& v : ref) v *= 0.731;
        EXPECT_TRUE(bits_eq(y, ref));
      }
      {
        CVec y = det_complex(n, 8);
        CVec ref = y;
        kscale(std::span<cdouble>(y), 0.731);
        for (auto& v : ref) v = cdouble(v.real() * 0.731, v.imag() * 0.731);
        EXPECT_TRUE(bits_eq(std::span<const cdouble>(y), std::span<const cdouble>(ref)));
      }
    }
  }
}

TEST_F(SimdKernels, ReductionsMatchLaneBlockedReferenceOnAllTargets) {
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (std::size_t n : kSizes) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const auto x = det_real(n, 11);
      EXPECT_TRUE(bits_eq(ksum_sq(x), ref_blocked_sum_sq(x)));
    }
  }
}

TEST_F(SimdKernels, SubSpansAtEveryAlignmentOffset) {
  // Kernels must not depend on 16/32-byte alignment: slice a big buffer at
  // offsets 0..3 with lengths around the lane width.
  const auto base_c = det_complex(64, 21);
  const auto base_r = det_real(64, 22);
  const auto base_w = det_real(64, 23);
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (std::size_t off = 0; off < 4; ++off) {
      for (std::size_t len : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{5}, std::size_t{8}, std::size_t{9}}) {
        SCOPED_TRACE("off=" + std::to_string(off) + " len=" + std::to_string(len));
        const auto xc = std::span<const cdouble>(base_c).subspan(off, len);
        const auto xr = std::span<const double>(base_r).subspan(off, len);
        const auto w = std::span<const double>(base_w).subspan(off, len);
        RVec out(len);
        kmag(xc, out);
        EXPECT_TRUE(bits_eq(out, ref_mag(xc)));
        kapply_window(xr, w, out);
        RVec ref(len);
        for (std::size_t i = 0; i < len; ++i) ref[i] = xr[i] * w[i];
        EXPECT_TRUE(bits_eq(out, ref));
        EXPECT_TRUE(bits_eq(ksum_sq(xr), ref_blocked_sum_sq(xr)));
      }
    }
  }
}

TEST_F(SimdKernels, ApplyWindowSupportsAliasedOutput) {
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    RVec x = det_real(37, 31);
    const auto w = det_real(37, 32);
    RVec ref(37);
    for (std::size_t i = 0; i < 37; ++i) ref[i] = x[i] * w[i];
    kapply_window(x, w, x);  // in place
    EXPECT_TRUE(bits_eq(x, ref));
    CVec xc = det_complex(37, 33);
    CVec refc(37);
    for (std::size_t i = 0; i < 37; ++i)
      refc[i] = cdouble(xc[i].real() * w[i], xc[i].imag() * w[i]);
    kapply_window(xc, w, xc);
    EXPECT_TRUE(bits_eq(std::span<const cdouble>(xc), std::span<const cdouble>(refc)));
  }
}

TEST_F(SimdKernels, EmptySpansAreNoOps) {
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    EXPECT_EQ(ksum_sq(std::span<const double>()), 0.0);
    kmag(std::span<const cdouble>(), std::span<double>());
    knorm(std::span<const cdouble>(), std::span<double>());
    kscale(std::span<double>(), 2.0);
    kbutterfly(std::span<double>(), std::span<double>(), std::span<double>(),
               std::span<double>(), 1.0, 0.0);
    kuntangle_norm(std::span<const double>(), std::span<const double>(),
                   std::span<const double>(), std::span<const double>(), 1.0,
                   0.0, std::span<double>());
    kquantize(std::span<double>(), 1.0, 1.0 / 2048.0, -2048.0, 2047.0);
  }
}

/// Quantizer inputs for one ADC: every tie (k + ½)·lsb and the double just
/// below it for k across the code range (all k at few bits, the ends and a
/// stride at many), signed zeros and tiny negatives, full scale and beyond,
/// infinities and a NaN.
RVec quantizer_inputs(const rf::Adc& adc) {
  const double lsb = adc.lsb();
  const double fs = adc.config().full_scale;
  const double half = fs / lsb;  // levels / 2
  RVec x;
  const auto add_tie = [&](double k) {
    const double tie = (k + 0.5) * lsb;
    x.push_back(tie);
    x.push_back(std::nextafter(tie, -std::numeric_limits<double>::infinity()));
  };
  if (half <= 4096.0) {
    for (double k = -half - 2.0; k <= half + 1.0; k += 1.0) add_tie(k);
  } else {
    for (double k = -40.0; k <= 40.0; k += 1.0) add_tie(k);
    for (double k = -half - 2.0; k <= -half + 2.0; k += 1.0) add_tie(k);
    for (double k = half - 3.0; k <= half + 1.0; k += 1.0) add_tie(k);
    for (double k = -half; k < half; k += std::floor(half / 997.0)) add_tie(k);
  }
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (const double v : {0.0, -0.0, -denorm, denorm, -1e-300, -0.25 * lsb,
                         -0.5 * lsb, 0.5 * lsb, -0.75 * lsb, fs, -fs,
                         std::nextafter(fs, 2.0 * fs), -std::nextafter(fs, 2.0 * fs),
                         1.5 * fs, -1.5 * fs, 1e300, -1e300})
    x.push_back(v);
  x.push_back(std::numeric_limits<double>::infinity());
  x.push_back(-std::numeric_limits<double>::infinity());
  x.push_back(std::numeric_limits<double>::quiet_NaN());
  return x;
}

TEST_F(SimdKernels, QuantizeMatchesAdcOnAllTargets) {
  // Adc::quantize(span) runs kquantize on the active target; the reference
  // is the per-value Adc::quantize(double) (std::clamp, std::round). Inputs
  // are quantized from every start offset 0–3, so each element also lands in
  // the tail of some run, and run lengths with n % 4 = 1, 2, 3 occur.
  for (const unsigned bits : {1u, 12u, 31u, 32u}) {
    for (const double fs : {1.0, 1.65}) {
      rf::AdcConfig cfg;
      cfg.bits = bits;
      cfg.full_scale = fs;
      const rf::Adc adc(cfg);
      const RVec x = quantizer_inputs(adc);
      RVec ref(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) ref[i] = adc.quantize(x[i]);
      EXPECT_TRUE(std::signbit(adc.quantize(-0.0)) && adc.quantize(-0.0) == 0.0);
      EXPECT_TRUE(std::signbit(adc.quantize(-1e-300)));
      for (SimdTarget t : available_targets()) {
        ASSERT_TRUE(set_target(t));
        SCOPED_TRACE(std::string(target_name(t)) + " bits=" +
                     std::to_string(bits) + " fs=" + std::to_string(fs));
        for (std::size_t offset = 0; offset < 4; ++offset) {
          RVec y = x;
          adc.quantize(std::span<double>(y).subspan(offset));
          for (std::size_t i = 0; i < x.size(); ++i) {
            const double want = i < offset ? x[i] : ref[i];
            if (std::isnan(want)) {
              EXPECT_TRUE(std::isnan(y[i])) << "element " << i;
            } else {
              ASSERT_TRUE(bits_eq(y[i], want))
                  << "element " << i << " (input " << x[i] << ", offset "
                  << offset << ")";
            }
          }
        }
      }
    }
  }
}

TEST_F(SimdKernels, LinkSimulatorFrameOutputBitIdenticalAcrossTargets) {
  // The acceptance gate: the full integrated frame (downlink decode + uplink
  // detection + localization) must be bit-identical on every dispatch target.
  struct FrameResult {
    bool locked, crc_ok, found;
    std::size_t dl_errors, ul_errors;
    double range_m, snr_db, mod_power, signature_score;
  };
  std::vector<FrameResult> results;
  const auto targets = available_targets();
  for (SimdTarget t : targets) {
    ASSERT_TRUE(set_target(t));
    core::SystemConfig cfg;
    cfg.tag_range_m = 2.5;
    cfg.seed = 7;
    cfg.dsp_threads = 1;
    core::LinkSimulator sim(cfg);
    sim.calibrate_tag();
    Rng rng(3);
    const auto payload = rng.bits(64);
    const phy::Bits ul = {1, 0, 1, 1, 0, 1};
    const auto r = sim.run_integrated(payload, ul);
    results.push_back({r.downlink.locked, r.downlink.crc_ok,
                       r.uplink.detection.found, r.downlink.bit_errors,
                       r.uplink.bit_errors, r.uplink.detection.range_m,
                       r.uplink.detection.snr_db, r.uplink.detection.mod_power,
                       r.uplink.detection.signature_score});
  }
  ASSERT_FALSE(results.empty());
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE(std::string(target_name(targets[i])) + " vs " +
                 target_name(targets[0]));
    EXPECT_EQ(results[i].locked, results[0].locked);
    EXPECT_EQ(results[i].crc_ok, results[0].crc_ok);
    EXPECT_EQ(results[i].found, results[0].found);
    EXPECT_EQ(results[i].dl_errors, results[0].dl_errors);
    EXPECT_EQ(results[i].ul_errors, results[0].ul_errors);
    EXPECT_TRUE(bits_eq(results[i].range_m, results[0].range_m));
    EXPECT_TRUE(bits_eq(results[i].snr_db, results[0].snr_db));
    EXPECT_TRUE(bits_eq(results[i].mod_power, results[0].mod_power));
    EXPECT_TRUE(bits_eq(results[i].signature_score, results[0].signature_score));
  }
}

TEST_F(SimdKernels, RowFftKernelsMatchScalarReferenceOnAllTargets) {
  // kbutterfly (with and without a twiddle) and kuntangle_norm run one
  // column per lane; every column must equal the FFT plan's scalar
  // butterfly and rfft's untangle followed by re² + im², at full-block and
  // tail widths.
  const double wr = std::cos(0.3), wi = -std::sin(0.3);
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (std::size_t n : kSizes) {
      SCOPED_TRACE("width=" + std::to_string(n));
      const RVec ar = det_real(n, 1), ai = det_real(n, 2);
      const RVec br = det_real(n, 3), bi = det_real(n, 4);
      RVec ref[4] = {RVec(n), RVec(n), RVec(n), RVec(n)};
      RVec unit[4] = {RVec(n), RVec(n), RVec(n), RVec(n)};
      RVec ref_norm(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double vr = br[i] * wr - bi[i] * wi;
        const double vi = br[i] * wi + bi[i] * wr;
        ref[0][i] = ar[i] + vr;
        ref[1][i] = ai[i] + vi;
        ref[2][i] = ar[i] - vr;
        ref[3][i] = ai[i] - vi;
        unit[0][i] = ar[i] + br[i];
        unit[1][i] = ai[i] + bi[i];
        unit[2][i] = ar[i] - br[i];
        unit[3][i] = ai[i] - bi[i];
        // rfft's untangle of Z[k] = (ar, ai) against Z[h−k] = (br, bi).
        const double cr = br[i], ci = -bi[i];
        const double er = 0.5 * (ar[i] + cr), ei = 0.5 * (ai[i] + ci);
        const double od = 0.5 * (ai[i] - ci), oi = -0.5 * (ar[i] - cr);
        const double xr = er + wr * od - wi * oi;
        const double xi = ei + wr * oi + wi * od;
        ref_norm[i] = xr * xr + xi * xi;
      }
      RVec got[4] = {ar, ai, br, bi};
      kbutterfly(got[0], got[1], got[2], got[3], wr, wi);
      for (int r = 0; r < 4; ++r) EXPECT_TRUE(bits_eq(got[r], ref[r])) << r;
      RVec got_unit[4] = {ar, ai, br, bi};
      kbutterfly(got_unit[0], got_unit[1], got_unit[2], got_unit[3]);
      for (int r = 0; r < 4; ++r)
        EXPECT_TRUE(bits_eq(got_unit[r], unit[r])) << "unit " << r;
      RVec got_norm(n, -1.0);
      kuntangle_norm(ar, ai, br, bi, wr, wi, got_norm);
      EXPECT_TRUE(bits_eq(got_norm, ref_norm));
    }
  }
}

TEST_F(SimdKernels, TagScoreBankMatchesPerRowScalarReference) {
  // Entry-major bank: element [k·n + j] is entry k of row j. The reference
  // is the one-row two-accumulator loop the kernel doc promises bit-identity
  // with (k ascending, unfused). Row counts straddle the SSE2 (2) and AVX2
  // (4) lane widths; bank includes padding entries (idx = 0, w = g = 0) like
  // detect_many emits for short harmonic combs.
  const std::size_t n_spec = 96;
  const auto spec = [&] {
    RVec s(n_spec);
    for (std::size_t i = 0; i < n_spec; ++i) s[i] = std::abs(det(i + 5000)) + 1e-12;
    return s;
  }();
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{4}, std::size_t{5},
                          std::size_t{7}, std::size_t{8}, std::size_t{9},
                          std::size_t{33}}) {
      SCOPED_TRACE("rows=" + std::to_string(n));
      const std::size_t entries = 7;
      std::vector<std::uint32_t> idx(entries * n, 0);
      RVec w(entries * n, 0.0), g(entries * n, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        // Row j uses 3 + j % 5 live entries; the rest stay as padding.
        const std::size_t live = 3 + j % 5;
        for (std::size_t k = 0; k < live; ++k) {
          const std::size_t e = k * n + j;
          idx[e] = static_cast<std::uint32_t>((11 * j + 17 * k + 1) % n_spec);
          w[e] = 1.0 / static_cast<double>(2 * k + 1);
          g[e] = 1.0;
        }
      }
      RVec on(n, -1.0), son(n, -1.0);
      ktagscore(spec, idx, w, g, n, on, son);
      RVec ref_on(n), ref_son(n);
      for (std::size_t j = 0; j < n; ++j) {
        double a = 0.0, b = 0.0;
        for (std::size_t k = 0; k < entries; ++k) {
          const std::size_t e = k * n + j;
          const double xv = spec[idx[e]];
          a = a + w[e] * xv;
          b = b + g[e] * xv;
        }
        ref_on[j] = a;
        ref_son[j] = b;
      }
      EXPECT_TRUE(bits_eq(on, ref_on));
      EXPECT_TRUE(bits_eq(son, ref_son));
    }
  }
}

TEST_F(SimdKernels, ToneGlrtBankMatchesReferenceBitForBit) {
  // ktoneglrt through dsp::ToneGlrtBank, against the per-sample reference:
  // frequencies near 0 and near fs/2 around the tag's beat band, a bank of
  // 9 (stride 16) and one of 38 (stride 40, the decoder's slot count), so
  // both leave padded lanes; every length 0…64 (below 4, shorter than and
  // equal to the planned length); unit, √Hann and √Hann·1e-6 weights;
  // finite samples, and samples holding NaN, +∞ or −∞, which the reference
  // scores 0 through std::max. A singular system (|det| < 1e-30) scores 0.
  // Where det is exactly 0 (the 0.5 Hz row, 4-sample √Hann windows) an
  // infinite 1/det would give that too; the 1e-6 weights put det of a
  // well-conditioned system below the threshold, where only the planned
  // 1/det of 0 does. The test checks that both cases are reached.
  const double fs = 500e3;
  const std::size_t max_len = 64;
  std::vector<double> tag_band;
  for (int i = 0; i < 38; ++i) tag_band.push_back(57e3 + i * 2.5e3);
  const std::vector<double> edges = {0.5,     13.0,  2.52e3,  13e3,     47.9e3,
                                     101.3e3, 187e3, 249.9e3, 249999.99};
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double non_finite[] = {kNan, kInf, -kInf};
  std::size_t zero_det = 0, tiny_det = 0;
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (const auto& freqs : {edges, tag_band}) {
      const ToneGlrtBank bank(freqs, fs, max_len);
      ASSERT_EQ(bank.size(), freqs.size());
      ASSERT_EQ(bank.max_length(), max_len);
      Rng rng(21);
      std::vector<double> got(freqs.size());
      for (std::size_t n = 0; n <= max_len; ++n) {
        RVec clean(n);
        for (std::size_t i = 0; i < n; ++i)
          clean[i] = 6.0 +
                     0.8 * std::cos(kTwoPi * 31e3 * static_cast<double>(i) / fs + 0.3) +
                     rng.gaussian(0.0, 0.2);
        RVec hann = n > 0 ? make_window(WindowType::kHann, n) : RVec();
        for (double& v : hann) v = std::sqrt(v);
        RVec tiny = hann;
        for (double& v : tiny) v *= 1e-6;
        const RVec ones(n, 1.0);
        const RVec* const weightings[] = {&ones, &hann, &tiny};
        // The clean window, then one sample replaced by each non-finite value.
        for (std::size_t variant = 0; variant <= std::size(non_finite); ++variant) {
          RVec x = clean;
          if (variant > 0 && n > 0) x[(7 * variant) % n] = non_finite[variant - 1];
          for (const RVec* weights : weightings) {
            // The reference and the wrappers take unit weights as none.
            const std::span<const double> w =
                weights == &ones ? std::span<const double>() : *weights;
            bank.scores(x, bank.window(*weights), got);
            const auto wrapped = tone_glrt_scores(x, freqs, fs, w);
            for (std::size_t f = 0; f < freqs.size(); ++f) {
              SCOPED_TRACE("n " + std::to_string(n) + " f " + std::to_string(freqs[f]) +
                           " variant " + std::to_string(variant) + " weights " +
                           std::to_string(weights == &ones ? 0 : weights == &hann ? 1 : 2));
              double det = 0.0;
              const double want = reference_glrt(x, freqs[f], fs, w, det);
              if (n >= 4 && det == 0.0) ++zero_det;
              if (det != 0.0 && std::abs(det) < 1e-30) ++tiny_det;
              if (variant > 0 && n >= 4) {
                EXPECT_TRUE(bits_eq(want, 0.0));
              }
              EXPECT_TRUE(bits_eq(got[f], want));
              EXPECT_TRUE(bits_eq(wrapped[f], want));
              EXPECT_TRUE(bits_eq(tone_glrt_score(x, freqs[f], fs, w), want));
            }
          }
        }
      }
    }
  }
  EXPECT_GT(zero_det, 0u);
  EXPECT_GT(tiny_det, 0u);
}

}  // namespace bis::dsp::kernels
