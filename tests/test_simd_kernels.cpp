// SIMD kernel layer: bit-identity of every kernel across all available
// dispatch targets, against independent scalar references written here (not
// the library's own scalar backend). Covers empty spans, length 1, lane
// width ± 1, misaligned sub-spans, and end-to-end LinkSimulator frame parity.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "core/link_simulator.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/types.hpp"

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

RVec ref_mag_db(std::span<const cdouble> x, double floor_db) {
  RVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Mirrors the kernel's hoisted form: 10·log10(n) = (10/ln 10)·ln(n).
    const double n = x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
    constexpr double kTenOverLn10 = 4.342944819032518;
    out[i] =
        n > 0.0 ? std::max(kTenOverLn10 * std::log(n), floor_db) : floor_db;
  }
  return out;
}

CVec ref_cmul(std::span<const cdouble> a, std::span<const cdouble> b) {
  CVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ar = a[i].real(), ai = a[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    out[i] = cdouble(ar * br - ai * bi, ar * bi + ai * br);
  }
  return out;
}

/// The documented normative reduction: 4 independent accumulators over full
/// blocks combined as (acc0 + acc1) + (acc2 + acc3), sequential tail.
double ref_blocked_dot(std::span<const double> x, std::span<const double> y) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = x.size() - x.size() % 4;
  for (std::size_t i = 0; i < n4; i += 4)
    for (std::size_t j = 0; j < 4; ++j) acc[j] += x[i + j] * y[i + j];
  double sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (std::size_t i = n4; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

double ref_blocked_sum_sq(std::span<const double> x) { return ref_blocked_dot(x, x); }

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
      const auto yc = det_complex(n, 2);
      const auto xr = det_real(n, 3);
      const auto w = det_real(n, 4);

      RVec out(n);
      kmag(xc, out);
      EXPECT_TRUE(bits_eq(out, ref_mag(xc)));
      knorm(xc, out);
      EXPECT_TRUE(bits_eq(out, ref_norm(xc)));
      kmag_db(xc, out, -300.0);
      EXPECT_TRUE(bits_eq(out, ref_mag_db(xc, -300.0)));

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

      kcmul(xc, yc, outc);
      EXPECT_TRUE(bits_eq(outc, ref_cmul(xc, yc)));

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
      const auto y = det_real(n, 12);
      EXPECT_TRUE(bits_eq(ksum_sq(std::span<const double>(x)), ref_blocked_sum_sq(x)));
      EXPECT_TRUE(bits_eq(kdot(x, y), ref_blocked_dot(x, y)));
      // Complex sum of squares reduces the interleaved 2n reals.
      const auto xc = det_complex(n, 13);
      const std::span<const double> flat(
          reinterpret_cast<const double*>(xc.data()), 2 * n);
      EXPECT_TRUE(bits_eq(ksum_sq(std::span<const cdouble>(xc)),
                          ref_blocked_sum_sq(flat)));
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
        EXPECT_TRUE(bits_eq(kdot(xr, w), ref_blocked_dot(xr, w)));
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

TEST_F(SimdKernels, GoertzelMatchesScalarRecurrenceOnAllTargets) {
  const auto x = det_real(257, 41);
  // 6 frequencies: one full lane block + a 2-wide remainder.
  RVec coeffs(6);
  for (std::size_t j = 0; j < coeffs.size(); ++j)
    coeffs[j] = 2.0 * std::cos(0.1 + 0.37 * static_cast<double>(j));
  RVec ref_s1(coeffs.size(), 0.0), ref_s2(coeffs.size(), 0.0);
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    double s1 = 0.0, s2 = 0.0;
    for (double sample : x) {
      const double s = (sample + coeffs[j] * s1) - s2;
      s2 = s1;
      s1 = s;
    }
    ref_s1[j] = s1;
    ref_s2[j] = s2;
  }
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    RVec s1(coeffs.size(), 0.0), s2(coeffs.size(), 0.0);
    kgoertzel(x, coeffs, s1, s2);
    EXPECT_TRUE(bits_eq(s1, ref_s1));
    EXPECT_TRUE(bits_eq(s2, ref_s2));
  }
}

TEST_F(SimdKernels, GoertzelBankMatchesSingleBinEvaluator) {
  const auto x = det_real(200, 42);
  const std::vector<double> freqs = {100.0, 250.0, 333.0, 420.0, 490.0};
  const double fs = 2000.0;
  const GoertzelBank bank(freqs, fs);
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    const auto p = bank.powers(x);
    ASSERT_EQ(p.size(), freqs.size());
    for (std::size_t j = 0; j < freqs.size(); ++j)
      EXPECT_TRUE(bits_eq(p[j], goertzel_power(x, freqs[j], fs)));
  }
}

TEST_F(SimdKernels, GoertzelFallbackThreshold) {
  EXPECT_FALSE(kgoertzel_prefers_scalar(64));
  EXPECT_FALSE(kgoertzel_prefers_scalar(kGoertzelScalarFallbackSamples));
  EXPECT_TRUE(kgoertzel_prefers_scalar(kGoertzelScalarFallbackSamples + 1));
  EXPECT_TRUE(kgoertzel_prefers_scalar(18944));
}

TEST_F(SimdKernels, MagnitudeDbMatchesOldSqrtDefinition) {
  // Satellite guard: 10·log10(|x|²) must agree with the old 20·log10(|x|)
  // to floating-point tolerance everywhere above the floor.
  const auto x = det_complex(512, 51);
  const auto now = magnitude_db(x, -300.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double old = std::max(20.0 * std::log10(std::abs(x[i])), -300.0);
    EXPECT_NEAR(now[i], old, 1e-9) << "element " << i;
  }
}

TEST_F(SimdKernels, EmptySpansAreNoOps) {
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    EXPECT_EQ(ksum_sq(std::span<const double>()), 0.0);
    EXPECT_EQ(ksum_sq(std::span<const cdouble>()), 0.0);
    EXPECT_EQ(kdot(std::span<const double>(), std::span<const double>()), 0.0);
    kmag(std::span<const cdouble>(), std::span<double>());
    knorm(std::span<const cdouble>(), std::span<double>());
    kscale(std::span<double>(), 2.0);
    kgoertzel(std::span<const double>(), std::span<const double>(),
              std::span<double>(), std::span<double>());
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

}  // namespace bis::dsp::kernels
