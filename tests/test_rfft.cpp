// Real-input FFT (rfft/irfft): parity against the complex-promoted
// fft_real_padded reference across even, odd, and Bluestein-path sizes,
// round trips, plan-cache integration, padded variants, and the batched
// power spectra of many columns (power_columns).

#include <gtest/gtest.h>

#include <barrier>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels/kernels.hpp"

namespace bis::dsp {
namespace {

RVec random_real(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RVec x(n);
  for (auto& v : x) v = rng.gaussian();
  return x;
}

class RfftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftSizes, MatchesFullComplexTransform) {
  const std::size_t n = GetParam();
  const auto x = random_real(n, 600 + n);
  const auto one_sided = rfft(x);
  const auto full = fft_real(x);
  ASSERT_EQ(one_sided.size(), n / 2 + 1);
  for (std::size_t k = 0; k < one_sided.size(); ++k) {
    EXPECT_LT(std::abs(one_sided[k] - full[k]), 1e-12)
        << "bin " << k << " size " << n;
  }
}

TEST_P(RfftSizes, InverseRoundTrip) {
  const std::size_t n = GetParam();
  const auto x = random_real(n, 700 + n);
  const auto back = irfft(rfft(x), n);
  ASSERT_EQ(back.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(back[i] - x[i]), 1e-12) << "sample " << i << " size " << n;
}

// Even with power-of-two half (radix-2), even with composite/prime half
// (Bluestein path inside the packed transform), odd (full-transform
// fallback), and the CSSK-typical ~hundred-sample chirp lengths.
INSTANTIATE_TEST_SUITE_P(EvenOddBluestein, RfftSizes,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 1024,  // pow2
                                           6, 24, 120, 194, 240,  // even, odd half
                                           3, 5, 7, 97, 193));    // odd fallback

/// The plan handle must reproduce rfft_padded_into bit for bit: same
/// values, same IEEE operations, only the plan lookups hoisted.
::testing::AssertionResult handle_matches_padded(std::span<const double> x,
                                                 std::size_t n_fft) {
  CVec want, got;
  rfft_padded_into(x, n_fft, want);
  const RfftPlanHandle handle(n_fft);
  if (handle.size() != n_fft)
    return ::testing::AssertionFailure() << "size " << handle.size();
  handle(x, got);
  if (got.size() != want.size())
    return ::testing::AssertionFailure() << "bins " << got.size();
  for (std::size_t k = 0; k < got.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(got[k].real()) !=
            std::bit_cast<std::uint64_t>(want[k].real()) ||
        std::bit_cast<std::uint64_t>(got[k].imag()) !=
            std::bit_cast<std::uint64_t>(want[k].imag()))
      return ::testing::AssertionFailure() << "bin " << k << " n_fft " << n_fft;
  }
  return ::testing::AssertionSuccess();
}

TEST(Rfft, PaddedMatchesFftRealPadded) {
  const auto x = random_real(100, 11);
  // Power-of-two half, Bluestein half (250 → 125), and the odd fallback.
  for (std::size_t n_fft : {128u, 256u, 250u, 101u}) {
    const auto fast = rfft_padded(x, n_fft);
    const auto ref = fft_real_padded(x, n_fft);
    ASSERT_EQ(fast.size(), n_fft / 2 + 1);
    for (std::size_t k = 0; k < fast.size(); ++k)
      EXPECT_LT(std::abs(fast[k] - ref[k]), 1e-12) << "bin " << k << " n_fft " << n_fft;
    EXPECT_TRUE(handle_matches_padded(x, n_fft));
  }
}

TEST(Rfft, PaddedTruncates) {
  const auto x = random_real(40, 12);
  const auto spec = rfft_padded(x, 16);
  const auto ref = fft_real_padded(x, 16);
  ASSERT_EQ(spec.size(), 9u);
  for (std::size_t k = 0; k < spec.size(); ++k)
    EXPECT_LT(std::abs(spec[k] - ref[k]), 1e-12);
  // Truncation through every path, down to the one-point transform; an odd
  // input length leaves a lone even sample in the last packed pair.
  for (std::size_t n_fft : {16u, 39u, 12u, 2u, 1u}) {
    EXPECT_TRUE(handle_matches_padded(x, n_fft));
    EXPECT_TRUE(handle_matches_padded(std::span<const double>(x).first(7),
                                      n_fft));
  }
}

TEST(Rfft, PlanHandleOwnsItsPlans) {
  // A handle keeps working after the cache drops its plans, with no lookups:
  // it shares ownership of what it resolved at construction.
  const auto x = random_real(32, 16);
  for (std::size_t n_fft : {128u, 250u, 101u}) {
    CVec want;
    rfft_padded_into(x, n_fft, want);
    const RfftPlanHandle handle(n_fft);
    fft_plan_cache_clear();
    CVec got;
    handle(x, got);
    const auto stats = fft_plan_cache_stats();
    EXPECT_EQ(stats.hits + stats.misses, 0u) << "n_fft " << n_fft;
    EXPECT_EQ(stats.plans, 0u) << "n_fft " << n_fft;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k)
      EXPECT_EQ(got[k], want[k]) << "bin " << k << " n_fft " << n_fft;
  }
  fft_plan_cache_clear();
}

TEST(Rfft, PowerColumnsMatchPerColumnTransformOnAllTargets) {
  // The batched transform of the detector's Doppler stage: each column of
  // power_columns equals operator() on that column followed by knorm, bit
  // for bit, on every SIMD target (its row butterflies and untangle are
  // dispatched kernels), using only the plans the handle holds.
  using kernels::SimdTarget;
  const SimdTarget saved = kernels::active_target();
  for (SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kSse2, SimdTarget::kAvx2}) {
    if (!kernels::set_target(target)) continue;
    SCOPED_TRACE(kernels::target_name(target));
    for (std::size_t n_fft : {16u, 128u, 256u}) {
      const RfftPlanHandle handle(n_fft);
      fft_plan_cache_clear();
      // Below n_fft/2, odd (a lone last even sample), odd above n_fft/2, and
      // the full length.
      for (std::size_t count :
           {n_fft / 4, n_fft / 4 + 3, n_fft / 2 + 1, n_fft}) {
        for (std::size_t width : {1u, 3u, 4u, 5u, 64u, 67u}) {
          SCOPED_TRACE("n_fft " + std::to_string(n_fft) + " count " +
                       std::to_string(count) + " width " +
                       std::to_string(width));
          const RVec x = random_real(count * width, n_fft + count + width);
          RVec power((n_fft / 2 + 1) * width, -1.0);
          handle.power_columns(x, width, power);
          RVec col(count), want(n_fft / 2 + 1);
          CVec spec;
          for (std::size_t j = 0; j < width; ++j) {
            for (std::size_t m = 0; m < count; ++m) col[m] = x[m * width + j];
            handle(col, spec);
            kernels::knorm(spec, want);
            for (std::size_t k = 0; k < want.size(); ++k)
              ASSERT_EQ(std::bit_cast<std::uint64_t>(power[k * width + j]),
                        std::bit_cast<std::uint64_t>(want[k]))
                  << "column " << j << " bin " << k;
          }
        }
      }
      const auto stats = fft_plan_cache_stats();
      EXPECT_EQ(stats.hits + stats.misses, 0u) << "n_fft " << n_fft;
    }
  }
  kernels::set_target(saved);
}

TEST(Rfft, DcBinIsPlainSum) {
  const auto x = random_real(64, 13);
  double sum = 0.0;
  for (double v : x) sum += v;
  const auto spec = rfft(x);
  EXPECT_NEAR(spec[0].real(), sum, 1e-12);
  EXPECT_NEAR(spec[0].imag(), 0.0, 1e-12);
}

TEST(Rfft, PureToneLandsInItsBin) {
  const std::size_t n = 256, bin = 19;
  RVec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(2.0 * M_PI * static_cast<double>(bin * i) / static_cast<double>(n));
  const auto spec = rfft(x);
  EXPECT_NEAR(std::abs(spec[bin]), static_cast<double>(n) / 2.0, 1e-9);
  for (std::size_t k = 0; k < spec.size(); ++k) {
    if (k != bin) {
      EXPECT_LT(std::abs(spec[k]), 1e-9) << "bin " << k;
    }
  }
}

TEST(Rfft, PlansLandInTheSharedCache) {
  fft_plan_cache_clear();
  const auto x = random_real(128, 14);
  (void)rfft(x);  // builds the rfft untangle plan + the size-64 complex plan
  const auto cold = fft_plan_cache_stats();
  EXPECT_GE(cold.misses, 2u);
  EXPECT_GE(cold.plans, 2u);
  for (int i = 0; i < 4; ++i) (void)rfft(x);
  const auto warm = fft_plan_cache_stats();
  EXPECT_EQ(warm.misses, cold.misses);  // no rebuilds once warm
  EXPECT_GE(warm.hits, 8u);             // rplan + half-size plan per call
  EXPECT_EQ(warm.plans, cold.plans);
  fft_plan_cache_clear();
}

TEST(Rfft, ConcurrentMissesCountOnce) {
  // Four lanes build the handle of each fresh even size at the same moment.
  // The half-size complex plans are cached first, so each handle makes one
  // lookup of a fresh untangle plan and one hit; whichever lane stores the
  // untangle plan counts the one miss, so the counts do not depend on
  // thread timing.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kKeys = 200;
  constexpr std::size_t kFirstHalf = 300;
  fft_plan_cache_clear();
  for (std::size_t k = 0; k < kKeys; ++k)
    (void)fft(CVec(kFirstHalf + k, cdouble(1.0, 0.0)));
  const auto before = fft_plan_cache_stats();

  std::barrier sync(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> lanes;
  for (std::size_t t = 0; t < kThreads; ++t) {
    lanes.emplace_back([&] {
      for (std::size_t k = 0; k < kKeys; ++k) {
        sync.arrive_and_wait();
        const RfftPlanHandle handle(2 * (kFirstHalf + k));
        EXPECT_EQ(handle.size(), 2 * (kFirstHalf + k));
      }
    });
  }
  for (auto& lane : lanes) lane.join();

  const auto after = fft_plan_cache_stats();
  EXPECT_EQ(after.plans - before.plans, kKeys);
  EXPECT_EQ(after.misses - before.misses, kKeys);
  EXPECT_EQ((after.hits + after.misses) - (before.hits + before.misses),
            2 * kThreads * kKeys);
  fft_plan_cache_clear();
}

TEST(Irfft, RecoversKnownSignalThroughPowerSpectrum) {
  // Wiener–Khinchin shape used by the period estimator: the inverse of a
  // real, even (one-sided) power spectrum is the autocorrelation.
  const std::size_t n = 512;
  const auto x = random_real(n, 15);
  auto spec = rfft(x);
  for (auto& v : spec) v = cdouble(std::norm(v), 0.0);
  const auto acf = irfft(spec, n);
  // Zero-lag autocorrelation equals the signal energy (circular, unpadded).
  double energy = 0.0;
  for (double v : x) energy += v * v;
  EXPECT_NEAR(acf[0], energy, 1e-9 * energy);
}

}  // namespace
}  // namespace bis::dsp
