#pragma once

/// @file kernels.hpp
/// Runtime-dispatched SIMD kernels for the element-wise DSP hot path.
///
/// Every stage of the signal path bottoms out in the map/reduce loops below
/// (magnitude/power of a spectrum, window application, AWGN and gain
/// application, ADC quantization, the Doppler stage's row FFT, the
/// detector's tag-scoring bank, the tag's tone GLRT bank). Each kernel here
/// has an engine caller.
/// This layer provides one narrow API backed by three interchangeable
/// implementations — AVX2, SSE2 and scalar — selected once at startup by CPU
/// detection and overridable with the BIS_SIMD environment variable
/// (`BIS_SIMD=scalar|sse2|avx2`) or set_target.
///
/// ## Bit-identity contract
///
/// The scalar implementation is the normative reference.
///
///  - Element-wise kernels produce bit-identical output on every target:
///    each output element is computed with the same IEEE-754 operations in
///    the same order regardless of register width. No FMA contraction is
///    used anywhere in the layer (the kernels translation units compile with
///    -ffp-contract=off), because SSE2 has no fused multiply-add and a fused
///    AVX2 path could never match it bit-for-bit.
///  - The reduction (ksum_sq) uses a fixed 4-lane-blocked accumulation
///    order: four independent accumulators acc[j] += x[4i+j]·x[4i+j],
///    combined as (acc0 + acc1) + (acc2 + acc3), then the <4 tail elements
///    added sequentially. The scalar reference implements exactly this
///    order, so its result is also bit-identical across targets (AVX2 maps
///    the block to one 4-lane register, SSE2 to two 2-lane registers, scalar
///    to four doubles).
///
/// All kernels accept arbitrary (unaligned, odd-length, empty) spans; the
/// vector targets use unaligned loads and handle the tail with the same
/// scalar code the reference uses. dsp::RVec / dsp::CVec allocate 64-byte
/// aligned storage, so in practice full-vector loads on those buffers are
/// aligned and only sub-spans pay the (tiny, modern-CPU) unaligned cost.

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace bis::dsp::kernels {

using cdouble = std::complex<double>;

// ---------------------------------------------------------------------------
// Dispatch control

enum class SimdTarget {
  kScalar = 0,  ///< Normative reference (always available).
  kSse2 = 1,    ///< 2-lane double SIMD (x86-64 baseline).
  kAvx2 = 2,    ///< 4-lane double SIMD (requires AVX2 CPU support).
};

/// The target currently routing kernel calls.
SimdTarget active_target();

/// Human-readable name ("scalar", "sse2", "avx2").
const char* target_name(SimdTarget target);

/// True when @p target is both compiled in and supported by this CPU.
bool target_available(SimdTarget target);

/// Switch the dispatcher. Returns false (dispatch unchanged) when the target
/// is not available. Not thread-safe against in-flight kernel calls; switch
/// before spinning up DSP threads (tests/benchmarks toggle it freely on one
/// thread).
bool set_target(SimdTarget target);

/// Name-based override: "scalar", "sse2", "avx2" (case-sensitive; "off" is
/// accepted as an alias for "scalar"). Returns false on unknown name or
/// unavailable target.
bool set_target(std::string_view name);

// ---------------------------------------------------------------------------
// Element-wise kernels (bit-identical across targets)

/// out[i] = sqrt(re² + im²). Unlike std::abs, no overflow-hardened hypot
/// scaling — the DSP path works in O(1) volt/power units where |x|² cannot
/// overflow, and sqrt/mul/add are correctly rounded on every target.
void kmag(std::span<const cdouble> x, std::span<double> out);

/// out[i] = re² + im² (squared magnitude / power).
void knorm(std::span<const cdouble> x, std::span<double> out);

/// out[i] = x[i]·w[i]. out may alias x.
void kapply_window(std::span<const double> x, std::span<const double> w,
                   std::span<double> out);
/// Complex signal × real window. out may alias x.
void kapply_window(std::span<const cdouble> x, std::span<const double> w,
                   std::span<cdouble> out);

/// y[i] += a·x[i].
void kaxpy(double a, std::span<const double> x, std::span<double> y);

/// y[i] = scale·(y[i] + a·x[i]) — the AWGN / PGA-gain apply kernel
/// (scale = 1 gives a pure scaled-noise add, matching y += a·x bit-for-bit).
void kscale_add(std::span<double> y, double scale, double a,
                std::span<const double> x);

/// y[i] *= s.
void kscale(std::span<double> y, double s);
void kscale(std::span<cdouble> y, double s);

/// In-place ADC quantizer: rf::Adc::quantize(double) on every element —
/// clip to [−full_scale, full_scale], divide by lsb, round half away from
/// zero, clamp the code to [min_code, max_code], multiply by lsb. The
/// rounding is trunc(q) plus an exact remainder test, code = t − trunc(2·(t −
/// q)) with t = trunc(q): t − q is q's exact fractional part, doubling it is
/// exact, and its trunc is the ±1 step exactly when that part reaches ½. So
/// the code equals std::round(q) for every q, −0.0 and NaN included, with no
/// rounding-mode instruction. Requires full_scale / lsb ≤ 2^52, where SSE2's
/// trunc is exact (an ADC of at most 32 bits stays below 2^31).
void kquantize(std::span<double> y, double full_scale, double lsb,
               double min_code, double max_code);

// ---------------------------------------------------------------------------
// Reduction (fixed 4-lane-blocked order, bit-identical across targets)

/// Σ x[i]² in the documented lane-blocked order.
double ksum_sq(std::span<const double> x);

// ---------------------------------------------------------------------------
// Real FFT across rows: one transform per column of a row-major matrix
// (dsp::RfftPlanHandle::power_columns, the detector's Doppler stage)

/// One radix-2 decimation-in-time butterfly on every column of a pair of
/// split re/im rows: v = (br·wr − bi·wi, br·wi + bi·wr), then a ← a + v and
/// b ← a − v. These are the FFT plan's own butterfly expressions, so each
/// column of rows run through a plan's stages this way is bit-identical to
/// that column's one-column transform. The vector targets run kLanes
/// columns per block; columns never interact. All four rows have equal
/// length.
void kbutterfly(std::span<double> ar, std::span<double> ai,
                std::span<double> br, std::span<double> bi, double wr,
                double wi);

/// The first radix-2 stage's butterfly, whose twiddle is exactly 1: a ← a + b,
/// b ← a − b, with no multiply (as the FFT plan runs it).
void kbutterfly(std::span<double> ar, std::span<double> ai,
                std::span<double> br, std::span<double> bi);

/// The real-input FFT's untangle of bin k followed by |·|², on every column:
/// from Z[k] = (zr, zi), Z[h−k] = (zr_m, zi_m) and the twiddle
/// e^{−j2πk/n} = (wr, wi), X = E + W·O with E = (Z[k] + conj(Z[h−k]))/2 and
/// O = −j(Z[k] − conj(Z[h−k]))/2, and out = re(X)² + im(X)². The
/// expressions are rfft's own untangle followed by knorm's, so each column
/// equals dsp::rfft's bin k run through knorm bit for bit. All spans have
/// equal length.
void kuntangle_norm(std::span<const double> zr, std::span<const double> zi,
                    std::span<const double> zr_m, std::span<const double> zi_m,
                    double wr, double wi, std::span<double> out);

// ---------------------------------------------------------------------------
// Batched tag-scoring bank (multi-tag detection inner loop)

/// Score a bank of n sparse signature rows against one shared spectrum
/// @p x — the inner loop of radar::TagDetector::detect_many, where every
/// tag's square-wave comb is evaluated against the same per-range-bin
/// slow-time spectrum. The bank is entry-major: idx/w/g all have size
/// n_entries·n and element [k·n + j] is entry k of row j (rows with fewer
/// entries are padded with idx = 0, w = g = 0, which contributes exactly
/// +0.0). For each row j the kernel accumulates, over k ascending,
///   on[j]  += w[k·n+j] · x[idx[k·n+j]]   (signature-weighted power)
///   son[j] += g[k·n+j] · x[idx[k·n+j]]   (raw power on the signature
///                                         support; g is the 0/1 indicator)
/// The vector targets run kLanes rows per block; each row's accumulation is
/// lane-independent and unfused, so results are bit-identical to evaluating
/// each row with the scalar two-accumulator loop. idx values must be
/// < x.size(); on/son must have size n.
void ktagscore(std::span<const double> x, std::span<const std::uint32_t> idx,
               std::span<const double> w, std::span<const double> g,
               std::size_t n, std::span<double> on, std::span<double> son);

// ---------------------------------------------------------------------------
// Tone GLRT bank (the tag's slot classifier and calibration search)

/// Frequency lanes ktoneglrt scores side by side; a bank's lane count (its
/// stride) is a multiple of this.
inline constexpr std::size_t kToneGlrtLanes = 8;

/// The runs of a ktoneglrt plan, in order; run r holds lane f at
/// [r·stride + f]. They are the data-free parts of the DC-nuisance tone
/// GLRT's 3×3 solve G·θ = b, with G = [[Σcc, Σcs, Σcu], [Σcs, Σss, Σsu],
/// [Σcu, Σsu, Σuu]] over the weighted design columns c = w·cos(ωi),
/// s = w·sin(ωi), u = w:
///  - the Gram sums Σcc, Σcs, Σcu, Σss, Σsu;
///  - the three 2×2 minors of G that Cramer's rule shares with the data,
///    m0 = Σss·Σuu − Σsu·Σsu, m1 = Σcs·Σuu − Σsu·Σcu, m2 = Σcs·Σsu − Σss·Σcu;
///  - 1/det, with det = (Σcc·m0 − Σcs·m1) + Σcu·m2, or +0 when
///    |det| < 1e-30 (a singular system). Every θ is then ±0 or NaN, so the
///    score below is +0.0, as the reference's early return gives.
enum ToneGlrtRun : std::size_t {
  kGlrtCc,
  kGlrtCs,
  kGlrtCu,
  kGlrtSs,
  kGlrtSu,
  kGlrtM0,
  kGlrtM1,
  kGlrtM2,
  kGlrtInvDet,
  kGlrtRuns,
};

/// Tone GLRT scores of one weighted window over a bank of frequency lanes:
/// the per-window work of dsp::ToneGlrtBank::scores. The bank's stride is
/// plan.size() / kGlrtRuns, a multiple of kToneGlrtLanes; cos and sin hold
/// cos(ω_f·i) and sin(ω_f·i) at [i·stride + f] for at least x.size() rows,
/// and w holds x.size() weights. With ux = Σ w[i]·(w[i]·x[i]) summed over
/// ascending i and dc_only = uu > 0 ? ux·ux/uu : 0, each lane f sums
///   bc += (w[i]·cos) · (w[i]·x[i]),   bs += (w[i]·sin) · (w[i]·x[i])
/// over ascending i, unfused, then solves for θ by Cramer's rule with b =
/// (bc, bs, ux): each determinant with one column of G replaced by b,
/// expanded along its first row exactly as det is, times 1/det. The score
/// is max(0, (bc·θ0 + bs·θ1) + ux·θ2 − dc_only); a NaN difference scores
/// 0, as std::max(0.0, ·) gives. Lanes are
/// independent, so every target's scores are bit-identical to that scalar
/// evaluation. out receives the first out.size() ≤ stride lanes.
void ktoneglrt(std::span<const double> x, std::span<const double> w,
               std::span<const double> cos, std::span<const double> sin,
               std::span<const double> plan, double uu, std::span<double> out);

}  // namespace bis::dsp::kernels
