#pragma once

/// @file kernels.hpp
/// Runtime-dispatched SIMD kernels for the element-wise DSP hot path.
///
/// Every stage of the signal path bottoms out in the map/reduce loops below
/// (magnitude/power of a spectrum, window application, complex spectral
/// products, AWGN application, Goertzel banks). This layer provides one
/// narrow API backed by three interchangeable implementations — AVX2, SSE2
/// and scalar — selected once at startup by CPU detection and overridable
/// with the BIS_SIMD environment variable (`BIS_SIMD=scalar|sse2|avx2`) or
/// set_target.
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
///  - Reductions (ksum_sq, kdot) use a fixed 4-lane-blocked accumulation
///    order: four independent accumulators acc[j] += x[4i+j]·y[4i+j],
///    combined as (acc0 + acc1) + (acc2 + acc3), then the <4 tail elements
///    added sequentially. The scalar reference implements exactly this
///    order, so reduction results are also bit-identical across targets
///    (AVX2 maps the block to one 4-lane register, SSE2 to two 2-lane
///    registers, scalar to four doubles).
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

/// out[i] = max(10·log10(re² + im²), floor_db), floor_db where |x| = 0.
/// Equals 20·log10|x| without the per-element sqrt.
void kmag_db(std::span<const cdouble> x, std::span<double> out, double floor_db);

/// out[i] = x[i]·w[i]. out may alias x.
void kapply_window(std::span<const double> x, std::span<const double> w,
                   std::span<double> out);
/// Complex signal × real window. out may alias x.
void kapply_window(std::span<const cdouble> x, std::span<const double> w,
                   std::span<cdouble> out);

/// Element-wise complex product out[i] = a[i]·b[i], computed as
/// (ar·br − ai·bi, ar·bi + ai·br). out may alias a or b.
void kcmul(std::span<const cdouble> a, std::span<const cdouble> b,
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

// ---------------------------------------------------------------------------
// Reductions (fixed 4-lane-blocked order, bit-identical across targets)

/// Σ x[i]² in the documented lane-blocked order.
double ksum_sq(std::span<const double> x);

/// Σ |x[i]|² — the complex buffer is reduced as 2n interleaved reals
/// (re₀, im₀, re₁, …) in the same lane-blocked order.
double ksum_sq(std::span<const cdouble> x);

/// Σ x[i]·y[i] in the documented lane-blocked order.
double kdot(std::span<const double> x, std::span<const double> y);

// ---------------------------------------------------------------------------
// Goertzel bank inner loop

/// For each coefficient c_j = 2·cos(ω_j), iterate the Goertzel recurrence
/// s = (x[i] + c_j·s1) − s2 over all samples and return the final state pair
/// (s1[j], s2[j]). The vector targets run 4 frequencies per lane block; each
/// frequency's arithmetic is lane-independent, so results are bit-identical
/// to running the scalar recurrence per frequency. Callers apply the final
/// complex correction. s1/s2/coeffs must have equal lengths.
///
/// Above kGoertzelScalarFallbackSamples samples the dispatcher routes to the
/// scalar backend regardless of the active target: the broadcast-per-sample
/// latency chain makes the lane-blocked form *slower* than scalar on long
/// inputs (BENCH_simd.json measured 0.93x at 18944 samples), and because the
/// SIMD form is bit-identical to scalar the reroute is exactly
/// output-preserving.
void kgoertzel(std::span<const double> x, std::span<const double> coeffs,
               std::span<double> s1, std::span<double> s2);

/// Sample-count crossover for the kgoertzel scalar fallback. 256 keeps the
/// measured-fast short-window shapes (tag demod windows, tens of samples) on
/// the SIMD path and reroutes the measured-slow long-window shapes.
inline constexpr std::size_t kGoertzelScalarFallbackSamples = 256;

/// True when kgoertzel(x, ...) with x.size() == n_samples routes to the
/// scalar backend (exposed so benches/tests can prove the fallback engages).
bool kgoertzel_prefers_scalar(std::size_t n_samples);

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

}  // namespace bis::dsp::kernels
