/// SSE2 kernel backend: the 4-lane block is a pair of 128-bit registers
/// ({lanes 0,1}, {lanes 2,3}), so the lane-blocked reduction order and every
/// element-wise operation match the scalar reference bit-for-bit. SSE2 only
/// (the x86-64 baseline) — no SSE3 horizontal ops, no FMA.
///
/// Compiled only on x86-64 with the BIS_SIMD CMake option ON; the TU is
/// empty elsewhere so the build never references unavailable intrinsics.

#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include "dsp/kernels/kernels_body.hpp"

namespace bis::dsp::kernels {
namespace {

struct Sse2Ops {
  static constexpr std::size_t kLanes = 4;

  struct V {
    __m128d lo;  // lanes 0, 1
    __m128d hi;  // lanes 2, 3
  };

  static V load(const double* p) {
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  static V gather(const double* base, const std::uint32_t* idx) {
    // SSE2 has no gather instruction; scalar loads produce the same IEEE
    // values, so bit-identity holds trivially.
    return {_mm_set_pd(base[idx[1]], base[idx[0]]),
            _mm_set_pd(base[idx[3]], base[idx[2]])};
  }
  static void store(double* p, V v) {
    _mm_storeu_pd(p, v.lo);
    _mm_storeu_pd(p + 2, v.hi);
  }
  static V bcast(double x) { return {_mm_set1_pd(x), _mm_set1_pd(x)}; }
  static V add(V a, V b) {
    return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  static V sub(V a, V b) {
    return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
  }
  static V mul(V a, V b) {
    return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }
  static V vsqrt(V a) { return {_mm_sqrt_pd(a.lo), _mm_sqrt_pd(a.hi)}; }

  static double reduce(V a) {
    // (l0 + l1) + (l2 + l3) — the documented lane-blocked combine order.
    const __m128d s01 = _mm_add_sd(a.lo, _mm_unpackhi_pd(a.lo, a.lo));
    const __m128d s23 = _mm_add_sd(a.hi, _mm_unpackhi_pd(a.hi, a.hi));
    return _mm_cvtsd_f64(_mm_add_sd(s01, s23));
  }

  // Unfused a·b + c (SSE2 has no FMA instruction anyway).
  static V fmadd(V a, V b, V c) { return add(mul(a, b), c); }

  /// |x|² for two complex numbers held in two registers: [re0,im0], [re1,im1]
  /// → [re0·re0+im0·im0, re1·re1+im1·im1].
  static __m128d norm2(__m128d c0, __m128d c1) {
    const __m128d sq0 = _mm_mul_pd(c0, c0);  // re², im²
    const __m128d sq1 = _mm_mul_pd(c1, c1);
    // Gather the re² parts and im² parts, then add: re² + im² per lane.
    const __m128d re = _mm_unpacklo_pd(sq0, sq1);
    const __m128d im = _mm_unpackhi_pd(sq0, sq1);
    return _mm_add_pd(re, im);
  }

  static V load_norm(const cdouble* p) {
    const double* d = reinterpret_cast<const double*>(p);
    return {norm2(_mm_loadu_pd(d), _mm_loadu_pd(d + 2)),
            norm2(_mm_loadu_pd(d + 4), _mm_loadu_pd(d + 6))};
  }

  /// One complex product: a=[ar,ai], b=[br,bi] → [ar·br − ai·bi, ar·bi + ai·br].
  static __m128d cmul1(__m128d a, __m128d b) {
    const __m128d br = _mm_unpacklo_pd(b, b);              // [br, br]
    const __m128d bi = _mm_unpackhi_pd(b, b);              // [bi, bi]
    const __m128d a_swap = _mm_shuffle_pd(a, a, 0x1);      // [ai, ar]
    const __m128d t1 = _mm_mul_pd(a, br);                  // [ar·br, ai·br]
    const __m128d t2 = _mm_mul_pd(a_swap, bi);             // [ai·bi, ar·bi]
    // Flip the sign of the low lane of t2 and add: x + (−y) is bit-identical
    // to x − y in IEEE-754, so this matches the scalar reference exactly.
    const __m128d signflip = _mm_set_pd(0.0, -0.0);
    return _mm_add_pd(t1, _mm_xor_pd(t2, signflip));
  }

  static void cmul_block(const cdouble* a, const cdouble* b, cdouble* out) {
    const double* da = reinterpret_cast<const double*>(a);
    const double* db = reinterpret_cast<const double*>(b);
    double* dout = reinterpret_cast<double*>(out);
    for (int i = 0; i < 4; ++i)
      _mm_storeu_pd(dout + 2 * i, cmul1(_mm_loadu_pd(da + 2 * i),
                                        _mm_loadu_pd(db + 2 * i)));
  }

  static void cwin_block(const cdouble* x, const double* w, cdouble* out) {
    const double* dx = reinterpret_cast<const double*>(x);
    double* dout = reinterpret_cast<double*>(out);
    for (int i = 0; i < 4; ++i)
      _mm_storeu_pd(dout + 2 * i,
                    _mm_mul_pd(_mm_loadu_pd(dx + 2 * i), _mm_set1_pd(w[i])));
  }
};

}  // namespace

namespace detail {

const KernelTable& sse2_table() {
  static const KernelTable table = body::make_table<Sse2Ops>();
  return table;
}

}  // namespace detail
}  // namespace bis::dsp::kernels

#endif  // x86-64
