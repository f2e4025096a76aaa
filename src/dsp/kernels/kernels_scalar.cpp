/// Scalar kernel backend — the normative reference for the bit-identity
/// contract. The 4-lane block is modelled as four plain doubles; CMake
/// compiles this TU with -ffp-contract=off and -fno-tree-vectorize so the
/// reference stays genuinely scalar (GCC ≥ 12 auto-vectorizes at -O2) and
/// no FMA contraction can perturb it relative to the SIMD backends.

#include <cmath>

#include "dsp/kernels/kernels_body.hpp"

namespace bis::dsp::kernels {
namespace {

struct ScalarOps {
  static constexpr std::size_t kLanes = 4;

  struct V {
    double l[4];
  };

  static V load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  static V gather(const double* base, const std::uint32_t* idx) {
    return {{base[idx[0]], base[idx[1]], base[idx[2]], base[idx[3]]}};
  }
  static void store(double* p, V v) {
    p[0] = v.l[0];
    p[1] = v.l[1];
    p[2] = v.l[2];
    p[3] = v.l[3];
  }
  static V bcast(double x) { return {{x, x, x, x}}; }
  static V add(V a, V b) {
    return {{a.l[0] + b.l[0], a.l[1] + b.l[1], a.l[2] + b.l[2], a.l[3] + b.l[3]}};
  }
  static V sub(V a, V b) {
    return {{a.l[0] - b.l[0], a.l[1] - b.l[1], a.l[2] - b.l[2], a.l[3] - b.l[3]}};
  }
  static V mul(V a, V b) {
    return {{a.l[0] * b.l[0], a.l[1] * b.l[1], a.l[2] * b.l[2], a.l[3] * b.l[3]}};
  }
  static V vsqrt(V a) {
    return {{std::sqrt(a.l[0]), std::sqrt(a.l[1]), std::sqrt(a.l[2]),
             std::sqrt(a.l[3])}};
  }
  static double reduce(V a) { return (a.l[0] + a.l[1]) + (a.l[2] + a.l[3]); }
  // a·b + c with separate multiply and add (this TU compiles with
  // -ffp-contract=off, so no fusion can sneak in).
  static V fmadd(V a, V b, V c) { return add(mul(a, b), c); }

  static V load_norm(const cdouble* p) {
    V out;
    for (int i = 0; i < 4; ++i) {
      const double re = p[i].real(), im = p[i].imag();
      out.l[i] = re * re + im * im;
    }
    return out;
  }
  static void cmul_block(const cdouble* a, const cdouble* b, cdouble* out) {
    for (int i = 0; i < 4; ++i) {
      const double ar = a[i].real(), ai = a[i].imag();
      const double br = b[i].real(), bi = b[i].imag();
      out[i] = cdouble(ar * br - ai * bi, ar * bi + ai * br);
    }
  }
  static void cwin_block(const cdouble* x, const double* w, cdouble* out) {
    for (int i = 0; i < 4; ++i)
      out[i] = cdouble(x[i].real() * w[i], x[i].imag() * w[i]);
  }
};

}  // namespace

namespace detail {

const KernelTable& scalar_table() {
  static const KernelTable table = body::make_table<ScalarOps>();
  return table;
}

}  // namespace detail
}  // namespace bis::dsp::kernels
