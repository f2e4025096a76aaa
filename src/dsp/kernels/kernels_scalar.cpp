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
  static V div(V a, V b) {
    return {{a.l[0] / b.l[0], a.l[1] / b.l[1], a.l[2] / b.l[2], a.l[3] / b.l[3]}};
  }
  static V vmax(V a, V b) {
    return {{body::max_lane(a.l[0], b.l[0]), body::max_lane(a.l[1], b.l[1]),
             body::max_lane(a.l[2], b.l[2]), body::max_lane(a.l[3], b.l[3])}};
  }
  static V vmin(V a, V b) {
    return {{body::min_lane(a.l[0], b.l[0]), body::min_lane(a.l[1], b.l[1]),
             body::min_lane(a.l[2], b.l[2]), body::min_lane(a.l[3], b.l[3])}};
  }
  static V trunc(V a) {
    return {{std::trunc(a.l[0]), std::trunc(a.l[1]), std::trunc(a.l[2]),
             std::trunc(a.l[3])}};
  }
  static V vsqrt(V a) {
    return {{std::sqrt(a.l[0]), std::sqrt(a.l[1]), std::sqrt(a.l[2]),
             std::sqrt(a.l[3])}};
  }
  static double reduce(V a) { return (a.l[0] + a.l[1]) + (a.l[2] + a.l[3]); }
  // a·b + c with separate multiply and add (this TU compiles with
  // -ffp-contract=off, so no fusion can sneak in).
  static V fmadd(V a, V b, V c) { return add(mul(a, b), c); }

  // The block helpers below name their four lanes instead of looping. As
  // 4-trip loops, GCC 12 unrolled them or not depending on the rest of the
  // TU: once kquantize joined it they stayed rolled, and the scalar block
  // kernels ran up to 1.6x slower.
  static V load_norm(const cdouble* p) {
    const auto norm = [p](int i) {
      const double re = p[i].real(), im = p[i].imag();
      return re * re + im * im;
    };
    return {{norm(0), norm(1), norm(2), norm(3)}};
  }
  static void cwin_block(const cdouble* x, const double* w, cdouble* out) {
    const auto cwin1 = [x, w, out](int i) {
      out[i] = cdouble(x[i].real() * w[i], x[i].imag() * w[i]);
    };
    cwin1(0);
    cwin1(1);
    cwin1(2);
    cwin1(3);
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
