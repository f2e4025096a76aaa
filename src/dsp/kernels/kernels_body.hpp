#pragma once

/// @file kernels_body.hpp
/// Generic kernel bodies, templated on a per-target `Ops` policy that models
/// one 4-lane block of doubles (AVX2: one 256-bit register, SSE2: two
/// 128-bit registers, scalar: four doubles). Writing each kernel once over
/// this abstraction is what makes the bit-identity contract hold by
/// construction: every element goes through the same IEEE operations in the
/// same order on every target, and the sub-block tails below are the same
/// scalar code in every backend (all kernel TUs compile with
/// -ffp-contract=off, so the compiler cannot fuse a·b+c differently per TU).
///
/// Required Ops interface (V is the block type, L = Ops::kLanes = 4):
///   V    load(const double* p)            unaligned load of L elements
///   void store(double* p, V)              unaligned store of L elements
///   V    bcast(double v)
///   V    add/sub/mul(V, V), vsqrt(V)
///   V    fmadd(V a, V b, V c)             a·b + c, implemented as
///                                         add(mul(a, b), c) (no fusion)
///   double reduce(V)                      (l0+l1) + (l2+l3)
///   V    gather(const double* base, const uint32_t* idx)
///                                         [base[idx[0]], …, base[idx[L−1]]].
///                                         Loads the same IEEE values on
///                                         every target (a hardware gather
///                                         and L scalar loads are
///                                         value-identical), so bit-identity
///                                         is unaffected.
///   V    load_norm(const cdouble* p)      [re·re + im·im] for L complex,
///                                         in element order
///   void cmul_block(const cdouble* a, const cdouble* b, cdouble* out)
///                                         (ar·br − ai·bi, ar·bi + ai·br) ×L
///   void cwin_block(const cdouble* x, const double* w, cdouble* out)
///                                         (re·w, im·w) ×L

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "dsp/kernels/kernel_table.hpp"

namespace bis::dsp::kernels::body {

/// 10/ln(10): kmag_db hoists the dB scale and uses one natural log per
/// element instead of 10·log10(x) (same function count, but libm's log is
/// the cheaper entry point and the constant fold is explicit).
inline constexpr double kTenOverLn10 = 4.342944819032518;

template <typename Ops>
void mag(std::span<const cdouble> x, std::span<double> out) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(out.data() + i, Ops::vsqrt(Ops::load_norm(x.data() + i)));
  for (std::size_t i = nL; i < n; ++i) {
    const double re = x[i].real(), im = x[i].imag();
    out[i] = std::sqrt(re * re + im * im);
  }
}

template <typename Ops>
void norm(std::span<const cdouble> x, std::span<double> out) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(out.data() + i, Ops::load_norm(x.data() + i));
  for (std::size_t i = nL; i < n; ++i) {
    const double re = x[i].real(), im = x[i].imag();
    out[i] = re * re + im * im;
  }
}

template <typename Ops>
void mag_db(std::span<const cdouble> x, std::span<double> out,
            double floor_db) {
  // Vectorized |x|² first, then one scalar log loop shared by every backend
  // (libm log has no vector counterpart here, and identical scalar code on
  // every target keeps the output bit-identical by construction).
  norm<Ops>(x, out);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = out[i] > 0.0 ? std::max(kTenOverLn10 * std::log(out[i]), floor_db)
                          : floor_db;
}

template <typename Ops>
void apply_window_r(std::span<const double> x, std::span<const double> w,
                    std::span<double> out) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(out.data() + i,
               Ops::mul(Ops::load(x.data() + i), Ops::load(w.data() + i)));
  for (std::size_t i = nL; i < n; ++i) out[i] = x[i] * w[i];
}

template <typename Ops>
void apply_window_c(std::span<const cdouble> x, std::span<const double> w,
                    std::span<cdouble> out) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::cwin_block(x.data() + i, w.data() + i, out.data() + i);
  for (std::size_t i = nL; i < n; ++i)
    out[i] = cdouble(x[i].real() * w[i], x[i].imag() * w[i]);
}

template <typename Ops>
void cmul(std::span<const cdouble> a, std::span<const cdouble> b,
          std::span<cdouble> out) {
  const std::size_t n = a.size();
  const std::size_t nL = n - n % Ops::kLanes;
  // Two independent blocks per iteration: complex multiply is bound by the
  // shuffle port, so overlapping two dependence-free block computations lets
  // the multiplies of one block hide under the shuffles of the other. The
  // per-element operations are untouched, so bit-identity is unaffected.
  const std::size_t n2L = nL - nL % (2 * Ops::kLanes);
  for (std::size_t i = 0; i < n2L; i += 2 * Ops::kLanes) {
    Ops::cmul_block(a.data() + i, b.data() + i, out.data() + i);
    Ops::cmul_block(a.data() + i + Ops::kLanes, b.data() + i + Ops::kLanes,
                    out.data() + i + Ops::kLanes);
  }
  for (std::size_t i = n2L; i < nL; i += Ops::kLanes)
    Ops::cmul_block(a.data() + i, b.data() + i, out.data() + i);
  for (std::size_t i = nL; i < n; ++i) {
    const double ar = a[i].real(), ai = a[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    out[i] = cdouble(ar * br - ai * bi, ar * bi + ai * br);
  }
}

template <typename Ops>
void axpy(double a, std::span<const double> x, std::span<double> y) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  const auto va = Ops::bcast(a);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(y.data() + i,
               Ops::fmadd(va, Ops::load(x.data() + i), Ops::load(y.data() + i)));
  for (std::size_t i = nL; i < n; ++i) y[i] = y[i] + a * x[i];
}

template <typename Ops>
void scale_add(std::span<double> y, double scale, double a,
               std::span<const double> x) {
  const std::size_t n = y.size();
  const std::size_t nL = n - n % Ops::kLanes;
  const auto vs = Ops::bcast(scale);
  const auto va = Ops::bcast(a);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(y.data() + i,
               Ops::mul(vs, Ops::fmadd(va, Ops::load(x.data() + i),
                                       Ops::load(y.data() + i))));
  for (std::size_t i = nL; i < n; ++i) y[i] = scale * (y[i] + a * x[i]);
}

template <typename Ops>
void scale_r(std::span<double> y, double s) {
  const std::size_t n = y.size();
  const std::size_t nL = n - n % Ops::kLanes;
  const auto vs = Ops::bcast(s);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(y.data() + i, Ops::mul(Ops::load(y.data() + i), vs));
  for (std::size_t i = nL; i < n; ++i) y[i] = y[i] * s;
}

template <typename Ops>
double sum_sq(std::span<const double> x) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  auto acc = Ops::bcast(0.0);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes) {
    const auto v = Ops::load(x.data() + i);
    acc = Ops::fmadd(v, v, acc);
  }
  double total = Ops::reduce(acc);
  for (std::size_t i = nL; i < n; ++i) total += x[i] * x[i];
  return total;
}

template <typename Ops>
double dot(std::span<const double> x, std::span<const double> y) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  auto acc = Ops::bcast(0.0);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    acc = Ops::fmadd(Ops::load(x.data() + i), Ops::load(y.data() + i), acc);
  double total = Ops::reduce(acc);
  for (std::size_t i = nL; i < n; ++i) total += x[i] * y[i];
  return total;
}

template <typename Ops>
void goertzel(std::span<const double> x, std::span<const double> coeffs,
              std::span<double> s1, std::span<double> s2) {
  const std::size_t nf = coeffs.size();
  const std::size_t nfL = nf - nf % Ops::kLanes;
  // One frequency per lane: the recurrence is sequential in samples but
  // embarrassingly parallel across bins. Lanes never interact, so each
  // bin's state matches the one-frequency scalar recurrence bit-for-bit.
  for (std::size_t f = 0; f < nfL; f += Ops::kLanes) {
    const auto c = Ops::load(coeffs.data() + f);
    auto vs1 = Ops::bcast(0.0);
    auto vs2 = Ops::bcast(0.0);
    for (const double sample : x) {
      const auto s = Ops::sub(Ops::fmadd(c, vs1, Ops::bcast(sample)), vs2);
      vs2 = vs1;
      vs1 = s;
    }
    Ops::store(s1.data() + f, vs1);
    Ops::store(s2.data() + f, vs2);
  }
  for (std::size_t f = nfL; f < nf; ++f) {
    const double c = coeffs[f];
    double p1 = 0, p2 = 0;
    for (const double sample : x) {
      const double s = (sample + c * p1) - p2;
      p2 = p1;
      p1 = s;
    }
    s1[f] = p1;
    s2[f] = p2;
  }
}

template <typename Ops>
void tagscore(std::span<const double> x, std::span<const std::uint32_t> idx,
              std::span<const double> w, std::span<const double> g,
              std::size_t n, std::span<double> on, std::span<double> son) {
  // One signature row per lane (like goertzel's one frequency per lane):
  // the entry-major layout puts entry k of row j at [k·n + j], so a lane
  // block loads kLanes rows' k-th entries contiguously and gathers their
  // spectrum values. Each row's two accumulators advance sequentially over
  // its entries in increasing spectrum-index order — the same multiply/add
  // sequence as the scalar tail below (fmadd is unfused),
  // so rows are bit-identical to the one-row scalar evaluation. Padding
  // entries (w = g = 0, idx = 0) contribute +0.0, which is exact on the
  // non-negative accumulators.
  const std::size_t entries = n == 0 ? 0 : idx.size() / n;
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t j = 0; j < nL; j += Ops::kLanes) {
    auto acc_on = Ops::bcast(0.0);
    auto acc_son = Ops::bcast(0.0);
    for (std::size_t k = 0; k < entries; ++k) {
      const std::size_t base = k * n + j;
      const auto xv = Ops::gather(x.data(), idx.data() + base);
      acc_on = Ops::fmadd(Ops::load(w.data() + base), xv, acc_on);
      acc_son = Ops::fmadd(Ops::load(g.data() + base), xv, acc_son);
    }
    Ops::store(on.data() + j, acc_on);
    Ops::store(son.data() + j, acc_son);
  }
  for (std::size_t j = nL; j < n; ++j) {
    double a = 0.0, b = 0.0;
    for (std::size_t k = 0; k < entries; ++k) {
      const std::size_t e = k * n + j;
      const double xv = x[idx[e]];
      a = a + w[e] * xv;
      b = b + g[e] * xv;
    }
    on[j] = a;
    son[j] = b;
  }
}

/// Assemble the dispatch table for one backend.
template <typename Ops>
detail::KernelTable make_table() {
  detail::KernelTable t;
  t.mag = &mag<Ops>;
  t.norm = &norm<Ops>;
  t.mag_db = &mag_db<Ops>;
  t.apply_window_r = &apply_window_r<Ops>;
  t.apply_window_c = &apply_window_c<Ops>;
  t.cmul = &cmul<Ops>;
  t.axpy = &axpy<Ops>;
  t.scale_add = &scale_add<Ops>;
  t.scale_r = &scale_r<Ops>;
  t.sum_sq = &sum_sq<Ops>;
  t.dot = &dot<Ops>;
  t.goertzel = &goertzel<Ops>;
  t.tagscore = &tagscore<Ops>;
  return t;
}

}  // namespace bis::dsp::kernels::body
