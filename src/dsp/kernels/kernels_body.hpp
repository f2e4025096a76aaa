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
///   V    add/sub/mul/div(V, V), vsqrt(V)
///   V    vmax(V a, V b), vmin(V a, V b)   a > b ? a : b and a < b ? a : b per
///                                         lane (SSE maxpd/minpd: b when
///                                         either is NaN)
///   V    trunc(V)                         round toward zero, −0.0 kept; exact
///                                         for |x| ≤ 2^52
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
///   void cwin_block(const cdouble* x, const double* w, cdouble* out)
///                                         (re·w, im·w) ×L

#include <cmath>
#include <cstddef>
#include <span>

#include "dsp/kernels/kernel_table.hpp"

namespace bis::dsp::kernels::body {

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

/// Scalar vmax/vmin with the Ops lane semantics, for the kernel tails.
inline double max_lane(double a, double b) { return a > b ? a : b; }
inline double min_lane(double a, double b) { return a < b ? a : b; }

template <typename Ops>
void quantize(std::span<double> y, double full_scale, double lsb,
              double min_code, double max_code) {
  // std::clamp(v, lo, hi) is min(max(v, lo), hi) with std::max(v, lo) =
  // v < lo ? lo : v and std::min(m, hi) = hi < m ? hi : m, which are
  // vmax(lo, v) and vmin(hi, m) — NaN passes through both, as in the ADC.
  const std::size_t n = y.size();
  const std::size_t nL = n - n % Ops::kLanes;
  const auto lo = Ops::bcast(-full_scale), hi = Ops::bcast(full_scale);
  const auto step = Ops::bcast(lsb);
  const auto cmin = Ops::bcast(min_code), cmax = Ops::bcast(max_code);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes) {
    const auto x = Ops::load(y.data() + i);
    const auto q = Ops::div(Ops::vmin(hi, Ops::vmax(lo, x)), step);
    const auto t = Ops::trunc(q);
    const auto f = Ops::sub(t, q);
    const auto code = Ops::sub(t, Ops::trunc(Ops::add(f, f)));
    Ops::store(y.data() + i,
               Ops::mul(Ops::vmin(cmax, Ops::vmax(cmin, code)), step));
  }
  for (std::size_t i = nL; i < n; ++i) {
    const double q = min_lane(full_scale, max_lane(-full_scale, y[i])) / lsb;
    const double t = std::trunc(q);
    const double f = t - q;
    const double code = t - std::trunc(f + f);
    y[i] = min_lane(max_code, max_lane(min_code, code)) * lsb;
  }
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
void butterfly(std::span<double> ar, std::span<double> ai,
               std::span<double> br, std::span<double> bi, double wr,
               double wi) {
  // One column per lane: the twiddle is shared by the whole row pair, and
  // each lane runs the plan's scalar butterfly (unfused products, the same
  // operand order), so every column matches the scalar tail bit for bit.
  const std::size_t n = ar.size();
  const std::size_t nL = n - n % Ops::kLanes;
  const auto vwr = Ops::bcast(wr);
  const auto vwi = Ops::bcast(wi);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes) {
    const auto xr = Ops::load(br.data() + i);
    const auto xi = Ops::load(bi.data() + i);
    const auto vr = Ops::sub(Ops::mul(xr, vwr), Ops::mul(xi, vwi));
    const auto vi = Ops::add(Ops::mul(xr, vwi), Ops::mul(xi, vwr));
    const auto ur = Ops::load(ar.data() + i);
    const auto ui = Ops::load(ai.data() + i);
    Ops::store(ar.data() + i, Ops::add(ur, vr));
    Ops::store(ai.data() + i, Ops::add(ui, vi));
    Ops::store(br.data() + i, Ops::sub(ur, vr));
    Ops::store(bi.data() + i, Ops::sub(ui, vi));
  }
  for (std::size_t i = nL; i < n; ++i) {
    const double vr = br[i] * wr - bi[i] * wi;
    const double vi = br[i] * wi + bi[i] * wr;
    const double ur = ar[i], ui = ai[i];
    ar[i] = ur + vr;
    ai[i] = ui + vi;
    br[i] = ur - vr;
    bi[i] = ui - vi;
  }
}

template <typename Ops>
void butterfly_unit(std::span<double> ar, std::span<double> ai,
                    std::span<double> br, std::span<double> bi) {
  const std::size_t n = ar.size();
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t i = 0; i < nL; i += Ops::kLanes) {
    const auto ur = Ops::load(ar.data() + i), ui = Ops::load(ai.data() + i);
    const auto vr = Ops::load(br.data() + i), vi = Ops::load(bi.data() + i);
    Ops::store(ar.data() + i, Ops::add(ur, vr));
    Ops::store(ai.data() + i, Ops::add(ui, vi));
    Ops::store(br.data() + i, Ops::sub(ur, vr));
    Ops::store(bi.data() + i, Ops::sub(ui, vi));
  }
  for (std::size_t i = nL; i < n; ++i) {
    const double ur = ar[i], ui = ai[i];
    const double vr = br[i], vi = bi[i];
    ar[i] = ur + vr;
    ai[i] = ui + vi;
    br[i] = ur - vr;
    bi[i] = ui - vi;
  }
}

template <typename Ops>
void untangle_norm(std::span<const double> zr, std::span<const double> zi,
                   std::span<const double> zr_m, std::span<const double> zi_m,
                   double wr, double wi, std::span<double> out) {
  // rfft's untangle takes b = conj(Z[h−k]) = (zr_m, −zi_m), then
  // ei = ½(ai + bi) and di = ai − bi. IEEE-754 defines x − y as x + (−y), so
  // ½(ai − zi_m) and ai + zi_m are those values bit for bit, and no lane
  // needs a negation.
  const std::size_t n = out.size();
  const std::size_t nL = n - n % Ops::kLanes;
  const auto half = Ops::bcast(0.5);
  const auto neg_half = Ops::bcast(-0.5);
  const auto vwr = Ops::bcast(wr);
  const auto vwi = Ops::bcast(wi);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes) {
    const auto ar = Ops::load(zr.data() + i), ai = Ops::load(zi.data() + i);
    const auto br = Ops::load(zr_m.data() + i);
    const auto bm = Ops::load(zi_m.data() + i);
    const auto er = Ops::mul(half, Ops::add(ar, br));
    const auto ei = Ops::mul(half, Ops::sub(ai, bm));
    const auto od = Ops::mul(half, Ops::add(ai, bm));
    const auto oi = Ops::mul(neg_half, Ops::sub(ar, br));
    const auto xr = Ops::sub(Ops::add(er, Ops::mul(vwr, od)), Ops::mul(vwi, oi));
    const auto xi = Ops::add(Ops::add(ei, Ops::mul(vwr, oi)), Ops::mul(vwi, od));
    Ops::store(out.data() + i, Ops::add(Ops::mul(xr, xr), Ops::mul(xi, xi)));
  }
  for (std::size_t i = nL; i < n; ++i) {
    const double ar = zr[i], ai = zi[i], br = zr_m[i], bm = zi_m[i];
    const double er = 0.5 * (ar + br);
    const double ei = 0.5 * (ai - bm);
    const double od = 0.5 * (ai + bm);
    const double oi = -0.5 * (ar - br);
    const double xr = er + wr * od - wi * oi;
    const double xi = ei + wr * oi + wi * od;
    out[i] = xr * xr + xi * xi;
  }
}

template <typename Ops>
void tagscore(std::span<const double> x, std::span<const std::uint32_t> idx,
              std::span<const double> w, std::span<const double> g,
              std::size_t n, std::span<double> on, std::span<double> son) {
  // One signature row per lane: the entry-major layout puts entry k of row
  // j at [k·n + j], so a lane block loads kLanes rows' k-th entries
  // contiguously and gathers their spectrum values. Each row's two
  // accumulators advance sequentially over its entries in increasing
  // spectrum-index order — the same multiply/add sequence as the scalar
  // tail below (fmadd is unfused), so rows are bit-identical to the one-row
  // scalar evaluation. Padding entries (w = g = 0, idx = 0) contribute
  // +0.0, which is exact on the non-negative accumulators.
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
  t.apply_window_r = &apply_window_r<Ops>;
  t.apply_window_c = &apply_window_c<Ops>;
  t.axpy = &axpy<Ops>;
  t.scale_add = &scale_add<Ops>;
  t.scale_r = &scale_r<Ops>;
  t.quantize = &quantize<Ops>;
  t.sum_sq = &sum_sq<Ops>;
  t.butterfly = &butterfly<Ops>;
  t.butterfly_unit = &butterfly_unit<Ops>;
  t.untangle_norm = &untangle_norm<Ops>;
  t.tagscore = &tagscore<Ops>;
  return t;
}

}  // namespace bis::dsp::kernels::body
