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

#include <algorithm>
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

template <typename Ops>
void tone_glrt(std::span<const double> x, std::span<const double> w,
               std::span<const double> cos, std::span<const double> sin,
               std::span<const double> plan, double uu, std::span<double> out) {
  // kToneGlrtLanes frequencies per block, as two Ops blocks, with the four
  // accumulators in registers for the whole window. Each lane sums its
  // samples in ascending order with unfused products, and the solve below
  // is the Cramer expansion kernels.hpp documents, with the data-free terms
  // read from the plan, so every lane is the scalar evaluation bit for bit.
  static_assert(kToneGlrtLanes == 2 * Ops::kLanes);
  const std::size_t n = x.size();
  const std::size_t stride = plan.size() / kGlrtRuns;
  double ux = 0.0;
  for (std::size_t i = 0; i < n; ++i) ux += w[i] * (w[i] * x[i]);
  const double dc_only = uu > 0.0 ? ux * ux / uu : 0.0;
  const auto zero = Ops::bcast(0.0);
  const auto vux = Ops::bcast(ux);
  const auto vuu = Ops::bcast(uu);
  const auto vdc = Ops::bcast(dc_only);
  // Cramer's θ_k = det_k · (1/det), det_k being det with column k replaced
  // by b = (bc, bs, ux). p, q, r and r2 are the 2×2 minors that hold data,
  // each with the reference expansion's operand order. Forced inline: out
  // of line, GCC emitted it amid this TU's other kernels and moved them.
  const auto solve = [&](auto bc, auto bs, std::size_t f)
                         __attribute__((always_inline)) {
    const auto run = [&](ToneGlrtRun r) {
      return Ops::load(plan.data() + r * stride + f);
    };
    const auto cc = run(kGlrtCc), cs = run(kGlrtCs), cu = run(kGlrtCu);
    const auto ss = run(kGlrtSs), su = run(kGlrtSu);
    const auto p = Ops::sub(Ops::mul(bs, vuu), Ops::mul(su, vux));
    const auto q = Ops::sub(Ops::mul(cs, vux), Ops::mul(bs, cu));
    const auto r = Ops::sub(Ops::mul(bs, su), Ops::mul(ss, vux));
    const auto r2 = Ops::sub(Ops::mul(ss, vux), Ops::mul(bs, su));
    const auto det0 = Ops::add(
        Ops::sub(Ops::mul(bc, run(kGlrtM0)), Ops::mul(cs, p)), Ops::mul(cu, r));
    const auto det1 = Ops::add(
        Ops::sub(Ops::mul(cc, p), Ops::mul(bc, run(kGlrtM1))), Ops::mul(cu, q));
    const auto det2 = Ops::add(Ops::sub(Ops::mul(cc, r2), Ops::mul(cs, q)),
                               Ops::mul(bc, run(kGlrtM2)));
    const auto inv_det = run(kGlrtInvDet);
    const auto full = Ops::add(
        Ops::add(Ops::mul(bc, Ops::mul(det0, inv_det)),
                 Ops::mul(bs, Ops::mul(det1, inv_det))),
        Ops::mul(vux, Ops::mul(det2, inv_det)));
    // std::max(0.0, v) is v > 0 ? v : 0, which vmax(v, 0) is, NaN included.
    return Ops::vmax(Ops::sub(full, vdc), zero);
  };
  for (std::size_t f0 = 0; f0 < out.size(); f0 += kToneGlrtLanes) {
    auto bc0 = zero, bc1 = zero, bs0 = zero, bs1 = zero;
    const double* c = cos.data() + f0;
    const double* s = sin.data() + f0;
    for (std::size_t i = 0; i < n; ++i, c += stride, s += stride) {
      const auto wi = Ops::bcast(w[i]);
      const auto xv = Ops::bcast(w[i] * x[i]);
      bc0 = Ops::fmadd(Ops::mul(wi, Ops::load(c)), xv, bc0);
      bc1 = Ops::fmadd(Ops::mul(wi, Ops::load(c + Ops::kLanes)), xv, bc1);
      bs0 = Ops::fmadd(Ops::mul(wi, Ops::load(s)), xv, bs0);
      bs1 = Ops::fmadd(Ops::mul(wi, Ops::load(s + Ops::kLanes)), xv, bs1);
    }
    double block[kToneGlrtLanes];
    Ops::store(block, solve(bc0, bs0, f0));
    Ops::store(block + Ops::kLanes, solve(bc1, bs1, f0 + Ops::kLanes));
    const std::size_t lanes = std::min(kToneGlrtLanes, out.size() - f0);
    std::copy_n(block, lanes, out.data() + f0);
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
  t.tone_glrt = &tone_glrt<Ops>;
  return t;
}

}  // namespace bis::dsp::kernels::body
