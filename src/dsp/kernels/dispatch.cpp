/// Runtime dispatch for the SIMD kernel layer. The target is selected once,
/// lazily, on the first kernel call: the best CPU-supported backend
/// (AVX2 → SSE2 → scalar), overridden by the BIS_SIMD environment variable
/// when set; tests and benches switch it with set_target. Selection state is
/// a single atomic pointer; the per-call cost is one relaxed load and an
/// indirect call.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "dsp/kernels/kernel_table.hpp"

namespace bis::dsp::kernels {
namespace {

using detail::KernelTable;

/// The AVX2 backend compiles with -mavx2 and -ffp-contract=off and emits no
/// FMA instruction, so AVX2 support is all it needs.
bool cpu_has_avx2() {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const KernelTable* table_for(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return &detail::scalar_table();
#if BIS_HAVE_SIMD_BACKENDS
    case SimdTarget::kSse2:
      return &detail::sse2_table();
    case SimdTarget::kAvx2:
      return cpu_has_avx2() ? &detail::avx2_table() : nullptr;
#else
    case SimdTarget::kSse2:
    case SimdTarget::kAvx2:
      return nullptr;
#endif
  }
  return nullptr;
}

bool parse_target(std::string_view name, SimdTarget& out) {
  if (name == "scalar" || name == "off") {
    out = SimdTarget::kScalar;
  } else if (name == "sse2") {
    out = SimdTarget::kSse2;
  } else if (name == "avx2") {
    out = SimdTarget::kAvx2;
  } else {
    return false;
  }
  return true;
}

SimdTarget detect_target() {
  SimdTarget best = SimdTarget::kScalar;
#if BIS_HAVE_SIMD_BACKENDS
  best = cpu_has_avx2() ? SimdTarget::kAvx2 : SimdTarget::kSse2;
#endif
  if (const char* env = std::getenv("BIS_SIMD")) {
    SimdTarget requested;
    if (!parse_target(env, requested)) {
      std::fprintf(stderr,
                   "BIS_SIMD=%s not recognized (scalar|sse2|avx2); using %s\n",
                   env, target_name(best));
      return best;
    }
    if (table_for(requested) == nullptr) {
      std::fprintf(stderr, "BIS_SIMD=%s unavailable on this build/CPU; using %s\n",
                   env, target_name(best));
      return best;
    }
    return requested;
  }
  return best;
}

/// Current backend. The pointer and enum travel together; both are atomics
/// written only by set_target / first-use init (benign ordering: every table
/// is immutable and valid for the life of the process).
std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<SimdTarget> g_target{SimdTarget::kScalar};

const KernelTable& active() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t) return *t;
  const SimdTarget target = detect_target();
  g_target.store(target, std::memory_order_relaxed);
  const KernelTable* chosen = table_for(target);
  g_table.store(chosen, std::memory_order_release);
  return *chosen;
}

}  // namespace

SimdTarget active_target() {
  (void)active();  // force first-use detection
  return g_target.load(std::memory_order_relaxed);
}

const char* target_name(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar: return "scalar";
    case SimdTarget::kSse2: return "sse2";
    case SimdTarget::kAvx2: return "avx2";
  }
  return "unknown";
}

bool target_available(SimdTarget target) { return table_for(target) != nullptr; }

bool set_target(SimdTarget target) {
  const KernelTable* t = table_for(target);
  if (!t) return false;
  g_target.store(target, std::memory_order_relaxed);
  g_table.store(t, std::memory_order_release);
  return true;
}

bool set_target(std::string_view name) {
  SimdTarget target;
  if (!parse_target(name, target)) return false;
  return set_target(target);
}

// ---------------------------------------------------------------------------
// Public API → active table

void kmag(std::span<const cdouble> x, std::span<double> out) {
  active().mag(x, out);
}

void knorm(std::span<const cdouble> x, std::span<double> out) {
  active().norm(x, out);
}

void kmag_db(std::span<const cdouble> x, std::span<double> out, double floor_db) {
  active().mag_db(x, out, floor_db);
}

void kapply_window(std::span<const double> x, std::span<const double> w,
                   std::span<double> out) {
  active().apply_window_r(x, w, out);
}

void kapply_window(std::span<const cdouble> x, std::span<const double> w,
                   std::span<cdouble> out) {
  active().apply_window_c(x, w, out);
}

void kcmul(std::span<const cdouble> a, std::span<const cdouble> b,
           std::span<cdouble> out) {
  active().cmul(a, b, out);
}

void kaxpy(double a, std::span<const double> x, std::span<double> y) {
  active().axpy(a, x, y);
}

void kscale_add(std::span<double> y, double scale, double a,
                std::span<const double> x) {
  active().scale_add(y, scale, a, x);
}

void kscale(std::span<double> y, double s) { active().scale_r(y, s); }

void kscale(std::span<cdouble> y, double s) {
  // Complex scaling is element-wise over the interleaved (re, im) doubles.
  active().scale_r(
      std::span<double>(reinterpret_cast<double*>(y.data()), 2 * y.size()), s);
}

double ksum_sq(std::span<const double> x) { return active().sum_sq(x); }

double ksum_sq(std::span<const cdouble> x) {
  // Σ(re² + im²) over the interleaved doubles in the lane-blocked order.
  return active().sum_sq(std::span<const double>(
      reinterpret_cast<const double*>(x.data()), 2 * x.size()));
}

double kdot(std::span<const double> x, std::span<const double> y) {
  return active().dot(x, y);
}

void kgoertzel(std::span<const double> x, std::span<const double> coeffs,
               std::span<double> s1, std::span<double> s2) {
  // Long inputs run the scalar recurrence (measured faster past the
  // crossover; bit-identical, so the reroute is output-preserving).
  if (x.size() > kGoertzelScalarFallbackSamples) {
    detail::scalar_table().goertzel(x, coeffs, s1, s2);
    return;
  }
  active().goertzel(x, coeffs, s1, s2);
}

bool kgoertzel_prefers_scalar(std::size_t n_samples) {
  return n_samples > kGoertzelScalarFallbackSamples;
}

void ktagscore(std::span<const double> x, std::span<const std::uint32_t> idx,
               std::span<const double> w, std::span<const double> g,
               std::size_t n, std::span<double> on, std::span<double> son) {
  active().tagscore(x, idx, w, g, n, on, son);
}

}  // namespace bis::dsp::kernels
