#pragma once

/// @file types.hpp
/// Shared DSP type aliases and small vector helpers.

#include <complex>
#include <cstddef>
#include <new>
#include <span>
#include <vector>

namespace bis::dsp {

/// Minimal 64-byte-aligned allocator for the DSP buffer aliases below. The
/// SIMD kernel layer (dsp/kernels) uses unaligned loads so correctness never
/// depends on alignment, but cache-line-aligned buffers keep full-width
/// vector accesses on the fast path: only sub-spans (which start mid-buffer
/// by design) ever touch an unaligned edge.
template <typename T>
class AlignedAlloc {
 public:
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedAlloc() = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(kAlignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAlloc<U>;
  };

  friend bool operator==(const AlignedAlloc&, const AlignedAlloc&) {
    return true;
  }
};

using cdouble = std::complex<double>;
using CVec = std::vector<cdouble, AlignedAlloc<cdouble>>;
using RVec = std::vector<double, AlignedAlloc<double>>;

/// Element-wise magnitude of a complex vector.
RVec magnitude(std::span<const cdouble> xs);

/// Element-wise squared magnitude (power) of a complex vector.
RVec power(std::span<const cdouble> xs);

/// Element-wise magnitude in dB (20·log10|x| computed as 10·log10|x|² — one
/// log per element, no sqrt), clamped at @p floor_db.
RVec magnitude_db(std::span<const cdouble> xs, double floor_db = -300.0);

/// Sum of squared magnitudes, in the kernel layer's fixed lane-blocked
/// reduction order (see dsp/kernels/kernels.hpp).
double energy(std::span<const cdouble> xs);
double energy(std::span<const double> xs);

/// Remove the mean from a real signal (DC blocking used by the tag decoder).
RVec remove_dc(std::span<const double> xs);

}  // namespace bis::dsp
