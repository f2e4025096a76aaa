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

/// Remove the mean from a real signal (DC blocking used by the tag decoder).
RVec remove_dc(std::span<const double> xs);

}  // namespace bis::dsp
