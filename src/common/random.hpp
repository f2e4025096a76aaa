#pragma once

/// @file random.hpp
/// Deterministic random number generation for reproducible experiments.
///
/// Every stochastic component in the simulator draws from an explicitly
/// seeded Rng handed down from the experiment configuration, so two runs
/// with the same seed produce bit-identical results.
///
/// For parallel Monte-Carlo sweeps the generator additionally supports
/// xoshiro256** stream jumps: `jump()` advances the state by 2^128 steps, so
/// `StreamRng` can hand every grid point its own provably non-overlapping
/// substream of one master seed — results stay bit-identical no matter how
/// many threads the sweep runs on or in what order points are scheduled.

#include <cstdint>
#include <span>
#include <vector>

namespace bis {

/// Small, fast, seedable PRNG (xoshiro256**). Not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second deviate).
  double gaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Fill @p out with independent standard-normal samples using the
  /// Marsaglia–Tsang ziggurat (256 layers): the common case is one uniform
  /// draw, one table compare, and one multiply per sample — no sin/cos/log.
  /// This is the batched inner loop of every noisy chirp (rf::add_awgn, tag
  /// frontend noise). Draws are taken from this generator's stream but do
  /// NOT touch the Box–Muller cache, so interleaving fill_gaussian with
  /// gaussian() stays deterministic.
  void fill_gaussian(std::span<double> out);

  /// Batched normal with the given mean and standard deviation.
  void fill_gaussian(std::span<double> out, double mean, double stddev);

  /// Fair coin flip.
  bool coin();

  /// Vector of random bits, one per element.
  std::vector<int> bits(std::size_t count);

  /// Derive an independent child generator (for per-component streams).
  Rng fork();

  /// Advance the state by 2^128 calls of next_u64() (the canonical
  /// xoshiro256** jump polynomial). 2^128 non-overlapping subsequences of
  /// length 2^128 each — the basis for parallel stream derivation.
  void jump();

 private:
  std::uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Derives independent per-point substreams of one master seed for parallel
/// sweeps: stream(i) is the master generator advanced by i jumps of 2^128
/// steps, so any two streams are guaranteed disjoint for 2^128 draws —
/// unlike fork(), which reseeds through splitmix64 and is only
/// probabilistically independent.
class StreamRng {
 public:
  explicit StreamRng(std::uint64_t master_seed) : base_(master_seed) {}

  /// Generator for substream @p index (cost: index jumps, ~100 ns each).
  Rng stream(std::uint64_t index) const;

 private:
  Rng base_;
};

/// Cumulative count of samples produced by Rng::fill_gaussian across the
/// process (always on; one relaxed atomic add per fill call, not per
/// sample). Run reports use deltas of this to attribute batched-AWGN work.
struct GaussianFillStats {
  std::uint64_t samples = 0;
  std::uint64_t calls = 0;
};
GaussianFillStats gaussian_fill_stats();

}  // namespace bis
