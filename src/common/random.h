// Deterministic pseudo-random number generation.
//
// The simulator needs fast, reproducible randomness that can be forked into
// independent streams (one per sweep point, one per workload type) so that
// experiments are deterministic regardless of execution order or parallelism.
// xoshiro256** is used as the core generator, seeded via SplitMix64.
#pragma once

#include <array>
#include <cstdint>

namespace omega {

// xoshiro256** generator. Satisfies the C++ UniformRandomBitGenerator
// requirements, so it can also drive <random> distributions if needed.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  uint64_t operator()() { return Next(); }

  // Inline: the workload generator and the placers draw millions of times
  // per trial, and an out-of-line call costs as much as the draw itself.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): 53 random mantissa bits scaled down.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform double in [lo, hi).
  double NextRange(double lo, double hi);

  // Returns true with probability `p` (clamped to [0, 1]).
  bool NextBool(double p);

  // Creates an independent generator derived from this one's stream.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<uint64_t, 4> state_;
};

// Derives the seed of substream `stream_index` of `base_seed`. Substreams are
// statistically independent of each other and of the base stream, and the
// mapping is pure: a (base_seed, stream_index) pair always yields the same
// seed, regardless of call order. Parallel sweeps use this to give every
// trial its own RNG stream, making results bit-identical for any thread
// count.
uint64_t SubstreamSeed(uint64_t base_seed, uint64_t stream_index);

}  // namespace omega

