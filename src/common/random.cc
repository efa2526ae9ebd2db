#include "src/common/random.h"

namespace omega {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

uint64_t Rng::NextBounded(uint64_t bound) {
  // Lemire's multiply-shift rejection method: unbiased and branch-light.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto low = static_cast<uint64_t>(m);
  if (low < bound) {
    const uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextRange(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

Rng Rng::Fork() { return Rng(Next()); }

uint64_t SubstreamSeed(uint64_t base_seed, uint64_t stream_index) {
  // Mix base and index into one word (odd multiplier keeps the mapping from
  // stream_index injective), then run two SplitMix64 rounds to decorrelate
  // adjacent indices and adjacent base seeds.
  uint64_t s = base_seed ^ (0xda942042e4dd58b5ULL * (stream_index + 1));
  (void)SplitMix64(s);
  return SplitMix64(s);
}

}  // namespace omega
