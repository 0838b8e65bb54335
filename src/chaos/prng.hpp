// Deterministic PRNG for the chaos harness (SplitMix64). Every perturbation
// a chaos run applies is derived from one 64-bit seed through this
// generator, so a seed fully determines the run and any failure replays
// bit-identically with the same binary.
#pragma once

#include <cstdint>

namespace sensmart::chaos {

class Prng {
 public:
  explicit Prng(uint64_t seed) : s_(seed) {}

  uint64_t next() {
    uint64_t z = (s_ += kGamma);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform-ish in [0, bound); bound > 0. The modulo bias is irrelevant for
  // fault injection (we need coverage, not statistics).
  uint32_t below(uint32_t bound) {
    return static_cast<uint32_t>(next() % bound);
  }

  // Uniform-ish in [lo, hi] inclusive.
  uint32_t range(uint32_t lo, uint32_t hi) { return lo + below(hi - lo + 1); }

  // True with probability ~pct/100: below(100) < pct. A certain outcome
  // (pct 0, or 100 and up) only advances the counter — the draw's value
  // cannot change it — so the generator ends in the same state either way.
  bool percent(uint32_t pct) {
    if (pct == 0 || pct >= 100) {
      s_ += kGamma;
      return pct != 0;
    }
    return below(100) < pct;
  }

 private:
  static constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  uint64_t s_;
};

}  // namespace sensmart::chaos
