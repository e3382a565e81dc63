// raysched: deterministic, splittable random number generation.
//
// All stochastic code in the library takes an explicit RngStream. Streams
// are keyed: derive(stream, tag) produces an independent child stream, so an
// experiment can be decomposed exactly like the paper's seed dimensions
// (network seed x transmit seed x fading seed) with full reproducibility and
// no shared mutable state across threads.
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded via splitmix64.
// Both are implemented here so the library has no dependency on platform
// RNGs, and results are bit-identical across standard library versions.
//
// The RNG is layer-0 infrastructure: every library layer (model fading,
// core transfer, algorithms, learning) draws from it, so it lives in util/,
// below them all. It moved here from sim/rng.hpp; the one-release forwarding
// shim at the old path has since been removed (an include of the old path
// no longer compiles).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace raysched::util {

/// splitmix64 step: used for seeding and key mixing. Public because tests
/// pin its output against reference values.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ stream with key-derivation helpers.
class RngStream {
 public:
  /// Seeds the stream from a 64-bit seed via splitmix64 expansion.
  explicit RngStream(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& w : state_) w = splitmix64(sm);
    // xoshiro256++ requires a nonzero state; splitmix64 output of any seed
    // is never all-zero across four draws, but guard regardless.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  /// Derives an independent child stream from this stream's seed material
  /// and a tag. Deriving with the same tag twice yields the same stream;
  /// different tags yield decorrelated streams. Does not advance *this.
  [[nodiscard]] RngStream derive(std::uint64_t tag) const {
    std::uint64_t sm = state_[0] ^ (state_[2] * 0xD1B54A32D192ED03ULL) ^ tag;
    // Re-mix through splitmix64 twice so low-entropy tags still decorrelate.
    (void)splitmix64(sm);
    return RngStream(splitmix64(sm));
  }

  /// Convenience: derive with two tags (e.g. (trial, slot)).
  [[nodiscard]] RngStream derive(std::uint64_t tag_a, std::uint64_t tag_b) const {
    return derive(tag_a).derive(tag_b);
  }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    require(lo <= hi, "RngStream::uniform: lo must be <= hi");
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Unbiased via rejection.
  std::uint64_t uniform_index(std::uint64_t n) {
    require(n > 0, "RngStream::uniform_index: n must be positive");
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % n;
    }
  }

  /// Bernoulli trial with success probability p in [0,1].
  bool bernoulli(double p) {
    require(p >= 0.0 && p <= 1.0, "RngStream::bernoulli: p must be in [0,1]");
    return uniform() < p;
  }

  /// Exponential with the given mean (NOT rate). Rayleigh-fading received
  /// power is exponential with mean equal to the deterministic gain, so this
  /// is the sampling primitive the fading channel uses.
  double exponential_mean(double mean) {
    require(mean >= 0.0, "RngStream::exponential_mean: mean must be >= 0");
    if (mean == 0.0) return 0.0;
    // uniform() is in [0,1); 1-u is in (0,1], so the log is finite.
    return -mean * std::log1p(-uniform());
  }

  /// Gamma(shape, scale=1) via Marsaglia-Tsang squeeze (shape >= 1) with the
  /// standard boost for shape < 1. Used by the Nakagami-m fading channel,
  /// whose power gains are Gamma(m, mean/m).
  double gamma(double shape) {
    require(shape > 0.0, "RngStream::gamma: shape must be positive");
    if (shape < 1.0) {
      // Gamma(a) = Gamma(a+1) * U^{1/a}.
      const double u = 1.0 - uniform();  // in (0, 1]
      return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x, v;
      do {
        x = normal();
        v = 1.0 + c * x;
      } while (v <= 0.0);
      v = v * v * v;
      const double u = 1.0 - uniform();  // in (0, 1]
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
      if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
    }
  }

  /// Standard normal via Marsaglia polar method (used by statistical tests).
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    have_spare_ = true;
    return u * m;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace raysched::util
