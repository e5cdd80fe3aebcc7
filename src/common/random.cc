#include "common/random.h"

#include "common/status.h"

namespace fdrepair {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
}

uint64_t Rng::Next() {
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

uint64_t Rng::UniformUint64(uint64_t bound) {
  FDR_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  FDR_CHECK(lo <= hi);
  // Unsigned (modular) arithmetic: hi - lo and lo + offset may exceed
  // int64 even though the result is in [lo, hi].
  const uint64_t base = static_cast<uint64_t>(lo);
  uint64_t span = static_cast<uint64_t>(hi) - base + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return static_cast<int64_t>(base + UniformUint64(span));
}

double Rng::UniformDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

size_t Rng::UniformIndex(size_t size) {
  FDR_CHECK(size > 0);
  return static_cast<size_t>(UniformUint64(size));
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace fdrepair
