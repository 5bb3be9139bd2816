#include "util/rng.hpp"

#include "util/check.hpp"

namespace smpi::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t Xoshiro256StarStar::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Xoshiro256StarStar::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1p-53;
}

std::uint64_t Xoshiro256StarStar::next_in_range(std::uint64_t lo, std::uint64_t hi) {
  SMPI_REQUIRE(lo <= hi, "empty range");
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next_u64();  // full 64-bit range
  return lo + next_u64() % span;
}

void NasLcg::skip(std::uint64_t n) { x_ = nas_lcg_power(kA, n, x_); }

namespace {

// One combining level of sub-stream seeding: fold `v` into the running
// state, then run the SplitMix64 finalizer for a full avalanche. The weaker
// boost hash_combine step this replaced collided for adjacent small
// (stream, index) pairs — (s, i) vs (s+1, i-63) landed on the same seed —
// which the sub-stream independence test now guards against. Changing the
// constants or shift structure re-seeds every reproducible stream in the
// codebase — treat it as frozen.
std::uint64_t mix_step(std::uint64_t h, std::uint64_t v) {
  // xor-fold of an odd-multiplied v: an additive fold would alias
  // (h, v + 1) with (h + 1, v), i.e. seed 0 / stream s+1 with seed 1 /
  // stream s.
  std::uint64_t z = h ^ (v * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t mix_stream(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return mix_step(mix_step(seed, stream), index);
}

std::uint64_t mix_stream(std::uint64_t seed, std::uint64_t stream, std::uint64_t index,
                         std::uint64_t draw) {
  return mix_step(mix_stream(seed, stream, index), draw);
}

std::uint64_t nas_lcg_power(std::uint64_t a, std::uint64_t n, std::uint64_t seed) {
  std::uint64_t t = a & NasLcg::kMask;
  std::uint64_t result = seed & NasLcg::kMask;
  while (n != 0) {
    if (n & 1) result = (t * result) & NasLcg::kMask;
    t = (t * t) & NasLcg::kMask;
    n >>= 1;
  }
  return result;
}

}  // namespace smpi::util
