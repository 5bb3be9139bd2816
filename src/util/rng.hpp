// Deterministic random number generation.
//
// Two generators:
//  * Xoshiro256StarStar — general-purpose generator used by workload
//    generators and property tests (seeded, reproducible across platforms).
//  * NasLcg — the 46-bit linear congruential generator specified by the NAS
//    Parallel Benchmarks (a = 5^13, modulus 2^46), needed so our EP and DT
//    kernels produce the NAS reference streams.
#pragma once

#include <cstdint>

namespace smpi::util {

class Xoshiro256StarStar {
 public:
  explicit Xoshiro256StarStar(std::uint64_t seed);

  std::uint64_t next_u64();
  // Uniform in [0, 1).
  double next_double();
  // Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::uint64_t next_in_range(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t state_[4];
};

// NAS Parallel Benchmarks pseudo-random stream: x_{k+1} = a*x_k mod 2^46.
// randlc() returns x_{k+1} * 2^-46 in (0,1) and advances the state.
//
// The state is an integer below 2^46, and the arithmetic is exact: 2^46
// divides 2^64, so the wrapping 64-bit product masked to 46 bits is a*x mod
// 2^46, and every integer below 2^46 converts to a double exactly. NAS's
// split-double randlc is exact too, so both draw bitwise the same values.
class NasLcg {
 public:
  static constexpr std::uint64_t kDefaultSeed = 314159265;
  static constexpr std::uint64_t kA = 1220703125;  // 5^13
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << 46) - 1;

  explicit NasLcg(std::uint64_t seed = kDefaultSeed) : x_(seed & kMask) {}

  double randlc() {
    x_ = (kA * x_) & kMask;
    return static_cast<double>(x_) * 0x1p-46;
  }
  // Jump the stream forward: state := a^n * state mod 2^46, used by EP to give
  // every rank an independent block of the global stream.
  void skip(std::uint64_t n);
  std::uint64_t state() const { return x_; }

 private:
  std::uint64_t x_;
};

// a^n * seed mod 2^46 by square-and-multiply, without stepping n times (NAS ipow46).
std::uint64_t nas_lcg_power(std::uint64_t a, std::uint64_t n, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Counter-seeded sub-streams
// ---------------------------------------------------------------------------
//
// Every stochastic subsystem (workload generator, fault model, noise model)
// follows one discipline: a consumer never shares a generator. Each draw
// site seeds its own Xoshiro from mix_stream(seed, stream_class, entity
// [, draw]), so adding or removing one distribution can never shift the
// draws another sees — the property all the bit-reproducibility tests rest
// on. The three seed *domains* are independent (a workload seed, a fault
// seed, and a noise seed never feed the same mix call), but the fixed
// stream-class numbers are kept globally disjoint anyway so a future merge
// of domains cannot silently collide:
//
//   0-15   fault model (fault_seed domain, sim/fault.cpp):
//            0 host crashes, 1 link failures, 2 link degradations
//   16-31  noise model (noise_seed domain, noise/noise.cpp):
//            16 host speed, 17 link bandwidth, 18 link latency,
//            19 per-message latency jitter, 20 replication sub-seeds
//   32+    reserved
//
// The workload generator (workload/patterns.cpp) derives its stream ids
// dynamically from the phase index (phase << 1 | kind); it is the sole
// occupant of the workload-seed domain, documented here for completeness.
std::uint64_t mix_stream(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);
// Four-level variant for per-draw streams (e.g. one draw per message).
std::uint64_t mix_stream(std::uint64_t seed, std::uint64_t stream, std::uint64_t index,
                         std::uint64_t draw);

namespace stream_class {
// Fault model (fault_seed domain).
constexpr std::uint64_t kFaultHostCrash = 0;
constexpr std::uint64_t kFaultLinkFail = 1;
constexpr std::uint64_t kFaultLinkDegrade = 2;
// Noise model (noise_seed domain).
constexpr std::uint64_t kNoiseHostSpeed = 16;
constexpr std::uint64_t kNoiseLinkBandwidth = 17;
constexpr std::uint64_t kNoiseLinkLatency = 18;
constexpr std::uint64_t kNoiseMessageJitter = 19;
constexpr std::uint64_t kNoiseReplication = 20;
}  // namespace stream_class

}  // namespace smpi::util
