// Simulator self-profiling: scoped wall-clock timers around the engine's own
// hot paths (solver solves, calendar drains, context switches, pool
// operations). This measures the *simulator's* wall time, not simulated
// time — the always-available complement to the one-off benches under
// bench/.
//
// Zero-cost when disabled: ProfScope's constructor is one global load and a
// branch; std::chrono::steady_clock is only read while a Profiler is
// installed. Installation follows the capture/span pattern (one global slot,
// caller owns the object), so a disabled run is bit-identical in behavior
// and unmeasurably close in wall time.
//
// Deliberately dependency-free (<array>/<chrono>/<cstdint> only) so sim/ and
// surf/ can include it without creating a layering cycle.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace smpi::util {
class JsonValue;
}

namespace smpi::obs {

// One bucket per instrumented simulator hot path.
enum class ProfKey : int {
  kSolverSolve = 0,    // MaxMinSystem::solve (full/component/lazy)
  kCalendarAdvance,    // Engine::advance_time (settle + calendar/timer drain)
  kContextSwitch,      // Engine::run_actor resume slices (count == switches)
  kPoolOp,             // engine object/buffer pool acquire+release
  kCount,
};

const char* prof_key_name(ProfKey key);

struct ProfStats {
  std::uint64_t calls = 0;
  double seconds = 0;
};

class Profiler {
 public:
  void add(ProfKey key, double seconds) {
    auto& slot = slots_[static_cast<std::size_t>(key)];
    ++slot.calls;
    slot.seconds += seconds;
  }
  const ProfStats& stats(ProfKey key) const { return slots_[static_cast<std::size_t>(key)]; }

  // Total wall clock of the profiled region (set by obs::run_observed around
  // building and running the world, so bucket fractions have a denominator).
  void set_total_wall(double seconds) { total_wall_s_ = seconds; }
  double total_wall() const { return total_wall_s_; }

 private:
  std::array<ProfStats, static_cast<std::size_t>(ProfKey::kCount)> slots_{};
  double total_wall_s_ = 0;
};

// Global installation slot (capture/span pattern). The caller keeps
// ownership and must clear before destroying the profiler.
extern Profiler* g_profiler;
void install_profiler(Profiler* profiler);
void clear_profiler();
inline bool profiling_enabled() { return g_profiler != nullptr; }

// RAII timer around one hot-path invocation. When no profiler is installed
// the constructor is a load + branch and the destructor a branch.
class ProfScope {
 public:
  explicit ProfScope(ProfKey key) : key_(key), active_(g_profiler != nullptr) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ProfScope() {
    if (active_) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      g_profiler->add(key_, std::chrono::duration<double>(elapsed).count());
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfKey key_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

// Report formatting (profile.cpp; callers of profile_json include
// util/json.hpp themselves).
std::string profile_text(const Profiler& profiler);
util::JsonValue profile_json(const Profiler& profiler);

}  // namespace smpi::obs
