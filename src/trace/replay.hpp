// Offline replay: re-simulate a captured TI trace on any platform.
//
// Each rank becomes a replay actor that walks its record list and re-issues
// the recorded operations through the ordinary MPI entry points, so the
// replayed traffic exercises the same collective algorithms, matching
// engine, and surf contention models as the online run — only the
// application code and its memory are gone. All payloads are served from
// one shared scratch arena (sized to the largest single operation, not to
// rank count x message size) and the world runs in payload-free mode, so a
// 1024-rank trace replays without allocating any per-rank application data.
// Collective algorithms also skip their internal staging buffers in this
// mode (see coll.cpp) — a replay moves no payload bytes at all.
//
// The trace-taking overload is the unit the campaign engine multiplies: a
// what-if sweep loads the trace once, then replays the same immutable
// TiTrace under many platform/config variants (one fresh SmpiWorld per
// scenario, so re-entry is clean by construction).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/run.hpp"
#include "platform/platform.hpp"
#include "smpi/smpi.hpp"

namespace smpi::obs {
class Profiler;
class ResourceCollector;
class SpanCollector;
}  // namespace smpi::obs

namespace smpi::trace {

class PajeWriter;
struct TiTrace;

struct ReplayOptions {
  // Caller-owned observers, installed around the replay's world by
  // obs::run_observed; null leaves each off. `paje` is the live per-MPI-call
  // timeline (begin()/finish() are driven here). With `resources` set,
  // ReplayResult's bottleneck summary fields are filled from it and it is
  // finalized (intervals closed at the makespan) before replay_trace
  // returns; null keeps the solver's changed-tracking off, and simulated
  // times and solver counters are bit-identical either way.
  PajeWriter* paje = nullptr;
  obs::ResourceCollector* resources = nullptr;
  obs::Profiler* profiler = nullptr;
  // Pre-computed compute_arena_bytes(trace) result; 0 = compute here. A
  // campaign scans the trace once instead of once per scenario.
  long long arena_bytes_hint = 0;
  // Replay in payload-free mode (the default, and the point of the
  // subsystem). false re-enables every payload copy — simulated time is
  // identical, only the replay's wall-clock cost changes, which makes it a
  // campaign axis for measuring what payload-free buys.
  bool payload_free = true;
  // Collect per-op spans during the replay and run the wait-state /
  // critical-path analysis over them (ReplayResult::analysis, and the spans
  // themselves in ReplayResult::spans). Off by default: with analyze off the
  // replay takes the exact same simulated-time trajectory and the span
  // hooks reduce to a global load + branch.
  bool analyze = false;
};

// Simulated-time split of one rank's replay: time inside compute/sleep
// records vs. time inside communication records (sends, receives, waits,
// collectives — i.e. blocked on the network or on peers).
struct RankUsage {
  double compute_s = 0;
  double comm_s = 0;
  long long records = 0;
  // Filled only when the replay was analyzed: comm_s split into time
  // truly blocked on a peer (wait_s) vs. time the wire was busy
  // (transfer_s). In that mode compute_s/comm_s are re-derived from the
  // span layer, which fixes the attribution of overlapped nonblocking
  // operations — a transfer that progressed underneath a compute record no
  // longer has its MPI_Wait charged as if the whole interval were
  // communication.
  double wait_s = 0;
  double transfer_s = 0;
};

// The run's totals (simulated time, abort state, p2p/solver/surf counters,
// analysis) plus what only a replay knows. In payload-free replay the eager
// copy counters stay zero by construction — no payload moves at all.
struct ReplayResult : obs::RunTotals {
  long long records = 0;
  int ranks = 0;
  std::uint64_t arena_bytes = 0;
  std::vector<RankUsage> rank_usage;  // indexed by world rank
  // The spans the analysis ran over (ReplayOptions::analyze), for exports
  // such as the classified Paje timeline and Perfetto; null otherwise.
  std::shared_ptr<const obs::SpanCollector> spans;
  // Resource-utilization summary (ReplayOptions::resources): the dominant
  // bottleneck by saturated time (empty name: nothing ever saturated) and
  // the peak link utilization across the run. Only meaningful when
  // `resources_analyzed` is set; the full timelines and saturation ledger
  // stay on the caller's collector.
  bool resources_analyzed = false;
  std::string top_bottleneck;
  double bottleneck_saturated_s = 0;
  double max_link_utilization = 0;
};

// Size of the shared scratch arena a replay of `trace` needs: the largest
// buffer any single recorded operation may span.
long long compute_arena_bytes(const TiTrace& trace);

// Loads `<trace_dir>` and re-simulates it over `platform`. `config` should
// match the capture run's model configuration (network model, personality);
// config.payload_free is overridden by options.payload_free (on by
// default). Throws util::ContractError on a bad trace.
ReplayResult replay_trace(const platform::Platform& platform, core::SmpiConfig config,
                          const std::string& trace_dir, const ReplayOptions& options = {});

// Same, over an already-loaded trace (re-enterable: call as many times as
// you like, with any platform/config per call).
ReplayResult replay_trace(const platform::Platform& platform, core::SmpiConfig config,
                          const TiTrace& trace, const ReplayOptions& options = {});

}  // namespace smpi::trace
