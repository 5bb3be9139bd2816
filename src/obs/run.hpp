// One way to run a simulation under observation.
//
// Every observer of a run lives in a process-global slot (TI capture, span
// collector, resource collector, profiler), and each slot has rules:
// the resource collector must be live before the world is built (the surf
// models register their links and hosts in their constructors), every slot
// must be cleared before the caller's collectors can be destroyed, and the
// resource timelines need a final drain once the calendar is empty.
// run_observed owns those rules for online runs (smpirun) and offline replay
// (trace::replay_trace, and through it smpirun --replay, ti_inspect and the
// campaign workers) alike, and returns the run's totals from one place.
#pragma once

#include <cstdint>
#include <string>

#include "obs/analysis.hpp"
#include "platform/platform.hpp"
#include "smpi/smpi.hpp"
#include "surf/maxmin.hpp"

namespace smpi::trace {
class TiWriter;
}  // namespace smpi::trace

namespace smpi::obs {

class Profiler;
class ResourceCollector;
class SpanCollector;

// Caller-owned observers of one run; null members stay off. run_observed
// installs each non-null one, drives the TI writer's finish() and the
// resource collector's finalize(), sets the profiler's total wall time to
// the span that builds and runs the world, and clears every slot it filled
// before it returns or throws. The spans are what a Paje timeline is
// written from after the run (trace::write_paje).
struct RunCollectors {
  trace::TiWriter* ti = nullptr;
  SpanCollector* spans = nullptr;      // sized to the run's process count
  ResourceCollector* resources = nullptr;
  Profiler* profiler = nullptr;
};

// What every observed run reports, whichever way it was driven.
struct RunTotals {
  double simulated_time = 0;
  // Set when a rank aborted the run (MPI_Abort, or a resource failure under
  // the fault model's abort policy). `failure` carries the first fault
  // diagnostic when the abort came from the failure model.
  bool aborted = false;
  int abort_code = 0;
  std::string failure;
  // Hot-path accounting: free-list pool effectiveness and zero-copy eager
  // activity (see core::P2pCounters).
  core::P2pCounters p2p;
  // Cumulative solver work and surf.* observation counters, summed over the
  // network and CPU solvers; zero for the network under the packet backend.
  std::uint64_t solver_solves = 0;
  std::uint64_t solver_vars_touched = 0;
  std::uint64_t solver_cons_touched = 0;
  surf::MaxMinSystem::ObserveCounters surf_observe;
  core::MemoryReport memory;
  // Wait-state / critical-path analysis of the collected spans; only
  // meaningful when `analyzed` is set (RunCollectors::spans was non-null).
  bool analyzed = false;
  AnalysisResult analysis;
};

// Builds a world over `platform`, runs `app` as `nprocs` MPI processes with
// every collector installed, and returns the totals. Simulation errors
// (DeadlockError, TimeLimitError, ...) propagate with every slot cleared.
RunTotals run_observed(const platform::Platform& platform, const core::SmpiConfig& config,
                       int nprocs, core::MpiMain app, const RunCollectors& collectors,
                       std::string app_name = "smpi_app");

}  // namespace smpi::obs
