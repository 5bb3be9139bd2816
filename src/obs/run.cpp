#include "obs/run.hpp"

#include <chrono>
#include <optional>
#include <utility>

#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "obs/span.hpp"
#include "trace/capture.hpp"
#include "trace/paje.hpp"
#include "trace/writer.hpp"

namespace smpi::obs {

namespace {

// Fills the global slot of every non-null collector; clear() (also run by
// the destructor, so on every exit path) empties exactly those slots.
class InstalledCollectors {
 public:
  explicit InstalledCollectors(const RunCollectors& c) : c_(c) {
    if (c_.resources != nullptr) install_resources(c_.resources);
    if (c_.spans != nullptr) install_spans(c_.spans);
    if (c_.profiler != nullptr) install_profiler(c_.profiler);
    if (c_.ti != nullptr || c_.paje != nullptr) trace::install_capture(c_.ti, c_.paje);
  }
  ~InstalledCollectors() { clear(); }
  InstalledCollectors(const InstalledCollectors&) = delete;
  InstalledCollectors& operator=(const InstalledCollectors&) = delete;

  void clear() {
    if (c_.ti != nullptr || c_.paje != nullptr) trace::clear_capture();
    if (c_.profiler != nullptr) clear_profiler();
    if (c_.spans != nullptr) clear_spans();
    if (c_.resources != nullptr) clear_resources();
    c_ = {};
  }

 private:
  RunCollectors c_;
};

void add_solver(RunTotals& totals, const surf::MaxMinSystem& solver) {
  totals.solver_solves += solver.solve_count();
  totals.solver_vars_touched += solver.vars_touched();
  totals.solver_cons_touched += solver.cons_touched();
  totals.surf_observe += solver.observe_counters();
}

}  // namespace

RunTotals run_observed(const platform::Platform& platform, const core::SmpiConfig& config,
                       int nprocs, core::MpiMain app, const RunCollectors& collectors,
                       std::string app_name) {
  // Declared before the slots so that, on every path, the slots are cleared
  // while the world still exists and the world unwinds with nothing
  // installed.
  std::optional<core::SmpiWorld> world;
  InstalledCollectors slots(collectors);
  if (collectors.paje != nullptr) collectors.paje->begin(nprocs);
  const auto wall_start = std::chrono::steady_clock::now();
  world.emplace(platform, config);
  world->run(nprocs, std::move(app), {}, std::move(app_name));
  if (collectors.profiler != nullptr) {
    collectors.profiler->set_total_wall(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count());
  }

  RunTotals totals;
  totals.simulated_time = world->simulated_time();
  totals.aborted = world->aborted();
  totals.abort_code = world->abort_code();
  totals.failure = world->failure_diagnostic();
  totals.p2p = world->p2p_counters();
  totals.memory = world->memory_report();
  surf::FlowNetworkModel* net = world->flow_network();
  if (collectors.resources != nullptr) {
    // Final drain: the last completions' usage drops may still sit in the
    // solvers' changed sets (no settle runs after the last event).
    if (net != nullptr) net->flush_observations(totals.simulated_time);
    world->cpu_model().flush_observations(totals.simulated_time);
  }
  slots.clear();
  if (collectors.resources != nullptr) collectors.resources->finalize(totals.simulated_time);
  if (collectors.ti != nullptr) collectors.ti->finish();
  if (collectors.paje != nullptr) collectors.paje->finish(totals.simulated_time);
  if (net != nullptr) add_solver(totals, net->solver());
  add_solver(totals, world->cpu_model().solver());
  if (collectors.spans != nullptr) {
    totals.analyzed = true;
    totals.analysis = analyze(*collectors.spans);
  }
  return totals;
}

}  // namespace smpi::obs
