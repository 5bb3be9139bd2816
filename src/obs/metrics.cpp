#include "obs/metrics.hpp"

#include <cstdio>

#include "obs/analysis.hpp"
#include "obs/profile.hpp"
#include "obs/run.hpp"
#include "smpi/smpi.hpp"
#include "util/json.hpp"

namespace smpi::obs {

void MetricsRegistry::set(const std::string& name, double value) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.integer = false;
      return;
    }
  }
  metrics_.push_back({name, value, false});
}

void MetricsRegistry::set_counter(const std::string& name, std::uint64_t value) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = static_cast<double>(value);
      metric.integer = true;
      return;
    }
  }
  metrics_.push_back({name, static_cast<double>(value), true});
}

const Metric* MetricsRegistry::find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string MetricsRegistry::text(const std::string& prefix_filter) const {
  std::string out;
  char line[192];
  for (const Metric& metric : metrics_) {
    if (!prefix_filter.empty() &&
        metric.name.compare(0, prefix_filter.size(), prefix_filter) != 0) {
      continue;
    }
    if (metric.integer) {
      std::snprintf(line, sizeof(line), "  %-32s %llu\n", metric.name.c_str(),
                    static_cast<unsigned long long>(metric.value));
    } else {
      std::snprintf(line, sizeof(line), "  %-32s %.9g\n", metric.name.c_str(), metric.value);
    }
    out += line;
  }
  return out;
}

util::JsonValue MetricsRegistry::json() const {
  auto doc = util::JsonValue::object();
  for (const Metric& metric : metrics_) {
    if (metric.integer) {
      doc.set(metric.name, util::JsonValue::number_text(
                               std::to_string(static_cast<std::uint64_t>(metric.value))));
    } else {
      doc.set(metric.name, util::JsonValue::number(metric.value));
    }
  }
  return doc;
}

void collect_p2p(MetricsRegistry& registry, const core::P2pCounters& counters) {
  registry.set_counter("p2p.pool_hits", counters.pool_hits);
  registry.set_counter("p2p.pool_misses", counters.pool_misses);
  registry.set_counter("p2p.eager_snapshots", counters.eager_snapshots);
  registry.set_counter("p2p.eager_copy_elided", counters.eager_copy_elided);
  registry.set_counter("p2p.eager_flush_snapshots", counters.eager_flush_snapshots);
  registry.set_counter("p2p.bytes_not_copied", counters.bytes_not_copied);
}

void collect_solver(MetricsRegistry& registry, std::uint64_t solves, std::uint64_t vars_touched,
                    std::uint64_t cons_touched) {
  registry.set_counter("solver.solves", solves);
  registry.set_counter("solver.vars_touched", vars_touched);
  registry.set_counter("solver.cons_touched", cons_touched);
}

void collect_analysis(MetricsRegistry& registry, const AnalysisResult& analysis) {
  registry.set("analysis.makespan_s", analysis.makespan);
  registry.set("analysis.wait_fraction", analysis.wait_fraction);
  registry.set("analysis.compute_imbalance", analysis.compute_imbalance);
  registry.set("analysis.total_compute_s", analysis.total_compute_s);
  registry.set("analysis.total_transfer_s", analysis.total_transfer_s);
  registry.set("analysis.total_wait_s", analysis.total_wait_s);
  registry.set("analysis.critical_path_s", analysis.path_length_s);
  registry.set("analysis.cp_compute_s", analysis.cp_compute_s);
  registry.set("analysis.cp_comm_s", analysis.cp_comm_s);
}

void collect_surf(MetricsRegistry& registry, const surf::MaxMinSystem::ObserveCounters& counters) {
  registry.set_counter("surf.solves_attach", counters.solves_attach);
  registry.set_counter("surf.solves_release", counters.solves_release);
  registry.set_counter("surf.solves_capacity", counters.solves_capacity);
  registry.set_counter("surf.solves_bound", counters.solves_bound);
  registry.set_counter("surf.saturation_events", counters.saturation_events);
  registry.set_counter("surf.snapshot_drains", counters.observe_drains);
}

void collect_run(MetricsRegistry& registry, const RunTotals& totals) {
  collect_p2p(registry, totals.p2p);
  collect_solver(registry, totals.solver_solves, totals.solver_vars_touched,
                 totals.solver_cons_touched);
  collect_surf(registry, totals.surf_observe);
}

void collect_profile(MetricsRegistry& registry, const Profiler& profiler) {
  for (int k = 0; k < static_cast<int>(ProfKey::kCount); ++k) {
    const auto key = static_cast<ProfKey>(k);
    const ProfStats& stats = profiler.stats(key);
    const std::string base = std::string("profile.") + prof_key_name(key);
    registry.set_counter(base + ".calls", stats.calls);
    registry.set(base + ".seconds", stats.seconds);
  }
  registry.set("profile.total_wall_s", profiler.total_wall());
}

}  // namespace smpi::obs
