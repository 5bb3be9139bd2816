// Campaign throughput benchmark: capture one EP trace, sweep a 31-scenario
// campaign (baseline + a 5x3x2 what-if grid) through the fork-based worker
// pool with 1 worker and with min(8, hardware) workers, and record both
// walls.
//
//   BENCH_campaign.json records:
//     campaign_sweep_1worker     n=<scenarios>  wall_ns with 1 worker
//     campaign_sweep_multiworker n=<workers>    wall_ns with n workers
//
// tools/bench_trend.py gates the machine-independent invariant: when the
// multiworker record ran with >= 4 workers, the sweep must finish >= 2x
// faster than the 1-worker run (both walls come from the same machine in
// the same run, so the ratio survives runner-generation drift; on boxes
// with < 4 cores the multiworker run degenerates and the gate stays off).
// The benchmark also asserts the correctness half of the campaign bargain:
// identical per-scenario simulated times whatever the worker count.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>

#include "apps/ep.hpp"
#include "bench_json.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "obs/run.hpp"
#include "platform/builders.hpp"
#include "smpi/smpi.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"
#include "util/json.hpp"

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main() {
  const int ranks = 16;
  const std::string dir = "bench_campaign_ti";
  std::filesystem::remove_all(dir);

  // Capture once: EP with every burst executed, the same workload as
  // bench_replay so per-scenario cost is comparable across the two files.
  {
    smpi::platform::FlatClusterParams params;
    params.nodes = ranks;
    auto platform = smpi::platform::build_flat_cluster(params);
    smpi::trace::TiWriter writer(dir, ranks, "ep");
    smpi::obs::RunCollectors collectors;
    collectors.ti = &writer;
    smpi::apps::EpParams ep;
    ep.log2_pairs = 20;
    smpi::obs::run_observed(platform, {}, ranks, smpi::apps::make_ep_app(ep), collectors);
  }
  const smpi::trace::TiTrace trace = smpi::trace::load_ti_trace(dir);

  // Baseline + 5x3x2 what-ifs = 31 scenarios.
  const auto spec = smpi::campaign::CampaignSpec::parse(smpi::util::parse_json(R"({
    "name": "bench-sweep",
    "platform": {"kind": "flat", "nodes": 16},
    "axes": [
      {"param": "link_bandwidth_scale", "values": [0.25, 0.5, 1, 2, 4]},
      {"param": "host_speed_scale", "values": [1, 2, 4]},
      {"param": "link_latency_scale", "values": [1, 10]}
    ]
  })",
                                                                               "bench spec"));
  const auto scenarios = smpi::campaign::enumerate_scenarios(spec);

  const int multi = std::min(8u, std::max(1u, std::thread::hardware_concurrency()));
  smpi::campaign::CampaignOutcome serial;
  smpi::campaign::CampaignOutcome parallel;
  smpi::campaign::RunOptions options;
  options.workers = 1;
  const double serial_wall =
      wall_seconds([&] { serial = smpi::campaign::run_campaign(spec, scenarios, trace, options); });
  options.workers = multi;
  const double parallel_wall = wall_seconds(
      [&] { parallel = smpi::campaign::run_campaign(spec, scenarios, trace, options); });

  // Correctness half of the claim: worker count never changes results.
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (!serial.results[i].ok || !parallel.results[i].ok ||
        serial.results[i].simulated_time != parallel.results[i].simulated_time) {
      std::fprintf(stderr, "bench_campaign: scenario %zu diverged across worker counts\n", i);
      return 1;
    }
  }

  std::printf("%-10s %10s %12s %14s\n", "workers", "scenarios", "wall", "scenarios/s");
  std::printf("%-10d %10zu %10.1fms %14.1f\n", 1, scenarios.size(), serial_wall * 1e3,
              scenarios.size() / serial_wall);
  std::printf("%-10d %10zu %10.1fms %14.1f  (%.2fx)\n", multi, scenarios.size(),
              parallel_wall * 1e3, scenarios.size() / parallel_wall,
              serial_wall / parallel_wall);

  bench::JsonWriter json("BENCH_campaign.json");
  json.add("campaign_sweep_1worker", static_cast<long long>(scenarios.size()), serial_wall * 1e9);
  json.add("campaign_sweep_multiworker", multi, parallel_wall * 1e9);
  json.save();
  std::filesystem::remove_all(dir);
  return 0;
}
