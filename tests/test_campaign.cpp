// Campaign subsystem tests: spec parsing, scenario enumeration, platform
// override materialization (including the hard-error contract on unknown
// targets), worker-pool determinism (1 worker == N workers, bit-equal), and
// the baseline scenario reproducing the online simulated time.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "apps/ep.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "noise/noise.hpp"
#include "obs/run.hpp"
#include "platform/builders.hpp"
#include "smpi/smpi.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "workload/generate.hpp"

namespace fs = std::filesystem;
namespace cp = smpi::campaign;
using smpi::util::ContractError;
using smpi::util::JsonValue;
using smpi::util::parse_json;

namespace {

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("smpi_campaign_test_" + std::to_string(::getpid()) + "_" + std::to_string(counter++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

// Captures a small EP run at `nprocs` ranks into `dir`; returns the online
// simulated time.
double capture_ep(int nprocs, const std::string& dir) {
  smpi::platform::FlatClusterParams params;
  params.nodes = nprocs;
  auto platform = smpi::platform::build_flat_cluster(params);
  smpi::trace::TiWriter writer(dir, nprocs, "ep");
  smpi::obs::RunCollectors collectors;
  collectors.ti = &writer;
  smpi::apps::EpParams ep;
  ep.log2_pairs = 12;
  return smpi::obs::run_observed(platform, {}, nprocs, smpi::apps::make_ep_app(ep), collectors)
      .simulated_time;
}

cp::CampaignSpec parse_spec(const std::string& text) {
  return cp::CampaignSpec::parse(parse_json(text, "test spec"));
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec parsing + enumeration
// ---------------------------------------------------------------------------

TEST(CampaignSpec, ParsesAxesAndPlatform) {
  const auto spec = parse_spec(R"({
    "name": "sweep",
    "trace": "ti_dir",
    "platform": {"kind": "flat", "nodes": 16},
    "axes": [
      {"param": "link_bandwidth_scale", "values": [0.5, 2]},
      {"param": "host_speed", "host": "node-0", "values": [1e9]},
      {"param": "coll_bcast", "values": ["binomial"]},
      {"param": "payload_free", "values": [true, false]}
    ]
  })");
  EXPECT_EQ(spec.name, "sweep");
  EXPECT_EQ(spec.trace_dir, "ti_dir");
  EXPECT_EQ(spec.base_kind, cp::CampaignSpec::BaseKind::kFlat);
  EXPECT_EQ(spec.base_nodes, 16);
  ASSERT_EQ(spec.axes.size(), 4u);
  EXPECT_EQ(spec.axes[1].key(), "host_speed:node-0");
  EXPECT_EQ(spec.axes[1].target, "node-0");
}

TEST(CampaignSpec, RejectsBadSpecs) {
  EXPECT_THROW(parse_spec(R"({"axes": [{"param": "warp_speed", "values": [1]}]})"),
               ContractError);  // unknown param
  EXPECT_THROW(parse_spec(R"({"axes": [{"param": "host_speed", "values": [1e9]}]})"),
               ContractError);  // missing host target
  EXPECT_THROW(parse_spec(R"({"axes": [{"param": "cpu_scale", "values": []}]})"),
               ContractError);  // empty values
  EXPECT_THROW(parse_spec(R"({"axes": [{"param": "cpu_scale", "values": ["x"]}]})"),
               ContractError);  // wrong value type
  EXPECT_THROW(parse_spec(R"({"axes": [
      {"param": "cpu_scale", "values": [1]},
      {"param": "cpu_scale", "values": [2]}]})"),
               ContractError);  // duplicate axis
  EXPECT_THROW(parse_spec(R"({"platform": {"kind": "torus"}})"), ContractError);
  EXPECT_THROW(parse_spec(R"({"axes": [
      {"param": "cpu_scale", "host": "node-0", "values": [1]}]})"),
               ContractError);  // target on an untargeted param
}

TEST(CampaignSpec, EnumeratesBaselinePlusCrossProduct) {
  const auto spec = parse_spec(R"({
    "axes": [
      {"param": "link_bandwidth_scale", "values": [0.5, 1, 2]},
      {"param": "host_speed_scale", "values": [1, 4]}
    ]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 7u);  // baseline + 3 x 2
  EXPECT_EQ(scenarios[0].label, "baseline");
  EXPECT_TRUE(scenarios[0].params.empty());
  // Row-major: the last axis varies fastest.
  EXPECT_EQ(scenarios[1].label, "link_bandwidth_scale=0.5 host_speed_scale=1");
  EXPECT_EQ(scenarios[2].label, "link_bandwidth_scale=0.5 host_speed_scale=4");
  EXPECT_EQ(scenarios[3].label, "link_bandwidth_scale=1 host_speed_scale=1");
  EXPECT_EQ(scenarios[6].label, "link_bandwidth_scale=2 host_speed_scale=4");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(scenarios[i].id, static_cast<int>(i));
  }
}

// ---------------------------------------------------------------------------
// Scenario materialization
// ---------------------------------------------------------------------------

TEST(CampaignMaterialize, AppliesScalesAndAbsolutes) {
  const auto spec = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [
      {"param": "link_bandwidth_scale", "values": [2]},
      {"param": "host_speed", "host": "node-0", "values": [5e9]},
      {"param": "cpu_scale", "values": [3]},
      {"param": "coll_alltoall", "values": ["pairwise"]},
      {"param": "payload_free", "values": [false]}
    ]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 2u);
  const auto setup = cp::materialize(spec, scenarios[1], 4);
  const auto baseline = cp::materialize(spec, scenarios[0], 4);
  for (int l = 0; l < setup.platform.link_count(); ++l) {
    EXPECT_DOUBLE_EQ(setup.platform.link(l).bandwidth_bps,
                     2 * baseline.platform.link(l).bandwidth_bps);
  }
  EXPECT_DOUBLE_EQ(setup.platform.host(0).speed_flops, 5e9);
  EXPECT_DOUBLE_EQ(setup.platform.host(1).speed_flops, baseline.platform.host(1).speed_flops);
  EXPECT_DOUBLE_EQ(setup.config.cpu_scale, 3.0);
  EXPECT_EQ(setup.config.coll.alltoall, "pairwise");
  EXPECT_FALSE(setup.payload_free);
  EXPECT_TRUE(baseline.payload_free);
}

TEST(CampaignMaterialize, UnknownTargetsAreHardErrors) {
  const auto host_spec = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "host_speed", "host": "node-99", "values": [1e9]}]
  })");
  EXPECT_THROW(cp::materialize(host_spec, cp::enumerate_scenarios(host_spec)[1], 4),
               ContractError);
  const auto link_spec = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "link_bandwidth", "link": "no-such-link", "values": [1e9]}]
  })");
  EXPECT_THROW(cp::materialize(link_spec, cp::enumerate_scenarios(link_spec)[1], 4),
               ContractError);
}

TEST(CampaignMaterialize, PlacementPolicies) {
  const auto spec = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "placement",
              "values": ["block", "stride:2", "round_robin", "diagonal", "stride:abc",
                         "stride:99999999999"]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto block = cp::materialize(spec, scenarios[1], 8);
  EXPECT_EQ(block.config.placement, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
  const auto strided = cp::materialize(spec, scenarios[2], 8);
  EXPECT_EQ(strided.config.placement, (std::vector<int>{0, 2, 0, 2, 0, 2, 0, 2}));
  const auto rr = cp::materialize(spec, scenarios[3], 8);
  EXPECT_EQ(rr.config.placement, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
  EXPECT_THROW(cp::materialize(spec, scenarios[4], 8), ContractError);  // unknown policy
  // A stride that is no int names the policy, not the parser that failed.
  for (const std::size_t bad : {5u, 6u}) {
    try {
      cp::materialize(spec, scenarios[bad], 8);
      ADD_FAILURE() << "stride accepted: " << scenarios[bad].label;
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("placement policy 'stride:"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignMaterialize, TopologyNodesRebuildsFlatBase) {
  const auto spec = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "topology_nodes", "values": [9]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  EXPECT_EQ(cp::materialize(spec, scenarios[0], 4).platform.host_count(), 4);
  EXPECT_EQ(cp::materialize(spec, scenarios[1], 4).platform.host_count(), 9);
}

// ---------------------------------------------------------------------------
// End-to-end: determinism across worker counts + baseline equivalence
// ---------------------------------------------------------------------------

TEST(CampaignRun, DeterministicAcrossWorkerCountsAndMatchesOnline) {
  TempDir dir;
  const int nranks = 4;
  const double online_time = capture_ep(nranks, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());

  auto spec = parse_spec(R"({
    "name": "determinism",
    "platform": {"kind": "flat"},
    "axes": [
      {"param": "link_bandwidth_scale", "values": [0.5, 1, 2]},
      {"param": "host_speed_scale", "values": [1, 4]}
    ]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 7u);

  cp::RunOptions one;
  one.workers = 1;
  const auto serial = cp::run_campaign(spec, scenarios, trace, one);
  cp::RunOptions many;
  many.workers = 3;
  const auto parallel = cp::run_campaign(spec, scenarios, trace, many);

  ASSERT_EQ(serial.results.size(), scenarios.size());
  ASSERT_EQ(parallel.results.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ASSERT_TRUE(serial.results[i].ok) << serial.results[i].error;
    ASSERT_TRUE(parallel.results[i].ok) << parallel.results[i].error;
    // Bit-equal, not approximately equal: scenario processes see identical
    // inputs whatever the worker count, and capsules carry %.17g doubles.
    EXPECT_EQ(serial.results[i].simulated_time, parallel.results[i].simulated_time)
        << "scenario " << i;
    EXPECT_EQ(serial.results[i].rank_comm_s, parallel.results[i].rank_comm_s);
    EXPECT_EQ(serial.results[i].solver_vars_touched, parallel.results[i].solver_vars_touched);
  }

  // The unmodified-platform scenario must reproduce the online run.
  EXPECT_NEAR(serial.results[0].simulated_time, online_time, 1e-9 * online_time + 1e-12);

  // Physics sanity inside the sweep: 4x hosts never slow the app down.
  const double base = serial.results[0].simulated_time;
  const double fast_hosts = serial.results[4].simulated_time;  // bw=1, speed=4
  EXPECT_LE(fast_hosts, base * (1 + 1e-12));
}

TEST(CampaignRun, ScenarioFailuresAreCapsulesNotCrashes) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  const auto spec = parse_spec(R"({
    "platform": {"kind": "flat"},
    "axes": [{"param": "host_speed", "host": "node-777", "values": [1e9]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  options.workers = 2;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  ASSERT_EQ(outcome.results.size(), 2u);
  EXPECT_TRUE(outcome.results[0].ok);  // baseline unaffected
  EXPECT_FALSE(outcome.results[1].ok);
  EXPECT_NE(outcome.results[1].error.find("node-777"), std::string::npos)
      << outcome.results[1].error;
}

TEST(CampaignRun, ForcedCollectivesAndPayloadModesReplayIdentically) {
  TempDir dir;
  capture_ep(4, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  // EP's collectives are tiny allreduces: forcing each variant must succeed;
  // payload_free=false must not change the simulated time (only wall cost).
  const auto spec = parse_spec(R"({
    "platform": {"kind": "flat"},
    "axes": [
      {"param": "coll_allreduce", "values": ["recursive_doubling", "reduce_bcast"]},
      {"param": "payload_free", "values": [true, false]}
    ]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  options.workers = 2;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  for (const auto& result : outcome.results) ASSERT_TRUE(result.ok) << result.error;
  // payload_free on/off: same algorithm, same simulated time, bit-equal.
  EXPECT_EQ(outcome.results[1].simulated_time, outcome.results[2].simulated_time);
  EXPECT_EQ(outcome.results[3].simulated_time, outcome.results[4].simulated_time);
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

TEST(CampaignReport, JsonAndCsvAreWellFormed) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  const auto spec = parse_spec(R"({
    "name": "report-test",
    "platform": {"kind": "flat"},
    "axes": [{"param": "link_latency_scale", "values": [1, 10]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);

  const JsonValue report =
      parse_json(cp::report_json(spec, scenarios, outcome).dump(2), "report");
  EXPECT_EQ(report.at("campaign", "r").as_string(), "report-test");
  EXPECT_EQ(report.at("scenario_count", "r").as_int(), 3);
  const auto& rows = report.at("scenarios", "r").items();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].at("speedup_vs_baseline", "r").as_number(), 1.0);
  EXPECT_EQ(rows[0].at("breakdown", "r").at("rank_compute_s", "r").items().size(), 2u);
  // 10x latency cannot be faster than 1x on the same trace.
  EXPECT_LE(rows[2].at("speedup_vs_baseline", "r").as_number(),
            rows[1].at("speedup_vs_baseline", "r").as_number() + 1e-12);

  const std::string csv = cp::report_csv(spec, scenarios, outcome);
  int lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4);  // header + 3 scenarios
  EXPECT_NE(csv.find("link_latency_scale"), std::string::npos);

  const std::string summary = cp::report_summary(spec, scenarios, outcome);
  EXPECT_NE(summary.find("baseline simulated time"), std::string::npos);
  EXPECT_NE(summary.find("fastest scenarios"), std::string::npos);
}

// ---------------------------------------------------------------------------
// eager_threshold axis
// ---------------------------------------------------------------------------

TEST(CampaignMaterialize, EagerThresholdAxisSetsPersonality) {
  const auto spec = parse_spec(R"({
    "name": "eager",
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "eager_threshold", "values": [0, 1048576]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 3u);
  const auto rendezvous_only = cp::materialize(spec, scenarios[1], 4);
  EXPECT_EQ(rendezvous_only.config.personality.eager_threshold, 0u);
  const auto eager_always = cp::materialize(spec, scenarios[2], 4);
  EXPECT_EQ(eager_always.config.personality.eager_threshold, 1048576u);

  EXPECT_THROW(parse_spec(R"({
    "name": "bad",
    "axes": [{"param": "eager_threshold", "values": ["lots"]}]
  })"),
               ContractError);
}

TEST(CampaignRun, EagerThresholdChangesSkewedWorkloadTiming) {
  // A compute-imbalanced stencil posts receives at skewed times, so the
  // eager/rendezvous switch moves the flow start: sweeping the threshold
  // must produce different (deterministic) simulated times.
  const auto spec = parse_spec(R"({
    "name": "eager-run",
    "workload": {"name": "skewed", "ranks": 8, "seed": 7, "pattern": "stencil2d",
                 "iterations": 3, "bytes": 8192,
                 "compute": {"flops": 2e6, "imbalance": 0.5}},
    "platform": {"kind": "flat", "nodes": 8},
    "axes": [{"param": "eager_threshold", "values": [0, 1048576]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);
  cp::RunOptions options;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  for (const auto& r : outcome.results) ASSERT_TRUE(r.ok) << r.error;
  // Threshold above the message size == the default behaviour (64 KiB
  // default also exceeds 8 KiB messages), and rendezvous-only differs.
  EXPECT_EQ(outcome.results[2].simulated_time, outcome.results[0].simulated_time);
  EXPECT_NE(outcome.results[1].simulated_time, outcome.results[0].simulated_time);
}

// ---------------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------------

TEST(CampaignResume, SkipsCompletedScenariosAndMatchesFullSweep) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  const auto spec = parse_spec(R"({
    "name": "resume-test",
    "platform": {"kind": "flat"},
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 1, 2, 4]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  const auto full = cp::run_campaign(spec, scenarios, trace, options);
  for (const auto& r : full.results) ASSERT_TRUE(r.ok) << r.error;

  // Forge a partial report: scenarios 2 and 4 "failed".
  auto partial = full;
  partial.results[2].ok = false;
  partial.results[2].error = "worker died";
  partial.results[4].ok = false;
  partial.results[4].error = "worker died";
  const JsonValue report = parse_json(
      cp::report_json(spec, scenarios, partial).dump(2), "partial report");

  options.resume = cp::results_from_report(report, spec, scenarios);
  ASSERT_EQ(options.resume.size(), scenarios.size());
  EXPECT_TRUE(options.resume[1].ok);
  EXPECT_FALSE(options.resume[2].ok);
  const auto resumed = cp::run_campaign(spec, scenarios, trace, options);
  EXPECT_EQ(resumed.resumed, 3);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ASSERT_TRUE(resumed.results[i].ok) << resumed.results[i].error;
    EXPECT_EQ(resumed.results[i].simulated_time, full.results[i].simulated_time) << i;
    EXPECT_EQ(resumed.results[i].rank_comm_s, full.results[i].rank_comm_s) << i;
    EXPECT_EQ(resumed.results[i].solver_solves, full.results[i].solver_solves) << i;
  }
  // The resumed outcome reports like any other.
  const JsonValue final_report = parse_json(
      cp::report_json(spec, scenarios, resumed).dump(2), "final report");
  EXPECT_EQ(final_report.at("resumed", "r").as_int(), 3);
  const auto& rows = final_report.at("scenarios", "r").items();
  for (const auto& row : rows) EXPECT_TRUE(row.at("ok", "r").as_bool());
}

TEST(CampaignResume, RejectsMismatchedReports) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  const auto spec = parse_spec(R"({
    "name": "resume-guard",
    "platform": {"kind": "flat"},
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 2]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  const JsonValue report = parse_json(
      cp::report_json(spec, scenarios, outcome).dump(2), "report");

  // Different campaign name.
  auto renamed = spec;
  renamed.name = "someone-else";
  EXPECT_THROW(cp::results_from_report(report, renamed, scenarios), ContractError);

  // Different axis values: scenario count survives but labels do not.
  const auto reshaped = parse_spec(R"({
    "name": "resume-guard",
    "platform": {"kind": "flat"},
    "axes": [{"param": "link_latency_scale", "values": [1, 10]}]
  })");
  const auto reshaped_scenarios = cp::enumerate_scenarios(reshaped);
  EXPECT_THROW(cp::results_from_report(report, reshaped, reshaped_scenarios), ContractError);
}

TEST(CampaignResume, RejectsDifferentTraceSourceOrPlatform) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  auto spec = parse_spec(R"({
    "name": "resume-source",
    "platform": {"kind": "flat", "nodes": 2},
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 2]}]
  })");
  spec.trace_dir = dir.str();
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  const JsonValue report = parse_json(
      cp::report_json(spec, scenarios, outcome).dump(2), "report");

  // Same axes, different trace directory: rejected.
  auto retraced = spec;
  retraced.trace_dir = "somewhere_else";
  EXPECT_THROW(cp::results_from_report(report, retraced, scenarios), ContractError);

  // Same axes, different base platform: rejected.
  auto replatformed = spec;
  replatformed.base_nodes = 16;
  EXPECT_THROW(cp::results_from_report(report, replatformed, scenarios), ContractError);

  // Same axes, but the sweep now runs a workload instead of the capture.
  auto reworked = spec;
  reworked.trace_dir.clear();
  reworked.has_workload = true;
  reworked.workload = smpi::workload::WorkloadSpec::parse(
      parse_json(R"({"ranks": 2, "pattern": "ring", "bytes": 64})", "wl"));
  EXPECT_THROW(cp::results_from_report(report, reworked, scenarios), ContractError);

  // The genuine spec still round-trips.
  EXPECT_NO_THROW(cp::results_from_report(report, spec, scenarios));
}

// ---------------------------------------------------------------------------
// Replicated (Monte-Carlo) campaigns
// ---------------------------------------------------------------------------

namespace {

// Small noisy stencil sweep: 2 scenarios (baseline + 1) x 3 replications.
const char* kReplicatedSpec = R"({
  "name": "monte-carlo",
  "workload": {"name": "mc", "ranks": 4, "seed": 1, "pattern": "stencil2d",
               "iterations": 2, "bytes": 4096, "compute": {"flops": 1e6}},
  "platform": {"kind": "flat", "nodes": 4},
  "axes": [{"param": "link_bandwidth_scale", "values": [2]}],
  "noise": {"seed": 9,
            "host_speed": {"dist": "normal", "mean": 1, "sigma": 0.05},
            "message_jitter": {"dist": "normal", "mean": 0, "sigma": 1e-6}},
  "replications": 3
})";

}  // namespace

TEST(CampaignReplication, SpecValidation) {
  EXPECT_THROW(parse_spec(R"({"replications": 3})"), ContractError);  // no noise
  EXPECT_THROW(parse_spec(R"({"replications": 0,
      "noise": {"host_speed": {"dist": "normal", "mean": 1, "sigma": 0.1}}})"),
               ContractError);
  const auto spec = parse_spec(kReplicatedSpec);
  EXPECT_EQ(spec.replications, 3);
  EXPECT_FALSE(spec.noise.empty());
  EXPECT_EQ(spec.noise.seed, 9u);
  // A noise_seed axis needs the campaign-level noise spec to override.
  const auto seedless = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "noise_seed", "values": [1, 2]}]
  })");
  EXPECT_THROW(cp::materialize(seedless, cp::enumerate_scenarios(seedless)[1], 4),
               ContractError);
}

TEST(CampaignReplication, MaterializePerturbsPerReplication) {
  const auto spec = parse_spec(kReplicatedSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto rep0 = cp::materialize(spec, scenarios[0], 4, 0);
  const auto rep0_again = cp::materialize(spec, scenarios[0], 4, 0);
  const auto rep1 = cp::materialize(spec, scenarios[0], 4, 1);
  bool differs = false;
  for (int h = 0; h < rep0.platform.host_count(); ++h) {
    EXPECT_EQ(rep0.platform.host(h).speed_flops, rep0_again.platform.host(h).speed_flops);
    differs = differs || rep0.platform.host(h).speed_flops != rep1.platform.host(h).speed_flops;
  }
  EXPECT_TRUE(differs) << "replications must draw independent noise worlds";
  // Even replication 0 runs under a sub-seed, and the world config carries it.
  EXPECT_EQ(rep0.config.noise.seed, smpi::noise::replication_seed(9, 0));
  EXPECT_EQ(rep1.config.noise.seed, smpi::noise::replication_seed(9, 1));
}

TEST(CampaignReplication, DeterministicAcrossWorkerCountsAndRuns) {
  const auto spec = parse_spec(kReplicatedSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);

  cp::RunOptions one;
  one.workers = 1;
  const auto serial = cp::run_campaign(spec, scenarios, trace, one);
  cp::RunOptions many;
  many.workers = 2;
  const auto parallel = cp::run_campaign(spec, scenarios, trace, many);

  const std::size_t units = scenarios.size() * 3;
  ASSERT_EQ(serial.results.size(), units);
  ASSERT_EQ(parallel.results.size(), units);
  EXPECT_EQ(serial.replications, 3);
  for (std::size_t i = 0; i < units; ++i) {
    ASSERT_TRUE(serial.results[i].ok) << serial.results[i].error;
    EXPECT_EQ(serial.results[i].id, static_cast<int>(i / 3));
    EXPECT_EQ(serial.results[i].rep, static_cast<int>(i % 3));
    EXPECT_EQ(serial.results[i].simulated_time, parallel.results[i].simulated_time) << i;
    EXPECT_EQ(serial.results[i].solver_solves, parallel.results[i].solver_solves) << i;
  }
  // Replications of one scenario see different noise, so different times.
  EXPECT_NE(serial.results[0].simulated_time, serial.results[1].simulated_time);
  EXPECT_NE(serial.results[1].simulated_time, serial.results[2].simulated_time);
}

TEST(CampaignReplication, ReportCarriesStatsAndRankStability) {
  const auto spec = parse_spec(kReplicatedSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);
  cp::RunOptions options;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  for (const auto& r : outcome.results) ASSERT_TRUE(r.ok) << r.error;

  const JsonValue report =
      parse_json(cp::report_json(spec, scenarios, outcome).dump(2), "report");
  EXPECT_EQ(report.at("replications", "r").as_int(), 3);
  EXPECT_EQ(report.at("noise_seed", "r").as_int(), 9);
  const auto& stability = report.at("rank_stability", "r");
  EXPECT_FALSE(stability.at("verdict", "r").as_string().empty());
  EXPECT_GE(stability.at("fraction", "r").as_number(), 0.0);
  EXPECT_LE(stability.at("fraction", "r").as_number(), 1.0);

  const auto& rows = report.at("scenarios", "r").items();
  ASSERT_EQ(rows.size(), scenarios.size());
  for (const auto& row : rows) {
    const auto& reps = row.at("replications", "r").items();
    ASSERT_EQ(reps.size(), 3u);
    const auto& stats = row.at("stats", "r");
    EXPECT_EQ(stats.at("count", "r").as_int(), 3);
    const double mean = stats.at("mean", "r").as_number();
    EXPECT_GT(mean, 0.0);
    EXPECT_LE(stats.at("min", "r").as_number(), mean);
    EXPECT_GE(stats.at("max", "r").as_number(), mean);
    EXPECT_LE(stats.at("p5", "r").as_number(), stats.at("p95", "r").as_number());
    EXPECT_LE(stats.at("ci_lo", "r").as_number(), stats.at("ci_hi", "r").as_number());
    EXPECT_GT(stats.at("stddev", "r").as_number(), 0.0);
  }

  // CSV: header + one row per unit, with a rep column.
  const std::string csv = cp::report_csv(spec, scenarios, outcome);
  int lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, static_cast<int>(1 + scenarios.size() * 3));
  EXPECT_EQ(csv.find("id,rep,"), 0u);

  const std::string summary = cp::report_summary(spec, scenarios, outcome);
  EXPECT_NE(summary.find("3 replications"), std::string::npos) << summary;
  EXPECT_NE(summary.find("rank stability"), std::string::npos) << summary;
}

TEST(CampaignReplication, ResumeAdoptsIndividualReplications) {
  const auto spec = parse_spec(kReplicatedSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);
  cp::RunOptions options;
  const auto full = cp::run_campaign(spec, scenarios, trace, options);
  for (const auto& r : full.results) ASSERT_TRUE(r.ok) << r.error;

  // Forge a partial report: one whole scenario row lost one rep, another
  // lost a different one.
  auto partial = full;
  partial.results[1].ok = false;  // scenario 0, rep 1
  partial.results[1].error = "worker died";
  partial.results[5].ok = false;  // scenario 1, rep 2
  partial.results[5].error = "worker died";
  const JsonValue report =
      parse_json(cp::report_json(spec, scenarios, partial).dump(2), "partial report");

  options.resume = cp::results_from_report(report, spec, scenarios);
  ASSERT_EQ(options.resume.size(), full.results.size());
  EXPECT_TRUE(options.resume[0].ok);
  EXPECT_FALSE(options.resume[1].ok);
  EXPECT_TRUE(options.resume[2].ok);
  EXPECT_FALSE(options.resume[5].ok);
  const auto resumed = cp::run_campaign(spec, scenarios, trace, options);
  EXPECT_EQ(resumed.resumed, static_cast<int>(full.results.size()) - 2);
  for (std::size_t i = 0; i < full.results.size(); ++i) {
    ASSERT_TRUE(resumed.results[i].ok) << resumed.results[i].error;
    EXPECT_EQ(resumed.results[i].simulated_time, full.results[i].simulated_time) << i;
    EXPECT_EQ(resumed.results[i].solver_solves, full.results[i].solver_solves) << i;
    EXPECT_EQ(resumed.results[i].rep, static_cast<int>(i % 3));
  }
  // The resumed sweep aggregates identically to the uninterrupted one
  // (wall-clock fields aside): same stats, same rank-stability verdict.
  const JsonValue from_resumed =
      parse_json(cp::report_json(spec, scenarios, resumed).dump(2), "resumed report");
  const JsonValue from_full =
      parse_json(cp::report_json(spec, scenarios, full).dump(2), "full report");
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    EXPECT_EQ(from_resumed.at("scenarios", "r").items()[s].at("stats", "r").dump(2),
              from_full.at("scenarios", "r").items()[s].at("stats", "r").dump(2));
  }
  EXPECT_EQ(from_resumed.at("rank_stability", "r").dump(2),
            from_full.at("rank_stability", "r").dump(2));

  // A report taken under different replication count or noise seed is not
  // resumable into this sweep.
  auto rescaled = spec;
  rescaled.replications = 2;
  EXPECT_THROW(cp::results_from_report(report, rescaled, scenarios), ContractError);
  auto reseeded = spec;
  reseeded.noise.seed = 10;
  EXPECT_THROW(cp::results_from_report(report, reseeded, scenarios), ContractError);
}

TEST(CampaignResume, FullyCompleteResumeSkipsThePoolEntirely) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  const auto spec = parse_spec(R"({
    "name": "resume-full",
    "platform": {"kind": "flat"},
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 2]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  const auto full = cp::run_campaign(spec, scenarios, trace, options);
  const JsonValue report = parse_json(
      cp::report_json(spec, scenarios, full).dump(2), "report");

  options.resume = cp::results_from_report(report, spec, scenarios);
  const auto resumed = cp::run_campaign(spec, scenarios, trace, options);
  EXPECT_EQ(resumed.resumed, static_cast<int>(scenarios.size()));
  EXPECT_EQ(resumed.workers, 0);  // nothing dispatched, no pool forked
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ASSERT_TRUE(resumed.results[i].ok);
    EXPECT_EQ(resumed.results[i].simulated_time, full.results[i].simulated_time);
  }
}

// ---------------------------------------------------------------------------
// Result codec: the worker capsule is the report's result object
// ---------------------------------------------------------------------------

namespace {

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

void expect_bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(bits(a[i]), bits(b[i])) << "element " << i;
}

void expect_same_result(const cp::ScenarioResult& a, const cp::ScenarioResult& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.rep, b.rep);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.worker_exit, b.worker_exit);
  EXPECT_EQ(bits(a.simulated_time), bits(b.simulated_time));
  EXPECT_EQ(bits(a.wall_s), bits(b.wall_s));
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.ranks, b.ranks);
  EXPECT_EQ(a.arena_bytes, b.arena_bytes);
  expect_bitwise_equal(a.rank_compute_s, b.rank_compute_s);
  expect_bitwise_equal(a.rank_comm_s, b.rank_comm_s);
  EXPECT_EQ(a.solver_solves, b.solver_solves);
  EXPECT_EQ(a.solver_vars_touched, b.solver_vars_touched);
  EXPECT_EQ(a.solver_cons_touched, b.solver_cons_touched);
  EXPECT_EQ(a.p2p.pool_hits, b.p2p.pool_hits);
  EXPECT_EQ(a.p2p.pool_misses, b.p2p.pool_misses);
  EXPECT_EQ(a.p2p.eager_snapshots, b.p2p.eager_snapshots);
  EXPECT_EQ(a.p2p.eager_copy_elided, b.p2p.eager_copy_elided);
  EXPECT_EQ(a.p2p.eager_flush_snapshots, b.p2p.eager_flush_snapshots);
  EXPECT_EQ(a.p2p.bytes_not_copied, b.p2p.bytes_not_copied);
  EXPECT_EQ(a.analyzed, b.analyzed);
  EXPECT_EQ(bits(a.wait_fraction), bits(b.wait_fraction));
  EXPECT_EQ(bits(a.critical_path_s), bits(b.critical_path_s));
  EXPECT_EQ(bits(a.cp_compute_s), bits(b.cp_compute_s));
  EXPECT_EQ(bits(a.cp_comm_s), bits(b.cp_comm_s));
  EXPECT_EQ(a.dominant_wait, b.dominant_wait);
  expect_bitwise_equal(a.rank_wait_s, b.rank_wait_s);
  expect_bitwise_equal(a.rank_transfer_s, b.rank_transfer_s);
  EXPECT_EQ(a.resources_analyzed, b.resources_analyzed);
  EXPECT_EQ(a.top_bottleneck, b.top_bottleneck);
  EXPECT_EQ(bits(a.bottleneck_saturated_s), bits(b.bottleneck_saturated_s));
  EXPECT_EQ(bits(a.max_link_utilization), bits(b.max_link_utilization));
}

// A successful run with every field set to a value a lossy codec would
// bend: doubles that need all 17 digits, a subnormal, -0, 2^53 - 1
// counters, and strings with quotes, escapes and non-ASCII bytes.
cp::ScenarioResult ok_result(int id, int rep, bool observed) {
  cp::ScenarioResult r;
  r.id = id;
  r.rep = rep;
  r.ok = true;
  r.retries = 1;
  r.simulated_time = 0.1 + 0.2 + id + 0.01 * rep;
  r.wall_s = 1.0 / 3.0;
  r.records = 123456789;
  r.ranks = 3;
  r.arena_bytes = (std::uint64_t{1} << 53) - 1;
  r.rank_compute_s = {std::nextafter(1.0, 2.0), 4.9406564584124654e-324, -0.0};
  r.rank_comm_s = {1e-300, 2.5, 6.02214076e23};
  r.solver_solves = (std::uint64_t{1} << 53) - 1;
  r.solver_vars_touched = 2;
  r.solver_cons_touched = 3;
  r.p2p.pool_hits = 11;
  r.p2p.pool_misses = 12;
  r.p2p.eager_snapshots = 13;
  r.p2p.eager_copy_elided = 14;
  r.p2p.eager_flush_snapshots = 15;
  r.p2p.bytes_not_copied = 16;
  if (observed) {
    r.analyzed = true;
    r.wait_fraction = 0.12345678901234568;
    r.critical_path_s = r.simulated_time;
    r.cp_compute_s = 0.1;
    r.cp_comm_s = r.simulated_time - 0.1;
    r.dominant_wait = "late_sender";
    r.rank_wait_s = {0.7, 1e-9, 0.0};
    r.rank_transfer_s = {std::nextafter(0.5, 0.0), 3.0, 1e10};
    r.resources_analyzed = true;
    r.top_bottleneck = "link \"up\\node-3\"\n\xc3\xbc";
    r.bottleneck_saturated_s = 7e-7;
    r.max_link_utilization = 1.0 - 1e-16;
  }
  return r;
}

// A run the watchdog killed: the harness fields are the whole row.
cp::ScenarioResult failed_result(int id, int rep) {
  cp::ScenarioResult r;
  r.id = id;
  r.rep = rep;
  r.ok = false;
  r.retries = 1;
  r.error = "scenario exceeded the 2 s wall-clock watchdog";
  r.timed_out = true;
  r.worker_exit = "killed by watchdog (killed by signal 9)";
  return r;
}

// The worker -> parent path: the worker writes its unit's id and rep and
// the result object, the parent reads them back.
JsonValue capsule_of(const cp::ScenarioResult& r) {
  JsonValue capsule = JsonValue::object();
  capsule.set("id", JsonValue::number(r.id));
  capsule.set("rep", JsonValue::number(r.rep));
  cp::set_result_fields(capsule, r, nullptr);
  return parse_json(capsule.dump(), "capsule");
}

cp::ScenarioResult through_capsule(const cp::ScenarioResult& r) {
  const JsonValue capsule = capsule_of(r);
  cp::ScenarioResult back;
  back.id = static_cast<int>(capsule.at("id", "capsule").as_int());
  back.rep = static_cast<int>(capsule.at("rep", "capsule").as_int());
  cp::read_result_fields(capsule, back, cp::ResultSource::kCapsule);
  return back;
}

// `object` with `key` dropped from its member named `block` (or from the
// object itself when `block` is empty).
JsonValue without(const JsonValue& object, const std::string& block, const std::string& key) {
  JsonValue out = JsonValue::object();
  for (const auto& [name, value] : object.members()) {
    if (block.empty() && name == key) continue;
    if (name != block) {
      out.set(name, value);
      continue;
    }
    JsonValue inner = JsonValue::object();
    for (const auto& [inner_name, inner_value] : value.members()) {
      if (inner_name != key) inner.set(inner_name, inner_value);
    }
    out.set(name, std::move(inner));
  }
  return out;
}

// Every result through report_json -> results_from_report.
void expect_report_round_trip(const cp::CampaignSpec& spec, const cp::CampaignOutcome& outcome) {
  const auto scenarios = cp::enumerate_scenarios(spec);
  const JsonValue report =
      parse_json(cp::report_json(spec, scenarios, outcome).dump(2), "report");
  const auto back = cp::results_from_report(report, spec, scenarios);
  ASSERT_EQ(back.size(), outcome.results.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    SCOPED_TRACE("unit " + std::to_string(i));
    expect_same_result(outcome.results[i], back[i]);
  }
}

}  // namespace

TEST(CampaignCodec, CapsuleRoundTripsEveryField) {
  for (const cp::ScenarioResult& r :
       {ok_result(0, 0, true), ok_result(1, 2, false), failed_result(2, 1)}) {
    SCOPED_TRACE("scenario " + std::to_string(r.id));
    expect_same_result(r, through_capsule(r));
  }
}

// A capsule is written by the same build that reads it, so the fields a
// resumed report may lack (it can predate them) are required in a capsule.
TEST(CampaignCodec, CapsuleReaderIsStrictWhereResumeIsLenient) {
  const JsonValue ok = capsule_of(ok_result(0, 0, true));
  const JsonValue failed = capsule_of(failed_result(1, 0));
  for (const auto& [capsule, block, key] :
       {std::tuple{ok, std::string(), std::string("p2p")},
        std::tuple{ok, std::string("p2p"), std::string("bytes_not_copied")},
        std::tuple{ok, std::string(), std::string("retries")},
        std::tuple{failed, std::string(), std::string("error")}}) {
    SCOPED_TRACE(block + "/" + key);
    const JsonValue damaged = without(capsule, block, key);
    cp::ScenarioResult strict;
    EXPECT_THROW(cp::read_result_fields(damaged, strict, cp::ResultSource::kCapsule),
                 ContractError);
    cp::ScenarioResult lenient;
    EXPECT_NO_THROW(
        cp::read_result_fields(damaged, lenient, cp::ResultSource::kResumedReport));
  }
}

TEST(CampaignCodec, ReportRoundTripsEveryField) {
  cp::CampaignOutcome single;
  single.workers = 1;
  single.results = {ok_result(0, 0, true), ok_result(1, 0, false), failed_result(2, 0)};
  expect_report_round_trip(parse_spec(R"({
    "name": "codec",
    "platform": {"kind": "flat"},
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 2]}]
  })"), single);

  cp::CampaignOutcome replicated;
  replicated.workers = 1;
  replicated.replications = 2;
  replicated.results = {ok_result(0, 0, true),  ok_result(0, 1, true),
                        ok_result(1, 0, false), failed_result(1, 1),
                        failed_result(2, 0),    ok_result(2, 1, true)};
  expect_report_round_trip(parse_spec(R"({
    "name": "codec-replicated",
    "platform": {"kind": "flat"},
    "noise": {"seed": 3, "host_speed": {"dist": "normal", "mean": 1.0, "sigma": 0.05}},
    "replications": 2,
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 2]}]
  })"), replicated);
}

// The report format byte for byte: every block of the result object, a
// failed row, a string axis, a single-run and a replicated sweep. The
// strings carry no quote or comma, so the CSV needs no quoting beyond the
// label and the diagnostics it always quotes.
TEST(CampaignReport, FormatIsPinned) {
  auto plain_bottleneck = [](cp::ScenarioResult r) {
    r.top_bottleneck = "backbone";
    return r;
  };
  const auto single_spec = parse_spec(R"({
    "name": "pin",
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "placement", "values": ["block", "stride:2"]}]
  })");
  cp::CampaignOutcome single;
  single.workers = 2;
  single.wall_s = 1.5;
  single.results = {plain_bottleneck(ok_result(0, 0, true)), ok_result(1, 0, false),
                    failed_result(2, 0)};
  const auto single_scenarios = cp::enumerate_scenarios(single_spec);
  EXPECT_EQ(cp::report_json(single_spec, single_scenarios, single).dump(2),
            R"json({
  "campaign": "pin",
  "trace": "",
  "platform": {
    "kind": "flat",
    "nodes": 4
  },
  "workers": 2,
  "wall_s": 1.5,
  "scenario_count": 3,
  "scenarios": [
    {
      "id": 0,
      "label": "baseline",
      "params": {},
      "ok": true,
      "retries": 1,
      "simulated_time": 0.30000000000000004,
      "speedup_vs_baseline": 1,
      "wall_s": 0.33333333333333331,
      "records": 123456789,
      "ranks": 3,
      "arena_bytes": 9007199254740991,
      "breakdown": {
        "compute_total_s": 1.0000000000000002,
        "comm_total_s": 6.0221407599999999e+23,
        "compute_max_s": 1.0000000000000002,
        "comm_max_s": 6.0221407599999999e+23,
        "rank_compute_s": [
          1.0000000000000002,
          4.9406564584124654e-324,
          -0
        ],
        "rank_comm_s": [
          1e-300,
          2.5,
          6.0221407599999999e+23
        ]
      },
      "solver": {
        "solves": 9007199254740991,
        "vars_touched": 2,
        "cons_touched": 3
      },
      "p2p": {
        "pool_hits": 11,
        "pool_misses": 12,
        "eager_snapshots": 13,
        "eager_copy_elided": 14,
        "eager_flush_snapshots": 15,
        "bytes_not_copied": 16
      },
      "analysis": {
        "wait_fraction": 0.12345678901234568,
        "critical_path_s": 0.30000000000000004,
        "cp_compute_s": 0.10000000000000001,
        "cp_comm_s": 0.20000000000000004,
        "dominant_wait": "late_sender",
        "rank_wait_s": [
          0.69999999999999996,
          1.0000000000000001e-09,
          0
        ],
        "rank_transfer_s": [
          0.49999999999999994,
          3,
          10000000000
        ]
      },
      "resources": {
        "top_bottleneck": "backbone",
        "bottleneck_saturated_s": 6.9999999999999997e-07,
        "max_link_utilization": 0.99999999999999989
      }
    },
    {
      "id": 1,
      "label": "placement=block",
      "params": {
        "placement": "block"
      },
      "ok": true,
      "retries": 1,
      "simulated_time": 1.3,
      "speedup_vs_baseline": 0.23076923076923078,
      "wall_s": 0.33333333333333331,
      "records": 123456789,
      "ranks": 3,
      "arena_bytes": 9007199254740991,
      "breakdown": {
        "compute_total_s": 1.0000000000000002,
        "comm_total_s": 6.0221407599999999e+23,
        "compute_max_s": 1.0000000000000002,
        "comm_max_s": 6.0221407599999999e+23,
        "rank_compute_s": [
          1.0000000000000002,
          4.9406564584124654e-324,
          -0
        ],
        "rank_comm_s": [
          1e-300,
          2.5,
          6.0221407599999999e+23
        ]
      },
      "solver": {
        "solves": 9007199254740991,
        "vars_touched": 2,
        "cons_touched": 3
      },
      "p2p": {
        "pool_hits": 11,
        "pool_misses": 12,
        "eager_snapshots": 13,
        "eager_copy_elided": 14,
        "eager_flush_snapshots": 15,
        "bytes_not_copied": 16
      }
    },
    {
      "id": 2,
      "label": "placement=stride:2",
      "params": {
        "placement": "stride:2"
      },
      "ok": false,
      "retries": 1,
      "error": "scenario exceeded the 2 s wall-clock watchdog",
      "timed_out": true,
      "worker_exit": "killed by watchdog (killed by signal 9)"
    }
  ],
  "ranking_fastest_first": [
    0,
    1
  ]
})json");
  EXPECT_EQ(cp::report_csv(single_spec, single_scenarios, single),
            R"csv(id,rep,label,ok,retries,timed_out,placement,simulated_time,speedup_vs_baseline,wall_s,records,ranks,compute_total_s,comm_total_s,compute_max_s,comm_max_s,solver_solves,solver_vars_touched,solver_cons_touched,pool_hits,pool_misses,eager_snapshots,eager_copy_elided,eager_flush_snapshots,bytes_not_copied,wait_fraction,critical_path_s,cp_compute_s,cp_comm_s,dominant_wait,top_bottleneck,bottleneck_saturated_s,max_link_utilization,worker_exit,error
0,0,"baseline",1,1,0,,0.3,1,0.333333333,123456789,3,1,6.02214076e+23,1,6.02214076e+23,9007199254740991,2,3,11,12,13,14,15,16,0.123456789,0.3,0.1,0.2,late_sender,"backbone",7e-07,1,,
1,0,"placement=block",1,1,0,block,1.3,0.230769231,0.333333333,123456789,3,1,6.02214076e+23,1,6.02214076e+23,9007199254740991,2,3,11,12,13,14,15,16,,,,,,,,,,
2,0,"placement=stride:2",0,1,1,stride:2,,,,,,,,,,,,,,,,,,,,,,,,,,,"killed by watchdog (killed by signal 9)","scenario exceeded the 2 s wall-clock watchdog"
)csv");

  const auto replicated_spec = parse_spec(R"({
    "name": "pin-replicated",
    "platform": {"kind": "flat", "nodes": 4},
    "noise": {"seed": 3, "host_speed": {"dist": "normal", "mean": 1.0, "sigma": 0.05}},
    "replications": 2,
    "axes": [{"param": "placement", "values": ["round_robin"]}]
  })");
  cp::CampaignOutcome replicated;
  replicated.workers = 1;
  replicated.wall_s = 0.25;
  replicated.replications = 2;
  replicated.results = {ok_result(0, 0, false), ok_result(0, 1, false), failed_result(1, 0),
                        plain_bottleneck(ok_result(1, 1, true))};
  const auto replicated_scenarios = cp::enumerate_scenarios(replicated_spec);
  EXPECT_EQ(cp::report_json(replicated_spec, replicated_scenarios, replicated).dump(2),
            R"json({
  "campaign": "pin-replicated",
  "trace": "",
  "platform": {
    "kind": "flat",
    "nodes": 4
  },
  "workers": 1,
  "wall_s": 0.25,
  "scenario_count": 2,
  "replications": 2,
  "noise_seed": 3,
  "scenarios": [
    {
      "id": 0,
      "label": "baseline",
      "params": {},
      "ok": true,
      "replications": [
        {
          "rep": 0,
          "ok": true,
          "retries": 1,
          "simulated_time": 0.30000000000000004,
          "speedup_vs_baseline": 1,
          "wall_s": 0.33333333333333331,
          "records": 123456789,
          "ranks": 3,
          "arena_bytes": 9007199254740991,
          "breakdown": {
            "compute_total_s": 1.0000000000000002,
            "comm_total_s": 6.0221407599999999e+23,
            "compute_max_s": 1.0000000000000002,
            "comm_max_s": 6.0221407599999999e+23,
            "rank_compute_s": [
              1.0000000000000002,
              4.9406564584124654e-324,
              -0
            ],
            "rank_comm_s": [
              1e-300,
              2.5,
              6.0221407599999999e+23
            ]
          },
          "solver": {
            "solves": 9007199254740991,
            "vars_touched": 2,
            "cons_touched": 3
          },
          "p2p": {
            "pool_hits": 11,
            "pool_misses": 12,
            "eager_snapshots": 13,
            "eager_copy_elided": 14,
            "eager_flush_snapshots": 15,
            "bytes_not_copied": 16
          }
        },
        {
          "rep": 1,
          "ok": true,
          "retries": 1,
          "simulated_time": 0.31000000000000005,
          "speedup_vs_baseline": 1,
          "wall_s": 0.33333333333333331,
          "records": 123456789,
          "ranks": 3,
          "arena_bytes": 9007199254740991,
          "breakdown": {
            "compute_total_s": 1.0000000000000002,
            "comm_total_s": 6.0221407599999999e+23,
            "compute_max_s": 1.0000000000000002,
            "comm_max_s": 6.0221407599999999e+23,
            "rank_compute_s": [
              1.0000000000000002,
              4.9406564584124654e-324,
              -0
            ],
            "rank_comm_s": [
              1e-300,
              2.5,
              6.0221407599999999e+23
            ]
          },
          "solver": {
            "solves": 9007199254740991,
            "vars_touched": 2,
            "cons_touched": 3
          },
          "p2p": {
            "pool_hits": 11,
            "pool_misses": 12,
            "eager_snapshots": 13,
            "eager_copy_elided": 14,
            "eager_flush_snapshots": 15,
            "bytes_not_copied": 16
          }
        }
      ],
      "stats": {
        "count": 2,
        "mean": 0.30500000000000005,
        "stddev": 0.0070710678118654814,
        "min": 0.30000000000000004,
        "max": 0.31000000000000005,
        "p5": 0.30050000000000004,
        "p50": 0.30500000000000005,
        "p95": 0.30950000000000005,
        "ci_lo": 0.30000000000000004,
        "ci_hi": 0.31000000000000005,
        "speedup_vs_baseline_mean": 1
      }
    },
    {
      "id": 1,
      "label": "placement=round_robin",
      "params": {
        "placement": "round_robin"
      },
      "ok": false,
      "replications": [
        {
          "rep": 0,
          "ok": false,
          "retries": 1,
          "error": "scenario exceeded the 2 s wall-clock watchdog",
          "timed_out": true,
          "worker_exit": "killed by watchdog (killed by signal 9)"
        },
        {
          "rep": 1,
          "ok": true,
          "retries": 1,
          "simulated_time": 1.3100000000000001,
          "speedup_vs_baseline": 0.23664122137404583,
          "wall_s": 0.33333333333333331,
          "records": 123456789,
          "ranks": 3,
          "arena_bytes": 9007199254740991,
          "breakdown": {
            "compute_total_s": 1.0000000000000002,
            "comm_total_s": 6.0221407599999999e+23,
            "compute_max_s": 1.0000000000000002,
            "comm_max_s": 6.0221407599999999e+23,
            "rank_compute_s": [
              1.0000000000000002,
              4.9406564584124654e-324,
              -0
            ],
            "rank_comm_s": [
              1e-300,
              2.5,
              6.0221407599999999e+23
            ]
          },
          "solver": {
            "solves": 9007199254740991,
            "vars_touched": 2,
            "cons_touched": 3
          },
          "p2p": {
            "pool_hits": 11,
            "pool_misses": 12,
            "eager_snapshots": 13,
            "eager_copy_elided": 14,
            "eager_flush_snapshots": 15,
            "bytes_not_copied": 16
          },
          "analysis": {
            "wait_fraction": 0.12345678901234568,
            "critical_path_s": 1.3100000000000001,
            "cp_compute_s": 0.10000000000000001,
            "cp_comm_s": 1.21,
            "dominant_wait": "late_sender",
            "rank_wait_s": [
              0.69999999999999996,
              1.0000000000000001e-09,
              0
            ],
            "rank_transfer_s": [
              0.49999999999999994,
              3,
              10000000000
            ]
          },
          "resources": {
            "top_bottleneck": "backbone",
            "bottleneck_saturated_s": 6.9999999999999997e-07,
            "max_link_utilization": 0.99999999999999989
          }
        }
      ],
      "stats": {
        "count": 1,
        "mean": 1.3100000000000001,
        "stddev": 0,
        "min": 1.3100000000000001,
        "max": 1.3100000000000001,
        "p5": 1.3100000000000001,
        "p50": 1.3100000000000001,
        "p95": 1.3100000000000001,
        "ci_lo": 1.3100000000000001,
        "ci_hi": 1.3100000000000001,
        "speedup_vs_baseline_mean": 0.23282442748091606
      }
    }
  ],
  "ranking_fastest_first": [
    0
  ],
  "rank_stability": {
    "winner": 0,
    "stable_replications": 2,
    "fraction": 1,
    "verdict": "stable"
  }
})json");
  EXPECT_EQ(cp::report_csv(replicated_spec, replicated_scenarios, replicated),
            R"csv(id,rep,label,ok,retries,timed_out,placement,simulated_time,speedup_vs_baseline,wall_s,records,ranks,compute_total_s,comm_total_s,compute_max_s,comm_max_s,solver_solves,solver_vars_touched,solver_cons_touched,pool_hits,pool_misses,eager_snapshots,eager_copy_elided,eager_flush_snapshots,bytes_not_copied,wait_fraction,critical_path_s,cp_compute_s,cp_comm_s,dominant_wait,top_bottleneck,bottleneck_saturated_s,max_link_utilization,worker_exit,error
0,0,"baseline",1,1,0,,0.3,1,0.333333333,123456789,3,1,6.02214076e+23,1,6.02214076e+23,9007199254740991,2,3,11,12,13,14,15,16,,,,,,,,,,
0,1,"baseline",1,1,0,,0.31,1,0.333333333,123456789,3,1,6.02214076e+23,1,6.02214076e+23,9007199254740991,2,3,11,12,13,14,15,16,,,,,,,,,,
1,0,"placement=round_robin",0,1,1,round_robin,,,,,,,,,,,,,,,,,,,,,,,,,,,"killed by watchdog (killed by signal 9)","scenario exceeded the 2 s wall-clock watchdog"
1,1,"placement=round_robin",1,1,0,round_robin,1.31,0.236641221,0.333333333,123456789,3,1,6.02214076e+23,1,6.02214076e+23,9007199254740991,2,3,11,12,13,14,15,16,0.123456789,1.31,0.1,1.21,late_sender,"backbone",7e-07,1,,
)csv");
}

namespace {

// An RFC 4180 reader: commas split fields outside quotes, "" inside quotes
// is one quote, and a quoted field may span lines.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows(1, std::vector<std::string>(1));
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted && c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
      rows.back().back() += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (!quoted && c == ',') {
      rows.back().emplace_back();
    } else if (!quoted && c == '\n') {
      rows.emplace_back(1);
    } else {
      rows.back().back() += c;
    }
  }
  EXPECT_FALSE(quoted) << "unterminated quoted field";
  EXPECT_EQ(rows.back(), std::vector<std::string>(1)) << "no newline after the last row";
  rows.pop_back();
  return rows;
}

// `column` of every parsed row, by header name.
std::vector<std::string> csv_column(const std::vector<std::vector<std::string>>& rows,
                                    const std::string& column) {
  const auto& header = rows.front();
  const auto at = std::find(header.begin(), header.end(), column) - header.begin();
  EXPECT_LT(static_cast<std::size_t>(at), header.size()) << column;
  std::vector<std::string> cells;
  for (std::size_t i = 1; i < rows.size(); ++i) cells.push_back(rows[i].at(at));
  return cells;
}

}  // namespace

// Every kind of row, at one and at two replications, has exactly the
// header's columns, and each value sits under its own column.
TEST(CampaignReport, CsvRowsHaveTheHeaderWidth) {
  auto analysis_only = [](cp::ScenarioResult r) {
    r.resources_analyzed = false;
    r.top_bottleneck = "backbone";
    return r;
  };
  auto resources_only = [](cp::ScenarioResult r) {
    r.analyzed = false;
    r.top_bottleneck = "backbone";
    return r;
  };
  auto both_on = [](cp::ScenarioResult r) {
    r.top_bottleneck = "backbone";
    return r;
  };
  for (const int reps : {1, 2}) {
    SCOPED_TRACE("replications " + std::to_string(reps));
    const auto spec = parse_spec(R"({
      "name": "width",
      "platform": {"kind": "flat"},
      "noise": {"seed": 3, "host_speed": {"dist": "normal", "mean": 1.0, "sigma": 0.05}},
      "replications": )" + std::to_string(reps) + R"(,
      "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 1, 2, 4]},
               {"param": "placement", "values": ["block"]}]
    })");
    const auto scenarios = cp::enumerate_scenarios(spec);
    cp::CampaignOutcome outcome;
    outcome.replications = reps;
    for (int id = 0; id < 5; ++id) {
      for (int rep = 0; rep < reps; ++rep) {
        switch ((id + rep) % 5) {
          case 0: outcome.results.push_back(both_on(ok_result(id, rep, true))); break;
          case 1: outcome.results.push_back(analysis_only(ok_result(id, rep, true))); break;
          case 2: outcome.results.push_back(resources_only(ok_result(id, rep, true))); break;
          case 3: outcome.results.push_back(ok_result(id, rep, false)); break;
          default: outcome.results.push_back(failed_result(id, rep)); break;
        }
      }
    }
    const auto rows = parse_csv(cp::report_csv(spec, scenarios, outcome));
    ASSERT_EQ(rows.size(), outcome.results.size() + 1);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].size(), rows[0].size()) << "row " << i;
    }
    const auto ok = csv_column(rows, "ok");
    const auto error = csv_column(rows, "error");
    const auto worker_exit = csv_column(rows, "worker_exit");
    const auto wait = csv_column(rows, "wait_fraction");
    const auto bottleneck = csv_column(rows, "top_bottleneck");
    const auto utilization = csv_column(rows, "max_link_utilization");
    for (std::size_t unit = 0; unit < outcome.results.size(); ++unit) {
      SCOPED_TRACE("unit " + std::to_string(unit));
      const cp::ScenarioResult& r = outcome.results[unit];
      EXPECT_EQ(ok[unit], r.ok ? "1" : "0");
      EXPECT_EQ(error[unit], r.error);
      EXPECT_EQ(worker_exit[unit], r.worker_exit);
      EXPECT_EQ(wait[unit], r.ok && r.analyzed ? "0.123456789" : "");
      EXPECT_EQ(bottleneck[unit], r.ok && r.resources_analyzed ? "backbone" : "");
      EXPECT_EQ(utilization[unit], r.ok && r.resources_analyzed ? "1" : "");
    }
  }
}

// Values with commas, quotes and line breaks are quoted with their quotes
// doubled; a value that needs no quoting is written bare, as before.
TEST(CampaignReport, CsvQuotesPerRfc4180) {
  const auto spec = parse_spec(R"({
    "name": "quoting",
    "platform": {"kind": "flat"},
    "axes": [{"param": "placement", "values": ["x,\"y", "plain"]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::CampaignOutcome outcome;
  outcome.results = {ok_result(0, 0, true), failed_result(1, 0), ok_result(2, 0, true)};
  outcome.results[1].error = "unknown placement policy 'x,\"y'";
  outcome.results[1].worker_exit = "exited with status 3, after \"retry\"";
  outcome.results[2].dominant_wait = "late,sender";
  const std::string csv = cp::report_csv(spec, scenarios, outcome);
  const auto rows = parse_csv(csv);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].size(), rows[0].size()) << "row " << i;
  }
  EXPECT_EQ(csv_column(rows, "label"),
            (std::vector<std::string>{"baseline", "placement=x,\"y", "placement=plain"}));
  EXPECT_EQ(csv_column(rows, "placement"), (std::vector<std::string>{"", "x,\"y", "plain"}));
  EXPECT_EQ(csv_column(rows, "error")[1], outcome.results[1].error);
  EXPECT_EQ(csv_column(rows, "worker_exit")[1], outcome.results[1].worker_exit);
  EXPECT_EQ(csv_column(rows, "top_bottleneck")[0], outcome.results[0].top_bottleneck);
  EXPECT_EQ(csv_column(rows, "dominant_wait"),
            (std::vector<std::string>{"late_sender", "", "late,sender"}));
  EXPECT_NE(csv.find(",\"x,\"\"y\","), std::string::npos) << csv;
  EXPECT_NE(csv.find(",plain,"), std::string::npos) << csv;
  EXPECT_NE(csv.find(",late_sender,"), std::string::npos) << csv;
}

// A failed baseline leaves every speedup undefined: no JSON key, an empty
// CSV cell and no ratio in the summary, at one and at two replications,
// while the scenarios that ran keep their simulated times.
TEST(CampaignReport, NoSpeedupWithoutABaseline) {
  for (const int reps : {1, 2}) {
    SCOPED_TRACE("replications " + std::to_string(reps));
    const auto spec = parse_spec(R"({
      "name": "no-baseline",
      "platform": {"kind": "flat"},
      "noise": {"seed": 3, "host_speed": {"dist": "normal", "mean": 1.0, "sigma": 0.05}},
      "replications": )" + std::to_string(reps) + R"(,
      "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 2]}]
    })");
    const auto scenarios = cp::enumerate_scenarios(spec);
    cp::CampaignOutcome outcome;
    outcome.workers = 1;
    outcome.replications = reps;
    for (int id = 0; id < 3; ++id) {
      for (int rep = 0; rep < reps; ++rep) {
        outcome.results.push_back(id == 0 ? failed_result(id, rep) : ok_result(id, rep, false));
      }
    }

    const JsonValue report = cp::report_json(spec, scenarios, outcome);
    const auto& rows = report.at("scenarios", "report").items();
    ASSERT_EQ(rows.size(), 3u);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      if (reps == 1) {
        EXPECT_NE(rows[i].find("simulated_time"), nullptr);
        EXPECT_EQ(rows[i].find("speedup_vs_baseline"), nullptr);
        continue;
      }
      for (const auto& entry : rows[i].at("replications", "row").items()) {
        EXPECT_NE(entry.find("simulated_time"), nullptr);
        EXPECT_EQ(entry.find("speedup_vs_baseline"), nullptr);
      }
      EXPECT_EQ(rows[i].at("stats", "row").find("speedup_vs_baseline_mean"), nullptr);
    }

    const auto csv = parse_csv(cp::report_csv(spec, scenarios, outcome));
    ASSERT_EQ(csv.size(), outcome.results.size() + 1);
    const auto times = csv_column(csv, "simulated_time");
    const auto speedups = csv_column(csv, "speedup_vs_baseline");
    for (std::size_t unit = 0; unit < outcome.results.size(); ++unit) {
      SCOPED_TRACE("unit " + std::to_string(unit));
      EXPECT_EQ(times[unit].empty(), !outcome.results[unit].ok);
      EXPECT_EQ(speedups[unit], "");
    }

    const std::string summary = cp::report_summary(spec, scenarios, outcome, 5);
    EXPECT_NE(summary.find("baseline FAILED"), std::string::npos) << summary;
    EXPECT_NE(summary.find("link_bandwidth_scale=2"), std::string::npos) << summary;
    EXPECT_EQ(summary.find("x)"), std::string::npos) << summary;
  }
}
