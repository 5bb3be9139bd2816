#include "campaign/report.hpp"

#include <algorithm>
#include <cstdio>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace smpi::campaign {

namespace {

// Bootstrap-CI knobs for the replication fold-down: fixed so two runs of the
// same campaign (or a resume of one) always report identical intervals.
constexpr double kCiLevel = 0.95;
constexpr int kCiResamples = 200;

int reps_of(const CampaignOutcome& outcome) { return std::max(1, outcome.replications); }

const ScenarioResult& baseline_of(const CampaignOutcome& outcome) {
  SMPI_REQUIRE(!outcome.results.empty(), "campaign outcome has no scenarios");
  return outcome.results.front();
}

double speedup_vs_baseline(const ScenarioResult& baseline, const ScenarioResult& r) {
  if (!baseline.ok || !r.ok || r.simulated_time <= 0) return 0;
  return baseline.simulated_time / r.simulated_time;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// Per-scenario fold-down of a replicated sweep's simulated times.
struct ScenarioAgg {
  bool complete = false;       // every replication succeeded
  std::vector<double> times;   // simulated times of the ok replications
  util::SampleSummary stats;   // over `times` (valid when non-empty)
  util::BootstrapCi ci;        // bootstrap CI of the mean (valid when non-empty)
};

ScenarioAgg aggregate_scenario(const CampaignOutcome& outcome, std::size_t scenario,
                               std::uint64_t ci_seed) {
  const int reps = reps_of(outcome);
  ScenarioAgg agg;
  agg.complete = true;
  for (int rep = 0; rep < reps; ++rep) {
    const ScenarioResult& r =
        outcome.results[scenario * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep)];
    if (r.ok) {
      agg.times.push_back(r.simulated_time);
    } else {
      agg.complete = false;
    }
  }
  if (!agg.times.empty()) {
    agg.stats = util::summarize_sample(agg.times);
    // One CI sub-seed per scenario, so dropping a scenario from the sweep
    // never changes another's interval.
    agg.ci = util::bootstrap_mean_ci(agg.times, kCiLevel, kCiResamples,
                                     util::mix_stream(ci_seed, 0, scenario));
  }
  return agg;
}

// Scenario ids of the rankable runs, sorted fastest-first (stable on ties so
// the ranking is deterministic). With replications the key is the mean over
// the reps and only scenarios with every replication ok are ranked — a
// scenario that lost reps to crashes has a biased mean.
std::vector<int> ranked_ok(const std::vector<ScenarioAgg>& aggs) {
  std::vector<int> ids;
  std::vector<double> key(aggs.size(), 0);
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    if (!aggs[i].complete) continue;
    ids.push_back(static_cast<int>(i));
    key[i] = aggs[i].stats.mean;
  }
  std::stable_sort(ids.begin(), ids.end(), [&](int a, int b) {
    return key[static_cast<std::size_t>(a)] < key[static_cast<std::size_t>(b)];
  });
  return ids;
}

// Rank stability: how often the fastest-by-mean scenario is also the fastest
// within a single replication. 1.0 means the sweep's verdict is insensitive
// to the noise; a low fraction means single-run rankings from this noise
// level cannot be trusted.
struct RankStability {
  bool valid = false;
  int winner = -1;
  int stable_reps = 0;
  double fraction = 0;
  const char* verdict = "unstable";
};

RankStability rank_stability(const CampaignOutcome& outcome,
                             const std::vector<ScenarioAgg>& aggs,
                             const std::vector<int>& ranking) {
  RankStability rs;
  const int reps = reps_of(outcome);
  if (reps < 2 || ranking.empty()) return rs;
  rs.valid = true;
  rs.winner = ranking.front();
  for (int rep = 0; rep < reps; ++rep) {
    int best = -1;
    double best_time = 0;
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      const ScenarioResult& r =
          outcome.results[i * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep)];
      if (!r.ok) continue;
      if (best < 0 || r.simulated_time < best_time) {
        best = static_cast<int>(i);
        best_time = r.simulated_time;
      }
    }
    if (best == rs.winner) ++rs.stable_reps;
  }
  rs.fraction = static_cast<double>(rs.stable_reps) / static_cast<double>(reps);
  rs.verdict = rs.fraction >= 1.0 ? "stable" : rs.fraction >= 0.8 ? "mostly-stable" : "unstable";
  return rs;
}

util::JsonValue params_json(const Scenario& scenario) {
  util::JsonValue params = util::JsonValue::object();
  for (const auto& [key, value] : scenario.params) params.set(key, value);
  return params;
}

const char* base_kind_name(CampaignSpec::BaseKind kind) {
  switch (kind) {
    case CampaignSpec::BaseKind::kFlat: return "flat";
    case CampaignSpec::BaseKind::kGriffon: return "hierarchical-griffon";
    case CampaignSpec::BaseKind::kGdx: return "hierarchical-gdx";
    case CampaignSpec::BaseKind::kXmlFile: return "xml";
  }
  SMPI_UNREACHABLE("bad base kind");
}

std::vector<ScenarioAgg> aggregate_all(const CampaignSpec& spec,
                                       const std::vector<Scenario>& scenarios,
                                       const CampaignOutcome& outcome) {
  std::vector<ScenarioAgg> aggs;
  aggs.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    aggs.push_back(aggregate_scenario(outcome, i, spec.noise.seed));
  }
  return aggs;
}

}  // namespace

void set_result_fields(util::JsonValue& row, const ScenarioResult& r,
                       const ScenarioResult* baseline) {
  row.set("ok", util::JsonValue::boolean(r.ok));
  row.set("retries", util::JsonValue::number(r.retries));
  if (!r.ok) {
    row.set("error", util::JsonValue::string(r.error));
    if (r.timed_out) row.set("timed_out", util::JsonValue::boolean(true));
    if (!r.worker_exit.empty()) {
      row.set("worker_exit", util::JsonValue::string(r.worker_exit));
    }
    return;
  }
  row.set("simulated_time", util::JsonValue::number(r.simulated_time));
  if (baseline != nullptr) {
    row.set("speedup_vs_baseline", util::JsonValue::number(speedup_vs_baseline(*baseline, r)));
  }
  row.set("wall_s", util::JsonValue::number(r.wall_s));
  row.set("records", util::JsonValue::number(static_cast<double>(r.records)));
  row.set("ranks", util::JsonValue::number(r.ranks));
  row.set("arena_bytes", util::JsonValue::number(static_cast<double>(r.arena_bytes)));
  util::JsonValue breakdown = util::JsonValue::object();
  breakdown.set("compute_total_s", util::JsonValue::number(r.compute_total_s()));
  breakdown.set("comm_total_s", util::JsonValue::number(r.comm_total_s()));
  breakdown.set("compute_max_s", util::JsonValue::number(r.compute_max_s()));
  breakdown.set("comm_max_s", util::JsonValue::number(r.comm_max_s()));
  util::JsonValue per_rank_compute = util::JsonValue::array();
  util::JsonValue per_rank_comm = util::JsonValue::array();
  for (double v : r.rank_compute_s) per_rank_compute.append(util::JsonValue::number(v));
  for (double v : r.rank_comm_s) per_rank_comm.append(util::JsonValue::number(v));
  breakdown.set("rank_compute_s", std::move(per_rank_compute));
  breakdown.set("rank_comm_s", std::move(per_rank_comm));
  row.set("breakdown", std::move(breakdown));
  util::JsonValue solver = util::JsonValue::object();
  solver.set("solves", util::JsonValue::number(static_cast<double>(r.solver_solves)));
  solver.set("vars_touched",
             util::JsonValue::number(static_cast<double>(r.solver_vars_touched)));
  solver.set("cons_touched",
             util::JsonValue::number(static_cast<double>(r.solver_cons_touched)));
  row.set("solver", std::move(solver));
  util::JsonValue p2p = util::JsonValue::object();
  p2p.set("pool_hits", util::JsonValue::number(static_cast<double>(r.p2p.pool_hits)));
  p2p.set("pool_misses", util::JsonValue::number(static_cast<double>(r.p2p.pool_misses)));
  p2p.set("eager_snapshots",
          util::JsonValue::number(static_cast<double>(r.p2p.eager_snapshots)));
  p2p.set("eager_copy_elided",
          util::JsonValue::number(static_cast<double>(r.p2p.eager_copy_elided)));
  p2p.set("eager_flush_snapshots",
          util::JsonValue::number(static_cast<double>(r.p2p.eager_flush_snapshots)));
  p2p.set("bytes_not_copied",
          util::JsonValue::number(static_cast<double>(r.p2p.bytes_not_copied)));
  row.set("p2p", std::move(p2p));
  if (r.analyzed) {
    util::JsonValue analysis = util::JsonValue::object();
    analysis.set("wait_fraction", util::JsonValue::number(r.wait_fraction));
    analysis.set("critical_path_s", util::JsonValue::number(r.critical_path_s));
    analysis.set("cp_compute_s", util::JsonValue::number(r.cp_compute_s));
    analysis.set("cp_comm_s", util::JsonValue::number(r.cp_comm_s));
    analysis.set("dominant_wait", util::JsonValue::string(r.dominant_wait));
    util::JsonValue per_rank_wait = util::JsonValue::array();
    util::JsonValue per_rank_transfer = util::JsonValue::array();
    for (double v : r.rank_wait_s) per_rank_wait.append(util::JsonValue::number(v));
    for (double v : r.rank_transfer_s) per_rank_transfer.append(util::JsonValue::number(v));
    analysis.set("rank_wait_s", std::move(per_rank_wait));
    analysis.set("rank_transfer_s", std::move(per_rank_transfer));
    row.set("analysis", std::move(analysis));
  }
  if (r.resources_analyzed) {
    util::JsonValue resources = util::JsonValue::object();
    resources.set("top_bottleneck", util::JsonValue::string(r.top_bottleneck));
    resources.set("bottleneck_saturated_s",
                  util::JsonValue::number(r.bottleneck_saturated_s));
    resources.set("max_link_utilization",
                  util::JsonValue::number(r.max_link_utilization));
    row.set("resources", std::move(resources));
  }
}

void read_result_fields(const util::JsonValue& row, ScenarioResult& r, ResultSource source) {
  // A resumed report may predate the hardened harness (no retries, error,
  // timed_out, worker_exit) or the p2p counters; those read as defaults. A
  // capsule comes from this very build and must carry every one of them.
  const bool lenient = source == ResultSource::kResumedReport;
  const std::string what = lenient ? "resume report row" : "campaign capsule";
  const std::string prefix = lenient ? "resume " : "campaign capsule ";
  auto field = [&](const util::JsonValue& object, const char* key,
                   const std::string& context) -> const util::JsonValue* {
    return lenient ? object.find(key) : &object.at(key, context);
  };
  r.ok = row.at("ok", what).as_bool();
  if (const auto* retries = field(row, "retries", what)) {
    r.retries = static_cast<int>(retries->as_int());
  }
  if (!r.ok) {
    if (const auto* error = field(row, "error", what)) r.error = error->as_string();
    if (const auto* timed_out = row.find("timed_out")) r.timed_out = timed_out->as_bool();
    if (const auto* worker_exit = row.find("worker_exit")) {
      r.worker_exit = worker_exit->as_string();
    }
    return;
  }
  r.error.clear();
  r.simulated_time = row.at("simulated_time", what).as_number();
  r.wall_s = row.at("wall_s", what).as_number();
  r.records = row.at("records", what).as_int();
  r.ranks = static_cast<int>(row.at("ranks", what).as_int());
  r.arena_bytes = static_cast<std::uint64_t>(row.at("arena_bytes", what).as_int());
  const auto& breakdown = row.at("breakdown", what);
  for (const auto& v : breakdown.at("rank_compute_s", prefix + "breakdown").items()) {
    r.rank_compute_s.push_back(v.as_number());
  }
  for (const auto& v : breakdown.at("rank_comm_s", prefix + "breakdown").items()) {
    r.rank_comm_s.push_back(v.as_number());
  }
  const auto& solver = row.at("solver", what);
  r.solver_solves = static_cast<std::uint64_t>(solver.at("solves", prefix + "solver").as_int());
  r.solver_vars_touched =
      static_cast<std::uint64_t>(solver.at("vars_touched", prefix + "solver").as_int());
  r.solver_cons_touched =
      static_cast<std::uint64_t>(solver.at("cons_touched", prefix + "solver").as_int());
  // Adopted rows of a report without p2p counters keep them at zero.
  if (const auto* p2p = field(row, "p2p", what)) {
    auto u64 = [&](const char* key) {
      const auto* v = field(*p2p, key, prefix + "p2p");
      return v == nullptr ? std::uint64_t{0} : static_cast<std::uint64_t>(v->as_int());
    };
    r.p2p.pool_hits = u64("pool_hits");
    r.p2p.pool_misses = u64("pool_misses");
    r.p2p.eager_snapshots = u64("eager_snapshots");
    r.p2p.eager_copy_elided = u64("eager_copy_elided");
    r.p2p.eager_flush_snapshots = u64("eager_flush_snapshots");
    r.p2p.bytes_not_copied = u64("bytes_not_copied");
  }
  // The analysis and resource blocks are present exactly when the run
  // collected them ("analysis"/"resources" in the spec; older reports lack
  // them).
  if (const auto* analysis = row.find("analysis")) {
    r.analyzed = true;
    r.wait_fraction = analysis->at("wait_fraction", prefix + "analysis").as_number();
    r.critical_path_s = analysis->at("critical_path_s", prefix + "analysis").as_number();
    r.cp_compute_s = analysis->at("cp_compute_s", prefix + "analysis").as_number();
    r.cp_comm_s = analysis->at("cp_comm_s", prefix + "analysis").as_number();
    r.dominant_wait = analysis->at("dominant_wait", prefix + "analysis").as_string();
    for (const auto& v : analysis->at("rank_wait_s", prefix + "analysis").items()) {
      r.rank_wait_s.push_back(v.as_number());
    }
    for (const auto& v : analysis->at("rank_transfer_s", prefix + "analysis").items()) {
      r.rank_transfer_s.push_back(v.as_number());
    }
  }
  if (const auto* resources = row.find("resources")) {
    r.resources_analyzed = true;
    r.top_bottleneck = resources->at("top_bottleneck", prefix + "resources").as_string();
    r.bottleneck_saturated_s =
        resources->at("bottleneck_saturated_s", prefix + "resources").as_number();
    r.max_link_utilization =
        resources->at("max_link_utilization", prefix + "resources").as_number();
  }
}

util::JsonValue report_json(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                            const CampaignOutcome& outcome) {
  const int reps = reps_of(outcome);
  SMPI_REQUIRE(scenarios.size() * static_cast<std::size_t>(reps) == outcome.results.size(),
               "campaign report: scenario/result count mismatch");
  const ScenarioResult& baseline = baseline_of(outcome);

  util::JsonValue doc = util::JsonValue::object();
  doc.set("campaign", util::JsonValue::string(spec.name));
  doc.set("trace", util::JsonValue::string(spec.trace_dir));
  {
    util::JsonValue platform = util::JsonValue::object();
    platform.set("kind", util::JsonValue::string(base_kind_name(spec.base_kind)));
    platform.set("nodes", util::JsonValue::number(spec.base_nodes));
    if (!spec.platform_file.empty()) {
      platform.set("file", util::JsonValue::string(spec.platform_file));
    }
    doc.set("platform", std::move(platform));
  }
  if (spec.has_workload) {
    util::JsonValue workload = util::JsonValue::object();
    workload.set("name", util::JsonValue::string(spec.workload.name));
    workload.set("ranks", util::JsonValue::number(spec.workload.ranks));
    workload.set("seed", util::JsonValue::number(static_cast<double>(spec.workload.seed)));
    workload.set("phases",
                 util::JsonValue::number(static_cast<double>(spec.workload.phases.size())));
    doc.set("workload", std::move(workload));
  }
  doc.set("workers", util::JsonValue::number(outcome.workers));
  if (outcome.resumed > 0) doc.set("resumed", util::JsonValue::number(outcome.resumed));
  doc.set("wall_s", util::JsonValue::number(outcome.wall_s));
  doc.set("scenario_count", util::JsonValue::number(static_cast<double>(scenarios.size())));
  if (reps > 1) {
    doc.set("replications", util::JsonValue::number(reps));
    doc.set("noise_seed", util::JsonValue::number(static_cast<double>(spec.noise.seed)));
  }

  const std::vector<ScenarioAgg> aggs = aggregate_all(spec, scenarios, outcome);

  util::JsonValue rows = util::JsonValue::array();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& scenario = scenarios[i];
    util::JsonValue row = util::JsonValue::object();
    row.set("id", util::JsonValue::number(scenario.id));
    row.set("label", util::JsonValue::string(scenario.label));
    row.set("params", params_json(scenario));
    if (reps == 1) {
      set_result_fields(row, outcome.results[i], &baseline);
      rows.append(std::move(row));
      continue;
    }
    // Replicated sweep: per-rep entries plus the fold-down. Speedups are
    // paired per replication (scenario rep k vs baseline rep k) so a slow
    // noise world cancels out of the ratio.
    const ScenarioAgg& agg = aggs[i];
    row.set("ok", util::JsonValue::boolean(agg.complete));
    util::JsonValue rep_rows = util::JsonValue::array();
    for (int rep = 0; rep < reps; ++rep) {
      const std::size_t unit =
          i * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep);
      const ScenarioResult& r = outcome.results[unit];
      const ScenarioResult& rep_baseline = outcome.results[static_cast<std::size_t>(rep)];
      util::JsonValue entry = util::JsonValue::object();
      entry.set("rep", util::JsonValue::number(rep));
      set_result_fields(entry, r, &rep_baseline);
      rep_rows.append(std::move(entry));
    }
    row.set("replications", std::move(rep_rows));
    if (!agg.times.empty()) {
      const ScenarioAgg& base_agg = aggs[0];
      util::JsonValue stats = util::JsonValue::object();
      stats.set("count", util::JsonValue::number(static_cast<double>(agg.stats.count)));
      stats.set("mean", util::JsonValue::number(agg.stats.mean));
      stats.set("stddev", util::JsonValue::number(agg.stats.stddev));
      stats.set("min", util::JsonValue::number(agg.stats.min));
      stats.set("max", util::JsonValue::number(agg.stats.max));
      stats.set("p5", util::JsonValue::number(agg.stats.p5));
      stats.set("p50", util::JsonValue::number(agg.stats.p50));
      stats.set("p95", util::JsonValue::number(agg.stats.p95));
      stats.set("ci_lo", util::JsonValue::number(agg.ci.lo));
      stats.set("ci_hi", util::JsonValue::number(agg.ci.hi));
      if (!base_agg.times.empty() && agg.stats.mean > 0) {
        stats.set("speedup_vs_baseline_mean",
                  util::JsonValue::number(base_agg.stats.mean / agg.stats.mean));
      }
      row.set("stats", std::move(stats));
    }
    rows.append(std::move(row));
  }
  doc.set("scenarios", std::move(rows));

  const std::vector<int> ranking = ranked_ok(aggs);
  util::JsonValue ranking_json = util::JsonValue::array();
  for (int id : ranking) ranking_json.append(util::JsonValue::number(id));
  doc.set("ranking_fastest_first", std::move(ranking_json));

  const RankStability rs = rank_stability(outcome, aggs, ranking);
  if (rs.valid) {
    util::JsonValue stability = util::JsonValue::object();
    stability.set("winner", util::JsonValue::number(rs.winner));
    stability.set("stable_replications", util::JsonValue::number(rs.stable_reps));
    stability.set("fraction", util::JsonValue::number(rs.fraction));
    stability.set("verdict", util::JsonValue::string(rs.verdict));
    doc.set("rank_stability", std::move(stability));
  }
  return doc;
}

std::string report_csv(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                       const CampaignOutcome& outcome) {
  const int reps = reps_of(outcome);
  SMPI_REQUIRE(scenarios.size() * static_cast<std::size_t>(reps) == outcome.results.size(),
               "campaign report: scenario/result count mismatch");

  // One column per axis (in axis order) so the grid pivots cleanly.
  std::vector<std::string> axis_keys;
  for (const Axis& axis : spec.axes) axis_keys.push_back(axis.key());

  std::string csv = "id,rep,label,ok,retries,timed_out";
  for (const std::string& key : axis_keys) csv += "," + key;
  csv +=
      ",simulated_time,speedup_vs_baseline,wall_s,records,ranks,compute_total_s,comm_total_s,"
      "compute_max_s,comm_max_s,solver_solves,solver_vars_touched,solver_cons_touched,"
      "pool_hits,pool_misses,eager_snapshots,eager_copy_elided,eager_flush_snapshots,"
      "bytes_not_copied,wait_fraction,critical_path_s,cp_compute_s,cp_comm_s,dominant_wait,"
      "top_bottleneck,bottleneck_saturated_s,max_link_utilization,worker_exit,error\n";

  // One row per unit: with replications the per-rep runs appear individually
  // (the fold-down statistics live in the JSON report).
  for (std::size_t unit = 0; unit < outcome.results.size(); ++unit) {
    const ScenarioResult& r = outcome.results[unit];
    const Scenario& scenario = scenarios[unit / static_cast<std::size_t>(reps)];
    const ScenarioResult& baseline =
        outcome.results[unit % static_cast<std::size_t>(reps)];  // same-rep baseline
    csv += std::to_string(scenario.id);
    csv += ',' + std::to_string(r.rep);
    csv += ",\"" + scenario.label + "\"";
    csv += r.ok ? ",1" : ",0";
    csv += ',' + std::to_string(r.retries);
    csv += r.timed_out ? ",1" : ",0";
    for (const std::string& key : axis_keys) {
      const util::JsonValue* value = scenario.find(key);
      csv += ',';
      if (value != nullptr) {
        csv += value->is_string() ? value->as_string() : value->dump();
      }
    }
    if (r.ok) {
      csv += ',' + format_double(r.simulated_time);
      csv += ',' + format_double(speedup_vs_baseline(baseline, r));
      csv += ',' + format_double(r.wall_s);
      csv += ',' + std::to_string(r.records);
      csv += ',' + std::to_string(r.ranks);
      csv += ',' + format_double(r.compute_total_s());
      csv += ',' + format_double(r.comm_total_s());
      csv += ',' + format_double(r.compute_max_s());
      csv += ',' + format_double(r.comm_max_s());
      csv += ',' + std::to_string(r.solver_solves);
      csv += ',' + std::to_string(r.solver_vars_touched);
      csv += ',' + std::to_string(r.solver_cons_touched);
      csv += ',' + std::to_string(r.p2p.pool_hits);
      csv += ',' + std::to_string(r.p2p.pool_misses);
      csv += ',' + std::to_string(r.p2p.eager_snapshots);
      csv += ',' + std::to_string(r.p2p.eager_copy_elided);
      csv += ',' + std::to_string(r.p2p.eager_flush_snapshots);
      csv += ',' + std::to_string(r.p2p.bytes_not_copied);
      if (r.analyzed) {
        csv += ',' + format_double(r.wait_fraction);
        csv += ',' + format_double(r.critical_path_s);
        csv += ',' + format_double(r.cp_compute_s);
        csv += ',' + format_double(r.cp_comm_s);
        csv += ',' + r.dominant_wait;
      } else {
        csv += ",,,,,";  // analysis was off for this run
      }
      if (r.resources_analyzed) {
        csv += ",\"" + r.top_bottleneck + "\"";
        csv += ',' + format_double(r.bottleneck_saturated_s);
        csv += ',' + format_double(r.max_link_utilization);
      } else {
        csv += ",,,";  // resources were off for this run
      }
      csv += ",,\n";  // empty worker_exit + error
    } else {
      // 26 empty metric columns, then the harness diagnostics.
      csv += ",,,,,,,,,,,,,,,,,,,,,,,,,,\"" + r.worker_exit + "\",\"" + r.error + "\"\n";
    }
  }
  return csv;
}

std::string report_summary(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                           const CampaignOutcome& outcome, int top) {
  const int reps = reps_of(outcome);
  const ScenarioResult& baseline = baseline_of(outcome);
  const std::vector<ScenarioAgg> aggs = aggregate_all(spec, scenarios, outcome);
  const std::vector<int> ranking = ranked_ok(aggs);
  std::string out;
  char line[512];

  if (reps == 1) {
    std::snprintf(line, sizeof line, "campaign '%s': %zu scenarios, %d workers, %.2fs wall\n",
                  spec.name.c_str(), scenarios.size(), outcome.workers, outcome.wall_s);
  } else {
    std::snprintf(line, sizeof line,
                  "campaign '%s': %zu scenarios x %d replications, %d workers, %.2fs wall\n",
                  spec.name.c_str(), scenarios.size(), reps, outcome.workers, outcome.wall_s);
  }
  out += line;
  if (reps == 1) {
    if (baseline.ok) {
      std::snprintf(line, sizeof line, "baseline simulated time: %.9f s\n",
                    baseline.simulated_time);
      out += line;
    } else {
      out += "baseline FAILED: " + baseline.error + "\n";
    }
  } else if (!aggs[0].times.empty()) {
    std::snprintf(line, sizeof line,
                  "baseline simulated time: mean %.9f s, stddev %.3g, p5 %.9f, p95 %.9f (%zu/%d "
                  "reps)\n",
                  aggs[0].stats.mean, aggs[0].stats.stddev, aggs[0].stats.p5, aggs[0].stats.p95,
                  aggs[0].times.size(), reps);
    out += line;
  } else {
    out += "baseline FAILED in every replication\n";
  }

  // "[wait 42%, mostly late_sender]" — why this scenario is slow (or not):
  // how much of its total rank time was spent blocked on peers, and which
  // wait-state class dominates that blocking.
  auto wait_note = [&](const ScenarioResult& r) -> std::string {
    if (!r.ok || (!r.analyzed && !r.resources_analyzed)) return "";
    std::string text;
    char note[160];
    if (r.analyzed) {
      if (r.dominant_wait.empty() || r.dominant_wait == "none") {
        std::snprintf(note, sizeof note, "wait %.0f%%", r.wait_fraction * 100.0);
      } else {
        std::snprintf(note, sizeof note, "wait %.0f%%, mostly %s", r.wait_fraction * 100.0,
                      r.dominant_wait.c_str());
      }
      text = note;
    }
    // "..., bottleneck backbone-link 2.1s": the resource saturated longest
    // in this run — where the contention actually lives.
    if (r.resources_analyzed && !r.top_bottleneck.empty()) {
      std::snprintf(note, sizeof note, "bottleneck %s %.3gs", r.top_bottleneck.c_str(),
                    r.bottleneck_saturated_s);
      if (!text.empty()) text += ", ";
      text += note;
    }
    if (text.empty()) return "";
    return "  [" + text + "]";
  };
  auto describe = [&](int id) {
    const auto index = static_cast<std::size_t>(id);
    if (reps == 1) {
      const ScenarioResult& r = outcome.results[index];
      std::snprintf(line, sizeof line, "  #%-4d %-48s %.9f s  (%.3fx)", id,
                    scenarios[index].label.c_str(), r.simulated_time,
                    speedup_vs_baseline(baseline, r));
      out += line;
      out += wait_note(r);
    } else {
      const ScenarioAgg& agg = aggs[index];
      const double speedup =
          !aggs[0].times.empty() && agg.stats.mean > 0 ? aggs[0].stats.mean / agg.stats.mean : 0;
      std::snprintf(line, sizeof line, "  #%-4d %-48s mean %.9f s +/- %.3g  (%.3fx)", id,
                    scenarios[index].label.c_str(), agg.stats.mean, agg.stats.stddev, speedup);
      out += line;
      // The wait-state verdict of the first successful replication stands in
      // for the family (noise moves the numbers, rarely the diagnosis).
      for (int rep = 0; rep < reps; ++rep) {
        const ScenarioResult& r =
            outcome.results[index * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep)];
        if (r.ok && r.analyzed) {
          out += wait_note(r);
          break;
        }
      }
    }
    out += '\n';
  };

  const int shown = std::min<int>(top, static_cast<int>(ranking.size()));
  if (shown > 0) {
    out += reps == 1 ? "fastest scenarios:\n" : "fastest scenarios (by mean):\n";
    for (int i = 0; i < shown; ++i) describe(ranking[static_cast<std::size_t>(i)]);
    out += "slowest scenarios:\n";
    for (int i = 0; i < shown; ++i) {
      describe(ranking[ranking.size() - 1 - static_cast<std::size_t>(i)]);
    }
  }

  const RankStability rs = rank_stability(outcome, aggs, ranking);
  if (rs.valid) {
    std::snprintf(line, sizeof line,
                  "rank stability: winner #%d fastest in %d/%d replications (%s)\n", rs.winner,
                  rs.stable_reps, reps, rs.verdict);
    out += line;
  }

  if (outcome.resumed > 0) {
    std::snprintf(line, sizeof line, "%d run(s) adopted from the resumed report\n",
                  outcome.resumed);
    out += line;
  }

  int failures = 0;
  int retried = 0;
  int timeouts = 0;
  for (const ScenarioResult& r : outcome.results) {
    failures += r.ok ? 0 : 1;
    retried += r.retries > 0 ? 1 : 0;
    timeouts += r.timed_out ? 1 : 0;
  }
  if (retried > 0) {
    std::snprintf(line, sizeof line, "%d run(s) needed a worker retry\n", retried);
    out += line;
  }
  if (timeouts > 0) {
    std::snprintf(line, sizeof line, "%d run(s) hit the wall-clock watchdog\n", timeouts);
    out += line;
  }
  if (failures > 0) {
    std::snprintf(line, sizeof line, "%d run(s) FAILED:\n", failures);
    out += line;
    for (const ScenarioResult& r : outcome.results) {
      if (r.ok) continue;
      std::snprintf(line, sizeof line, "  #%-4d%s %s: %s%s%s%s\n", r.id,
                    reps > 1 ? (" rep=" + std::to_string(r.rep)).c_str() : "",
                    scenarios[static_cast<std::size_t>(r.id)].label.c_str(), r.error.c_str(),
                    r.worker_exit.empty() ? "" : " [worker: ",
                    r.worker_exit.c_str(), r.worker_exit.empty() ? "" : "]");
      out += line;
    }
  }
  return out;
}

std::vector<ScenarioResult> results_from_report(const util::JsonValue& report,
                                                const CampaignSpec& spec,
                                                const std::vector<Scenario>& scenarios) {
  SMPI_REQUIRE(report.is_object(), "campaign resume: report is not a JSON object");
  const std::string name = report.at("campaign", "resume report").as_string();
  SMPI_REQUIRE(name == spec.name, "campaign resume: report belongs to campaign '" + name +
                                      "', spec is '" + spec.name + "'");
  const long long count = report.at("scenario_count", "resume report").as_int();
  SMPI_REQUIRE(count == static_cast<long long>(scenarios.size()),
               "campaign resume: report has " + std::to_string(count) + " scenarios, spec has " +
                   std::to_string(scenarios.size()));
  // A report replicated differently indexes its units differently: adopting
  // it would stitch rep k of one family onto rep k of another.
  const int reps = std::max(1, spec.replications);
  const auto* report_reps = report.find("replications");
  const long long reps_in_report = report_reps == nullptr ? 1 : report_reps->as_int();
  SMPI_REQUIRE(reps_in_report == reps,
               "campaign resume: report ran " + std::to_string(reps_in_report) +
                   " replication(s), spec wants " + std::to_string(reps));
  if (reps > 1) {
    const long long seed = report.at("noise_seed", "resume report").as_int();
    SMPI_REQUIRE(seed == static_cast<long long>(spec.noise.seed),
                 "campaign resume: report ran under noise_seed " + std::to_string(seed) +
                     ", spec uses " + std::to_string(spec.noise.seed));
  }
  // Labels only cover the axis values; the trace source and base platform
  // shape the results just as much, so a report produced under a different
  // one must be rejected, not stitched into this sweep.
  const std::string trace = report.at("trace", "resume report").as_string();
  SMPI_REQUIRE(trace == spec.trace_dir, "campaign resume: report ran over trace '" + trace +
                                            "', spec uses '" + spec.trace_dir + "'");
  const auto& platform = report.at("platform", "resume report");
  SMPI_REQUIRE(platform.at("kind", "resume platform").as_string() ==
                       base_kind_name(spec.base_kind) &&
                   platform.at("nodes", "resume platform").as_int() == spec.base_nodes &&
                   (spec.platform_file.empty()
                        ? platform.find("file") == nullptr
                        : platform.find("file") != nullptr &&
                              platform.at("file", "resume platform").as_string() ==
                                  spec.platform_file),
               "campaign resume: report ran on a different base platform");
  const auto* workload = report.find("workload");
  SMPI_REQUIRE((workload != nullptr) == spec.has_workload,
               "campaign resume: report and spec disagree on the workload trace source");
  if (workload != nullptr) {
    SMPI_REQUIRE(
        workload->at("name", "resume workload").as_string() == spec.workload.name &&
            workload->at("ranks", "resume workload").as_int() == spec.workload.ranks &&
            workload->at("seed", "resume workload").as_int() ==
                static_cast<long long>(spec.workload.seed) &&
            workload->at("phases", "resume workload").as_int() ==
                static_cast<long long>(spec.workload.phases.size()),
        "campaign resume: report ran a different workload (name/ranks/seed/phases changed)");
  }

  std::vector<ScenarioResult> results(scenarios.size() * static_cast<std::size_t>(reps));
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].id = static_cast<int>(i) / reps;
    results[i].rep = static_cast<int>(i) % reps;
    results[i].error = "not present in the resumed report";
  }
  for (const auto& row : report.at("scenarios", "resume report").items()) {
    const long long id = row.at("id", "resume report row").as_int();
    SMPI_REQUIRE(id >= 0 && id < static_cast<long long>(scenarios.size()),
                 "campaign resume: report row id out of range");
    const auto index = static_cast<std::size_t>(id);
    // Label equality is the cheap proxy for "same axes, same values, same
    // order" — any edit to the spec that renumbers the cross-product
    // changes the labels, and the resume must then be rejected.
    const std::string label = row.at("label", "resume report row").as_string();
    SMPI_REQUIRE(label == scenarios[index].label,
                 "campaign resume: scenario " + std::to_string(id) + " is '" +
                     scenarios[index].label + "' in the spec but '" + label +
                     "' in the report — the axes changed, start a fresh sweep");
    if (reps == 1) {
      read_result_fields(row, results[index], ResultSource::kResumedReport);
      continue;
    }
    for (const auto& entry : row.at("replications", "resume report row").items()) {
      const long long rep = entry.at("rep", "resume replication entry").as_int();
      SMPI_REQUIRE(rep >= 0 && rep < reps,
                   "campaign resume: replication index out of range");
      read_result_fields(
          entry, results[index * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep)],
          ResultSource::kResumedReport);
    }
  }
  return results;
}

}  // namespace smpi::campaign
