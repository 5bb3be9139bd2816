#include "campaign/report.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

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

// None unless both runs succeeded and `r` took time: a failed baseline has
// no speedup to offer, not a speedup of 0.
std::optional<double> speedup_vs_baseline(const ScenarioResult& baseline,
                                          const ScenarioResult& r) {
  if (!baseline.ok || !r.ok || r.simulated_time <= 0) return std::nullopt;
  return baseline.simulated_time / r.simulated_time;
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

// The base platform and the workload trace source as a report records
// them; a resume compares a report's records with these whole.
util::JsonValue platform_json(const CampaignSpec& spec) {
  util::JsonValue platform = util::JsonValue::object();
  platform.set("kind", util::JsonValue::string(base_kind_name(spec.base_kind)));
  platform.set("nodes", util::JsonValue::number(spec.base_nodes));
  if (!spec.platform_file.empty()) {
    platform.set("file", util::JsonValue::string(spec.platform_file));
  }
  return platform;
}

util::JsonValue workload_json(const CampaignSpec& spec) {
  util::JsonValue workload = util::JsonValue::object();
  workload.set("name", util::JsonValue::string(spec.workload.name));
  workload.set("ranks", util::JsonValue::number(spec.workload.ranks));
  workload.set("seed", util::JsonValue::number(static_cast<double>(spec.workload.seed)));
  workload.set("phases",
               util::JsonValue::number(static_cast<double>(spec.workload.phases.size())));
  return workload;
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

// One CSV field per RFC 4180: quoted when `always` or when it holds a comma,
// quote, CR or LF, with every embedded quote doubled.
std::string csv_cell(const std::string& text, bool always) {
  if (!always && text.find_first_of(",\"\r\n") == std::string::npos) return text;
  std::string out = "\"";
  for (char c : text) out += c == '"' ? std::string("\"\"") : std::string(1, c);
  return out + '"';
}

// --- The result object, as one table of fields ------------------------------
// The JSON writer and reader and the CSV all walk the table, so a new metric
// is one row in it (plus its ScenarioResult member and the worker's fill).
// A field's block is the JSON object it sits in and says when it is there.
using R = ScenarioResult;
struct Block {
  const char* json;           // nested object key; nullptr = the result object itself
  const char* column_prefix;  // CSV column = prefix + field key
  enum When { kAlways, kOk, kFailed } when;
  bool R::*flag;         // non-null: present only when set; reading the block sets it
  bool resume_may_lack;  // a resumed report may predate it; a capsule may not
};
constexpr Block kRun{nullptr, "", Block::kAlways, nullptr, false};
constexpr Block kHarness{nullptr, "", Block::kAlways, nullptr, true};
constexpr Block kFailure{nullptr, "", Block::kFailed, nullptr, true};
constexpr Block kTotals{nullptr, "", Block::kOk, nullptr, false};
constexpr Block kBreakdown{"breakdown", "", Block::kOk, nullptr, false};
constexpr Block kSolver{"solver", "solver_", Block::kOk, nullptr, false};
constexpr Block kP2p{"p2p", "", Block::kOk, nullptr, true};
constexpr Block kAnalysis{"analysis", "", Block::kOk, &R::analyzed, false};
constexpr Block kResources{"resources", "", Block::kOk, &R::resources_analyzed, false};

enum class Column { kNone, kLead, kBody, kLast };  // CSV: none, before/after the axes, last

struct Speedup {};  // the baseline-relative speedup, the one value that needs the baseline

using Access = std::variant<bool R::*, int R::*, long long R::*, std::uint64_t R::*, double R::*,
                            std::string R::*, std::vector<double> R::*,
                            std::uint64_t core::P2pCounters::*, double (R::*)() const, Speedup>;

struct Field {
  const Block* block;
  const char* key;
  Column column;
  Access access;
  bool quoted = false;    // CSV: always quoted, not only when RFC 4180 needs it
  bool optional = false;  // JSON: written only when set, so read as optional
};

// In JSON order. An ok row has no failure field and a failed row no metric,
// so the failure fields can sit last, where their columns go.
const std::vector<Field> kResultFields = [] {
  std::vector<Field> table = {
      {&kRun, "ok", Column::kLead, &R::ok},
      {&kHarness, "retries", Column::kLead, &R::retries},
      {&kTotals, "simulated_time", Column::kBody, &R::simulated_time},
      {&kTotals, "speedup_vs_baseline", Column::kBody, Speedup{}, false, true},
      {&kTotals, "wall_s", Column::kBody, &R::wall_s},
      {&kTotals, "records", Column::kBody, &R::records},
      {&kTotals, "ranks", Column::kBody, &R::ranks},
      {&kTotals, "arena_bytes", Column::kNone, &R::arena_bytes},
      {&kBreakdown, "compute_total_s", Column::kBody, &R::compute_total_s},
      {&kBreakdown, "comm_total_s", Column::kBody, &R::comm_total_s},
      {&kBreakdown, "compute_max_s", Column::kBody, &R::compute_max_s},
      {&kBreakdown, "comm_max_s", Column::kBody, &R::comm_max_s},
      {&kBreakdown, "rank_compute_s", Column::kNone, &R::rank_compute_s},
      {&kBreakdown, "rank_comm_s", Column::kNone, &R::rank_comm_s},
      {&kSolver, "solves", Column::kBody, &R::solver_solves},
      {&kSolver, "vars_touched", Column::kBody, &R::solver_vars_touched},
      {&kSolver, "cons_touched", Column::kBody, &R::solver_cons_touched},
  };
  for (const auto& [name, member] : core::kP2pCounterFields) {
    table.push_back({&kP2p, name, Column::kBody, member});
  }
  table.insert(table.end(), {
      {&kAnalysis, "wait_fraction", Column::kBody, &R::wait_fraction},
      {&kAnalysis, "critical_path_s", Column::kBody, &R::critical_path_s},
      {&kAnalysis, "cp_compute_s", Column::kBody, &R::cp_compute_s},
      {&kAnalysis, "cp_comm_s", Column::kBody, &R::cp_comm_s},
      {&kAnalysis, "dominant_wait", Column::kBody, &R::dominant_wait},
      {&kAnalysis, "rank_wait_s", Column::kNone, &R::rank_wait_s},
      {&kAnalysis, "rank_transfer_s", Column::kNone, &R::rank_transfer_s},
      {&kResources, "top_bottleneck", Column::kBody, &R::top_bottleneck, true},
      {&kResources, "bottleneck_saturated_s", Column::kBody, &R::bottleneck_saturated_s},
      {&kResources, "max_link_utilization", Column::kBody, &R::max_link_utilization},
      {&kFailure, "error", Column::kLast, &R::error, true},
      {&kHarness, "timed_out", Column::kLead, &R::timed_out, false, true},
      {&kFailure, "worker_exit", Column::kBody, &R::worker_exit, true, true},
  });
  return table;
}();

bool present(const Block& block, const R& r) {
  return (block.when == Block::kAlways || (block.when == Block::kOk) == r.ok) &&
         (block.flag == nullptr || r.*block.flag);
}

// The value `access` names in `r`: a member, a p2p counter, or a derived
// value, which is computed (the speedup from `baseline`) and never read.
template <class Result, class T>
auto& member(Result& r, const R*, T R::*m) { return r.*m; }
template <class Result>
auto& member(Result& r, const R*, std::uint64_t core::P2pCounters::*m) { return r.p2p.*m; }
double member(const R& r, const R*, double (R::*m)() const) { return (r.*m)(); }
std::optional<double> member(const R& r, const R* baseline, Speedup) {
  if (baseline == nullptr) return std::nullopt;
  return speedup_vs_baseline(*baseline, r);
}

// `fn` applied to the value of `f` in `r`.
template <class Fn>
auto value_of(const Field& f, const R& r, const R* baseline, Fn fn) {
  return std::visit([&](auto access) { return fn(member(r, baseline, access)); }, f.access);
}

const auto is_unset = [](const auto& v) { return v == std::decay_t<decltype(v)>{}; };

util::JsonValue to_json(bool v) { return util::JsonValue::boolean(v); }
util::JsonValue to_json(const std::string& v) { return util::JsonValue::string(v); }
util::JsonValue to_json(const std::optional<double>& v) { return util::JsonValue::number(*v); }
util::JsonValue to_json(const std::vector<double>& v) {
  util::JsonValue items = util::JsonValue::array();
  for (double x : v) items.append(util::JsonValue::number(x));
  return items;
}
template <class Number>
util::JsonValue to_json(Number v) { return util::JsonValue::number(static_cast<double>(v)); }

void from_json(const util::JsonValue& j, bool& out) { out = j.as_bool(); }
void from_json(const util::JsonValue& j, std::string& out) { out = j.as_string(); }
void from_json(const util::JsonValue& j, double& out) { out = j.as_number(); }
void from_json(const util::JsonValue& j, std::vector<double>& out) {
  for (const auto& item : j.items()) out.push_back(item.as_number());
}
template <class Integer>
void from_json(const util::JsonValue& j, Integer& out) { out = static_cast<Integer>(j.as_int()); }

std::string csv_cell(bool v, bool) { return v ? "1" : "0"; }
std::string csv_cell(double v, bool) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}
std::string csv_cell(const std::vector<double>&, bool) { return ""; }  // JSON-only
std::string csv_cell(const std::optional<double>& v, bool quoted) {
  return v ? csv_cell(*v, quoted) : "";
}
template <class Integer>
std::string csv_cell(Integer v, bool) { return std::to_string(v); }

}  // namespace

void set_result_fields(util::JsonValue& row, const ScenarioResult& r,
                       const ScenarioResult* baseline) {
  util::JsonValue nested = util::JsonValue::object();
  for (const Field& f : kResultFields) {
    // A worker does not know the baseline, so its capsule has no speedup.
    if ((f.optional && value_of(f, r, baseline, is_unset)) || !present(*f.block, r)) continue;
    util::JsonValue value = value_of(f, r, baseline, [](const auto& v) { return to_json(v); });
    if (f.block->json == nullptr) {
      row.set(f.key, std::move(value));
      continue;
    }
    // A nested block's fields are consecutive and never optional: set it at its last.
    nested.set(f.key, std::move(value));
    if (&f == &kResultFields.back() || (&f)[1].block != f.block) {
      row.set(f.block->json, std::exchange(nested, util::JsonValue::object()));
    }
  }
}

void read_result_fields(const util::JsonValue& row, ScenarioResult& r, ResultSource source) {
  const bool resume = source == ResultSource::kResumedReport;
  const std::string what = resume ? "resume report row" : "campaign capsule";
  for (const Field& f : kResultFields) {
    const Block& block = *f.block;
    const bool may_lack = resume && block.resume_may_lack;
    // `ok` is read first, so a block of the other outcome is skipped; a
    // flagged block is read when the run collected it, and sets the flag.
    if (block.when != Block::kAlways && (block.when == Block::kOk) != r.ok) continue;
    std::visit(
        [&](auto access) {
          if constexpr (std::is_member_object_pointer_v<decltype(access)>) {  // not derived
            const util::JsonValue* object = &row;
            if (block.json != nullptr) {
              object = block.flag != nullptr || may_lack ? row.find(block.json)
                                                         : &row.at(block.json, what);
              if (object == nullptr) return;
              if (block.flag != nullptr) r.*block.flag = true;
            }
            const std::string context = block.json == nullptr ? what : what + " " + block.json;
            const util::JsonValue* value =
                f.optional || may_lack ? object->find(f.key) : &object->at(f.key, context);
            if (value != nullptr) from_json(*value, member(r, nullptr, access));
          }
        },
        f.access);
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
  doc.set("platform", platform_json(spec));
  if (spec.has_workload) doc.set("workload", workload_json(spec));
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

  // One row per unit: with replications the per-rep runs appear individually
  // (the fold-down statistics live in the JSON report). The result columns
  // sit around one column per axis (in axis order), so the grid pivots
  // cleanly; a block the run does not have leaves its columns empty.
  std::string csv = "id,rep,label";
  auto columns = [&](std::initializer_list<Column> which, const R* r, const R* baseline) {
    for (const Column column : which) {
      for (const Field& f : kResultFields) {
        if (f.column != column) continue;
        csv += ',';
        if (r == nullptr) {
          csv += std::string(f.block->column_prefix) + f.key;
        } else if (present(*f.block, *r)) {
          csv += value_of(f, *r, baseline, [&](const auto& v) { return csv_cell(v, f.quoted); });
        }
      }
    }
  };
  columns({Column::kLead}, nullptr, nullptr);
  for (const Axis& axis : spec.axes) csv += ',' + csv_cell(axis.key(), false);
  columns({Column::kBody, Column::kLast}, nullptr, nullptr);
  csv += '\n';
  for (std::size_t unit = 0; unit < outcome.results.size(); ++unit) {
    const ScenarioResult& r = outcome.results[unit];
    const Scenario& scenario = scenarios[unit / static_cast<std::size_t>(reps)];
    const ScenarioResult& baseline =
        outcome.results[unit % static_cast<std::size_t>(reps)];  // same-rep baseline
    csv += std::to_string(scenario.id) + ',' + std::to_string(r.rep) + ',' +
           csv_cell(scenario.label, true);
    columns({Column::kLead}, &r, &baseline);
    for (const Axis& axis : spec.axes) {
      const util::JsonValue* value = scenario.find(axis.key());
      csv += ',';
      if (value != nullptr) {
        csv += csv_cell(value->is_string() ? value->as_string() : value->dump(), false);
      }
    }
    columns({Column::kBody, Column::kLast}, &r, &baseline);
    csv += '\n';
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
      std::snprintf(line, sizeof line, "  #%-4d %-48s %.9f s", id, scenarios[index].label.c_str(),
                    r.simulated_time);
      out += line;
      if (const auto speedup = speedup_vs_baseline(baseline, r)) {
        std::snprintf(line, sizeof line, "  (%.3fx)", *speedup);
        out += line;
      }
      out += wait_note(r);
    } else {
      const ScenarioAgg& agg = aggs[index];
      std::snprintf(line, sizeof line, "  #%-4d %-48s mean %.9f s +/- %.3g", id,
                    scenarios[index].label.c_str(), agg.stats.mean, agg.stats.stddev);
      out += line;
      if (!aggs[0].times.empty() && agg.stats.mean > 0) {
        std::snprintf(line, sizeof line, "  (%.3fx)", aggs[0].stats.mean / agg.stats.mean);
        out += line;
      }
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
  SMPI_REQUIRE(report.at("platform", "resume report").dump() == platform_json(spec).dump(),
               "campaign resume: report ran on a different base platform");
  const auto* workload = report.find("workload");
  SMPI_REQUIRE((workload != nullptr) == spec.has_workload,
               "campaign resume: report and spec disagree on the workload trace source");
  SMPI_REQUIRE(
      workload == nullptr || workload->dump() == workload_json(spec).dump(),
      "campaign resume: report ran a different workload (name/ranks/seed/phases changed)");

  std::vector<ScenarioResult> results(scenarios.size() * static_cast<std::size_t>(reps));
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].id = static_cast<int>(i) / reps;
    results[i].rep = static_cast<int>(i) % reps;
    results[i].error = "not present in the resumed report";
  }
  // An adopted run starts without the placeholder error.
  auto adopt = [&](const util::JsonValue& entry, std::size_t unit) {
    results[unit].error.clear();
    read_result_fields(entry, results[unit], ResultSource::kResumedReport);
  };
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
      adopt(row, index);
      continue;
    }
    for (const auto& entry : row.at("replications", "resume report row").items()) {
      const long long rep = entry.at("rep", "resume replication entry").as_int();
      SMPI_REQUIRE(rep >= 0 && rep < reps,
                   "campaign resume: replication index out of range");
      adopt(entry, index * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep));
    }
  }
  return results;
}

}  // namespace smpi::campaign
