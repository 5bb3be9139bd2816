// perfbench_probe — the in-process half of the benchmark in this directory.
//
// It makes the same public library calls the shipped tools make, in the same
// order, for one kind of benchmark workload:
//
//   online    platform builder, SmpiWorld + apps::make_dt_app   (smpirun --app dt)
//   replay    WorkloadSpec::parse_file, generate_workload, write_trace
//             (smpi_workload --out), then load_ti_trace, platform builder,
//             replay_trace                                       (smpirun --replay)
//   campaign  CampaignSpec::parse_file, enumerate_scenarios, generate_workload,
//             run_campaign, report_json/csv/summary              (smpi_campaign)
//
// Two modes:
//   --mode setup  repeats the set-up calls (everything before the first
//                 simulated event but the trace write) untraced until
//                 --setup-seconds have passed and prints every sample (each
//                 the mean of a batch of calls lasting at least 50 ms), plus
//                 the cheap correctness facts the driver checks the tools'
//                 output against.
//   --mode trace  runs the workload once with a span around every call above
//                 and obs::Profiler installed, prints the per-layer counters,
//                 and writes the spans (name, start, end, parent, run) to
//                 --spans FILE at exit.
//
// The result is one JSON object on stdout. run.py owns every policy (sizes,
// seeds, medians, checks); this file only measures.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/dt.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "platform/builders.hpp"
#include "smpi/smpi.hpp"
#include "surf/cpu.hpp"
#include "surf/network.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "workload/generate.hpp"
#include "workload/spec.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string kind;      // online | replay | campaign
  std::string mode;      // setup | trace
  std::string spec;      // workload spec (replay) or campaign spec (campaign)
  std::string platform;  // griffon | gdx | flat:N
  std::string dt_class;  // online: S W A B C
  std::string dt_graph;  // online: WH BH SH
  int workers = 1;
  std::string work_dir;
  std::string spans_file;
  std::string trace_dir;  // setup mode, replay: the trace smpi_workload wrote
  double setup_seconds = 1.0;
};

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_probe: %s\n", message.c_str());
  std::exit(1);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) fail("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--kind") o.kind = value;
    else if (arg == "--mode") o.mode = value;
    else if (arg == "--spec") o.spec = value;
    else if (arg == "--platform") o.platform = value;
    else if (arg == "--dt-class") o.dt_class = value;
    else if (arg == "--dt-graph") o.dt_graph = value;
    else if (arg == "--workers") o.workers = std::stoi(value);
    else if (arg == "--work") o.work_dir = value;
    else if (arg == "--spans") o.spans_file = value;
    else if (arg == "--trace-dir") o.trace_dir = value;
    else if (arg == "--setup-seconds") o.setup_seconds = std::stod(value);
    else fail("unknown option " + arg);
  }
  if (o.kind != "online" && o.kind != "replay" && o.kind != "campaign") fail("bad --kind");
  if (o.mode != "setup" && o.mode != "trace") fail("bad --mode");
  if (o.work_dir.empty()) fail("--work is required");
  if (o.mode == "trace" && o.spans_file.empty()) fail("--spans is required in trace mode");
  if (o.mode == "setup" && o.kind == "replay" && o.trace_dir.empty()) {
    fail("--trace-dir is required in setup mode");
  }
  return o;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Set-up samples for --mode setup: calls `setup` until `seconds` have passed.
// Each sample is the mean call time over a batch of calls lasting at least
// kSetupBatchSeconds, so a sub-millisecond set-up is timed over many calls
// rather than between two clock reads.
constexpr double kSetupBatchSeconds = 0.05;

template <class Setup>
std::vector<double> time_setup(double seconds, Setup&& setup) {
  std::vector<double> samples;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  while (samples.empty() || Clock::now() < deadline) {
    const auto start = Clock::now();
    int calls = 0;
    double elapsed = 0;
    do {
      setup();
      ++calls;
      elapsed = seconds_since(start);
    } while (elapsed < kSetupBatchSeconds);
    samples.push_back(elapsed / calls);
  }
  return samples;
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

long long dir_bytes(const std::string& dir) {
  long long total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += static_cast<long long>(entry.file_size());
  }
  return total;
}

std::string exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// Flat JSON object builder: keys keep insertion order; numbers are printed
// with all their digits.
class JsonOut {
 public:
  void num(const std::string& key, double value) { fields_.push_back({key, exact(value)}); }
  void str(const std::string& key, const std::string& value) {
    fields_.push_back({key, "\"" + value + "\""});
  }
  void raw(const std::string& key, std::string json) { fields_.push_back({key, std::move(json)}); }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? ", " : "") + exact(values[i]);
  return out + "]";
}

// --- spans -------------------------------------------------------------------

// In-memory span recorder: one span per public call, nested by scope. A
// span's self time is its duration minus its children's, so the self times
// of one run tile the run's root span.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    int run = 0;
  };

  int begin(const std::string& name, int run) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, seconds_since(origin_), 0, parent, run});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = seconds_since(origin_);
    stack_.pop_back();
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start\": " << exact(s.start)
          << ", \"end\": " << exact(s.end) << ", \"parent\": " << s.parent
          << ", \"run\": " << s.run << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out.good()) fail("cannot write spans to " + path);
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Null tracer = untraced: the scope only runs the call.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, int run)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, run) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Run 0 is the workload as the tool runs it; run 1 holds the probe's own
// checks and comparisons, kept out of the workload's traced wall.
constexpr int kWorkloadRun = 0;
constexpr int kCheckRun = 1;

// --- workload pieces shared by both modes -------------------------------------

smpi::platform::Platform build_platform(const std::string& name) {
  if (name == "griffon") return smpi::platform::build_griffon();
  if (name == "gdx") return smpi::platform::build_gdx();
  if (name.rfind("flat:", 0) == 0) {
    smpi::platform::FlatClusterParams params;  // smpirun --cluster N defaults
    params.nodes = std::stoi(name.substr(5));
    return smpi::platform::build_flat_cluster(params);
  }
  fail("unknown --platform " + name);
}

smpi::apps::DtParams dt_params(const Options& o) {
  smpi::apps::DtParams params;
  const std::string classes = "SWABC";
  const auto cls = classes.find(o.dt_class);
  if (o.dt_class.size() != 1 || cls == std::string::npos) fail("bad --dt-class");
  params.cls = static_cast<smpi::apps::DtClass>(cls);
  if (o.dt_graph == "WH") params.graph = smpi::apps::DtGraph::kWhiteHole;
  else if (o.dt_graph == "BH") params.graph = smpi::apps::DtGraph::kBlackHole;
  else if (o.dt_graph == "SH") params.graph = smpi::apps::DtGraph::kShuffle;
  else fail("bad --dt-graph");
  return params;
}

// Profiler buckets, solver and smpi counters of one simulation.
struct SimCounters {
  smpi::obs::Profiler profiler;
  std::uint64_t solves = 0, vars_touched = 0, cons_touched = 0;
  std::uint64_t solves_attach = 0, solves_release = 0;
  smpi::core::P2pCounters p2p;
  double tracked_peak_mb = 0;
  double arena_mb = 0;
};

void add_solver(SimCounters& c, const smpi::surf::MaxMinSystem& solver) {
  c.solves += solver.solve_count();
  c.vars_touched += solver.vars_touched();
  c.cons_touched += solver.cons_touched();
  c.solves_attach += solver.observe_counters().solves_attach;
  c.solves_release += solver.observe_counters().solves_release;
}

void fill_from_replay(SimCounters& c, const smpi::trace::ReplayResult& r) {
  c.solves = r.solver_solves;
  c.vars_touched = r.solver_vars_touched;
  c.cons_touched = r.solver_cons_touched;
  c.solves_attach = r.surf_observe.solves_attach;
  c.solves_release = r.surf_observe.solves_release;
  c.p2p = r.p2p;
  c.arena_mb = static_cast<double>(r.arena_bytes) / (1024.0 * 1024.0);
}

void emit_sim(JsonOut& out, const SimCounters& c) {
  using smpi::obs::ProfKey;
  const auto& p = c.profiler;
  out.num("context_switches", static_cast<double>(p.stats(ProfKey::kContextSwitch).calls));
  out.num("switch_incl_s", p.stats(ProfKey::kContextSwitch).seconds);
  out.num("calendar_advances", static_cast<double>(p.stats(ProfKey::kCalendarAdvance).calls));
  out.num("calendar_incl_s", p.stats(ProfKey::kCalendarAdvance).seconds);
  out.num("pool_ops", static_cast<double>(p.stats(ProfKey::kPoolOp).calls));
  out.num("pool_s", p.stats(ProfKey::kPoolOp).seconds);
  out.num("solve_s", p.stats(ProfKey::kSolverSolve).seconds);
  out.num("solves", static_cast<double>(c.solves));
  out.num("vars_touched", static_cast<double>(c.vars_touched));
  out.num("cons_touched", static_cast<double>(c.cons_touched));
  out.num("solves_attach", static_cast<double>(c.solves_attach));
  out.num("solves_release", static_cast<double>(c.solves_release));
  out.num("pool_hits", static_cast<double>(c.p2p.pool_hits));
  out.num("pool_misses", static_cast<double>(c.p2p.pool_misses));
  out.num("eager_snapshots", static_cast<double>(c.p2p.eager_snapshots));
  out.num("eager_copy_elided", static_cast<double>(c.p2p.eager_copy_elided));
  out.num("bytes_not_copied", static_cast<double>(c.p2p.bytes_not_copied));
  out.num("tracked_peak_mb", c.tracked_peak_mb);
  out.num("arena_mb", c.arena_mb);
}

// RAII install of the profiler for exactly one simulation call.
class ProfilerInstall {
 public:
  explicit ProfilerInstall(smpi::obs::Profiler* profiler) { smpi::obs::install_profiler(profiler); }
  ~ProfilerInstall() { smpi::obs::clear_profiler(); }
  ProfilerInstall(const ProfilerInstall&) = delete;
  ProfilerInstall& operator=(const ProfilerInstall&) = delete;
};

// --- online: smpirun --machine M --app dt ------------------------------------

void online(const Options& o, Tracer* tracer, JsonOut& out) {
  const smpi::apps::DtParams params = dt_params(o);
  const int np = smpi::apps::dt_process_count(params.graph, params.cls);
  if (o.mode == "setup") {
    const auto samples = time_setup(o.setup_seconds, [&] {
      const auto platform = build_platform(o.platform);
      const smpi::core::SmpiConfig config;
      const smpi::core::SmpiWorld world(platform, config);
    });
    out.raw("setup_samples", json_array(samples));
    return;
  }

  SimCounters counters;
  double sim_time = 0, checksum = 0;
  {
    SpanScope root(tracer, "run", kWorkloadRun);
    smpi::platform::Platform platform;
    const double rss_before = rss_mb();
    {
      SpanScope span(tracer, "platform.build", kWorkloadRun);
      platform = build_platform(o.platform);
    }
    out.num("platform_build_rss_mb", rss_mb() - rss_before);
    {
      SpanScope span(tracer, "sim.run", kWorkloadRun);
      ProfilerInstall install(&counters.profiler);
      const smpi::core::SmpiConfig config;
      smpi::core::SmpiWorld world(platform, config);
      world.run(np, smpi::apps::make_dt_app(params));
      if (world.aborted()) fail("DT aborted");
      sim_time = world.simulated_time();
      counters.p2p = world.p2p_counters();
      counters.tracked_peak_mb =
          static_cast<double>(world.memory_report().folded_peak_bytes) / (1024.0 * 1024.0);
      if (auto* net = dynamic_cast<smpi::surf::FlowNetworkModel*>(&world.network())) {
        add_solver(counters, net->solver());
      }
      if (auto* cpu = dynamic_cast<smpi::surf::CpuModel*>(&world.cpu())) {
        add_solver(counters, cpu->solver());
      }
    }
    checksum = smpi::apps::dt_last_checksum();
    SpanScope teardown(tracer, "teardown", kWorkloadRun);
    platform = smpi::platform::Platform{};
  }
  double reference = 0;
  {
    SpanScope span(tracer, "check.dt_reference", kCheckRun);
    reference = smpi::apps::dt_reference_checksum(params);
  }
  out.str("sim_time", exact(sim_time));
  out.num("dt_checksum_ok", std::abs(checksum - reference) <= std::abs(reference) * 1e-12 ? 1 : 0);
  char text[64];
  std::snprintf(text, sizeof text, "%.6e", reference);
  out.str("dt_reference_checksum", text);
  emit_sim(out, counters);
}

// --- replay: smpi_workload --out DIR, then smpirun --replay DIR ----------------

void replay(const Options& o, Tracer* tracer, JsonOut& out) {
  const std::string trace_dir = o.work_dir + "/probe_trace";
  if (o.mode == "setup") {
    // The trace is read from the directory smpi_workload wrote: creating a
    // trace's files costs what the file system's state makes it cost, so
    // writing stays out of setup_s (trace.write_s in the traced pass has it).
    long long records = 0;
    const auto samples = time_setup(o.setup_seconds, [&] {
      const auto spec = smpi::workload::WorkloadSpec::parse_file(o.spec);
      const auto generated = smpi::workload::generate_workload(spec);
      const auto trace = smpi::trace::load_ti_trace(o.trace_dir);
      const auto platform = build_platform(o.platform);
      if (generated.total_records() != trace.total_records()) fail("generated != loaded records");
      records = trace.total_records();
    });
    out.raw("setup_samples", json_array(samples));
    out.num("records", static_cast<double>(records));
    return;
  }

  SimCounters counters;
  smpi::trace::ReplayResult result;
  long long generated = 0, bytes = 0, loaded = 0;
  {
    SpanScope root(tracer, "run", kWorkloadRun);
    smpi::workload::WorkloadSpec spec;
    {
      SpanScope span(tracer, "workload.parse", kWorkloadRun);
      spec = smpi::workload::WorkloadSpec::parse_file(o.spec);
    }
    smpi::trace::TiTrace trace;
    {
      SpanScope span(tracer, "workload.generate", kWorkloadRun);
      trace = smpi::workload::generate_workload(spec);
    }
    generated = trace.total_records();
    {
      SpanScope span(tracer, "trace.write", kWorkloadRun);
      smpi::workload::write_trace(trace, trace_dir);
    }
    {
      SpanScope span(tracer, "trace.free", kWorkloadRun);
      trace = smpi::trace::TiTrace{};  // smpi_workload exits here
    }
    {
      SpanScope span(tracer, "trace.load", kWorkloadRun);
      trace = smpi::trace::load_ti_trace(trace_dir);
    }
    loaded = trace.total_records();
    smpi::platform::Platform platform;
    const double rss_before = rss_mb();
    {
      SpanScope span(tracer, "platform.build", kWorkloadRun);
      platform = build_platform(o.platform);
    }
    out.num("platform_build_rss_mb", rss_mb() - rss_before);
    {
      SpanScope span(tracer, "sim.run", kWorkloadRun);
      ProfilerInstall install(&counters.profiler);
      const smpi::core::SmpiConfig config;
      result = smpi::trace::replay_trace(platform, config, trace);
    }
    if (result.aborted) fail("replay aborted");
    SpanScope teardown(tracer, "teardown", kWorkloadRun);
    platform = smpi::platform::Platform{};
    trace = smpi::trace::TiTrace{};
  }
  bytes = dir_bytes(trace_dir);
  std::filesystem::remove_all(trace_dir);
  fill_from_replay(counters, result);
  out.str("sim_time", exact(result.simulated_time));
  out.num("generated_records", static_cast<double>(generated));
  out.num("loaded_records", static_cast<double>(loaded));
  out.num("replayed_records", static_cast<double>(result.records));
  out.num("trace_bytes", static_cast<double>(bytes));
  emit_sim(out, counters);
}

// --- campaign: smpi_campaign --spec FILE --workers N --out FILE ---------------

smpi::trace::ReplayResult replay_scenario(const smpi::campaign::CampaignSpec& spec,
                                          const smpi::campaign::Scenario& scenario,
                                          const smpi::trace::TiTrace& trace, bool collect) {
  const auto setup = smpi::campaign::materialize(spec, scenario, trace.nranks);
  smpi::trace::ReplayOptions options;
  options.payload_free = setup.payload_free;
  options.analyze = collect && spec.analysis;
  smpi::obs::ResourceCollector resources;
  if (collect && spec.resources) options.resources = &resources;
  return smpi::trace::replay_trace(setup.platform, setup.config, trace, options);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void campaign(const Options& o, Tracer* tracer, JsonOut& out) {
  using namespace smpi::campaign;
  if (o.mode == "setup") {
    CampaignSpec spec;
    std::vector<Scenario> scenarios;
    smpi::trace::TiTrace trace;
    const auto samples = time_setup(o.setup_seconds, [&] {
      spec = CampaignSpec::parse_file(o.spec);
      scenarios = enumerate_scenarios(spec);
      trace = smpi::workload::generate_workload(spec.workload);
    });
    out.raw("setup_samples", json_array(samples));
    out.num("scenarios", static_cast<double>(scenarios.size()));
    const auto direct = replay_scenario(spec, scenarios[0], trace, true);
    out.str("scenario0_sim_time", exact(direct.simulated_time));
    return;
  }

  CampaignSpec spec;
  std::vector<Scenario> scenarios;
  smpi::trace::TiTrace trace;
  CampaignOutcome outcome;
  {
    SpanScope root(tracer, "run", kWorkloadRun);
    {
      SpanScope span(tracer, "campaign.spec", kWorkloadRun);
      spec = CampaignSpec::parse_file(o.spec);
      scenarios = enumerate_scenarios(spec);
    }
    {
      SpanScope span(tracer, "workload.generate", kWorkloadRun);
      trace = smpi::workload::generate_workload(spec.workload);
    }
    {
      SpanScope span(tracer, "campaign.run", kWorkloadRun);
      RunOptions options;
      options.workers = o.workers;
      outcome = run_campaign(spec, scenarios, trace, options);
    }
    SpanScope span(tracer, "campaign.report", kWorkloadRun);
    std::ofstream(o.work_dir + "/probe_report.json")
        << report_json(spec, scenarios, outcome).dump(2) << "\n";
    const std::string csv = report_csv(spec, scenarios, outcome);
    const std::string summary = report_summary(spec, scenarios, outcome);
    if (csv.empty() || summary.empty()) fail("empty campaign report");
  }

  // Checks and per-layer probes on scenario 0, outside the workload's run:
  // a direct in-process replay (profiled, collectors as the campaign runs
  // them), then collectors on vs off, unprofiled, to price the collection.
  SimCounters counters;
  smpi::trace::ReplayResult direct;
  {
    SpanScope span(tracer, "check.scenario0_replay", kCheckRun);
    ProfilerInstall install(&counters.profiler);
    const auto start = Clock::now();
    direct = replay_scenario(spec, scenarios[0], trace, true);
    out.num("scenario0_run_s", seconds_since(start));
  }
  fill_from_replay(counters, direct);
  std::vector<double> on, off;
  {
    SpanScope span(tracer, "check.collect_overhead", kCheckRun);
    for (int rep = 0; rep < 7; ++rep) {
      for (bool collect : {true, false}) {
        const auto start = Clock::now();
        replay_scenario(spec, scenarios[0], trace, collect);
        (collect ? on : off).push_back(seconds_since(start));
      }
    }
  }

  std::vector<double> scenario_wall;
  int ok = 0, retries = 0, timed_out = 0;
  for (const auto& r : outcome.results) {
    scenario_wall.push_back(r.wall_s);
    ok += r.ok ? 1 : 0;
    retries += r.retries;
    timed_out += r.timed_out ? 1 : 0;
  }
  out.num("scenarios", static_cast<double>(scenarios.size()));
  out.num("scenarios_ok", ok);
  out.num("retries", retries);
  out.num("timed_out", timed_out);
  out.num("workers", outcome.workers);
  out.num("campaign_wall_s", outcome.wall_s);
  out.raw("scenario_wall_s", json_array(scenario_wall));
  out.num("records", static_cast<double>(trace.total_records()));
  out.str("scenario0_sim_time", exact(outcome.results.at(0).simulated_time));
  out.str("sim_time", exact(direct.simulated_time));
  out.num("collect_overhead_s", median(on) - median(off));
  emit_sim(out, counters);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  std::filesystem::create_directories(o.work_dir);
  std::unique_ptr<Tracer> tracer;
  if (o.mode == "trace") tracer = std::make_unique<Tracer>();
  JsonOut out;
  try {
    if (o.kind == "online") online(o, tracer.get(), out);
    else if (o.kind == "replay") replay(o, tracer.get(), out);
    else campaign(o, tracer.get(), out);
  } catch (const std::exception& e) {
    fail(e.what());
  }
  if (tracer) tracer->write(o.spans_file);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
