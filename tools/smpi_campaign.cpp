// smpi_campaign — what-if sweeps over a captured TI trace or a synthetic
// workload.
//
//   smpirun --np 64 --cluster 64 --app ep --trace-ti ti_ep    # capture once
//   smpi_campaign --spec sweep.json --trace ti_ep --workers 8 \
//                 --out report.json --csv report.csv           # sweep cheaply
//
//   smpi_campaign --spec sweep.json --workload stencil.json    # no capture:
//                 # the trace is generated from the workload spec, and
//                 # workload_* axes regenerate it per scenario
//
//   smpi_campaign --spec sweep.json --trace ti_ep \
//                 --resume report.json --out report.json       # restart a
//                 # partially-failed sweep: scenarios already ok in the
//                 # prior report are adopted, the rest re-run
//
// The spec declares parameter axes (see src/campaign/spec.hpp for the full
// format); the tool executes baseline + cross-product through a fork-based
// worker pool and prints a ranked summary. A spec carrying "noise" and
// "replications": N runs every scenario N times under independent noise
// sub-seeds and reports per-scenario statistics (mean/stddev/quantiles/CI)
// plus a rank-stability verdict; --resume adopts completed replications
// individually. Exit code: 0 when every run succeeded, 1 on usage errors and
// on any other error (a bad spec, trace or resume report), 2 when any run
// failed.
#include <cstdio>
#include <fstream>
#include <string>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "trace/reader.hpp"
#include "util/json.hpp"
#include "util/units.hpp"
#include "workload/generate.hpp"

namespace {

struct Options {
  std::string spec_file;
  std::string trace_dir;       // overrides the spec's "trace"
  std::string workload_file;   // overrides the spec's "workload"
  std::string resume_file;     // prior report to adopt ok scenarios from
  int workers = 1;
  double timeout_s = 0;  // per-scenario watchdog (overrides the spec)
  std::string out_json;
  std::string out_csv;
  bool list_only = false;
  bool progress = false;
};

[[noreturn]] void usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "smpi_campaign: %s\n\n", error);
  std::fprintf(stderr,
               "usage: smpi_campaign --spec FILE [options]\n"
               "  --spec FILE       campaign spec (JSON; required)\n"
               "  --trace DIR       TI trace directory (overrides the spec)\n"
               "  --workload FILE   workload spec to generate the trace from\n"
               "                    (overrides the spec; excludes --trace)\n"
               "  --resume FILE     prior JSON report: adopt its ok scenarios,\n"
               "                    re-run only the missing/failed ones\n"
               "  --workers N       worker processes (default 1)\n"
               "  --timeout S       per-scenario wall-clock watchdog in seconds\n"
               "                    (overrides the spec's timeout_s; 0 = none)\n"
               "  --out FILE        write the JSON report to FILE\n"
               "  --csv FILE        write the CSV report to FILE\n"
               "  --list            print the scenario list and exit\n"
               "  --progress        print one line per finished scenario\n"
               "\n"
               "exit codes: 0 every run succeeded, 1 usage or other error,\n"
               "            2 at least one run failed\n");
  std::exit(1);
}

Options parse_options(int argc, char** argv) {
  Options options;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing value for option");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--spec") {
        options.spec_file = need_value(i);
      } else if (arg == "--trace") {
        options.trace_dir = need_value(i);
      } else if (arg == "--workload") {
        options.workload_file = need_value(i);
      } else if (arg == "--resume") {
        options.resume_file = need_value(i);
      } else if (arg == "--workers") {
        options.workers = smpi::util::parse_number<int>(need_value(i), arg);
      } else if (arg == "--timeout") {
        options.timeout_s = smpi::util::parse_number<double>(need_value(i), arg);
      } else if (arg == "--out") {
        options.out_json = need_value(i);
      } else if (arg == "--csv") {
        options.out_csv = need_value(i);
      } else if (arg == "--list") {
        options.list_only = true;
      } else if (arg == "--progress") {
        options.progress = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(nullptr);
      } else {
        usage(("unknown option '" + arg + "'").c_str());
      }
    } catch (const std::exception& e) {
      usage(e.what());
    }
  }
  if (options.spec_file.empty()) usage("--spec is required");
  if (options.workers < 1) usage("--workers must be >= 1");
  if (options.timeout_s < 0) usage("--timeout must be >= 0");
  if (!options.trace_dir.empty() && !options.workload_file.empty()) {
    usage("--trace and --workload are mutually exclusive");
  }
  return options;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "smpi_campaign: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << content;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  try {
    smpi::campaign::CampaignSpec spec =
        smpi::campaign::CampaignSpec::parse_file(options.spec_file);
    if (!options.trace_dir.empty()) {
      if (spec.has_workload) usage("--trace conflicts with the spec's \"workload\"");
      spec.trace_dir = options.trace_dir;
    }
    if (!options.workload_file.empty()) {
      if (!spec.trace_dir.empty()) usage("--workload conflicts with the spec's \"trace\"");
      spec.workload = smpi::workload::WorkloadSpec::parse_file(options.workload_file);
      spec.has_workload = true;
    }

    const auto scenarios = smpi::campaign::enumerate_scenarios(spec);
    if (options.list_only) {
      std::printf("campaign '%s': %zu scenarios\n", spec.name.c_str(), scenarios.size());
      for (const auto& scenario : scenarios) {
        std::printf("  #%-4d %s\n", scenario.id, scenario.label.c_str());
      }
      return 0;
    }

    if (spec.sweeps_workload() && !spec.has_workload) {
      usage("workload_* axes need a workload source (spec \"workload\" or --workload)");
    }
    smpi::trace::TiTrace trace;
    if (spec.has_workload) {
      trace = smpi::workload::generate_workload(spec.workload);
    } else {
      if (spec.trace_dir.empty()) {
        usage("no trace source (spec \"trace\"/\"workload\", --trace, or --workload)");
      }
      trace = smpi::trace::load_ti_trace(spec.trace_dir);
    }

    smpi::campaign::RunOptions run_options;
    run_options.workers = options.workers;
    run_options.progress = options.progress;
    run_options.timeout_s = options.timeout_s;
    if (!options.resume_file.empty()) {
      const auto report = smpi::util::parse_json_file(options.resume_file);
      run_options.resume = smpi::campaign::results_from_report(report, spec, scenarios);
      int ok = 0;
      for (const auto& r : run_options.resume) ok += r.ok ? 1 : 0;
      std::fprintf(stderr, "smpi_campaign: resuming — %d/%zu runs adopted from %s\n", ok,
                   run_options.resume.size(), options.resume_file.c_str());
    }
    const auto outcome = smpi::campaign::run_campaign(spec, scenarios, trace, run_options);

    if (!options.out_json.empty()) {
      write_file(options.out_json,
                 smpi::campaign::report_json(spec, scenarios, outcome).dump(2) + "\n");
    }
    if (!options.out_csv.empty()) {
      write_file(options.out_csv, smpi::campaign::report_csv(spec, scenarios, outcome));
    }
    std::fputs(smpi::campaign::report_summary(spec, scenarios, outcome).c_str(), stdout);

    for (const auto& result : outcome.results) {
      if (!result.ok) return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smpi_campaign: error: %s\n", e.what());
    return 1;
  }
}
