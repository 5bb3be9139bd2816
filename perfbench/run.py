#!/usr/bin/env python3
"""The simulator's benchmark: user-level SMPI runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the library,
the three CLI tools and the in-process probe (perfbench/probe.cpp) into
a directory of its own under $CARGO_TARGET_DIR (default .bench_build);
scratch files go to .bench_work.

--trace 0  runs the workload's user-level command (smpirun, smpi_workload,
           smpi_campaign) one child process at a time, untraced, for S
           seconds, plus the probe's set-up timing; prints the end-to-end
           metrics.
--trace 1  runs the same commands for S/2 seconds, then the probe's traced
           pass (spans around every public call, obs::Profiler installed);
           prints the per-layer metrics and the layer report, and writes the
           spans to .bench_work/<workload>/spans.json.

Every output is checked (see README.md). The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every check passed. --toy shrinks every workload to seconds for
the self-test (selftest.py) and turns the stored-reference checks off.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import threading
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
GDX_WORKLOAD_SEED = 1
OP_TIMEOUT_S = 120
SETUP_SECONDS = 4.0  # per run, in SETUP_SLICES slices spread over the run
SETUP_SLICES = 5
MIN_OPS = 3
SPAN_CLOCK_S = 1e-9  # span timestamps' resolution
SPIN_LOOP = 100000  # about 5 ms of Python per CPU probed
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
SPIN_TIMES = []  # the fastest CPU's spin-loop time, per fastest_cpu() call
TOOLS = ["smpirun", "smpi_workload", "smpi_campaign"]

# Metric name -> unit, and the workloads, in the order BENCHMARK.json declares them.
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


class Checks:
    """Counts operations, and the ones whose output failed any check.

    An operation is one user-level run, one campaign scenario or one probe
    run; check() calls between two done() calls belong to one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self._bad = False

    def check(self, ok, what):
        if not ok:
            self._bad = True
            self.messages.append(what)
        return ok

    def done(self, count=1, failed=0):
        """Closes an operation, or `count` scenarios of which `failed` failed."""
        self.attempted += count
        self.failed += count if self._bad else failed
        self._bad = False


# --- inputs -------------------------------------------------------------------

def stencil_phase(iterations, nbytes):
    return {"pattern": "stencil2d", "iterations": iterations, "bytes": nbytes,
            "compute": {"flops": 2e6, "imbalance": 0.2, "jitter": 0.05}}


def workload_seed(seed):
    return seed % 1000000007


def make_inputs(name, seed, toy):
    """The workload's input files and parameters, all derived from `seed`."""
    if name == "online_dt_b":
        # smpirun exposes no DT seed: the input is the same for every seed.
        return {"dt_class": "S" if toy else "B", "dt_graph": "SH", "platform": "griffon"}
    if name == "genreplay_stencil_1024":
        ranks = 64 if toy else 1024
        spec = {"name": "stencil_%d" % ranks, "ranks": ranks, "seed": workload_seed(seed),
                "phases": [stencil_phase(10, 16384),
                           {"pattern": "reduce_bcast", "bytes": 8, "root": 0}]}
        return {"spec": spec, "platform": "flat:%d" % ranks,
                "replay_args": ["--cluster", ranks]}
    if name == "replay_alltoall_gdx_128":
        # The solver's cost depends on the ranks' arrival pattern at the
        # alltoall, which the workload seed draws: 1.6-4.8 s across seeds 1-5
        # (README.md). So the workload seed stays fixed and --seed varies the
        # stencil halo size, which changes the input but not the solver load.
        ranks = 16 if toy else 128
        halo = 65536 + 4096 * ((seed + 1) % 5 - 2)
        spec = {"name": "alltoall_stencil_%d" % ranks, "ranks": ranks, "seed": GDX_WORKLOAD_SEED,
                "phases": [{"pattern": "alltoall", "iterations": 1, "bytes": 16384,
                            "compute": {"flops": 1e6, "imbalance": 0.1, "jitter": 0.05}},
                           stencil_phase(4, halo)]}
        return {"spec": spec, "platform": "gdx", "replay_args": ["--machine", "gdx"]}
    if name == "campaign_small_sweep":
        ranks = 16 if toy else 64
        rng = random.Random(seed)
        seeds = rng.sample(range(1, 1 << 30), 2 if toy else 8)
        bandwidths = [0.5, 2] if toy else [0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4]
        nodes = [8, 16] if toy else [16, 32, 48, 64, 96, 128]
        spec = {"name": "small_sweep",
                "workload": {"name": "stencil_%d" % ranks, "ranks": ranks,
                             "seed": workload_seed(seed), "phases": [stencil_phase(5, 16384)]},
                "platform": {"kind": "flat"},
                "axes": [{"param": "link_bandwidth_scale", "values": bandwidths},
                         {"param": "topology_nodes", "values": nodes},
                         {"param": "workload_seed", "values": seeds}]}
        workers = max(1, min(2, os.cpu_count() or 1))
        return {"spec": spec, "workers": workers,
                "scenarios": 1 + len(seeds) * len(bandwidths) * len(nodes)}
    raise ValueError(name)


# Workload -> the probe's kind of run.
KIND = {"online_dt_b": "online", "genreplay_stencil_1024": "replay",
        "replay_alltoall_gdx_128": "replay", "campaign_small_sweep": "campaign"}


# --- build --------------------------------------------------------------------

def build_dir():
    """$CARGO_TARGET_DIR (default .bench_build)/perfbench-<key of this checkout>.

    The benchmark builds only into a subdirectory of its own, one per source
    checkout, so it never reuses or deletes a tree configured elsewhere."""
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    base = path if path.is_absolute() else ROOT / path
    return base / ("perfbench-" + hashlib.sha256(str(BENCH_DIR).encode()).hexdigest()[:12])


def build():
    """Configures (once) and builds the tools and the probe; returns bin paths."""
    for required in ("CMakeLists.txt", "src", "tools"):
        if not (ROOT / required).exists():
            sys.exit("run.py: %s is not a source checkout (no %s)" % (ROOT, required))
    out = build_dir()
    cache = out / "CMakeCache.txt"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench_build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log, "w") as sink:
        steps = [] if cache.exists() else [["cmake", "-S", str(BENCH_DIR), "-B", str(out)]]
        steps.append(["cmake", "--build", str(out), "-j", jobs,
                      "--target", "perfbench_probe", *TOOLS])
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit("run.py: build failed (log: %s)" % log)
    bins = {name: out / "smpi" / name for name in TOOLS}
    bins["probe"] = out / "perfbench_probe"
    return bins


# --- child processes ----------------------------------------------------------

def spawn(cmd, cwd, cpu=None):
    """Runs one child to exit: (exit code, stdout, wall s, peak RSS MiB).

    The wall time runs from spawn to exit. wait4 reports the child's peak
    RSS including the children it reaped itself, so a campaign's figure is
    the maximum over the parent and its workers. A child still running after
    OP_TIMEOUT_S is killed and reported with a negative exit code. With
    `cpu`, the child runs pinned to that CPU."""
    out_path = cwd / "child_stdout.txt"
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    with open(out_path, "w") as out, open(cwd / "child_stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], cwd=cwd, stdout=out, stderr=err,
                                preexec_fn=pin)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return proc.returncode, out_path.read_text(), wall, usage.ru_maxrss / 1024.0


def fastest_cpu():
    """The allowed CPU that runs a fixed spin loop fastest right now.

    On a shared host other tenants slow some vCPUs and not others, and which
    ones changes every second or so. The set-up probe runs pinned to the
    fastest one: over ten runs of online_dt_b, this narrowed setup_s's
    spread (IQR over median) from 0.36 to 0.06, while pinning the operations
    left wall_s's spread unchanged (0.04), so they run unpinned."""
    spin = {}
    for cpu in ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        total = 0
        for i in range(SPIN_LOOP):
            total += i
        spin[cpu] = time.perf_counter() - start
    os.sched_setaffinity(0, ALLOWED_CPUS)
    SPIN_TIMES.append(min(spin.values()))
    return min(spin, key=spin.get)


def settle_disk():
    """Waits for the writes and deletions so far to reach the disk, so that
    their cost lands before the next timing instead of inside it."""
    os.sync()


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def fmt9(exact_text):
    """The %.9f form smpirun prints, of a %.17g-printed double."""
    return "%.9f" % float(exact_text)


# --- one benchmark run ----------------------------------------------------------

class Bench:
    def __init__(self, name, seed, toy, bins):
        self.name = name
        self.kind = KIND[name]
        self.bins = bins
        self.inputs = make_inputs(name, seed, toy)
        self.checks = Checks()
        # The previous run's scratch files go; the directory stays.
        self.work = ROOT / ".bench_work" / name
        self.work.mkdir(parents=True, exist_ok=True)
        for leftover in self.work.iterdir():
            if leftover.is_dir():
                shutil.rmtree(leftover)
            else:
                leftover.unlink()
        settle_disk()
        self.spec_path = self.work / "spec.json"
        if "spec" in self.inputs:
            self.spec_path.write_text(json.dumps(self.inputs["spec"], indent=1) + "\n")
        self.trace_dir = self.work / "ti_trace"
        self.report_path = self.work / "report.json"
        references = json.loads((BENCH_DIR / "reference.json").read_text())
        self.dt_checksums = references["dt_checksum"]
        self.reference = references[name] if seed == DEFAULT_SEED and not toy else None
        # Facts every repetition must reproduce: the first one sets them.
        self.records = None
        self.sim_time = None         # %.9f text as smpirun prints it
        self.scenario0 = None        # %.17g text, campaign scenario 0
        self.sweep_digest = None     # sha256 over every scenario's time

    def probe(self, mode, extra=(), cpu=None):
        cmd = [self.bins["probe"], "--kind", self.kind, "--mode", mode, "--work", self.work]
        if self.kind == "online":
            cmd += ["--platform", self.inputs["platform"], "--dt-class", self.inputs["dt_class"],
                    "--dt-graph", self.inputs["dt_graph"]]
        elif self.kind == "replay":
            cmd += ["--spec", self.spec_path, "--platform", self.inputs["platform"]]
        else:
            cmd += ["--spec", self.spec_path, "--workers", self.inputs["workers"]]
        code, out, _, _ = spawn(cmd + list(extra), self.work, cpu)
        result = last_json(out) if code == 0 else None
        self.checks.check(result is not None, "probe --mode %s exited %s" % (mode, code))
        return result

    def same(self, attr, value, what):
        """Checks `value` against the first one seen for `attr`."""
        first = getattr(self, attr)
        if first is None:
            setattr(self, attr, value)
            return True
        return self.checks.check(first == value, "%s: %s != %s" % (what, value, first))

    def check_sim_time(self, text):
        self.same("sim_time", text, "simulated time differs between runs")
        if self.reference is not None:
            expected = fmt9(self.reference["sim_time"])
            self.checks.check(text == expected,
                              "simulated time %s != reference %s" % (text, expected))

    # Each op is one user-level run: returns (wall s, peak RSS MiB) and counts
    # itself (and, for the campaign, each scenario) in self.checks.

    def op_online(self):
        i = self.inputs
        code, out, wall, rss = spawn([self.bins["smpirun"], "--machine", i["platform"], "--app",
                                      "dt", "--class", i["dt_class"], "--graph", i["dt_graph"],
                                      "--verbose"], self.work)
        time_m = re.search(r"simulated execution time: ([0-9.]+) s", out)
        sum_m = re.search(r"dt checksum: (\S+)", out)
        expected = self.dt_checksums[i["dt_class"] + "/" + i["dt_graph"]]
        if self.checks.check(code == 0 and time_m is not None, "smpirun dt exited %s" % code):
            self.check_sim_time(time_m.group(1))
            self.checks.check(sum_m is not None and sum_m.group(1) == expected,
                              "DT checksum %s != dt_reference_checksum %s"
                              % (sum_m and sum_m.group(1), expected))
        self.checks.done()
        return wall, rss

    def prepare(self):
        """Writes the trace the replay workloads' operations read, untimed.

        On this kind of host, creating a trace's files (one per rank) costs
        0.05 s or 0.5 s depending on the file system's state, not on the
        program, so the timed operation starts after it (see README.md)."""
        if self.kind != "replay":
            return
        code, out, _, _ = spawn([self.bins["smpi_workload"], "--spec", self.spec_path,
                                 "--out", self.trace_dir], self.work)
        m = re.search(r"wrote (\d+) records", out)
        if self.checks.check(code == 0 and m is not None, "smpi_workload exited %s" % code):
            self.same("records", int(m.group(1)), "generated record count")
        self.checks.done()
        settle_disk()

    def op_replay(self):
        code, out, wall, rss = spawn([self.bins["smpirun"], "--replay", self.trace_dir,
                                      *self.inputs["replay_args"]], self.work)
        time_m = re.search(r"simulated execution time: ([0-9.]+) s", out)
        rec_m = re.search(r"replayed (\d+) records", out)
        if self.checks.check(code == 0 and time_m is not None and rec_m is not None,
                             "smpirun --replay exited %s" % code):
            self.check_sim_time(time_m.group(1))
            self.same("records", int(rec_m.group(1)), "replayed vs generated record count")
        self.checks.done()
        return wall, rss

    def op_campaign(self):
        n = self.inputs["scenarios"]
        self.report_path.unlink(missing_ok=True)
        code, _, wall, rss = spawn([self.bins["smpi_campaign"], "--spec", self.spec_path,
                                    "--workers", self.inputs["workers"],
                                    "--out", self.report_path], self.work)
        rows = []
        if code == 0 and self.report_path.exists():
            rows = sorted(json.loads(self.report_path.read_text())["scenarios"],
                          key=lambda r: r["id"])
        if not self.checks.check(len(rows) == n, "smpi_campaign exited %s with %d/%d scenarios"
                                 % (code, len(rows), n)):
            self.checks.done(n)
            return wall, rss
        bad = [r["id"] for r in rows
               if not r["ok"] or r.get("retries", 0) or r.get("timed_out", False)]
        if bad:
            self.checks.messages.append("scenarios not ok or retried: %s" % bad[:10])
        times = "\n".join("%.17g" % r["simulated_time"] for r in rows)
        self.same("sweep_digest", hashlib.sha256(times.encode()).hexdigest(),
                  "scenario times differ between runs")
        self.same("scenario0", "%.17g" % rows[0]["simulated_time"],
                  "scenario 0 vs direct in-process replay")
        if self.reference is not None:
            self.checks.check(self.sweep_digest == self.reference["sweep_sha256"],
                              "scenario times differ from the reference")
            self.checks.check(self.scenario0 == self.reference["scenario0_sim_time"],
                              "scenario 0 time %s != reference %s"
                              % (self.scenario0, self.reference["scenario0_sim_time"]))
        self.checks.done(n, len(bad))
        return wall, rss

    def cleanup(self):
        """Deletes the run's trace directory, after every timing."""
        shutil.rmtree(self.trace_dir, ignore_errors=True)
        settle_disk()

    def op(self):
        return {"online": self.op_online, "replay": self.op_replay,
                "campaign": self.op_campaign}[self.kind]()

    def measure(self, seconds, with_setup):
        """Runs ops back to back for `seconds`: returns the op walls, their
        peak RSS and, with `with_setup`, one setup_s sample per slice. A
        slice of set-up timing runs before the first op and then every
        seconds / SETUP_SLICES, so setup_s samples the same stretch of host
        time as wall_s."""
        walls, rss, setup = [], [], []
        start = time.perf_counter()
        next_slice = start
        while True:
            if with_setup and time.perf_counter() >= next_slice:
                setup += self.setup_slice()
                next_slice += seconds / SETUP_SLICES
            wall, peak = self.op()
            walls.append(wall)
            rss.append(peak)
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_OPS and (elapsed >= seconds or
                                          elapsed + statistics.median(walls) > 1.1 * seconds):
                return walls, rss, setup

    def setup_slice(self):
        """One setup_s sample from the probe, and the facts it checks ops against.

        The probe times the set-up in batches of calls lasting at least 50 ms
        each, for the slice's share of SETUP_SECONDS. The sample is the
        slice's fastest batch: on a shared host other tenants slow a vCPU by
        up to 1.7x for stretches of a second or so, and the fastest batch is
        the one they disturbed least (as timeit's documentation advises). The
        run reports the median over its slices."""
        extra = ["--setup-seconds", SETUP_SECONDS / SETUP_SLICES]
        if self.kind == "replay":
            extra += ["--trace-dir", self.trace_dir]
        result = self.probe("setup", extra, fastest_cpu())
        if result is not None and self.kind == "replay":
            self.same("records", int(result["records"]), "probe vs tool record count")
        if result is not None and self.kind == "campaign":
            self.same("scenario0", result["scenario0_sim_time"],
                      "scenario 0 vs direct in-process replay")
            self.checks.check(int(result["scenarios"]) == self.inputs["scenarios"],
                              "enumerated scenario count")
        self.checks.done()
        return [min(result["setup_samples"])] if result is not None else []

    def traced(self, untraced_wall):
        """The traced pass: per-layer metrics and the layer report lines."""
        spans_path = self.work / "spans.json"
        result = self.probe("trace", ["--spans", spans_path])
        if result is None:
            self.checks.done()
            return {}, []
        spans = json.loads(spans_path.read_text())
        problems = validate_spans(spans)
        self.checks.check(not problems, "malformed spans: %s" % problems[:3])
        self.check_traced(result)
        self.checks.done()
        return layer_metrics(self, result, spans, untraced_wall)

    def check_traced(self, p):
        """Traced in-process results against the untraced tools' and the references."""
        check = self.checks.check
        if self.kind == "campaign":
            check(p["scenarios_ok"] == p["scenarios"] == self.inputs["scenarios"]
                  and p["retries"] == 0 and p["timed_out"] == 0,
                  "traced campaign: %d/%d ok" % (p["scenarios_ok"], p["scenarios"]))
            check(p["sim_time"] == p["scenario0_sim_time"], "scenario 0 %s != direct replay %s"
                  % (p["scenario0_sim_time"], p["sim_time"]))
            self.same("scenario0", p["scenario0_sim_time"], "traced vs untraced scenario 0")
            return
        self.same("sim_time", fmt9(p["sim_time"]), "traced vs untraced simulated time")
        if self.reference is not None:
            check(p["sim_time"] == self.reference["sim_time"],
                  "traced simulated time %s != reference %s"
                  % (p["sim_time"], self.reference["sim_time"]))
        if self.kind == "online":
            check(p["dt_checksum_ok"] == 1, "DT checksum != dt_reference_checksum")
            key = self.inputs["dt_class"] + "/" + self.inputs["dt_graph"]
            check(p["dt_reference_checksum"] == self.dt_checksums[key],
                  "stored DT checksum != dt_reference_checksum")
        else:
            check(p["generated_records"] == p["loaded_records"] == p["replayed_records"],
                  "records generated %d / loaded %d / replayed %d"
                  % (p["generated_records"], p["loaded_records"], p["replayed_records"]))
            self.same("records", int(p["replayed_records"]), "traced vs untraced record count")


# --- spans and layers -------------------------------------------------------------

def validate_spans(spans):
    """Problems with a span list: fields, ordering, nesting, sibling overlap
    under every parent, and negative self times."""
    problems = []
    keys = {"id", "name", "start", "end", "parent", "run"}
    for i, s in enumerate(spans):
        if set(s) != keys or s["id"] != i:
            return ["span %d has fields %s" % (i, sorted(s))]
        if not s["end"] >= s["start"] >= 0:
            problems.append("span %d ends before it starts" % i)
        if s["parent"] >= 0:
            p = spans[s["parent"]] if s["parent"] < i else None
            if p is None or p["run"] != s["run"] or not (
                    p["start"] <= s["start"] and s["end"] <= p["end"]):
                problems.append("span %d is not inside its parent" % i)
    if problems:
        return problems
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for parent, siblings in children.items():
        siblings.sort(key=lambda s: s["start"])
        for a, b in zip(siblings, siblings[1:]):
            if parent >= 0 and b["start"] < a["end"]:
                problems.append("spans %d and %d overlap" % (a["id"], b["id"]))
    # Nested, non-overlapping children leave every self time >= 0, so the
    # self times of each run's spans tile its root span.
    for span_id, own in self_times(spans).items():
        if own < -SPAN_CLOCK_S:
            problems.append("span %d has self time %.3g s < 0" % (span_id, own))
    if not any(s["parent"] < 0 and s["run"] == 0 for s in spans):
        problems.append("no root span for run 0")
    return problems


def self_times(spans):
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(bench, p, spans, untraced_wall):
    run0 = [s for s in spans if s["run"] == 0]
    root = next(s for s in run0 if s["parent"] < 0)
    traced_wall = root["end"] - root["start"]

    def total(name):
        return sum(s["end"] - s["start"] for s in run0 if s["name"] == name)

    campaign = bench.kind == "campaign"
    m = {name: 0.0 for name in PER_LAYER}
    m["platform.build_s"] = total("platform.build")
    m["platform.build_rss_mb"] = p.get("platform_build_rss_mb", 0.0)
    m["trace.write_s"] = total("trace.write")
    m["trace.load_s"] = total("trace.load")
    m["trace.bytes"] = p.get("trace_bytes", 0.0)
    m["trace.records"] = p.get("generated_records", p.get("records", 0.0))
    m["workload.generate_s"] = total("workload.generate")
    # The campaign's simulations run in its workers: its sim/surf/smpi
    # figures come from the probe's in-process replay of scenario 0.
    m["sim.run_s"] = p["scenario0_run_s"] if campaign else total("sim.run")
    for key in ("context_switches", "switch_incl_s", "calendar_advances", "calendar_incl_s",
                "pool_ops", "pool_s"):
        m["sim." + key] = p[key]
    m["sim.unprofiled_s"] = m["sim.run_s"] - p["calendar_incl_s"] - p["switch_incl_s"]
    m["sim.unattributed_share"] = m["sim.unprofiled_s"] / m["sim.run_s"] if m["sim.run_s"] else 0
    for key in ("solves", "vars_touched", "cons_touched", "solve_s", "solves_attach",
                "solves_release"):
        m["surf." + key] = p[key]
    m["surf.vars_per_solve"] = p["vars_touched"] / p["solves"] if p["solves"] else 0.0
    for key in ("pool_hits", "pool_misses", "eager_snapshots", "eager_copy_elided",
                "bytes_not_copied", "tracked_peak_mb", "arena_mb"):
        m["smpi." + key] = p[key]
    pool_ops = p["pool_hits"] + p["pool_misses"]
    m["smpi.pool_hit_ratio"] = p["pool_hits"] / pool_ops if pool_ops else 0.0
    if campaign:
        walls = p["scenario_wall_s"]
        capacity = p["workers"] * p["campaign_wall_s"]
        m["campaign.spec_s"] = total("campaign.spec")
        m["campaign.scenarios"] = p["scenarios"]
        m["campaign.scenario_p50_s"] = statistics.median(walls)
        m["campaign.scenario_p90_s"] = statistics.quantiles(walls, n=10)[8]
        m["campaign.busy_s"] = sum(walls)
        m["campaign.pool_overhead_s"] = capacity - m["campaign.busy_s"]
        m["campaign.pool_efficiency"] = m["campaign.busy_s"] / capacity
        m["campaign.report_s"] = total("campaign.report")
        m["campaign.retries"] = p["retries"]
        m["campaign.timed_out"] = p["timed_out"]
        m["obs.collect_overhead_s"] = p["collect_overhead_s"]
    m["tracing.traced_wall_s"] = traced_wall
    m["tracing.overhead_s"] = traced_wall - untraced_wall
    m["tracing.overhead_ratio"] = m["tracing.overhead_s"] / untraced_wall
    m["tracing.spans"] = len(spans)
    return m, layer_report(bench, run0, traced_wall, untraced_wall, m)


def layer_report(bench, run0, traced_wall, untraced_wall, m):
    own = self_times(run0)
    lines = ["layer report (traced pass; self time = span minus its children):",
             "  %-22s %9s %9s %7s" % ("span", "incl_s", "self_s", "share")]
    for s in run0:
        lines.append("  %-22s %9.4f %9.4f %6.1f%%" % (
            ("  " if s["parent"] >= 0 else "") + s["name"], s["end"] - s["start"],
            own[s["id"]], 100 * own[s["id"]] / traced_wall))
    lines.append("  self times sum to %.6f s of traced wall %.6f s"
                 % (sum(own.values()), traced_wall))
    run_s = m["sim.run_s"]
    if run_s:
        lines.append("  sim.run_s %.4f s = calendar %.4f + switch %.4f + unprofiled %.4f s;"
                     " the profiler leaves %.1f%% unattributed (solver %.4f s inside)"
                     % (run_s, m["sim.calendar_incl_s"], m["sim.switch_incl_s"],
                        m["sim.unprofiled_s"], 100 * m["sim.unattributed_share"],
                        m["surf.solve_s"]))
    lines.append("  tracing overhead: traced wall %.4f s vs untraced wall_s %.4f s (%+.1f%%)"
                 % (traced_wall, untraced_wall, 100 * m["tracing.overhead_ratio"]))
    prediction = {
        "online_dt_b": ("surf.solve_s < 5%% of wall_s (%.2f%%)"
                        % (100 * m["surf.solve_s"] / untraced_wall),
                        m["surf.solve_s"] < 0.05 * untraced_wall),
        "replay_alltoall_gdx_128": ("surf.solve_s is the largest layer (%.0f%% of sim.run_s)"
                                    % (100 * m["surf.solve_s"] / run_s),
                                    m["surf.solve_s"] > 0.5 * run_s),
        "campaign_small_sweep": ("campaign.pool_efficiency < 1 (%.3f)"
                                 % m["campaign.pool_efficiency"],
                                 m["campaign.pool_efficiency"] < 1),
    }.get(bench.name)
    if bench.name == "genreplay_stencil_1024":
        setup = traced_wall - run_s - sum(own[s["id"]] for s in run0
                                          if s["name"] in ("teardown", "run"))
        share = (m["platform.build_s"] + m["trace.load_s"]) / setup
        prediction = ("platform.build_s + trace.load_s are %.0f%% of traced set-up" % (100 * share),
                      share > 0.25)
    if prediction:
        lines.append("  prediction: %s: %s" % (prediction[0],
                                                "holds" if prediction[1] else "DOES NOT HOLD"))
    return lines


# --- main ------------------------------------------------------------------------

def summary_line(name, values, unit):
    q1, q3 = quartiles(values)
    return "  %-13s median %.6g %s  q1 %.6g  q3 %.6g  n=%d" % (
        name, statistics.median(values), unit, q1, q3, len(values))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    bins = build()
    bench = Bench(args.workload, args.seed, args.toy, bins)
    print("workload %s, seed %d%s" % (args.workload, args.seed,
                                      "" if bench.reference is None else
                                      " (default seed: reference times checked)"))
    metrics = {}
    bench.prepare()
    if args.trace == 0:
        walls, rss, setup = bench.measure(args.seconds, with_setup=True)
        values = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
        if setup:  # empty when the probe failed, which the checks count
            for name, unit in END_TO_END.items():
                print(summary_line(name, values[name], unit))
            metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                       for name, unit in END_TO_END.items()}
        # Host speed, for comparing runs made at different times: the same
        # Python loop's time moves with other tenants' load, as every timing does.
        print("host spin loop (fastest CPU): median %.2f ms over %d probes"
              % (1000 * statistics.median(SPIN_TIMES), len(SPIN_TIMES)))
    else:
        walls, _, _ = bench.measure(args.seconds / 2, with_setup=False)
        print(summary_line("wall_s", walls, "s"))
        layers, report = bench.traced(statistics.median(walls))
        print("\n".join(report))
        if layers:
            layers["failed_ratio"] = bench.checks.failed / max(1, bench.checks.attempted)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
            for name, entry in metrics.items():
                print("  %-28s %.6g %s" % (name, entry["value"], entry["unit"]))
    bench.cleanup()
    checks = bench.checks
    print("failed_ratio %d/%d = %.6g" % (checks.failed, checks.attempted,
                                         checks.failed / max(1, checks.attempted)))
    for message in sorted(set(checks.messages))[:20]:
        print("CHECK FAILED: %s" % message)
    correct = checks.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(1, checks.attempted),
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
