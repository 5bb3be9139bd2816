#!/usr/bin/env python3
"""Toy-size self-test of the benchmark in this directory.

    python3 perfbench/selftest.py

Runs every workload of run.py at toy size (--toy: a few ranks, a few
scenarios, one-second runs), untraced and traced, and asserts that:
  - each run exits 0 and its last line is the result object, correct, with
    every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json printed under its name with its unit;
  - the traced pass writes well-formed spans (run.validate_spans: nested in
    their parents, no overlapping siblings under any parent, so no negative
    self time and the self times tile the traced wall), and prints the layer
    report;
  - outside a source checkout the benchmark exits non-zero without a result.
Takes well under a minute once the build (shared with run.py) exists.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def bench_run(args, cwd=ROOT, timeout=600):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout


def expect(condition, what):
    if not condition:
        sys.exit("selftest FAILED: %s" % what)


def check_metrics(result, declared, what):
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    expect(printed == declared, "%s prints %s, BENCHMARK.json declares %s"
           % (what, sorted(printed), sorted(declared)))
    for name, entry in result["metrics"].items():
        expect(isinstance(entry["value"], (int, float)), "%s: %s is not a number" % (what, name))


def check_span_validator():
    """run.validate_spans accepts a tiling span tree and rejects overlapping
    siblings below the root and a child that outlives its parent."""
    def span(i, start, end, parent):
        return {"id": i, "name": "s%d" % i, "start": start, "end": end, "parent": parent, "run": 0}

    good = [span(0, 0, 10, -1), span(1, 1, 6, 0), span(2, 2, 3, 1), span(3, 4, 5, 1),
            span(4, 6, 9, 0)]
    expect(not run.validate_spans(good), "a well-formed span tree is rejected: %s"
           % run.validate_spans(good))
    overlap = [span(0, 0, 10, -1), span(1, 1, 6, 0), span(2, 2, 4, 1), span(3, 3, 5, 1)]
    expect(run.validate_spans(overlap), "overlapping grandchildren are accepted")
    outside = [span(0, 0, 10, -1), span(1, 1, 6, 0), span(2, 5, 7, 1)]
    expect(run.validate_spans(outside), "a child outliving its parent is accepted")
    print("ok  span validator")


def main():
    check_span_validator()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            what = "%s --trace %d" % (workload, trace)
            code, out = bench_run(["--workload", workload, "--seed", "7", "--seconds", "1",
                                   "--trace", str(trace), "--toy"])
            expect(code == 0, "%s exited %d:\n%s" % (what, code, out))
            result = json.loads(out.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   "%s result keys %s" % (what, sorted(result)))
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   "%s result %s" % (what, result))
            check_metrics(result, run.PER_LAYER if trace else run.END_TO_END, what)
            if trace:
                spans = json.loads((ROOT / ".bench_work" / workload / "spans.json").read_text())
                problems = run.validate_spans(spans)
                expect(not problems, "%s spans: %s" % (what, problems))
                expect("layer report" in out and "tracing overhead" in out,
                       "%s printed no layer report" % what)
            print("ok  %s: %d operations" % (what, result["attempted"]))

    # Outside a source checkout (only BENCHMARK.json and this directory):
    # a non-zero exit and no result line.
    bare = ROOT / ".bench_work" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(bare / BENCH_DIR.name / "run.py"), "--workload",
                           run.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    code = proc.returncode
    expect(code != 0 and '"correct"' not in proc.stdout, "a bare checkout did not fail cleanly")
    shutil.rmtree(bare)
    print("ok  bare checkout fails with exit %d" % code)
    print("selftest passed")


if __name__ == "__main__":
    main()
