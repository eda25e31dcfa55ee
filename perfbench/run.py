#!/usr/bin/env python3
"""Benchmark for ontoprof: seeded corpora through the real `ontoprof extract`.

    python3 perfbench/run.py --workload corpus-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the root of a full checkout; it needs `src/` and `tests/`.
It builds its inputs from --seed under `.perfbench-out/` and checks every
output row and status against references the code under test did not
produce (see workloads.py).

--trace 0 runs `python -m ontoprof.cli extract --jobs 1` as a child process,
repeatedly for --seconds and at least three times, and reports the median
throughput, the peak RSS of the process tree, and set-up time (the median
wall time of several `ontoprof schema` calls).  The matrix bytes of every
repeat must be identical.

Times are in reference seconds: each wall time is scaled by the speed the
core showed, just before and just after, on fixed calibration work of the
kind that dominates the workload (calibrate.py), with everything pinned to
that core.  Shared hosts swing that speed by up to ~2x for minutes at a
time, which raw wall times cannot average away; the raw wall times are
logged and kept in result.json beside the scaled ones.

--trace 1 times each layer in-process instead: it alternates untraced and
traced parse+extract passes, runs the CLI in-process at --jobs 1 and
`run()` at --jobs nproc (whose matrices must match), and probes the runner
with files nested too deep for the recursive walkers.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 1 when any
check fails or when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("corpus-small", "large-mixed", "taxonomy-el")
REQUIRED = ("src/ontoprof/__init__.py", "tests/gen.py", "tests/oracles.py",
            "tests/equivalence.py", "tests/golden_data.py")

JOBS = 1                # --jobs of the measured extract runs
MIN_REPEATS = 3         # extract runs per untraced benchmark run
MIN_TRACED_PAIRS = 2    # untraced+traced in-process passes per traced run
SCHEMA_CALLS = 7        # `ontoprof schema` calls behind one setup_s value
REPEAT_DEADLINE_S = 100  # start no further repeat after this long
CHILD_TIMEOUT_S = 170
# Calibration work per workload: what dominates its extract run.
CALIBRATION = {"corpus-small": "processes", "large-mixed": "python",
               "taxonomy-el": "python"}
PROBE_DEPTHS = (400, 700, 1000)

LAYERS = {   # metric stem -> (span name, duration or self time)
    "parser.parse": ("parser.parse", "total"),
    "parser.self": ("parser.parse", "self"),
    "model.build": ("model.build", "total"),
    "hierarchy.class": ("hierarchy.class", "total"),
    "hierarchy.property": ("hierarchy.property", "total"),
    "hierarchy.cyclic": ("hierarchy.cyclic", "total"),
    "expressivity.profile": ("expressivity.profile", "total"),
    "expressivity.dfn": ("expressivity.dfn", "total"),
    "features.extract": ("features.extract", "total"),
    "features.self": ("features.extract", "self"),
}
# Spans whose self times partition a parse+extract pass.
SELF_PARTS = ("parser.self", "model.build", "hierarchy.class", "hierarchy.property",
              "hierarchy.cyclic", "expressivity.profile", "expressivity.dfn",
              "features.self")


def bootstrap() -> None:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
                         "run from the root of a full checkout")
    if not __debug__:
        raise SystemExit("perfbench: the oracle checks use assert; run without -O")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    wall_s: float
    maxrss_mib: float
    code: int
    reference_s: float = math.nan   # wall_s in reference seconds, when pinned


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], stdout: Path, stderr: Path) -> Child:
    """Run to completion from launch.py, which reports the wall time and the
    peak RSS of the process tree."""
    report = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(stdout), str(stderr),
         str(CHILD_TIMEOUT_S), *argv],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        timeout=CHILD_TIMEOUT_S + 10).stdout
    return Child(**json.loads(report))


def ontoprof(*args: str) -> list[str]:
    return [sys.executable, "-m", "ontoprof.cli", *args]


def cpu_speed(kind: str) -> float:
    """Speed of the pinned core now, relative to the reference, on the
    calibration work of the given kind (see calibrate.py)."""
    out = subprocess.run([sys.executable, str(HERE / "calibrate.py"), kind], check=True,
                         stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S).stdout
    return REFERENCE_S[kind] / float(out)


class Pinned:
    """Runs children on one core, each between two speed readings of that
    core, and scales each child's wall time by their mean."""

    def __init__(self, calibration: str):
        self.calibration = calibration
        self.saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.saved)})
        self.speed = cpu_speed(calibration)

    def run(self, argv, stdout: Path, stderr: Path) -> Child:
        before = self.speed
        child = run_child(argv, stdout, stderr)
        self.speed = cpu_speed(self.calibration)
        child.reference_s = child.wall_s * (before + self.speed) / 2
        return child

    def close(self):
        os.sched_setaffinity(0, self.saved)


def measure_setup(pinned: Pinned, out: Path) -> list[Child]:
    """`ontoprof schema` calls, after one untimed warm-up call."""
    calls = []
    for i in range(SCHEMA_CALLS + 1):
        child = pinned.run(ontoprof("schema"), out / "schema.json", out / "schema.err")
        if child.code != 0:
            raise SystemExit(f"perfbench: `ontoprof schema` exited {child.code}")
        if i:
            calls.append(child)
    schema = json.loads((out / "schema.json").read_text(encoding="utf-8"))
    if len(schema["features"]) != 100:
        raise SystemExit("perfbench: `ontoprof schema` does not list 100 features")
    return calls


# ---------------------------------------------------------------------------
# Output checks


def read_matrix(matrix: bytes) -> dict[str, dict[str, str]]:
    rows = csv.reader(io.StringIO(matrix.decode("utf-8")))
    header = next(rows)
    return {row[0]: dict(zip(header[1:], row[1:])) for row in rows}


def read_outcomes(report_path: Path) -> dict[str, tuple[str, list[str]]]:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    return {o["path"]: (o["status"], o["diagnostics"]) for o in report["outcomes"]}


def check_outputs(expect, matrix: bytes, outcomes) -> dict[str, str]:
    """Problem per file whose outcome or row misses its expectation."""
    from workloads import check_outcome

    rows = read_matrix(matrix)
    problems = {}
    for path, exp in expect.items():
        if path not in outcomes:
            problems[path] = "no outcome"
            continue
        status, diagnostics = outcomes[path]
        problem = check_outcome(exp, status, diagnostics, rows.get(path))
        if problem:
            problems[path] = problem
    for path in outcomes.keys() - expect.keys():
        problems[path] = "outcome for a file that was not given"
    return problems


def extract_cli(inputs: list[str], out: Path, tag: str, launch=run_child):
    """`ontoprof extract --jobs 1` started by `launch`: the child, the matrix
    bytes and the outcomes from the run report."""
    matrix_path = out / f"{tag}.csv"
    child = launch(ontoprof("extract", "--jobs", str(JOBS), "--out", str(matrix_path),
                            *inputs),
                   out / f"{tag}.stdout", out / f"{tag}.stderr")
    if child.code != 0:
        err = (out / f"{tag}.stderr").read_text(encoding="utf-8", errors="replace")
        raise SystemExit(f"perfbench: extract exited {child.code}: {err[-500:]}")
    report = matrix_path.with_name(matrix_path.name + ".report.json")
    return child, matrix_path.read_bytes(), read_outcomes(report)


# ---------------------------------------------------------------------------
# Untraced end-to-end runs


def untraced(w, out: Path, seconds: float, started: float, log) -> dict:
    pinned = Pinned(CALIBRATION[w.name])
    try:
        setup = measure_setup(pinned, out)
        runs = []
        reference = None
        problems: dict[str, str] = {}
        failed = 0
        loop_start = time.perf_counter()
        while (len(runs) < MIN_REPEATS
               or (time.perf_counter() - loop_start < seconds
                   and time.perf_counter() - started < REPEAT_DEADLINE_S)):
            child, matrix, outcomes = extract_cli(w.inputs, out, "extract", pinned.run)
            runs.append(child)
            run_problems = check_outputs(w.expect, matrix, outcomes)
            statuses = {p: s for p, (s, _) in outcomes.items()}
            if reference is None:
                reference = (matrix, statuses)
            elif (matrix, statuses) != reference:
                run_problems["<repeat>"] = f"run {len(runs)} differs from the first run's bytes"
            failed += len(run_problems)
            problems.update(run_problems)
    finally:
        pinned.close()
    samples = {f"{label}_{kind}": [getattr(c, kind) for c in children]
               for label, children in (("extract", runs), ("schema", setup))
               for kind in ("wall_s", "reference_s")}
    for key, values in samples.items():
        log(f"{key}: {[round(x, 4) for x in values]}")
    refs = samples["extract_reference_s"]
    log(f"raw wall medians: {w.files / statistics.median(samples['extract_wall_s']):.4g} "
        f"files/s, {statistics.median(samples['schema_wall_s']):.4g} s per schema call")
    samples["maxrss_mib"] = [c.maxrss_mib for c in runs]
    return {
        "metrics": {
            "files_per_s": (w.files / statistics.median(refs), "files/s"),
            "mb_per_s": (w.bytes / 1e6 / statistics.median(refs), "MB/s"),
            "peak_rss_mb": (statistics.median(samples["maxrss_mib"]), "MiB"),
            "setup_s": (statistics.median(samples["schema_reference_s"]), "s"),
        },
        "problems": problems,
        "attempted": w.files * len(runs),
        "failed": failed,
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# Traced per-layer run


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it
    (100, the maximum, when there are too few samples for that)."""
    return math.floor(100 * (1 - 10 / n)) if n > 10 else 100


def inprocess_pass(paths, texts, recorder=None):
    """parse+extract every file; per-file ns, per-file result, and the parsed
    ontologies' counts when traced."""
    from ontoprof.features import extract_all
    from ontoprof.model import class_expressions_of, iter_nodes
    from ontoprof.parser import parse_ontology

    per_file, results = [], []
    counts = {"model.axioms": 0, "model.expr_nodes": 0}
    for i, (path, text) in enumerate(zip(paths, texts)):
        onto = None
        if recorder is not None:
            recorder.file = i
        start = time.perf_counter_ns()
        try:
            if recorder is None:
                onto = parse_ontology(text, origin=path)
                result = extract_all(onto).values
            else:
                with recorder.span("parser.parse"):
                    onto = parse_ontology(text, origin=path)
                with recorder.span("features.extract"):
                    result = extract_all(onto).values
        except Exception as exc:  # compared between passes; the CLI run judges it
            result = type(exc).__name__
        per_file.append(time.perf_counter_ns() - start)
        results.append(result)
        if recorder is not None and onto is not None:
            counts["model.axioms"] += len(onto.axioms)
            counts["model.expr_nodes"] += sum(1 for ax in onto.axioms
                                              for top in class_expressions_of(ax)
                                              for _ in iter_nodes(top))
    return per_file, results, counts


def layer_times(recorder, run_ids, n_files):
    """Per layer stem: {run_id: pass total ms} and per-file ms (median over
    passes), from the recorded spans."""
    run_index = {r: k for k, r in enumerate(run_ids)}
    grid = {stem: [[0] * n_files for _ in run_ids] for stem in LAYERS}
    for span, self_ns in zip(recorder.spans, recorder.self_ns()):
        k = run_index.get(span.run_id)
        if k is None or span.file < 0:
            continue
        for stem, (span_name, which) in LAYERS.items():
            if span.name == span_name:
                grid[stem][k][span.file] += span.duration_ns if which == "total" else self_ns
    totals = {stem: [sum(row) / 1e6 for row in rows] for stem, rows in grid.items()}
    per_file = {stem: [statistics.median(col) / 1e6 for col in zip(*rows)]
                for stem, rows in grid.items()}
    return totals, per_file


def probe_deep(out: Path) -> tuple[int, list[str]]:
    """Run the CLI on files nested deeper than the recursive walkers allow.
    Not a measured workload: it reports how many get a wrong outcome."""
    from workloads import write_deep_chains

    expect, _, _ = write_deep_chains(out / "probe", PROBE_DEPTHS)
    _, matrix, outcomes = extract_cli([str(out / "probe")], out, "probe")
    problems = check_outputs(expect, matrix, outcomes)
    lines = [f"depth {d}: {outcomes[p][0]}" + (f" (wrong: {problems[p][:80]})"
                                               if p in problems else "")
             for d, p in zip(PROBE_DEPTHS, sorted(expect))]
    return len(problems), lines


def traced(w, out: Path, seconds: float, log) -> dict:
    from ontoprof import cli
    from ontoprof.runner import RunConfig, emit_matrix, run
    from tracing import LAYER_CALLS, RUNNER_CALLS, Recorder

    paths = sorted(w.expect)
    texts = [Path(p).read_text(encoding="utf-8") for p in paths]
    recorder = Recorder()
    untraced_ns, traced_ns, traced_ids = [], [], []
    counts = None
    problems: dict[str, str] = {}
    loop_start = time.perf_counter()
    while len(traced_ids) < MIN_TRACED_PAIRS or time.perf_counter() - loop_start < seconds:
        per_file, plain, _ = inprocess_pass(paths, texts)
        untraced_ns.append(sum(per_file))
        recorder.run_id += 1
        with recorder.installed(LAYER_CALLS):
            per_file, spanned, pass_counts = inprocess_pass(paths, texts, recorder)
        traced_ns.append(sum(per_file))
        traced_ids.append(recorder.run_id)
        if plain != spanned:
            problems["<trace>"] = "a traced pass changed a feature vector"
        if counts is None:
            hierarchies = [s.result for s in recorder.spans
                           if s.name == "hierarchy.class" and s.run_id == recorder.run_id]
            counts = dict(pass_counts)
            counts["parser.bytes"] = sum(len(t.encode("utf-8")) for t in texts)
            counts["hierarchy.class_edges"] = sum(h.ndhc for h in hierarchies)
            counts["hierarchy.class_reachable_pairs"] = sum(h.ndhc + h.nidhc
                                                            for h in hierarchies)
            counts["hierarchy.class_largest_scc"] = max(
                (max(Counter(h.scc_map.values()).values(), default=0) for h in hierarchies),
                default=0)
        for s in recorder.spans:
            s.result = None
    totals, per_file = layer_times(recorder, traced_ids, len(paths))

    # The runner, in-process: the CLI at --jobs 1 with spans around its calls
    # into the runner (workers are forked without wrappers), then run() at
    # --jobs nproc, whose matrix must be byte-identical.
    nproc = len(os.sched_getaffinity(0))
    matrix_path = out / "trace-jobs1.csv"
    recorder.run_id += 1
    recorder.file = -1
    with recorder.installed(RUNNER_CALLS), contextlib.redirect_stderr(io.StringIO()):
        with recorder.span("cli.main"):
            code = cli.main(["extract", "--jobs", "1", "--out", str(matrix_path), *w.inputs])
    if code != 0:
        raise SystemExit(f"perfbench: in-process extract exited {code}")
    spans = {s.name: (s, own) for s, own in zip(recorder.spans, recorder.self_ns())
             if s.run_id == recorder.run_id}
    matrix = matrix_path.read_bytes()
    problems.update(check_outputs(
        w.expect, matrix, read_outcomes(matrix_path.with_name(matrix_path.name
                                                              + ".report.json"))))
    started = time.perf_counter()
    report = run(RunConfig(inputs=list(w.inputs), parallelism=nproc))
    parallel_s = time.perf_counter() - started
    if emit_matrix(report.vectors()) != matrix:
        problems["<jobs>"] = f"run() at jobs={nproc} and jobs=1 give different matrices"

    wrong, probe_lines = probe_deep(out)
    for line in probe_lines:
        log(f"deep-nesting probe, {line}")

    inprocess_ms = statistics.median(untraced_ns) / 1e6
    traced_ms = statistics.median(traced_ns) / 1e6
    run_ms = spans["runner.run"][0].duration_ns / 1e6
    tail = tail_percentile(len(paths))
    metrics = {}
    for stem, values in per_file.items():
        metrics[f"{stem}_ms"] = (statistics.median(totals[stem]), "ms")
        metrics[f"{stem}_p50_ms"] = (statistics.median(values), "ms")
        metrics[f"{stem}_tail_ms"] = (nearest_rank(sorted(values), tail), "ms")
    units = {"parser.bytes": "bytes"}
    metrics.update({k: (v, units.get(k, "count")) for k, v in counts.items()})
    metrics.update({
        "runner.run_ms": (run_ms, "ms"),
        "runner.emit_ms": (spans["runner.emit"][0].duration_ns / 1e6, "ms"),
        "runner.per_file_overhead_ms": ((run_ms - inprocess_ms) / len(paths), "ms"),
        "runner.parallel_speedup": (run_ms / 1e3 / parallel_s, "x"),
        "runner.probe_wrong_status": (wrong, "files"),
        "cli.self_ms": (spans["cli.main"][1] / 1e6, "ms"),
        "trace.inprocess_ms": (inprocess_ms, "ms"),
        "trace.layers_self_sum_ms": (statistics.median(
            sum(parts) for parts in zip(*(totals[k] for k in SELF_PARTS))), "ms"),
        "trace.traced_ms": (traced_ms, "ms"),
        "trace.overhead_pct": ((traced_ms - inprocess_ms) / inprocess_ms * 100, "%"),
    })
    log(f"traced passes: {len(traced_ns)}, untraced ms "
        f"{[round(x / 1e6, 2) for x in untraced_ns]}, traced ms "
        f"{[round(x / 1e6, 2) for x in traced_ns]}")
    log(f"per-file tail percentile: p{tail} over {len(paths)} files")
    log(f"run() wall at jobs=1 vs jobs={nproc}: {run_ms / 1e3:.3f} s vs {parallel_s:.3f} s")
    (out.parent / "spans.json").write_text(json.dumps(recorder.as_records()) + "\n",
                                           encoding="utf-8")
    return {"metrics": metrics, "problems": problems,
            "attempted": len(paths), "failed": len(problems),
            "samples": {"untraced_ns": untraced_ns, "traced_ns": traced_ns,
                        "parallel_s": parallel_s}}


# ---------------------------------------------------------------------------
# Entry points


def run_workload(args) -> int:
    bootstrap()
    from workloads import build

    started = time.perf_counter()
    work = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    lines: list[str] = []

    def log(message: str) -> None:
        lines.append(message)
        print(f"# {message}", flush=True)

    w = build(args.workload, work / "inputs", args.seed, args.scale)
    out = work / "out"
    out.mkdir()
    built_s = time.perf_counter() - started
    why = {x["name"]: x["why"] for x in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    log(f"workload {w.name}: {why[w.name]}")
    nproc = len(os.sched_getaffinity(0))
    log(f"seed {args.seed}, scale {args.scale}, jobs {JOBS if not args.trace else '1 and nproc'}, "
        f"nproc {nproc} (parallel speedups above ~{nproc}x cannot show here), "
        f"python {platform.python_version()} ({platform.python_implementation()})")
    log(f"input: {w.files} files, {w.axioms} axioms, {w.bytes} bytes "
        f"(generated and checked against references in {built_s:.1f} s)")
    if args.trace:
        result = traced(w, out, args.seconds, log)
    else:
        result = untraced(w, out, args.seconds, started, log)
    correct = not result["problems"]
    for path, problem in sorted(result["problems"].items())[:20]:
        log(f"MISMATCH {path}: {problem}")
    for name, (value, unit) in result["metrics"].items():
        log(f"{name} = {value:.6g} {unit}")
    log(f"correct: {str(correct).lower()} "
        f"({result['failed']} of {result['attempted']} failed)")
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    (work / "result.json").write_text(json.dumps(
        {**summary, "context": lines, "samples": result["samples"],
         "problems": result["problems"]}, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work / "inputs")
    shutil.rmtree(out)
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric, then a
    combined verdict."""
    verdicts, table = {}, []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        verdicts[name] = json.loads(lines[-1])
        table += [(name, metric, v["value"], v["unit"])
                  for metric, v in verdicts[name]["metrics"].items()]
    for name, metric, value, unit in table:
        print(f"{name:14} {metric:34} {value:14.6g} {unit}")
    correct = all(v["correct"] for v in verdicts.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(v["attempted"] for v in verdicts.values()),
        "failed": sum(v["failed"] for v in verdicts.values()),
        "metrics": {f"{name}.{metric}": {"value": value, "unit": unit}
                    for name, metric, value, unit in table},
    }))
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the defined workloads")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
