"""Smoke test for the benchmark: every workload once, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names comes out with its unit,
that a deliberately perturbed reference row makes the verdict fail, and
that the benchmark refuses to run without the rest of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seed", "3", "--seconds", "1", "--scale", "0.02"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=900)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit(trace, kind):
    proc = bench("--workload", "all", "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    combined = json.loads(proc.stdout.strip().splitlines()[-1])
    assert combined["correct"] is True and combined["failed"] == 0
    for workload in WORKLOADS:
        for metric in SPEC[kind]:
            got = combined["metrics"].get(f"{workload}.{metric['name']}")
            assert got is not None, f"{workload}: {metric['name']} missing"
            assert got["unit"] == metric["unit"], f"{workload}: {metric['name']} unit"
            assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails_the_check(workload, monkeypatch, capsys):
    run.bootstrap()
    import workloads

    build = workloads.build

    def perturbed(*args):
        w = build(*args)
        expect = next(e for e in w.expect.values() if e.kind == "row" and "SA" in e.values)
        expect.values["SA"] += 1
        return w

    monkeypatch.setattr(workloads, "build", perturbed)
    code = run.main(["--workload", workload, "--trace", "0", *TINY])
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert verdict["correct"] is False and verdict["failed"] >= 1


def test_refuses_to_run_without_the_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
