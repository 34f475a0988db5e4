"""Tests of the benchmark itself: ``python3 -m pytest benchmarks -q``.

They run tiny workloads (one second, one verify pass), so the whole
file takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from run import percentile, tail  # noqa: E402
from spec import END_TO_END, NAMED, WORKLOADS, per_layer_metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*argv, cwd=ROOT, python=(sys.executable,)):
    proc = subprocess.run(
        [*python, os.path.join(cwd, "benchmarks", "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    e2e = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    assert e2e == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert layers == per_layer_metrics()
    assert len(doc["per_layer"]) <= 128
    names = list(e2e) + list(layers) + list(WORKLOADS)
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert len(json.dumps(doc)) <= 64 * 1024


def test_expected_verify_counts_total_7531():
    from spec import THEOREM_IDS

    assert sum(checks.expected_case_counts(THEOREM_IDS, 6).values()) == 7531
    assert sum(checks.expected_case_counts(THEOREM_IDS, 5).values()) == 1802


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert tail(list(range(1, 1001))) == (99, 990, 1000)
    assert tail(list(range(1, 21))) == (50, 10, 20)
    assert tail([3.0, 1.0, 2.0]) == (100, 3.0, 3)
    assert percentile(range(20, 0, -1), 90) == 18
    assert percentile([5.0], 90) == 5.0


def test_generated_lattices_have_their_target_sizes():
    accept, reject, boolean, spaces = inputs.duality_round(5, 0)
    assert [lat.size for lat in accept] == list(inputs.ACCEPT_SIZES)
    assert boolean.size == 128
    assert [len(inputs.upsets(up)) for up in spaces] == [c for _, c in inputs.NUCLEI_SPACES]
    assert {kind for kind, *_ in reject} <= set(inputs.PLANTS)


def test_check_dual_catches_a_wrong_stone_map():
    lat = inputs.duality_round(5, 0)[0][0]
    up = lat.up
    principal = [lat.label[up[x]] for x in range(len(up))]
    dual_json = {"points": principal, "covers": [
        [principal[x], principal[y]] for x in range(len(up))
        for y in inputs.bits(up[x]) if x != y
    ]}
    stones = {lat.label[m]: {principal[x] for x in inputs.bits(m)} for m in lat.members}
    assert checks.check_dual(lat, dual_json, stones) is None
    top = lat.label[lat.members[-1]]
    stones[top] = set()
    assert checks.check_dual(lat, dual_json, stones) is not None


@pytest.mark.parametrize("workload", WORKLOADS + ("verify-b6",))
def test_tiny_run_prints_every_metric(workload):
    proc, result = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, m in result["metrics"].items():
        assert m["unit"] == END_TO_END[name][0] and m["value"] > 0
    printed = {line.split()[0] for line in proc.stdout.splitlines()[:-1] if line.strip()}
    assert set(NAMED[workload]) | set(END_TO_END) | {"failed_share"} <= printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reaches_every_boundary(workload):
    proc, result = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
    assert result["correct"]
    assert set(result["metrics"]) == set(per_layer_metrics())
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def copy_benchmark(dest, link_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, dest / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    if link_src:
        os.symlink(os.path.join(ROOT, "src"), dest / "src")


# One known answer per workload, flipped in a copy of checks.py.
WRONG_ANSWERS = {
    "verify-b5": ("A000112 = (1, 1, 2, 5, 16, 63, 318)",
                  "A000112 = (1, 1, 2, 5, 16, 64, 318)"),
    "symbolic-sweep": ('"omega_fans": ("cofinite", True, False, True)',
                       '"omega_fans": ("cofinite", False, False, True)'),
    "duality": ("return 2 ** n\n", "return 2 ** n + 1\n"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_known_answer_fails_the_run(workload, tmp_path):
    copy_benchmark(tmp_path)
    path = tmp_path / "benchmarks" / "checks.py"
    text = path.read_text(encoding="utf-8")
    right, wrong = WRONG_ANSWERS[workload]
    assert text.count(right) == 1
    path.write_text(text.replace(right, wrong), encoding="utf-8")
    proc, result = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    assert not result["correct"] and result["failed"] > 0
    share = next(line for line in proc.stdout.splitlines() if "failed_share" in line)
    assert float(share.split()[1]) > 0


def test_refuses_to_run_optimized():
    proc, result = run_bench("--workload", "duality", "--seed", "1", "--seconds", "1",
                             python=(sys.executable, "-O"))
    assert proc.returncode == 2 and result is None


def test_fails_without_the_package(tmp_path):
    copy_benchmark(tmp_path, link_src=False)
    proc, result = run_bench("--workload", "duality", "--seed", "1", "--seconds", "1",
                             cwd=str(tmp_path))
    assert proc.returncode != 0 and result is None
