"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once untraced and once traced with ``--smoke``.  The
test checks that every metric is printed exactly once with its unit, in
the text report and in the JSON result line, that the correctness gate
passed, and that in the traced run the layers' self times plus the root
spans' own self time add up to the root spans' durations.  It also
checks that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from benchlib import END_TO_END, OUT_DIR, PER_LAYER, self_times  # noqa: E402

WORKLOADS = ("dense-window", "serve-churn")


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_once(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [name for name, _ in wanted]
    for name, unit in wanted:
        assert result["metrics"][name]["unit"] == unit
        printed = [ln for ln in lines[:-1] if ln.startswith(f"{name} = ")]
        assert len(printed) == 1, (name, printed)
        assert printed[0].endswith(f" {unit}")
    if trace:
        _check_spans(workload)


def _check_spans(workload: str) -> None:
    if workload == "serve-churn":
        path = os.path.join(OUT_DIR, "serve-summary-seed3-trace1.json")
    else:
        path = os.path.join(OUT_DIR, f"spans-{workload}-seed3.json")
    with open(path) as fh:
        spans = json.load(fh)["spans"]
    assert spans
    roots = [s for s in spans if s["parent"] is None]
    root_time = sum(s["end"] - s["start"] for s in roots)
    selfs = self_times(spans)
    root_names = {s["name"] for s in roots}
    root_self = sum(v for k, v in selfs.items() if k in root_names)
    layer_self = sum(v for k, v in selfs.items() if k not in root_names)
    assert abs(layer_self + root_self - root_time) <= 1e-6 * root_time
    assert layer_self > 0


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("dense-window", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
