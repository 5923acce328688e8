"""The no-regression verdict and the BENCH record of scripts/bench_pairs.py on fixed samples."""

import json
from pathlib import Path

import pytest

from scripts import bench_pairs
from scripts.bench_pairs import summarize, worse

ROOT = Path(__file__).resolve().parent.parent

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04]  # median 1.02, interquartile range 0.02


@pytest.mark.parametrize(
    "change,bound,lower,verdict",
    [
        ([1.10, 1.11, 1.12, 1.13, 1.14], 0.05, True, "yes"),  # median 0.10 worse, past 0.051
        ([1.02, 1.03, 1.04, 1.05, 1.06], 0.05, True, "no"),  # 0.02 worse, within the bound
        ([1.01, 1.02, 1.03, 1.04, 1.05], 0.01, True, "unresolved"),  # 0.01 worse, spread 0.02
        ([0.90, 0.91, 0.92, 0.93, 0.94], 0.01, True, "no"),  # every run beats every parent run
        ([1.00, 1.00, 1.01, 1.02, 1.02], 0.01, True, "unresolved"),  # better, but not in every run
        ([0.90, 0.91, 0.92, 0.93, 0.94], 0.05, False, "yes"),  # higher is better: 0.10 worse
        ([1.10, 1.11, 1.12, 1.13, 1.14], 0.01, False, "no"),
    ],
)
def test_worse(change, bound, lower, verdict):
    assert worse(PARENT, change, bound, lower) == verdict


def test_no_spread_resolves():
    assert worse([1.0] * 10, [1.0] * 10, 0.01, False) == "no"
    assert worse([1.0] * 10, [0.98] * 10, 0.01, False) == "yes"


def test_summarize_keeps_quartiles_and_values_in_run_order():
    runs = [{"wall_s": v, "ok_frac": 1.0} for v in (1.04, 1.00, 1.03, 1.01, 1.02)]
    summary = summarize(runs, ["wall_s", "ok_frac"])
    assert summary["wall_s"]["values"] == [1.04, 1.00, 1.03, 1.01, 1.02]
    assert [summary["wall_s"][k] for k in ("q1", "median", "q3")] == pytest.approx(
        [1.01, 1.02, 1.03]
    )
    assert summary["ok_frac"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "values": [1.0] * 5}


def test_record_interleaves_the_workloads_and_rotates_them(monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((seed, workload))
        return {m["name"]: float(seed) for m in spec["end_to_end"]}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    result = bench_pairs.record(ROOT, [1, 2, 3, 4, 5], 3)
    assert calls[:4] == [(1, w) for w in workloads]
    assert calls[4:8] == [(2, w) for w in workloads[1:] + workloads[:1]]
    assert len(calls) == 5 * len(workloads)
    assert set(result["workloads"]) == set(workloads)
    assert result["workloads"][workloads[0]]["wall_s"]["median"] == 3.0
    assert result["seconds"] == 3 and result["src_lines"]["total"] >= result["src_lines"]["code"]
