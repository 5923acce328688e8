#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload, or record every workload of one checkout.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload validate_mixed --seeds 901-910
    python3 scripts/bench_pairs.py TREE --record BENCH_32.json --seeds 1-5

For each seed, runs ``perfbench/run.py`` once in each tree, unchanged and
with that tree's ``src``; the parent goes first on even pairs, the change
on odd ones, so that drift in the machine's speed falls on both sides.
Then prints, per end-to-end metric of the change tree's BENCHMARK.json,
each side's median and quartiles and the pairs in which the change is
strictly better. A gain counts where the change wins at least 9 of 10
pairs and its median is better by more than the parent's interquartile
range (``claim`` in the output). ``worse`` is the no-regression verdict
against the metric's relative ``bound`` in BENCHMARK.json (:func:`worse`).

With ``--record``, each seed runs every workload of the tree's
BENCHMARK.json once, the workloads interleaved and their order rotated
by one place per seed, so that drift in the machine's speed falls on
every workload. The file written holds each end-to-end metric's median,
quartiles and per-seed values per workload (:func:`summarize`), the
Python, numpy and orjson versions, the bytecode policy read from the
environment, a digest of the tree's ``src`` and its line counts by the
tree's ``scripts/src_lines.py``. Per-layer figures are not recorded: the
tracer does not see the work the commands run in forked workers.
Standard library only; each run.py writes its results under its own tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: int | None) -> dict[str, float]:
    """One run of ``tree``'s perfbench: each end-to-end metric's value."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: seed {seed}: perfbench exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        print(f"{tree}: seed {seed}: {line['failed']} of {line['attempted']} checks failed",
              file=sys.stderr)
    return {name: metric["value"] for name, metric in line["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, the median and the upper quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worse(parent: list[float], change: list[float], bound: float, lower: bool) -> str:
    """Whether the change regresses one metric: ``yes``, ``unresolved`` or ``no``.

    ``yes`` when the change's median is worse than the parent's by more than
    ``bound`` times the parent's median; ``unresolved`` when the parent's
    interquartile range is wider than that margin and not every change run
    beats every parent run, as the spread then hides a regression within it;
    ``no`` otherwise.
    """
    (p1, pm, p3), (_, cm, _) = quartiles(parent), quartiles(change)
    margin = bound * abs(pm)
    if ((cm - pm) if lower else (pm - cm)) > margin:
        return "yes"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    return "unresolved" if p3 - p1 > margin and not beats_all else "no"


def summarize(runs: list[dict[str, float]], names: list[str]) -> dict[str, dict]:
    """Each metric of ``names`` over ``runs``: its median, quartiles and values in run order."""
    summary = {}
    for name in names:
        values = [run[name] for run in runs]
        q1, median, q3 = quartiles(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "values": values}
    return summary


def _version(package: str) -> str | None:
    try:
        return version(package)
    except PackageNotFoundError:
        return None


def record(tree: Path, seeds: list[int], seconds: int | None) -> dict:
    """Every workload of ``tree`` run once per seed, interleaved; what ``--record`` writes."""
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    names = [m["name"] for m in spec["end_to_end"]]
    runs: dict[str, list[dict[str, float]]] = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        k = i % len(workloads)
        for workload in workloads[k:] + workloads[:k]:
            runs[workload].append(run_once(tree, workload, seed, seconds))
            shown = " ".join(f"{n}={runs[workload][-1][n]:.4g}" for n in names)
            print(f"seed {seed} {workload}: {shown}", file=sys.stderr, flush=True)
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    counted = subprocess.run([sys.executable, "scripts/src_lines.py"], cwd=tree,
                             capture_output=True, text=True, check=True)
    total, code = counted.stdout.splitlines()[-1].split()[1:]
    return {
        "seeds": seeds,
        "seconds": seconds if seconds is not None else spec["run_seconds"],
        "versions": {"python": platform.python_version(), "numpy": _version("numpy"),
                     "orjson": _version("orjson")},
        "bytecode": {name: os.environ.get(name)
                     for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")},
        "src_sha256": digest.hexdigest(),
        "src_lines": {"total": int(total.replace(",", "")), "code": int(code.replace(",", ""))},
        "workloads": {w: summarize(runs[w], names) for w in workloads},
        "per_layer": "not recorded: the tracer does not see the forked workers' work",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", type=Path, nargs="+", metavar="TREE",
                        help="PARENT_TREE CHANGE_TREE, or one TREE with --record")
    parser.add_argument("--workload", help="the workload to compare (pairs only)")
    parser.add_argument("--record", type=Path, metavar="FILE",
                        help="record every workload of one tree in FILE")
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    parser.add_argument("--seconds", type=int, help="measured time per run (default: run.py's)")
    args = parser.parse_args(argv)
    if args.record is not None:
        if len(args.trees) != 1:
            parser.error("--record takes one tree")
        result = record(args.trees[0], args.seeds, args.seconds)
        args.record.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        return 0
    if len(args.trees) != 2 or args.workload is None:
        parser.error("comparing takes PARENT_TREE CHANGE_TREE and --workload")
    args.parent, args.change = args.trees
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]

    pairs: list[tuple[dict[str, float], dict[str, float]]] = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        values = {side: run_once(getattr(args, side), args.workload, seed, args.seconds)
                  for side in order}
        pairs.append((values["parent"], values["change"]))
        shown = " ".join(f"{m['name']}={values['parent'][m['name']]:.4g}->"
                         f"{values['change'][m['name']]:.4g}" for m in metrics)
        print(f"seed {seed} ({order[0]} first): {shown}", file=sys.stderr, flush=True)

    print(f"# {args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, {len(pairs)} pairs")
    print(f"{'metric':12s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'wins':>6s} claim worse")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        gain = (pm - cm) if lower else (cm - pm)
        claim = wins >= 0.9 * len(pairs) and gain > p3 - p1
        print(f"{name:12s} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>30s}"
              f" {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30s}"
              f" {f'{wins}/{len(pairs)}':>6s} {'yes' if claim else 'no':5s}"
              f" {worse(parent, change, metric['bound'], lower)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
