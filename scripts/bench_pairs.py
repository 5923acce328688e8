#!/usr/bin/env python3
"""Run one perfbench workload on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload validate_mixed --seeds 901-910

For each seed, runs ``perfbench/run.py`` once in each tree, unchanged and
with that tree's ``src``; the parent goes first on even pairs, the change
on odd ones, so that drift in the machine's speed falls on both sides.
Then prints, per end-to-end metric of the change tree's BENCHMARK.json,
each side's median and quartiles and the pairs in which the change is
strictly better. A gain counts where the change wins at least 9 of 10
pairs and its median is better by more than the parent's interquartile
range (``claim`` in the output). ``worse`` is the no-regression verdict
against the metric's relative ``bound`` in BENCHMARK.json (:func:`worse`).
Standard library only; it writes nothing itself (each run.py writes its
results under its own tree).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_TREE")
    parser.add_argument("change", type=Path, metavar="CHANGE_TREE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    parser.add_argument("--seconds", type=int, help="measured time per run (default: run.py's)")
    args = parser.parse_args(argv)
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
