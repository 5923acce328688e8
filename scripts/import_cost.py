#!/usr/bin/env python3
"""Print what each command's load set costs to import in a cold process.

    python3 scripts/import_cost.py [-n N] [COMMAND ...]

A command's load set is the modules the command imports, as
``tests/test_cli.py::test_each_command_loads_only_the_modules_it_runs``
pins them (``LOAD_SETS``). For each command (default: all four), prints:

- the median time the set's imports take, after ``site``, in N fresh
  ``python -c`` processes with ``src`` on the path and
  ``PYTHONDONTWRITEBYTECODE=1``, so no gpindex module is read from a
  bytecode cache that this script wrote (one under ``src`` still is);
- the median ``-X importtime`` self time, over N more such processes, of
  each gpindex module, orjson and each standard-library module that the set
  loads after ``site``, largest first. Other packages (numpy) are left out.

Standard library only; it writes nothing.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_SCORING = ("gpindex.cli", "gpindex.config", "gpindex.data", "gpindex.report", "orjson")
LOAD_SETS = {
    "validate": ("gpindex.cli", "orjson"),
    "score": _SCORING,
    "compare": _SCORING,
    "demo": (*_SCORING, "gpindex.synth", "numpy"),
}


def _run(modules: tuple[str, ...], *flags: str) -> subprocess.CompletedProcess:
    """One fresh process that imports ``modules`` and prints the time it took."""
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        f"import {', '.join(modules)}\n"
        "print(time.perf_counter() - start)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True
    )


def self_times(importtime: str) -> dict[str, int]:
    """Each gpindex, orjson or standard-library module's self time (us) in ``-X importtime``
    output, for the modules imported after ``site``."""
    times, after_site = {}, False
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if name == "site":
            after_site = True
        elif after_site and self_us.isdigit():
            top = name.split(".")[0]
            if top in ("gpindex", "orjson") or top in sys.stdlib_module_names:
                times[name] = int(self_us)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help=f"one of {', '.join(LOAD_SETS)} (default: all)")
    parser.add_argument("-n", type=int, default=11, help="processes per median (default: 11)")
    args = parser.parse_args(argv)
    if set(args.commands) - set(LOAD_SETS) or args.n < 1:
        parser.error(f"commands are {', '.join(LOAD_SETS)}, and N is at least 1")
    for command in args.commands or LOAD_SETS:
        modules = LOAD_SETS[command]
        cold = [float(_run(modules).stdout) for _ in range(args.n)]
        runs = [self_times(_run(modules, "-X", "importtime").stderr) for _ in range(args.n)]
        print(f"{command}: import {', '.join(modules)}")
        print(f"  cold import: {statistics.median(cold) * 1000:.1f} ms, median of {args.n}")
        medians = {name: statistics.median(run.get(name, 0) for run in runs) for name in runs[0]}
        print(f"  {'self ms':>8s}  module")
        for name, self_us in sorted(medians.items(), key=lambda item: (-item[1], item[0])):
            print(f"  {self_us / 1000:8.2f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
