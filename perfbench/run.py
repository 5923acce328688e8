#!/usr/bin/env python3
"""gpindex benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload compare_demo --seed 1 --seconds 22 --trace 0

Set-up writes the workload's inputs from the seed and builds the
reference outputs in-process. It times cold start-ups (``setup_s``),
each bracketed by a cold-start probe. It then starts a speed-probe child
and one worker child, which imports ``gpindex.cli`` and makes one
untimed warm-up call. The measured part then runs for ``--seconds``:

* ``--trace 0`` alternates the workload's ``gpindex`` command as a fresh
  child process (``wall_s``, ``peak_rss_mb``) with one
  ``gpindex.cli.main(argv)`` call in the worker (``pipeline_s``). Only
  one of them runs at a time.
* ``--trace 1`` alternates untraced and traced calls in the worker and
  reports the per-layer metrics of the median traced call.

Every output of every call is checked against the reference. The
probes read the machine's speed between consecutive samples; each timed
sample is scaled by the readings right before and after it to a
reference machine speed (see probe.py), and each end-to-end timing is
the median of its scaled samples. The metric names and units come from
BENCHMARK.json.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A results file with
provenance, every raw and scaled sample and every probe goes to
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from probe import COLD_START_CODE, REFERENCE_COLD_S, SpeedScale
from worker import digest_tree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "goldens"
OUT = HERE / "out"

CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 11
MIN_SAMPLES = 3  # per end-to-end timing
# End-to-end metrics reported as the median of their (scaled) samples.
MEDIANS = ("wall_s", "pipeline_s", "setup_s", "peak_rss_mb")
MIN_TRACED = 2  # traced calls, and as many untraced ones

# A cold process: import the CLI and load its config, nothing else.
SETUP_CODE = """\
import sys, time
start = time.perf_counter_ns()
import gpindex.cli
import gpindex.config
mid = time.perf_counter_ns()
if len(sys.argv) > 1:
    gpindex.config.load_config_file(sys.argv[1])
else:
    gpindex.config.default_config()
end = time.perf_counter_ns()
print((end - start) / 1e9, (end - mid) / 1e9)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


@contextmanager
def time_limit(seconds: int):
    """Raise BenchError if the body runs longer than ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(seconds)
    try:
        yield
    except _Timeout:
        raise BenchError(f"a child process ran longer than {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe_env() -> dict[str, str]:
    """The environment of the probes' processes: the program is not on the path."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def run_child(cmd: list[str], stdout: Path, stderr: Path,
              env: dict[str, str] | None = None) -> tuple[float, int, int]:
    """Run one child to its end: (wall seconds, exit status, peak RSS in KiB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(
            cmd, env=env or child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        try:
            with time_limit(CHILD_TIMEOUT_S):
                _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter_ns()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (end - start) / 1e9, proc.returncode, usage.ru_maxrss


class Child:
    """A long-lived child that answers one JSON line per command line."""

    def __init__(self, cmd: list[str], env: dict[str, str], stderr_path: Path) -> None:
        self._stderr_path = stderr_path
        with open(stderr_path, "wb") as err:
            self._proc = subprocess.Popen(
                cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err, text=True,
            )

    def _ask(self, command: str) -> dict:
        with time_limit(CHILD_TIMEOUT_S):
            self._proc.stdin.write(command + "\n")
            self._proc.stdin.flush()
            answer = self._proc.stdout.readline()
        if not answer:
            err = self._stderr_path.read_text(errors="replace")
            raise BenchError(f"{self._stderr_path.stem} stopped:\n{err}")
        return json.loads(answer)

    def close(self) -> None:
        try:
            with time_limit(CHILD_TIMEOUT_S):
                self._proc.communicate("quit\n")
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        if self._proc.returncode != 0:
            err = self._stderr_path.read_text(errors="replace")
            raise BenchError(
                f"{self._stderr_path.stem} failed with status {self._proc.returncode}:\n{err}"
            )


class Worker(Child):
    """A child that has imported gpindex.cli and runs main(argv) on request."""

    def __init__(self, prepared, scratch: Path, spans: Path | None = None) -> None:
        spec = {
            "argv": prepared.argv,
            "out_dir": str(prepared.out_dir) if prepared.out_dir is not None else None,
            "spans": str(spans) if spans is not None else None,
        }
        super().__init__([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                         child_env(), scratch / "worker.err")

    def call(self, traced: bool = False) -> dict:
        return self._ask("traced" if traced else "untraced")


class Prober(Child):
    """A child that runs the speed probe (see probe.py) and never imports gpindex."""

    def __init__(self, scratch: Path) -> None:
        super().__init__([sys.executable, str(HERE / "probe.py")], probe_env(),
                         scratch / "prober.err")

    def probe(self) -> float:
        return self._ask("probe")["probe_s"]


def cold_start_probe(scratch: Path) -> float:
    """One run of the cold-start probe (see probe.py): its wall time in seconds."""
    cmd = [sys.executable, "-c", COLD_START_CODE]
    seconds, code, _ = run_child(cmd, scratch / "cold.out", scratch / "cold.err", probe_env())
    if code != 0:
        err = (scratch / "cold.err").read_text(errors="replace")
        raise BenchError(f"the cold-start probe failed:\n{err}")
    return seconds


def measure_setup(prepared, scratch: Path) -> dict[str, list[float]]:
    """Cold start-ups after one discarded warm-up, raw and scaled (see probe.py).

    Dirty pages left by writing the inputs are flushed first, so that
    their write-back does not overlap the imports.
    """
    os.sync()
    cmd = [sys.executable, "-c", SETUP_CODE]
    if prepared.config_path is not None:
        cmd.append(str(prepared.config_path))
    samples: dict[str, list[float]] = {"setup_s": [], "setup_s_raw": [], "config_load_s": []}
    speed = SpeedScale(lambda: cold_start_probe(scratch), REFERENCE_COLD_S)
    for i in range(SETUP_SAMPLES + 1):
        _, code, _ = run_child(cmd, scratch / "setup.out", scratch / "setup.err")
        if code != 0:
            err = (scratch / "setup.err").read_text(errors="replace")
            raise BenchError(f"cold import of gpindex.cli failed:\n{err}")
        total, config = map(float, (scratch / "setup.out").read_text().split())
        scaled = speed.scale(total)
        if i > 0:  # the first one may still be writing bytecode caches
            samples["setup_s"].append(scaled)
            samples["setup_s_raw"].append(total)
            samples["config_load_s"].append(config)
    samples["setup_probe_s"] = speed.probes
    return samples


def run_cli(prepared, scratch: Path) -> tuple[float, float, dict]:
    """The workload's command as a fresh process: (seconds, peak RSS MiB, outcome)."""
    if prepared.out_dir is not None:
        shutil.rmtree(prepared.out_dir, ignore_errors=True)
    cmd = [sys.executable, "-m", "gpindex", *prepared.argv]
    wall, code, maxrss_kib = run_child(cmd, scratch / "cli.out", scratch / "cli.err")
    outcome = {
        "code": code,
        "stdout": (scratch / "cli.out").read_text(errors="replace"),
        "stderr": (scratch / "cli.err").read_text(errors="replace"),
        "files": digest_tree(prepared.out_dir) if prepared.out_dir is not None else {},
    }
    return wall, maxrss_kib / 1024, outcome


def measure_interleaved(prepared, scratch: Path, worker: Worker, prober: Prober,
                        deadline: float, record):
    """Alternate fresh CLI processes and in-process calls until the deadline.

    Alternating puts both metrics' samples in the same stretch of time.
    A fresh process is scaled by the cold-start probes right before and
    after it, and an in-process call by the speed probe's readings.
    Returns every sample, raw and scaled to the reference speed.
    """
    samples: dict[str, list[float]] = {
        "wall_s": [], "wall_s_raw": [], "pipeline_s": [], "pipeline_s_raw": [], "peak_rss_mb": []
    }
    cold = SpeedScale(lambda: cold_start_probe(scratch), REFERENCE_COLD_S)
    hot = SpeedScale(prober.probe)
    rounds: list[float] = []
    while len(rounds) < MIN_SAMPLES or time.monotonic() + statistics.median(rounds) <= deadline:
        start = time.monotonic()
        if rounds:
            cold.read_before()
        seconds, peak_mib, outcome = run_cli(prepared, scratch)
        samples["wall_s"].append(cold.scale(seconds))
        samples["wall_s_raw"].append(seconds)
        samples["peak_rss_mb"].append(peak_mib)
        record(outcome)
        hot.read_before()
        call = worker.call()
        samples["pipeline_s"].append(hot.scale(call["seconds"]))
        samples["pipeline_s_raw"].append(call["seconds"])
        record(call)
        rounds.append(time.monotonic() - start)
    samples["probe_s"] = hot.probes
    samples["cold_probe_s"] = cold.probes
    return samples


def measure_traced(worker: Worker, deadline: float, record) -> list[dict]:
    """Alternate untraced and traced in-process calls until the deadline."""
    calls: list[dict] = []
    while len(calls) < 2 * MIN_TRACED or (
        time.monotonic() + statistics.median(c["seconds"] for c in calls) <= deadline
    ):
        call = worker.call(traced=len(calls) % 2 == 1)
        call["traced"] = len(calls) % 2 == 1
        record(call)
        calls.append(call)
    return calls


def src_line_count() -> int:
    return sum(
        len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )


def provenance(prepared) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": prepared.name,
        "seed": prepared.seed,
        "inputs_sha256": prepared.inputs_sha256,
        "src_lines": src_line_count(),
    }


def read_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def benchmark(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (the result line, the results file body)."""
    if not (SRC / "gpindex" / "cli.py").is_file():
        raise BenchError(f"program source not found: {SRC / 'gpindex'}")
    sys.path.insert(0, str(SRC))
    import gpindex

    if Path(gpindex.__file__).resolve().parent != (SRC / "gpindex").resolve():
        raise BenchError(f"imported gpindex from {gpindex.__file__}, not from {SRC}")
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload '{workload}'; choose from {workloads.WORKLOADS}")
    spec = read_spec()

    scratch = OUT / "run" / f"{workload}-seed{seed}"
    results_dir = OUT / "results"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        setup_start = time.perf_counter()
        prepared = workloads.prepare(
            workload, seed, scratch / "inputs", scratch / "cli_out", GOLDENS
        )
        attempted = failed = 0
        problems: list[str] = []

        def record(outcome: dict) -> None:
            nonlocal attempted, failed
            bad, why = prepared.check(outcome)
            attempted += prepared.attempted_per_run
            failed += bad
            problems.extend(why)

        spans = results_dir / f"{stem}.spans.jsonl" if trace else None
        samples = measure_setup(prepared, scratch)
        prober = Prober(scratch)
        try:
            worker = Worker(prepared, scratch, spans)
            try:
                record(worker.call())  # warm-up, untimed
                setup_wall = time.perf_counter() - setup_start
                deadline = time.monotonic() + seconds
                if not trace:
                    samples.update(
                        measure_interleaved(prepared, scratch, worker, prober, deadline, record)
                    )
                else:
                    calls = measure_traced(worker, deadline, record)
            finally:
                worker.close()
        finally:
            prober.close()

        body: dict = {"provenance": provenance(prepared), "run_seconds": seconds,
                      "setup_wall_s": setup_wall, "samples": samples}
        if not trace:
            values = {name: statistics.median(samples[name]) for name in MEDIANS}
            values["ok_frac"] = 1.0 - failed / attempted
            wanted = spec["end_to_end"]
        else:
            traced = sorted((c["seconds"], i) for i, c in enumerate(calls) if c["traced"])
            untraced = [c["seconds"] for c in calls if not c["traced"]]
            median_call = calls[traced[(len(traced) - 1) // 2][1]]
            values = dict(median_call["summary"])
            values["config.load_s"] = statistics.median(samples["config_load_s"])
            values["trace.overhead_frac"] = (
                statistics.median(t for t, _ in traced) / statistics.median(untraced) - 1.0
            )
            samples.update(traced_s=[t for t, _ in traced], untraced_s=untraced)
            body.update(missing=median_call["missing"],
                        summaries=[c["summary"] for c in calls if c["traced"]],
                        spans_file=str(spans.relative_to(ROOT)))
            wanted = spec["per_layer"]
        body.update(attempted=attempted, failed=failed, problems=problems[:50], values=values)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        raise BenchError(f"no value measured for {absent}")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    body["result"] = line
    (results_dir / f"{stem}.json").write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")
    return line, body


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = read_spec()["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        line, body = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in body["problems"][:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs_sha256={body['provenance']['inputs_sha256'][:16]} "
          f"src_lines={body['provenance']['src_lines']}")
    for name, metric in line["metrics"].items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
