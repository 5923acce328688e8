"""Times ``gpindex.cli.main(argv)`` inside one already-imported process.

Run as ``python3 worker.py SPEC`` with the program's ``src`` on
``PYTHONPATH``; SPEC is a JSON object with the CLI arguments (``argv``),
the output directory to clear before each call (``out_dir``) and where
to write spans (``spans``). The worker then reads one command per line
on standard input and answers each with one JSON line:

* ``untraced``: one timed call;
* ``traced``: one timed call with every layer wrapped (see tracing.py),
  answered with the call's per-layer summary as well;
* ``quit``: write the recorded spans, once, and exit.

Each answer carries the call's time, exit status, captured output and
output file digests, so every call can be checked.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracing import Tracer


def digest_tree(root: Path) -> dict[str, str]:
    """Relative path -> sha256 hex of every file under ``root``."""
    if not root.is_dir():
        return {}
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def call_main(argv: list[str], out_dir: Path | None) -> dict:
    """One timed ``gpindex.cli.main(argv)`` call on a cleared output directory."""
    import gpindex.cli

    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = gpindex.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a wrong outcome for the checks to count
            traceback.print_exc()
            code = -1
        seconds = (time.perf_counter_ns() - start) / 1e9
    return {
        "seconds": seconds,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "files": digest_tree(out_dir) if out_dir is not None else {},
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    argv = spec["argv"]
    out_dir = Path(spec["out_dir"]) if spec["out_dir"] else None
    answers = sys.stdout  # call_main redirects sys.stdout while the CLI runs
    tracer = Tracer()
    for run_id, line in enumerate(sys.stdin):
        command = line.strip()
        if command == "quit":
            break
        if command == "traced":
            with tracer.run(run_id):
                result = call_main(argv, out_dir)
            result["summary"] = tracer.summary(run_id, result["seconds"])
            result["missing"] = tracer.missing
        elif command == "untraced":
            result = call_main(argv, out_dir)
        else:
            raise SystemExit(f"unknown command {command!r}")
        answers.write(json.dumps(result) + "\n")
        answers.flush()
    if spec.get("spans"):
        tracer.write_spans(spec["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
