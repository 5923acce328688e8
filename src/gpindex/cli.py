"""Command-line front end: the ``validate``, ``score``, ``compare`` and ``demo``
commands of :func:`build_parser`.

Exit status contract: 0 success, 1 data error, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import closing, suppress
from functools import partial
from itertools import islice, takewhile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .errors import ConfigError, EngineError
from .telemetry import parse_session, validate_comparability

# Each command imports the layers it runs, where it runs them: a cold ``validate`` loads none
# of these.
if TYPE_CHECKING:
    from .config import EngineConfig
    from .indices import MeasuredSession
    from .report import ComparisonTable
    from .synth import CorpusDevice

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpindex",
        description="Game Performance Index engine: score gameplay session telemetry.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate session files")
    p_validate.add_argument("files", nargs="+", metavar="file")
    p_validate.add_argument(
        "--comparability",
        action="store_true",
        help="also flag settings/game divergence across the valid sessions",
    )
    p_validate.set_defaults(handler=cmd_validate)

    p_score = sub.add_parser(
        "score", help="score one or more device directories under a profile"
    )
    p_score.add_argument("device_dirs", nargs="+", metavar="device-dir")
    p_score.add_argument("--config", help="engine config file (default: built-in)")
    p_score.add_argument("--profile", required=True, help="profile name from the config")
    p_score.add_argument("--format", choices=("json", "csv"), default="json")
    p_score.add_argument("--out", help="output file (default: stdout)")
    p_score.set_defaults(handler=cmd_score)

    p_compare = sub.add_parser(
        "compare", help="score under every profile and write per-profile reports"
    )
    p_compare.add_argument("device_dirs", nargs="+", metavar="device-dir")
    p_compare.add_argument("--config", help="engine config file (default: built-in)")
    p_compare.add_argument("--format", choices=("json", "csv"), default="json")
    p_compare.add_argument("--out", required=True, help="output directory")
    p_compare.set_defaults(handler=cmd_compare)

    p_demo = sub.add_parser(
        "demo", help="generate the synthetic demo corpus and score it"
    )
    p_demo.add_argument("--out", required=True, help="output directory")
    p_demo.add_argument("--manifest", help="corpus manifest file (default: built-in)")
    p_demo.set_defaults(handler=cmd_demo)

    return parser


def _load_config(path: str | None) -> EngineConfig:
    from .config import default_config, load_config_file

    return default_config() if path is None else load_config_file(path)


def _say(*lines: str) -> None:
    """Write each of ``lines`` on stderr: every stderr line of the CLI goes through here.

    A line that holds a character that is not printable is escaped as
    ``repr`` escapes it (unquoted), so no text read from outside (a file
    name, a key, an id) starts a line of its own.
    """
    for line in lines:
        print(line if line.isprintable() else repr(line)[1:-1], file=sys.stderr)


def _read_file(name: str | Path, read: Callable, prefix: str) -> tuple[Any, list[str]]:
    """What ``read(data, unknown)`` makes of file ``name``'s bytes, or None, and the lines to
    write on stderr; ``read`` appends the path of each unknown key to the list ``unknown``.

    A failure is the line ``<prefix><name>: <error>``, and each unknown key
    read follows as ``warning: <name>: ...``. Only the diagnostic may start
    with ``<prefix><name>: ``: perfbench's ``validate_mixed`` check counts
    such a line as that file's diagnostic.
    """
    unknown: list[str] = []
    try:
        with open(name, "rb") as fh:
            result, lines = read(fh.read(), unknown), []
    except (OSError, EngineError) as exc:
        result, lines = None, [f"{prefix}{name}: {exc}"]
    return result, lines + [f"warning: {name}: ignoring unknown key '{path}'" for path in unknown]


def cmd_validate(args: argparse.Namespace) -> int:
    # Each valid file and its settings; the session itself is dropped once parsed.
    read = partial(
        _read_file, read=lambda data, unknown: parse_session(data, unknown).settings, prefix=""
    )
    import orjson  # noqa: F401  parse_session's decoder, imported once and inherited by each worker
    valid = []
    with closing(_ordered_map(read, args.files)) as outcomes:
        for name, (settings, lines) in zip(args.files, outcomes):
            _say(*lines)
            if settings is not None:
                valid.append((name, settings))
    print(f"{len(valid)} valid")
    if args.comparability and valid:
        names, settings = zip(*valid)
        for flag in validate_comparability(settings):
            # Not "<file>: ...": that prefix marks the file's diagnostic.
            _say(
                f"comparability: {names[flag.session_index]}: {flag.field}={flag.value} "
                f"differs from modal {flag.modal}"
            )
    return EXIT_DATA if len(valid) < len(args.files) else EXIT_OK


def _measure_dirs(
    device_dirs: list[str], config: EngineConfig
) -> list[list[MeasuredSession]] | None:
    """Each directory's sessions, measured over ``_ordered_map`` in the order of a loop over
    the directories up to the first empty one, each session dropped once measured; None once
    the first file that fails is printed as ``error: <file>: ...``.
    """
    from .indices import measure

    def read(data: bytes, unknown: list[str]) -> MeasuredSession:
        return measure(parse_session(data, unknown), config.curves)

    listed = list(takewhile(bool, (sorted(Path(d).glob("*.json")) for d in device_dirs)))
    import orjson  # noqa: F401  parse_session's decoder, imported once and inherited by each worker
    measured = []
    files = [f for found in listed for f in found]
    with closing(_ordered_map(partial(_read_file, read=read, prefix="error: "), files)) as outcomes:
        for scores, lines in outcomes:
            _say(*lines)
            if scores is None:
                return None
            measured.append(scores)
    if len(listed) < len(device_dirs):
        raise EngineError(f"{device_dirs[len(listed)]}: no session files (*.json) found")
    in_order = iter(measured)
    return [list(islice(in_order, len(found))) for found in listed]


def _score_tables(
    groups: list[list[MeasuredSession]], config: EngineConfig, profile_names: list[str]
) -> list[ComparisonTable]:
    """One ranked table per named profile, from each device's measured sessions."""
    from .indices import weigh
    from .report import rank_devices

    profiles = [config.profiles[name] for name in profile_names]
    return [rank_devices(cards) for cards in zip(*(weigh(m, profiles) for m in groups))]


def _write_reports(
    groups: list[list[MeasuredSession]], config: EngineConfig, out_dir: Path, fmt: str
) -> list[Path]:
    """Score every profile, write the reports and the plot data; return the paths written."""
    from .report import emit_plot_data, emit_report

    tables = _score_tables(groups, config, sorted(config.profiles))
    written = []
    for table in tables:
        target = out_dir / f"report_{table.profile_name}.{fmt}"
        target.write_bytes(emit_report(table, fmt))
        written.append(target)
    plot_path = out_dir / "plot_data.csv"
    plot_path.write_bytes(emit_plot_data(tables))
    return written + [plot_path]


def _demo_device(device: CorpusDevice, out_dir: Path, config: EngineConfig) -> list[MeasuredSession]:
    """Generate, write and measure one device's sessions; only the measured scores are kept."""
    from .indices import measure
    from .report import serialize_session
    from .synth import generate_corpus

    ((device_id, sessions),) = generate_corpus((device,)).items()
    device_dir = out_dir / "sessions" / device_id
    device_dir.mkdir(parents=True, exist_ok=True)
    for i, session in enumerate(sessions):
        (device_dir / f"session_{i:02d}.json").write_bytes(serialize_session(session))
    return [measure(session, config.curves) for session in sessions]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _WorkerTraceback(Exception):
    """A worker's traceback, shown as the cause of its error when the parent raises it again."""


def _ordered_map(fn: Callable, items: Sequence) -> Iterator:
    """``map(fn, items)`` over one forked worker per usable CPU, up to the item count.

    ``validate``, ``score``, ``compare`` and ``demo`` run on it. Results come
    in input order, and an item's error is raised in its turn, from its
    worker's traceback, so the first failing item wins, as in a loop. A
    worker that dies makes the map raise ``EngineError`` naming its wait
    status. Closing or exhausting the map kills and reaps every worker.
    Standard output and error are flushed before the fork, and a worker
    leaves by ``os._exit``, so none writes the parent's pending output
    again. With one worker, or without ``os.fork``, it is ``map``. Every
    module ``fn`` runs must be imported before the call, or each worker
    compiles it again on the critical path.

    Worker ``k`` pins itself to CPU ``k`` of the parent's affinity set, in
    turn, where the platform lets it: unpinned, the scheduler ran workers
    forked by a command started from a shell one after the other (on 2
    shared vCPUs, two forked 120 ms loops took 228-320 ms, and 122-188 ms
    pinned). Workers take items from one task pipe, so a pinned worker on a
    busy CPU holds back at most its item in flight.
    """
    workers = min(_usable_cpus(), len(items))
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    import pickle
    import select
    import signal

    pin = getattr(os, "sched_setaffinity", None)
    cpus = sorted(os.sched_getaffinity(0)) if pin else []
    sys.stdout.flush()
    sys.stderr.flush()
    task_r, task_w = os.pipe()  # 4-byte item indices; each free worker reads the next
    pipes: dict[int, tuple[int, bytearray]] = {}  # each worker's result pipe -> pid, unread bytes
    try:
        for k in range(workers):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # e.g. out of processes; the finally closes only forked workers' pipes
                os.close(result_r)
                os.close(result_w)
                raise
            if pid == 0:
                try:
                    if pin:
                        with suppress(OSError):  # e.g. the CPU left the set since it was read
                            pin(0, {cpus[k % len(cpus)]})
                    os.close(task_w)  # left to the parent alone: its exit ends this loop
                    out = open(result_w, "wb")
                    while record := os.read(task_r, 4):
                        i = int.from_bytes(record, "little")
                        try:
                            data = pickle.dumps({i: (True, fn(items[i]), "")}, -1)
                        except Exception as exc:
                            import traceback

                            text = traceback.format_exc()
                            try:
                                data = pickle.dumps({i: (False, exc, text)}, -1)
                            except Exception:  # an error that does not pickle: its last line does
                                last = RuntimeError(text.splitlines()[-1])
                                data = pickle.dumps({i: (False, last, text)}, -1)
                        out.write(len(data).to_bytes(8, "little") + data)
                        out.flush()
                finally:
                    os._exit(0)
            os.close(result_w)
            pipes[result_r] = pid, bytearray()
        tasks = iter(range(len(items)))  # two a worker ahead of the results read: no write blocks
        os.write(task_w, b"".join(i.to_bytes(4, "little") for i in islice(tasks, 2 * workers)))
        done: dict[int, tuple[bool, Any, str]] = {}
        for want in range(len(items)):
            while want not in done:
                for fd in select.select(list(pipes), [], [])[0]:
                    pid, buf = pipes[fd]
                    if not (chunk := os.read(fd, 1 << 16)):
                        del pipes[fd]  # reaped here, not again below
                        os.close(fd)
                        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                        raise EngineError(f"worker {pid} ended before its items ({how})")
                    buf += chunk
                    while len(buf) >= 8 + (size := int.from_bytes(buf[:8], "little")):
                        done.update(pickle.loads(buf[8 : 8 + size]))
                        del buf[: 8 + size]
                        os.write(task_w, b"".join(i.to_bytes(4, "little") for i in islice(tasks, 1)))
            ok, value, text = done.pop(want)
            if not ok:
                raise value from _WorkerTraceback(text)
            yield value
    finally:
        for fd in (task_r, task_w, *pipes):
            os.close(fd)
        for pid, _ in pipes.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_score(args: argparse.Namespace) -> int:
    from .report import emit_report

    config = _load_config(args.config)
    if args.profile not in config.profiles:
        _say(f"unknown profile '{args.profile}'")
        return EXIT_USAGE
    if args.out is not None:
        out_path = Path(args.out).resolve()
        inputs = {
            f.resolve() for d in args.device_dirs for f in Path(d).glob("*.json")
        }
        if out_path in inputs:
            _say(f"refusing to overwrite input file {args.out}")
            return EXIT_USAGE
    groups = _measure_dirs(args.device_dirs, config)
    if groups is None:
        return EXIT_DATA
    (table,) = _score_tables(groups, config, [args.profile])
    payload = emit_report(table, args.format)
    if not args.out:
        sys.stdout.buffer.write(payload)
        return EXIT_OK
    try:
        Path(args.out).write_bytes(payload)
    except OSError as exc:
        _say(f"i/o error writing {args.out}: {exc}")
        return EXIT_DATA
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        groups = _measure_dirs(args.device_dirs, config)
        if groups is None:
            return EXIT_DATA
        written = _write_reports(groups, config, out_dir, args.format)
    except OSError as exc:
        _say(f"i/o error under {out_dir}: {exc}")
        return EXIT_DATA
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    from .config import default_config
    from .synth import default_demo_manifest, load_manifest

    try:
        if args.manifest is None:
            corpus = default_demo_manifest()
        else:
            with open(args.manifest, "rb") as fh:
                corpus = load_manifest(fh.read())
    except (OSError, EngineError) as exc:
        _say(f"manifest error: {exc}")
        return EXIT_USAGE

    out_dir = Path(args.out)
    try:
        # What _demo_device runs, imported before the map: config and synth above, numpy,
        # and report, which imports orjson to write the frames.
        import numpy  # noqa: F401

        from . import report  # noqa: F401

        config = default_config()
        groups = list(_ordered_map(partial(_demo_device, out_dir=out_dir, config=config), corpus))
        _write_reports(groups, config, out_dir, "json")
    except OSError as exc:
        _say(f"i/o error under {out_dir}: {exc}")
        return EXIT_DATA
    print(f"demo corpus and reports written to {out_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a stdout closed by its reader fails here, not as the process exits
        return status
    except ConfigError as exc:  # a bad --config
        _say(f"config error: {exc}")
        return EXIT_USAGE
    except (OSError, EngineError) as exc:  # OSError: a failed fork or pipe, or a closed stdout
        _say(f"error: {exc}")
        return EXIT_DATA
