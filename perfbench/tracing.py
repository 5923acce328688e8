"""Spans around the calls into each gpindex layer, recorded from outside.

The tracer replaces the module attribute through which a caller looks a
public function up (``gpindex.cli.parse_session``, not
``gpindex.telemetry.parse_session``, because the CLI imported the name)
with a wrapper that records one span per call, and puts the original
back afterwards. No file of the program changes.

A name that no longer resolves, e.g. after a refactor splits a
function, is listed in ``missing`` and the run carries on. Spans stay in
memory until the caller writes them out once at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module the caller looks the name up in, attribute, span name). A span
# name is "<layer>.<function>", the layer being the defining module. Every
# function gpindex.cli imports from a layer is here, so that cli.self_s
# holds only the CLI's own work.
WRAPPED = (
    ("gpindex.cli", "default_config", "config.default_config"),
    ("gpindex.cli", "load_config_file", "config.load_config_file"),
    ("gpindex.cli", "parse_session", "telemetry.parse_session"),
    ("gpindex.cli", "validate_comparability", "telemetry.validate_comparability"),
    ("gpindex.cli", "default_demo_manifest", "synth.default_demo_manifest"),
    ("gpindex.cli", "load_manifest", "synth.load_manifest"),
    ("gpindex.cli", "generate_corpus", "synth.generate_corpus"),
    ("gpindex.cli", "serialize_session", "report.serialize_session"),
    ("gpindex.cli", "score_device", "indices.score_device"),
    ("gpindex.indices", "extract_metrics", "metrics.extract_metrics"),
    ("gpindex.indices", "map_metric", "scoring.map_metric"),
    ("gpindex.indices", "score_main_index", "indices.score_main_index"),
    ("gpindex.indices", "score_overall", "indices.score_overall"),
    ("gpindex.cli", "rank_devices", "report.rank_devices"),
    ("gpindex.cli", "emit_report", "report.emit_report"),
    ("gpindex.cli", "emit_plot_data", "report.emit_plot_data"),
)
SPAN_NAMES = tuple(span for _, _, span in WRAPPED)

# Counters without a span of their own, reported as 0 when nothing counted them.
COUNTERS = (
    "telemetry.bytes_in",
    "telemetry.frames_in",
    "telemetry.rejected.SessionSyntaxError",
    "telemetry.rejected.SchemaError",
    "telemetry.rejected.ValidationError",
    "synth.sessions_generated",
    "synth.frames_generated",
    "report.bytes_out",
)


def _count(span: str, counts: Counter, sessions: set, args: tuple, result) -> None:
    """Counters read at a layer boundary, after the span has ended."""
    if span == "telemetry.parse_session":
        counts["telemetry.bytes_in"] += len(args[0])
        counts["telemetry.frames_in"] += len(result.frames)
    elif span == "metrics.extract_metrics":
        sessions.add(id(args[0]))
    elif span == "synth.generate_corpus":
        counts["synth.sessions_generated"] += sum(len(s) for s in result.values())
        counts["synth.frames_generated"] += sum(len(x.frames) for s in result.values() for x in s)
    elif span == "report.serialize_session":
        counts["report.bytes_out"] += len(result)


class Tracer:
    """Records spans (run, id, parent, name, start_ns, end_ns) per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.missing: list[str] = []
        self._counts: dict[int, Counter] = defaultdict(Counter)
        self._sessions: dict[int, set] = defaultdict(set)
        self._stack: list[int] = []
        self._run = 0

    @contextmanager
    def run(self, run_id: int):
        """Wrap every listed name for one run, then restore the originals."""
        self._run = run_id
        installed = []
        missing = []
        for module_name, attr, span in WRAPPED:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(span, original))
            installed.append((module, attr, original))
        self.missing = missing
        try:
            yield self
        finally:
            for module, attr, original in reversed(installed):
                setattr(module, attr, original)
            self._stack.clear()

    def _wrap(self, span: str, fn):
        spans = self.spans
        stack = self._stack
        counts = self._counts[self._run]
        sessions = self._sessions[self._run]
        run = self._run

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter_ns()
                if span == "telemetry.parse_session":
                    counts[f"telemetry.rejected.{type(exc).__name__}"] += 1
                raise
            else:
                end = time.perf_counter_ns()
            finally:
                stack.pop()
                spans[span_id] = (run, span_id, parent, span, start, end)
            _count(span, counts, sessions, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self, run_id: int, total_s: float) -> dict[str, float]:
        """Per-layer metrics of one run that took ``total_s`` end to end.

        ``self_s`` is a span's duration minus the part its child spans
        cover; ``cli.self_s`` is the run's time outside every span, so the
        root spans' busy time plus ``cli.self_s`` adds up to ``total_s``.
        """
        calls: Counter = Counter()
        busy: Counter = Counter()
        child_time: Counter = Counter()
        root_ns = 0
        names = {}
        spans = [s for s in self.spans if s is not None and s[0] == run_id]
        for _, span_id, parent, name, start, end in spans:
            names[span_id] = name
        for _, span_id, parent, name, start, end in spans:
            calls[name] += 1
            busy[name] += end - start
            if parent < 0:
                root_ns += end - start
            else:
                child_time[names[parent]] += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name] / 1e9
            out[f"{name}.self_s"] = (busy[name] - child_time[name]) / 1e9
        counts = self._counts[run_id]
        for name in COUNTERS:
            out[name] = counts[name]
        for name, value in counts.items():
            out.setdefault(name, value)  # e.g. a rejection class not listed above
        distinct = len(self._sessions[run_id])
        out["metrics.extract_per_session"] = (
            calls["metrics.extract_metrics"] / distinct if distinct else 0.0
        )
        out["cli.self_s"] = total_s - root_ns / 1e9
        out["trace.pipeline_s"] = total_s
        out["trace.missing"] = len(self.missing)
        return out

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON line each."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                run, span_id, parent, name, start, end = span
                fh.write(
                    json.dumps(
                        {"run": run, "id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
