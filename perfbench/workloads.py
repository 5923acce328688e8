"""Seeded inputs, reference outputs and output checks for the four workloads.

Every workload writes its inputs under one directory from its seed alone,
builds the outputs the CLI must produce with an in-process reference
(``score_device`` -> ``rank_devices`` -> ``emit_report``), and checks one
CLI outcome against that reference. The program under test only ever
receives the written files.

Work size is kept independent of the seed, so that runs on different
seeds time the same amount of work: seeds reassign and perturb device
parameters, but every corpus keeps the demo shape (9 devices x 3
sessions x 10 minutes) and the same set of frame rates.
"""

from __future__ import annotations

import hashlib
import json
import random
import warnings
from dataclasses import dataclass, field
from importlib.resources import files
from pathlib import Path

from gpindex import errors
from gpindex.config import default_config, load_config_file
from gpindex.indices import MainIndex, score_device
from gpindex.report import emit_plot_data, emit_report, rank_devices, serialize_session
from gpindex.synth import DeviceModel, generate_corpus, generate_session, load_manifest
from gpindex.telemetry import parse_session

# The seed whose inputs are the shipped demo corpus; its reports must also
# equal the golden files under tests/goldens/.
DEFAULT_SEED = 0

WORKLOADS = ("compare_demo", "persona_sweep", "validate_mixed", "demo_generate")

SWEEP_EXTRA_PERSONAS = 6
VALIDATE_BASES = 10
MUTATIONS = ("truncated", "float_frame", "late_disorder", "charging", "unknown_key")


@dataclass
class Prepared:
    """A workload's inputs on disk and what the CLI must make of them."""

    name: str
    seed: int
    argv: list[str]  # CLI arguments, without the program name
    out_dir: Path | None  # the --out directory, cleared before each run
    config_path: Path | None  # None: the built-in default config
    inputs_sha256: str
    attempted_per_run: int  # input files judged in one invocation
    expected_files: dict[str, str] = field(default_factory=dict)
    # validate_mixed only: input path -> (error class name, diagnostic
    # fragment), or None for a file that must validate.
    labels: dict[str, tuple[str, str] | None] = field(default_factory=dict)
    # Defects found while building the reference; each fails every run.
    setup_problems: list[str] = field(default_factory=list)
    # validate_mixed only: inputs the in-process parser already misjudged.
    misjudged: set[str] = field(default_factory=set)

    def check(self, outcome: dict) -> tuple[int, list[str]]:
        """(input files with a wrong outcome, problems) for one invocation.

        ``outcome`` holds the invocation's exit ``code``, its ``stdout`` and
        ``stderr`` text and ``files``: each output path relative to --out
        mapped to the sha256 hex of its bytes.
        """
        if self.name == "validate_mixed":
            return self._check_validate(outcome)
        problems = list(self.setup_problems)
        if outcome["code"] != 0:
            problems.append(f"exit status {outcome['code']}: {outcome['stderr'].strip()[-300:]}")
        got = outcome["files"]
        wrong = sorted(
            name for name in set(got) | set(self.expected_files)
            if got.get(name) != self.expected_files.get(name)
        )
        wrong_reports = [name for name in wrong if not name.startswith("sessions/")]
        if wrong_reports:
            problems.append(f"outputs differ from the reference: {wrong_reports[:5]}")
        if problems:
            return self.attempted_per_run, problems
        # Only demo_generate writes session files; each wrong one fails alone.
        if wrong:
            problems.append(f"session files differ from the reference: {wrong[:5]}")
        return len(wrong), problems

    def _check_validate(self, outcome: dict) -> tuple[int, list[str]]:
        problems = list(self.setup_problems)
        n_valid = sum(label is None for label in self.labels.values())
        if outcome["code"] != 1:
            problems.append(f"exit status {outcome['code']}, expected 1")
        if outcome["stdout"].strip() != f"{n_valid} valid":
            problems.append(f"stdout {outcome['stdout'].strip()!r}, expected '{n_valid} valid'")
        if problems:
            return self.attempted_per_run, problems
        lines = outcome["stderr"].splitlines()
        failed = 0
        for path, label in self.labels.items():
            mine = [line for line in lines if line.startswith(f"{path}: ")]
            if label is None:
                ok = not mine
            else:
                ok = len(mine) == 1 and label[1] in mine[0]
            if not ok or path in self.misjudged:
                failed += 1
                problems.append(f"{Path(path).name}: diagnostics {mine!r}, expected {label!r}"
                                f"{' (also misjudged in-process)' if path in self.misjudged else ''}")
        return failed, problems


def prepare(name: str, seed: int, inputs: Path, out_dir: Path, goldens: Path) -> Prepared:
    """Write the inputs of workload ``name`` for ``seed`` and build its reference."""
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "compare_demo":
        return _prepare_compare(name, seed, inputs, out_dir, goldens, config_path=None)
    if name == "persona_sweep":
        config_path = inputs / "config.json"
        config_path.write_bytes(sweep_config(seed))
        return _prepare_compare(name, seed, inputs, out_dir, goldens, config_path)
    if name == "validate_mixed":
        return _prepare_validate(seed, inputs)
    if name == "demo_generate":
        return _prepare_demo(seed, inputs, out_dir, goldens)
    raise ValueError(f"unknown workload '{name}'")


# --- generated inputs --------------------------------------------------


def demo_manifest(seed: int) -> bytes:
    """The demo corpus manifest: the shipped one on the default seed.

    Other seeds deal the shipped device parameter sets out to the device
    ids in a seeded order and perturb everything that does not change the
    amount of work (drain, temperatures, latency, launch time, pixel
    density, generator seeds). Frame rates, jitter and throttling are
    kept, so every seed yields the same number of frames.
    """
    shipped = files("gpindex.data").joinpath("demo_manifest.json").read_bytes()
    if seed == DEFAULT_SEED:
        return shipped
    doc = json.loads(shipped)
    rng = random.Random(f"demo_manifest:{seed}")
    devices = doc["devices"]
    models = [dict(d["model"]) for d in devices]
    rng.shuffle(models)
    for device, model in zip(devices, models):
        model["device_id"] = device["model"]["device_id"]
        model["drain_rate_pct_per_hour"] = round(
            model["drain_rate_pct_per_hour"] * rng.uniform(0.8, 1.25), 3
        )
        rise = model["temp_peak_c"] - model["temp_start_c"]
        model["temp_peak_c"] = round(model["temp_start_c"] + rise * rng.uniform(0.8, 1.25), 3)
        model["touch_latency_ms"] = round(model["touch_latency_ms"] * rng.uniform(0.8, 1.25), 3)
        model["launch_s"] = round(model["launch_s"] * rng.uniform(0.8, 1.25), 3)
        model["display_ppi"] = round(model["display_ppi"] * rng.uniform(0.9, 1.1), 1)
        model["seed"] = rng.randrange(1, 2**31)
        device["model"] = model
    doc["_comment"] = f"demo cast reshuffled for benchmark seed {seed}"
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def sweep_config(seed: int) -> bytes:
    """The default config plus six personas with seed-derived main weights."""
    doc = json.loads(files("gpindex.data").joinpath("default_config.json").read_bytes())
    rng = random.Random(f"persona_sweep:{seed}")
    for i in range(1, SWEEP_EXTRA_PERSONAS + 1):
        doc["profiles"][f"sweep_{i}"] = {
            "main_weights": {index.value: round(rng.uniform(0.05, 1.0), 4) for index in MainIndex}
        }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _write_corpus(corpus: dict, root: Path) -> list[Path]:
    device_dirs = []
    for device_id, sessions in corpus.items():
        device_dir = root / device_id
        device_dir.mkdir(parents=True, exist_ok=True)
        for i, session in enumerate(sessions):
            (device_dir / f"session_{i:02d}.json").write_bytes(serialize_session(session))
        device_dirs.append(device_dir)
    return device_dirs


def _validate_bases(seed: int) -> list:
    """Demo-shaped 60 fps sessions; only non-timing parameters vary by seed."""
    rng = random.Random(f"validate_mixed:{seed}")
    sessions = []
    for i in range(VALIDATE_BASES):
        model = DeviceModel(
            device_id=f"device_{i:02d}",
            base_frame_time_ms=16.667,
            frame_jitter_sd_ms=0.5,
            # Drain of at least 15 %/h keeps the last battery sample below
            # 98.5 %, so the charging mutation never leaves [0, 100].
            drain_rate_pct_per_hour=round(rng.uniform(15.0, 30.0), 3),
            temp_start_c=28.0,
            temp_peak_c=round(rng.uniform(36.0, 44.0), 3),
            touch_latency_ms=round(rng.uniform(20.0, 80.0), 3),
            launch_s=round(rng.uniform(5.0, 10.0), 3),
            display_ppi=450.0,
            battery_capacity_mah=4500,
            seed=rng.randrange(1, 2**31),
        )
        sessions.append(generate_session(model, 600))
    return sessions


def mutate(kind: str, data: bytes, rng: random.Random) -> tuple[bytes, tuple[str, str] | None]:
    """Apply one mutation late in the document; return bytes and expected outcome."""
    if kind == "truncated":
        return data[: len(data) - rng.randrange(16, 512)], (
            "SessionSyntaxError",
            "malformed session document",
        )
    doc = json.loads(data)
    events = doc["events"]
    frames = events["frames"]
    if kind == "float_frame":
        n = len(frames) - rng.randrange(2, 200)
        frames[n] = frames[n] + 0.5
        label = ("SchemaError", f"events.frames[{n}]: expected integer")
    elif kind == "late_disorder":
        n = len(frames) - rng.randrange(3, 200)
        while frames[n] >= frames[n + 1]:
            n -= 1
        frames[n], frames[n + 1] = frames[n + 1], frames[n]
        label = ("ValidationError", f"frames not non-decreasing at t={frames[n + 1]}ms")
    elif kind == "charging":
        battery = events["battery"]
        battery[-1][1] = battery[-2][1] + 1.0
        label = ("ValidationError", f"battery increased by >0.5pp at t={battery[-1][0]}ms")
    elif kind == "unknown_key":
        events["replay_markers"] = [[t, "marker"] for t in frames[-50::10]]
        label = None
    else:
        raise ValueError(f"unknown mutation '{kind}'")
    return (json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n").encode(), label


def tree_sha256(root: Path) -> str:
    """One digest over every file under ``root``: relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# --- references --------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reference_reports(corpus: dict, config) -> tuple[dict[str, bytes], list[str]]:
    """Report bytes the CLI must write, and any score outside [0, 100]."""
    problems = []
    tables = []
    for name in sorted(config.profiles):
        cards = [
            score_device(sessions, config.profiles[name], config.curves)
            for sessions in corpus.values()
        ]
        for card in cards:
            scores = [card.median_overall, *card.median_main.values()]
            scores += [s.overall for s in card.sessions]
            if any(s is not None and not 0.0 <= s <= 100.0 for s in scores):
                problems.append(f"{name}/{card.device_id}: score outside [0, 100]")
        tables.append(rank_devices(cards))
    reports = {f"report_{t.profile_name}.json": emit_report(t, "json") for t in tables}
    reports["plot_data.csv"] = emit_plot_data(tables)
    return reports, problems


def _golden_problems(reports: dict[str, bytes], goldens: Path, names: tuple[str, ...]) -> list[str]:
    problems = []
    for name in names:
        golden = goldens / f"demo_{name}"
        if not golden.is_file() or golden.read_bytes() != reports[name]:
            problems.append(f"reference {name} differs from golden {golden.name}")
    return problems


def _prepare_compare(name, seed, inputs, out_dir, goldens, config_path) -> Prepared:
    corpus = generate_corpus(load_manifest(demo_manifest(seed)))
    device_dirs = _write_corpus(corpus, inputs / "sessions")
    config = default_config() if config_path is None else load_config_file(str(config_path))
    reports, problems = _reference_reports(corpus, config)
    if seed == DEFAULT_SEED:
        golden_names = ("report_competitive.json", "report_casual.json")
        if config_path is None:
            golden_names += ("plot_data.csv",)
        problems += _golden_problems(reports, goldens, golden_names)
    argv = ["compare", "--out", str(out_dir)]
    if config_path is not None:
        argv += ["--config", str(config_path)]
    return Prepared(
        name=name,
        seed=seed,
        argv=argv + [str(d) for d in device_dirs],
        out_dir=out_dir,
        config_path=config_path,
        inputs_sha256=tree_sha256(inputs),
        attempted_per_run=sum(len(s) for s in corpus.values()),
        expected_files={k: _sha(v) for k, v in reports.items()},
        setup_problems=problems,
    )


def _prepare_demo(seed, inputs, out_dir, goldens) -> Prepared:
    manifest = demo_manifest(seed)
    (inputs / "manifest.json").write_bytes(manifest)
    corpus = generate_corpus(load_manifest(manifest))
    reports, problems = _reference_reports(corpus, default_config())
    if seed == DEFAULT_SEED:
        problems += _golden_problems(
            reports, goldens, ("report_competitive.json", "report_casual.json", "plot_data.csv")
        )
    expected = {k: _sha(v) for k, v in reports.items()}
    for device_id, sessions in corpus.items():
        for i, session in enumerate(sessions):
            expected[f"sessions/{device_id}/session_{i:02d}.json"] = _sha(
                serialize_session(session)
            )
    return Prepared(
        name="demo_generate",
        seed=seed,
        argv=["demo", "--manifest", str(inputs / "manifest.json"), "--out", str(out_dir)],
        out_dir=out_dir,
        config_path=None,
        inputs_sha256=tree_sha256(inputs),
        attempted_per_run=sum(len(s) for s in corpus.values()),
        expected_files=expected,
        setup_problems=problems,
    )


def _prepare_validate(seed, inputs) -> Prepared:
    rng = random.Random(f"validate_mixed:mutations:{seed}")
    labels: dict[str, tuple[str, str] | None] = {}
    for i, session in enumerate(_validate_bases(seed)):
        data = serialize_session(session)
        valid = inputs / f"{i:02d}_valid.json"
        valid.write_bytes(data)
        labels[str(valid)] = None
        kind = MUTATIONS[i % len(MUTATIONS)]
        mutated_bytes, label = mutate(kind, data, rng)
        mutated = inputs / f"{i:02d}_{kind}.json"
        mutated.write_bytes(mutated_bytes)
        labels[str(mutated)] = label

    # In-process reference: the library must reject each mutated file with
    # the labelled class and diagnostic, and accept every other file.
    misjudged = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for path, label in labels.items():
            try:
                parse_session(Path(path).read_bytes())
                got = None
            except errors.EngineError as exc:
                got = (type(exc).__name__, str(exc))
            if label is None:
                if got is not None:
                    misjudged.add(path)
            elif got is None or got[0] != label[0] or label[1] not in got[1]:
                misjudged.add(path)
    return Prepared(
        name="validate_mixed",
        seed=seed,
        argv=["validate", *labels],
        out_dir=None,
        config_path=None,
        inputs_sha256=tree_sha256(inputs),
        attempted_per_run=len(labels),
        labels=labels,
        misjudged=misjudged,
    )
