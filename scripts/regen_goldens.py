#!/usr/bin/env python3
"""Regenerate the golden files under tests/goldens/.

The goldens are the demo's two reports and plot data, and the sha256 of
each session file the demo writes (``demo_sessions.sha256``, one
``<sha256>  sessions/<device>/session_NN.json`` line per file, sorted by
path, as ``sha256sum`` writes them). Run after any deliberate change to
default curves, profiles, the demo manifest, report serialization or the
session-file format; review the diff before committing.
"""

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gpindex.cli import main  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "goldens"
GOLDEN_FILES = ("report_competitive.json", "report_casual.json", "plot_data.csv")
SESSION_DIGESTS = "demo_sessions.sha256"


def session_digests(out: Path) -> str:
    """The ``sha256sum`` lines of every session file under a demo output directory."""
    paths = sorted(p.relative_to(out).as_posix() for p in out.glob("sessions/*/*.json"))
    return "".join(f"{hashlib.sha256((out / p).read_bytes()).hexdigest()}  {p}\n" for p in paths)


def regen():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "demo"
        status = main(["demo", "--out", str(out)])
        if status != 0:
            raise SystemExit(f"demo failed with status {status}")
        for name in GOLDEN_FILES:
            target = GOLDEN_DIR / f"demo_{name}"
            shutil.copyfile(out / name, target)
            print(f"wrote {target}")
        target = GOLDEN_DIR / SESSION_DIGESTS
        target.write_text(session_digests(out), encoding="utf-8", newline="\n")
        print(f"wrote {target}")


if __name__ == "__main__":
    regen()
