"""scripts/import_cost.py on the load set of ``validate``."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "import_cost.py"


def test_validate_load_set():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "-n", "1", "validate"],
        capture_output=True, text=True, check=True,
    )
    head, cold, columns, *rows = result.stdout.splitlines()
    assert head == "validate: import gpindex.cli (+ orjson where it imports)"
    assert cold.startswith("  cold import: ") and cold.endswith(" ms, median of 1")
    modules = {row.split()[1] for row in rows}
    assert {m for m in modules if m.split(".")[0] == "gpindex"} == {
        "gpindex", "gpindex.cli", "gpindex.errors", "gpindex.jsondoc", "gpindex.telemetry"
    }
    # The standard library that validate adds after site: json, never dataclasses or inspect.
    assert {"json", "argparse"} <= modules
    assert not {"dataclasses", "inspect", "statistics", "numpy", "orjson"} & modules
