"""Rules about where the package's code may do some things, read off its syntax trees."""

import ast
from pathlib import Path

import gpindex

SOURCES = sorted(Path(gpindex.__file__).parent.glob("*.py"))

# The program's output is the CLI's: only it writes standard output and error.
WRITERS = {"cli.py", "__main__.py"}


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in SOURCES]


def _writes_output(node):
    """Whether ``node`` calls ``print`` or names ``sys.stdout`` or ``sys.stderr``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "print"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "sys" and node.attr in ("stdout", "stderr")
    if isinstance(node, ast.ImportFrom) and node.module == "sys":
        return any(alias.name in ("stdout", "stderr") for alias in node.names)
    return False


def _imported(node):
    """The top-level module names an import node imports."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and not node.level:
        return {node.module.split(".")[0]}
    return set()


def test_the_sources_are_found():
    assert {"cli.py", "__main__.py", "telemetry.py"} <= {path.name for path in SOURCES}


def test_only_the_cli_writes_standard_output_and_error():
    writing = {
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if _writes_output(node) and name not in WRITERS
    }
    assert writing == set()


# A diagnostic is data its caller turns into a line; the warnings channel once
# printed a source line in place of the input file's name.
def test_no_module_imports_warnings():
    importing = {
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if "warnings" in _imported(node)
    }
    assert importing == set()
