"""JSON documents: decoding and typed field readers.

Every document the engine reads (session files, engine configs, corpus
manifests) goes from bytes to a JSON value through :func:`decode`, and
its fields come out through the readers below, so one set of rules
decides what a bad input becomes: ``decode`` raises the caller's error
class for bytes that are not a JSON document, and each reader raises
``SchemaError`` naming the field path, e.g. ``events.touch[3][1]:
expected finite number``. Integers must fit in int64 and reals must be
finite; readers check a value and return it as given.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, TypeVar

from .errors import EngineError, SchemaError

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

T = TypeVar("T")


def decode(data: bytes, error_cls: type[EngineError], what: str) -> Any:
    """The JSON value in ``data``; bytes that are not one raise ``error_cls``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error_cls(f"{what} is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    # ValueError covers JSONDecodeError and integer literals past the
    # interpreter's digit limit; RecursionError covers deep nesting.
    except (ValueError, RecursionError) as exc:
        raise error_cls(f"malformed {what}: {exc}") from exc


def require(obj: dict, key: str, path: str) -> Any:
    """``obj[key]``; absent and null are both missing."""
    if key not in obj or obj[key] is None:
        where = f"{path}.{key}" if path else key
        raise SchemaError(f"{where}: missing required field")
    return obj[key]


def require_version(root: dict, expected: int) -> int:
    """The document's ``schema_version``, which must equal ``expected``."""
    version = as_int(require(root, "schema_version", ""), "schema_version")
    if version != expected:
        raise SchemaError(f"schema_version: expected {expected}, got {version}")
    return version


def as_obj(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected object, got {type(value).__name__}")
    return value


def as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected array, got {type(value).__name__}")
    return value


def as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected integer, got {type(value).__name__}")
    if not INT64_MIN <= value <= INT64_MAX:
        raise SchemaError(f"{where}: integer outside the int64 range")
    return value


def as_real(value: Any, where: str) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise SchemaError(f"{where}: expected finite number")
    return value


def as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected string, got {type(value).__name__}")
    return value


def as_pair(value: Any, where: str, read: Callable[[Any, str], T]) -> tuple[T, T]:
    """A 2-element array, each element checked by ``read``."""
    pair = as_list(value, where)
    if len(pair) != 2:
        raise SchemaError(f"{where}: expected a 2-element array")
    return read(pair[0], f"{where}[0]"), read(pair[1], f"{where}[1]")
