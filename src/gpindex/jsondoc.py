"""JSON documents: decoding and typed field readers.

Every document the engine reads (session files, engine configs, corpus
manifests) goes from bytes to a JSON value through :func:`decode`, and
its fields come out through the readers below, so one set of rules
decides what a bad input becomes: ``decode`` raises the caller's error
class for bytes that are not a JSON document, and each reader raises
``SchemaError`` naming the field path, e.g. ``events.touch[3][1]:
expected finite number``. Integers must fit in int64 and reals must be
finite; readers check a value and return it as given, so a record's
real written ``500`` stays the int 500. A record field or event-row
column is read by its declared type (:func:`reader`), the same whether
parsed (:func:`read_record`) or built (:func:`check_record`), where an
array may be a tuple. The engine's own constructors (curves, profiles,
device models) check numbers with :func:`is_finite` too, and names the
CLI writes files under with :func:`is_file_name`.

Session files may also be decoded by orjson, when installed (the
``fast`` extra), and their frame streams written by it: ints, whose
digits orjson writes as json does, so the bytes are unchanged.
:func:`fast_json` imports it on first use only, as it loads ``uuid``,
``datetime`` and ``zoneinfo``. Its decoded value is json's except where
:func:`same_as_json` fails; there the caller decodes with json. A string
must encode to UTF-8: json decodes a lone surrogate escape, which no
UTF-8 file can hold.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from functools import cache, partial
from itertools import chain, compress, repeat
from operator import is_, is_not
from types import ModuleType
from typing import Any, Callable, TypeVar

from .errors import EngineError, SchemaError

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# Nesting levels json decodes (it fails near 1,000 less the caller's stack depth);
# a session document needs 5.
FAST_DEPTH = 32

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


@cache
def fast_json() -> ModuleType | None:
    """The orjson module when it imports, else None; imported on the first call only."""
    try:
        import orjson
    except ImportError:
        return None
    return orjson


def same_as_json(value: Any, skip: Any = None) -> bool:
    """Whether json decodes the text orjson decoded to ``value`` (``skip`` aside) to it too.

    orjson reads an integer past int64/uint64 as a float and nests far deeper
    than json, so no float may reach 2**63 and no container nest past ``FAST_DEPTH``.
    """
    level = [value]
    for _ in range(FAST_DEPTH):
        kinds = list(map(type, level))
        if not max(map(abs, compress(level, map(is_, kinds, repeat(float)))), default=0) < 2**63:
            return False
        lists = filter(partial(is_not, skip), compress(level, map(is_, kinds, repeat(list))))
        dicts = map(dict.values, compress(level, map(is_, kinds, repeat(dict))))
        level = [*chain.from_iterable(lists), *chain.from_iterable(dicts)]
        if not level:
            return True
    return False


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


def as_list(value: Any, where: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{where}: expected array, got {type(value).__name__}")
    return value


def as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected integer, got {type(value).__name__}")
    if not INT64_MIN <= value <= INT64_MAX:
        raise SchemaError(f"{where}: integer outside the int64 range")
    return value


def is_number(value: Any) -> bool:
    """Whether ``value`` is a JSON number: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite(value: Any) -> bool:
    """Whether ``value`` is a finite number; an int beyond the float range is not."""
    if not is_number(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_file_name(value: Any) -> bool:
    """Whether ``value`` is one printable file-name component: no separator, not . or .."""
    return (
        isinstance(value, str)
        and value.isprintable()
        and value not in ("", ".", "..")
        and not set(value) & set("/\\")
    )


def as_real(value: Any, where: str) -> int | float:
    if is_finite(value):
        return value
    if is_number(value):
        raise SchemaError(f"{where}: expected finite number")
    raise SchemaError(f"{where}: expected number, got {type(value).__name__}")


def is_utf8(value: str) -> bool:
    """Whether ``value`` encodes to UTF-8, i.e. holds no lone surrogate."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected string, got {type(value).__name__}")
    if not is_utf8(value):
        raise SchemaError(f"{where}: string holds a lone surrogate, which UTF-8 cannot encode")
    return value


def as_row(value: Any, where: str, readers: tuple[Callable[[Any, str], Any], ...]) -> tuple:
    """An array of ``len(readers)`` elements, each checked by its reader."""
    row = as_list(value, where)
    if len(row) != len(readers):
        raise SchemaError(f"{where}: expected a {len(readers)}-element array")
    return tuple(read(v, f"{where}[{j}]") for j, (read, v) in enumerate(zip(readers, row)))


def as_pair(value: Any, where: str, read: Callable[[Any, str], T]) -> tuple[T, T]:
    """A 2-element array, each element checked by ``read``."""
    return as_row(value, where, (read, read))


# Readers by a field's declared type, as ``from __future__ import annotations`` keeps it.
_BY_TYPE: dict[str, Callable[[Any, str], Any]] = {
    "str": as_str,
    "int": as_int,
    "float": as_real,
    "tuple[int, int]": lambda value, where: as_pair(value, where, as_int),
}


def reader(annotation: Any) -> Callable[[Any, str], Any]:
    """The reader of a field declared ``annotation``; ``T | None`` reads as T."""
    annotation = getattr(annotation, "__forward_arg__", annotation)  # as a NamedTuple keeps it
    return _BY_TYPE[annotation.removesuffix(" | None")]


def read_record(cls: type, obj: dict, path: str) -> dict[str, Any]:
    """``cls``'s init fields read from ``obj``: one with no default is required; null is absent."""
    kwargs = {}
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if f.init and (required or obj.get(f.name) is not None):
            kwargs[f.name] = reader(f.type)(require(obj, f.name, path), f"{path}.{f.name}")
    return kwargs


def check_record(record: Any, error_cls: type[EngineError]) -> None:
    """Check a built record's init fields with :func:`read_record`'s readers.

    A field declared ``T | None`` may hold None, a bad field raises
    ``error_cls`` naming it, and a pair is kept as the tuple its reader returns.
    """
    for f in fields(record):
        value = getattr(record, f.name)
        if f.init and not (value is None and f.type.endswith(" | None")):
            try:
                object.__setattr__(record, f.name, reader(f.type)(value, f.name))
            except SchemaError as exc:
                raise error_cls(str(exc)) from exc
