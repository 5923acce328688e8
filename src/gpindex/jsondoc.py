"""JSON documents: decoding, typed field readers and immutable records.

Every document the engine reads (session files, engine configs, corpus
manifests) goes from bytes to a JSON value through :func:`decode`, which
raises the caller's error class for bytes that are not a JSON document
or that nest deeper than ``MAX_DEPTH`` (RFC 8259 section 9 lets a parser
bound it; session files are decoded by orjson, the others by json). Each
reader checks one value and returns it as given, or raises
``SchemaError`` naming its path, e.g. ``events.touch[3][1]: expected
finite number``: integers must fit in int64, reals must be finite and
strings must encode to UTF-8. A :class:`Record` checks its own fields,
each by its declared type's reader (:func:`check_record`), so a record
built in Python and one read from a document meet one check:
:func:`build_record` only requires the fields with no default, builds
the record and puts the document's path in front of its ``SchemaError``.
A message holds the document's text (a key, an id) as it is: the CLI
alone escapes a stderr line that is not printable.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from typing import Any, Callable, TypeVar

from .errors import EngineError, SchemaError

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# Arrays and objects nest at most this deep in any document; a session needs 4, a config 5.
MAX_DEPTH = 64

T = TypeVar("T")

_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_STEP = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")  # +1 and -1 as signed bytes


def nesting(data: bytes) -> int:
    """How deep the arrays and objects of the JSON text ``data`` nest.

    Read off the bytes: the escape pairs that hold a quote or backslash
    dropped, then the brackets outside quotes summed. On bytes that are not
    JSON it still bounds the depth a decoder reaches before it fails, since
    both read the same valid prefix alike.
    """
    if b"\\" in data:
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    outside = b"".join(data.translate(None, _NOT_STRUCTURE).split(b'"')[::2])
    return max(accumulate(memoryview(outside.translate(_STEP)).cast("b")), default=0)


def decode(data: bytes, error_cls: type[EngineError], what: str, fast: bool = False) -> Any:
    """The JSON value in ``data``; bytes that are not one, or that nest deeper
    than ``MAX_DEPTH``, raise ``error_cls``. The bound is checked first: orjson
    overruns the C stack on deep input. ``fast`` decodes with orjson (imported
    on first use: it loads ``uuid``, ``datetime`` and ``zoneinfo``), else json.
    """
    if nesting(data) > MAX_DEPTH:
        raise error_cls(f"malformed {what}: nested deeper than {MAX_DEPTH} levels")
    try:
        if fast:
            import orjson

            return orjson.loads(data)
        return json.loads(data.decode("utf-8"))
    # ValueError covers either decoder's JSONDecodeError, bad UTF-8 and integer literals
    # past the interpreter's digit limit; RecursionError, a caller near the recursion limit.
    except (ValueError, RecursionError) as exc:
        try:
            data.decode("utf-8")  # bad UTF-8 is named as such, whichever decoder met it
        except UnicodeDecodeError as bad:
            raise error_cls(f"{what} is not valid UTF-8: {bad}") from bad
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
    """Whether ``value`` encodes to UTF-8: no lone surrogate, which json decodes from an escape
    and a record built in Python may hold."""
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


class Record:
    """An immutable record: its fields are its class's annotated names, in order.

    They are read once, when the class is created. The constructor binds
    arguments by position or keyword, fills each default and raises
    ``TypeError`` for a missing or unknown one; then ``__post_init__`` may
    check fields, set them (``object.__setattr__``) or set attributes derived
    from them, which stay out of equality, hashing, repr and :func:`replace`.
    A record refuses assignment and compares and hashes by its fields.
    """

    _fields = ()  # each subclass's own, set as it is created
    _defaults = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            bound = {**self._defaults, **dict(zip(names, args)), **kwargs}
            unknown = [key for key in kwargs if key not in names or key in names[: len(args)]]
            missing = [key for key in names if key not in bound]
            if len(args) > len(names) or unknown or missing:
                raise TypeError(
                    f"{type(self).__name__}() takes {', '.join(names)}, each once, by position or"
                    f" keyword; got {len(args)} positional, unknown or repeated {unknown}, "
                    f"missing {missing}"
                )
            args = tuple(map(bound.__getitem__, names))
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _refuse(self, name: str, *value: Any) -> None:
        raise AttributeError(f"cannot set or delete {type(self).__name__}.{name}: it is immutable")

    __setattr__ = __delattr__ = _refuse

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: Any) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


def fields(record: Record | type[Record]) -> tuple[str, ...]:
    """The names of a record's (or record class's) fields, in declaration order."""
    return record._fields


def asdict(record: Record) -> dict[str, Any]:
    """The record's fields by name, in declaration order; the values are not copied."""
    return {name: getattr(record, name) for name in record._fields}


def replace(record: Record, **changes: Any) -> Any:
    """A record of the same class built from ``record``'s fields and ``changes``, checked again."""
    return type(record)(**{**asdict(record), **changes})


def build_record(cls: type[Record], obj: dict, path: str) -> Any:
    """``cls`` built from ``obj``, which must hold each field with no default (null is absent);
    the record checks its fields, and a field's ``SchemaError`` is raised again under ``path``."""
    given = {
        name: obj[name] if name in cls._defaults else require(obj, name, path)
        for name in cls._fields
        if name not in cls._defaults or obj.get(name) is not None
    }
    try:
        return cls(**given)
    except SchemaError as exc:
        raise SchemaError(f"{path}.{exc}") from exc


def check_record(record: Record) -> None:
    """Check a built record's fields by their declared types, each with its reader.

    A field declared ``T | None`` may hold None, a bad field raises
    ``SchemaError`` naming it, and a pair is kept as the tuple its reader returns.
    """
    for name, annotation in type(record).__annotations__.items():
        value = getattr(record, name)
        if not (value is None and annotation.endswith(" | None")):
            object.__setattr__(record, name, reader(annotation)(value, name))
