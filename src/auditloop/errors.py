"""Exception types shared across the engine, the value checks that parameter
constructors and config, trace and log readers share, and their line reader."""

import functools
import json
import numbers
from dataclasses import MISSING, fields
from pathlib import Path


class AuditLoopError(Exception):
    """Base class for every library-raised error."""


class InvalidParams(AuditLoopError):
    """A parameter violates its documented range or consistency rule."""


class IncompatibleTemplate(InvalidParams):
    """An adapter template names a slot its family cannot attach to."""


class EmptySpace(InvalidParams):
    """Audit-space construction produced zero units."""


class NonFiniteUtility(AuditLoopError):
    """An audit utility was NaN or infinite."""


class NeverAudited(AuditLoopError):
    """A score was requested for a unit that has no audit history."""


class LengthMismatch(AuditLoopError):
    """Parallel vectors disagree in length."""


class NonPositiveCost(AuditLoopError):
    """A unit cost is zero or negative."""


class TooLarge(AuditLoopError):
    """Exhaustive enumeration was requested above the instance-size cap."""


class MalformedTrace(AuditLoopError):
    """A replay trace file is syntactically or structurally invalid."""


class UnknownConfiguration(AuditLoopError):
    """A replay oracle was queried with an unrecorded gate vector."""


class MalformedLog(AuditLoopError):
    """An event log is not a run's records in order, or a record lacks a field."""


class BudgetViolation(AuditLoopError):
    """A committed configuration exceeded the parameter budget."""


def check_count(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """`value`; raise InvalidParams unless it is a Python int, not a bool nor
    a numpy integer, of at least `minimum` and, if given, at most `maximum`."""
    if type(value) is not int:
        raise InvalidParams(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise InvalidParams(f"{name} must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise InvalidParams(f"{name} must be at most {maximum}")
    return value


def check_bits(name: str, value, width: int | None = None) -> str:
    """`value`; raise InvalidParams unless it is a string of 0s and 1s, `width` of them if given."""
    if not isinstance(value, str) or value.strip("01"):
        raise InvalidParams(f"{name} must be a 0/1 bitstring")
    if width is not None and len(value) != width:
        raise InvalidParams(f"{name} must hold {width} bits, not {len(value)}")
    return value


@functools.cache
def _ends(interval: str) -> tuple[float, float]:
    """The low and high ends of an interval written as `(0, 1]`."""
    return tuple(map(float, interval[1:-1].split(",")))


def check_number(name: str, value, interval: str | None = None) -> float:
    """`value` as a float; raise InvalidParams unless it is a real number,
    not a bool or a string, and not an integer too large for a float, that
    lies in `interval` if given, such as `(0, 1]` or `[0, inf)` (an infinite
    end is open, so NaN and infinities lie in no interval)."""
    if not isinstance(value, float) and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise InvalidParams(f"{name} must be a number, not {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise InvalidParams(f"{name} must be a number within a float's range") from None
    if interval is not None:
        low, high = _ends(interval)
        if not (low < x < high or x == low and interval[0] == "[" or x == high and interval[-1] == "]"):
            raise InvalidParams(f"{name} must lie in {interval}")
    return x


def check_flag(name: str, value) -> None:
    """Raise InvalidParams unless `value` is a bool (a JSON true or false)."""
    if not isinstance(value, bool):
        raise InvalidParams(f"{name} must be true or false, not {value!r}")


def check_keys(where: str, doc, known, required=()) -> dict:
    """`doc` itself; raise InvalidParams, naming `where` (the object's place in
    the config), unless `doc` is a JSON object whose keys are all in `known`
    and include every name in `required`."""
    if not isinstance(doc, dict):
        raise InvalidParams(f"{where} must be a JSON object, not {type(doc).__name__}")
    if unknown := sorted(doc.keys() - known):
        raise InvalidParams(f"unknown {where} key {unknown[0]!r}")
    if missing := [name for name in required if name not in doc]:
        raise InvalidParams(f"{where} key {missing[0]!r} is missing")
    return doc


@functools.cache
def _doc_keys(cls) -> tuple[frozenset[str], tuple[str, ...]]:
    """The field names of the dataclass `cls`, and those of its fields
    without a default, in field order."""
    names = frozenset(f.name for f in fields(cls))
    return names, tuple(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)


def read_doc(cls, where: str, doc, ignored=()):
    """The dataclass `cls` built from the JSON object `doc`, whose keys are
    `cls`'s field names or `ignored`, and include every field without a
    default; the ignored keys are dropped."""
    names, required = _doc_keys(cls)
    return cls(**{k: v for k, v in check_keys(where, doc, names.union(ignored), required).items() if k in names})


def read_json_lines(path: str | Path, error: type[AuditLoopError], what: str):
    """Yield `(line number, value)` for each non-blank line of the JSON-lines
    file `path`. A file that cannot be read raises its OSError; one that is
    not UTF-8 raises `error` as `cannot decode {what} {path}: …`, and a line
    that does not parse, as `{path}:{line}: cannot parse {what}: …`."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"cannot decode {what} {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        try:
            if line.strip():
                yield lineno, json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}:{lineno}: cannot parse {what}: {exc}") from exc
