"""Exception types shared across the package, the one JSON input check and
its per-side key names, and the base of its immutable values."""

import json


class BorderedFloerError(Exception):
    pass


class SchemaViolation(BorderedFloerError):
    """Malformed input data; path, when given, is the JSON path at fault,
    built as f"{path}.{key}" and f"{path}[{index}]" from "" at the top."""

    def __init__(self, message, path=""):
        path = path.lstrip(".")
        super().__init__(f"{path}: {message}" if path else message)


def show(value):
    """A short JSON rendering of an input value, for error messages."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


class OneOf(tuple):
    """A spec of allowed values, as a tuple is, whose "in" is one hash lookup
    rather than a scan: for long lists such as a file's generator names."""

    def __new__(cls, values):
        self = super().__new__(cls, values)
        self.lookup = frozenset(self)
        return self

    def __contains__(self, value):
        return value in self.lookup


def _describe(spec):
    if isinstance(spec, range):
        return f"an integer in {spec.start}..{spec.stop - 1}"
    if isinstance(spec, tuple):
        return "one of " + show(list(spec))
    if isinstance(spec, list) and len(spec) > 1:
        return f"a list of {len(spec)}"
    return {int: "an integer", str: "a string", list: "a list"}.get(
        type(spec) if isinstance(spec, (list, dict)) else spec, "an object")


def check(value, spec, path=""):
    """Return value after checking it against spec, without coercing it.

    A spec is a type (matched exactly: a bool is no int, 1.0 is no 1), a
    tuple of allowed values of one type or a range, [spec] for a list, a
    list of several specs for a list of that many values, or {key: spec}
    for an object, where a key ending in "?" is optional and an unlisted
    key is rejected.  A mismatch raises SchemaViolation naming its path.
    """
    kind = type(spec) if isinstance(spec, (dict, list)) else spec
    if isinstance(kind, type):
        ok = type(value) is kind and (not isinstance(spec, list)
                                      or len(spec) in (1, len(value)))
    else:  # values of one type: the type test keeps "in" from scanning a range
        ok = bool(spec) and type(value) is type(spec[0]) and value in spec
    if not ok:
        raise SchemaViolation(f"expected {_describe(spec)}, got {show(value)}", path)
    if isinstance(spec, list):
        for i, item in enumerate(value):
            check(item, spec[0] if len(spec) == 1 else spec[i], f"{path}[{i}]")
    elif isinstance(spec, dict):
        for key, sub in spec.items():
            name = key.rstrip("?")
            if name in value:
                check(value[name], sub, f"{path}.{name}")
            elif name == key:
                raise SchemaViolation("missing", f"{path}.{name}")
        names = {key.rstrip("?") for key in spec}
        for key in value:
            if key not in names:
                raise SchemaViolation("unknown key", f"{path}.{key}" if
                                      key.isidentifier() else f"{path}[{show(key)}]")
    return value


def sided(base, two_sided):
    """The left and right names of a per-side key: "arc" -> "arc_left" and
    "arc_right" when both sides are present, "arc" for the one side otherwise."""
    return (base + "_left", base + "_right") if two_sided else (base, base)


def unique(values, path):
    """Reject values, read from the list at path, when one repeats."""
    seen = set()
    for i, value in enumerate(values):
        if value in seen:
            raise SchemaViolation(f"repeats {show(value)}", f"{path}[{i}]")
        seen.add(value)


class Record:
    """Base of the package's immutable values.  A subclass names its fields
    in ``_fields`` (its ``__slots__`` may add caches): two instances are
    equal, and hash alike, when they share a class and their fields are
    equal.  Assigning an attribute raises AttributeError, so ``__init__``
    and the caches write through ``object.__setattr__``."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# pointed matched circles
class NonSurjectiveMatching(BorderedFloerError):
    pass


class BadOrientationPair(BorderedFloerError):
    pass


class DisconnectedSurgery(BorderedFloerError):
    pass


class NotSubordinate(BorderedFloerError):
    pass


# strands algebra
class StrandsGradingOutOfRange(BorderedFloerError):
    pass


class AlgebraMismatch(BorderedFloerError):
    pass


class InconsistentChordSet(BorderedFloerError):
    pass


# grading group machinery
class FlavorViolation(BorderedFloerError):
    pass


class SizeMismatch(BorderedFloerError):
    pass


class NotInRefinedSubgroup(BorderedFloerError):
    pass


# structures
class BoundaryMismatch(BorderedFloerError):
    pass


class NotAComplex(BorderedFloerError):
    pass


class BothUnbounded(BorderedFloerError):
    pass


# exterior algebra / decategorification
class BasisMismatch(BorderedFloerError):
    pass


class DimensionOdd(BorderedFloerError):
    pass


class DimensionMismatch(BorderedFloerError):
    pass


class DegreeMismatch(BorderedFloerError):
    pass


# knot invariants
class NotUnimodular(BorderedFloerError):
    pass


class SeifertConsistencyFailure(BorderedFloerError):
    pass


class NotDecomposable(BorderedFloerError):
    pass


class ZeroPoint(BorderedFloerError):
    pass
