"""Exception taxonomy shared across the package.

Every error raised by library code derives from :class:`MgtStackError` so
callers (notably the CLI) can map failures onto exit codes without chasing
individual modules.  The two field rules many constructors share live here,
and so does :data:`np`, the numpy handle every module reads arrays through.
"""

from __future__ import annotations

from numbers import Real


class MgtStackError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfig(MgtStackError):
    """A parameter or configuration value is outside its documented domain."""


class EmptyDocument(MgtStackError):
    """Text contains no sentences (empty or whitespace-only)."""


class EmptyRetention(MgtStackError):
    """A retention mask would keep nothing; reconstruction is undefined."""


class NumericalError(MgtStackError):
    """A gradient, likelihood, or score became non-finite."""


class DegenerateDataset(MgtStackError):
    """A labeled dataset does not contain both classes."""


class ModelFormatError(MgtStackError):
    """A model file is truncated, corrupt, or has an unsupported version."""


class AdapterProtocolError(MgtStackError):
    """An external detector child process violated the line protocol."""


class UnsupportedCombination(MgtStackError):
    """A world/sampler/scorer combination is intentionally not provided."""


class InvalidFilterSpec(MgtStackError):
    """A filter proportion requests more removals than a text can supply."""


def _check_int(value: object, name: str, low: int = 1, high: float = float("inf")) -> None:
    """An integer in [low, high).  type() rather than isinstance(): True is
    an int, and would pass as 1."""
    if type(value) is not int or not low <= value < high:
        raise InvalidConfig(f"{name} must be an integer in [{low}, {high}), got {value!r}")


def _real(value: object, name: str) -> float:
    """``value`` as a float, if it is a real number that has one; a bool or a
    numeric string is not a number here."""
    if not isinstance(value, bool) and isinstance(value, Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidConfig(f"{name} must be a real number, got {value!r}")


class _Numpy:
    """numpy, imported on the first attribute read.

    ``detect`` with an n-gram LM or an adapter never touches an array, yet
    importing numpy up front would double what ``import mgtstack.cli``
    costs, so every module reads numpy through this one handle.  Each
    attribute handed out is kept on the instance, so a later read is one
    instance-dict lookup (``__getattr__`` runs only on a miss).
    ``sys.modules`` is left alone: a host loads numpy as it always does.
    """

    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
