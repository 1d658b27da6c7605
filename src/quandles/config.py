"""The package's argument rules: the one integer test, type checks, order bounds, postconditions."""

import numbers
import os

ENV_MAX_ORDER = "QUANDLE_MAX_ORDER"
HARD_MAX_ORDER = 8
# The census order bound when QUANDLE_MAX_ORDER is unset.
DEFAULT_MAX_ORDER = 6
# The subgroup-search degree bound when QUANDLE_MAX_ORDER is unset: degree 8 takes seconds.
DEFAULT_MAX_DEGREE = 7


def is_int(value: object) -> bool:
    """True for a Python or numpy int; False for a bool, a float and anything else."""
    # The exact type first: plain ints skip the slower abstract-class check.
    return type(value) is int or (isinstance(value, numbers.Integral) and type(value) is not bool)


def check_type(value: object, cls: type) -> None:
    """TypeError unless value is a cls, so a wrong type never fails deep inside."""
    if not isinstance(value, cls):
        raise TypeError(f"expected a {cls.__name__}, not {type(value).__name__}")


class BoundError(ValueError):
    """An order or degree outside the range a search or bound setting allows."""


def resolve_bound(default: int) -> int:
    """Effective order/degree bound: QUANDLE_MAX_ORDER if set, else `default`.

    Values outside 1..HARD_MAX_ORDER are refused outright; the exhaustive
    representations used throughout the package stop being workable there.
    """
    raw = os.environ.get(ENV_MAX_ORDER)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise BoundError(f"{ENV_MAX_ORDER} must be an integer, got {raw!r}") from None
    if not 1 <= value <= HARD_MAX_ORDER:
        raise BoundError(
            f"{ENV_MAX_ORDER}={value} refused; supported range is 1..{HARD_MAX_ORDER}"
        )
    return value


def check_int(value: object, noun: str = "order") -> int:
    """The value as an int; TypeError unless is_int(value), so no comparison ever sees a non-int."""
    if not is_int(value):
        raise TypeError(f"{noun} must be an int, not {type(value).__name__}")
    return int(value)


def check_order(n: int, default: int | None = None, noun: str = "order") -> None:
    """Refuse n below 1, or above resolve_bound(default), or HARD_MAX_ORDER without a default.

    Whatever is_int refuses is a TypeError, raised before any comparison.
    """
    check_int(n, noun)
    if n < 1:
        raise ValueError(f"{noun} must be at least 1")
    if default is None:
        if n > HARD_MAX_ORDER:
            raise BoundError(f"{noun} {n} exceeds the hard bound {HARD_MAX_ORDER}")
        return
    bound = resolve_bound(default)
    if n > bound:
        raise BoundError(f"{noun} {n} exceeds the configured bound {bound}")


class PostconditionError(RuntimeError):
    """An internal invariant failed: a bug in this package, not bad input."""


def ensure(condition: bool, message: str) -> None:
    """Raise PostconditionError unless the condition holds; survives python -O."""
    if not condition:
        raise PostconditionError(message)
