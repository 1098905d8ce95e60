"""Scalar backends shared by every module.

Two numeric modes are supported: exact rationals (``fractions.Fraction``,
the verification default) and floats with an explicit decision tolerance.
``math.inf`` is the universal "+infinity" sentinel; it compares correctly
against both Fractions and floats, so distance-to-empty-set conventions
need no special casing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction, float]

INF = math.inf

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_FLOAT_TOL = 1e-9

# Floor used by the truncated propinquity.  Kept as a float constant; exact
# comparisons against rationals go through squaring (see above_floor).
SQRT2_OVER_4 = math.sqrt(2.0) / 4.0


def is_inf(v: Scalar) -> bool:
    return isinstance(v, float) and math.isinf(v)


def half(v: Scalar) -> Scalar:
    """v / 2, exact on rationals; an even int stays an int (integer grids)."""
    if isinstance(v, float):
        return v / 2
    if isinstance(v, int) and not v % 2:
        return v // 2
    return Fraction(v, 2)


def quarter(v: Scalar) -> Scalar:
    """v / 4, exact on rationals; an int divisible by 4 stays an int."""
    if isinstance(v, int) and not v % 4:
        return v // 4
    return v / 4 if isinstance(v, float) else Fraction(v, 4)


def inv(v: Scalar, unit: Scalar = 1) -> Scalar:
    """unit / v, exact unless either is a float; unit / inf is 0."""
    if is_inf(v):
        return 0
    if isinstance(v, float) or isinstance(unit, float):
        return unit / v
    return Fraction(unit) / v


def grid_unit(values: Iterable) -> int | None:
    """The lcm L of the values' denominators, so that every value times L is
    an integer; None when any value is not an int or a Fraction (a float or
    inf keeps its own numbers)."""
    denominators = set()
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return None
        denominators.add(v.denominator)
    return math.lcm(*denominators)


def on_grid(v: Scalar, unit: int) -> int:
    """v * unit as an int, for a multiple of v's denominator."""
    return v.numerator * (unit // v.denominator)


def leq(a: Scalar, b: Scalar, tol: Scalar = 0) -> bool:
    """a <= b up to an additive tolerance (tol 0 adds nothing; inf + tol is inf)."""
    return a <= b + tol if tol else a <= b


def close(a: Scalar, b: Scalar, tol: Scalar = 0) -> bool:
    if is_inf(a) or is_inf(b):
        return is_inf(a) and is_inf(b)
    return abs(a - b) <= tol


def above_floor(v: Scalar) -> bool:
    """Exact test v > sqrt(2)/4, valid for rationals and floats alike."""
    if is_inf(v):
        return True
    if isinstance(v, float):
        return v > SQRT2_OVER_4
    return v > 0 and v * v > Fraction(1, 8)


def truncate_floor(v: Scalar) -> Scalar:
    """max(v, sqrt(2)/4) with the floor represented as a float when it binds."""
    return v if above_floor(v) else SQRT2_OVER_4


def parse_scalar(raw, backend: str = RATIONAL) -> Scalar:
    """Parse a JSON-ish scalar: int, float, "p/q" or decimal string."""
    if isinstance(raw, str):
        text = raw.strip()
        if text in ("inf", "Infinity", "+inf"):
            return INF
        try:
            value = Fraction(text)
        except ZeroDivisionError:  # "p/0"
            raise ValueError(f"not a scalar: {raw!r}") from None
    elif isinstance(raw, bool):
        raise ValueError(f"not a scalar: {raw!r}")
    elif isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, float):
        if raw == INF:
            return INF
        try:
            value = Fraction(raw)
        except (OverflowError, ValueError):  # -Infinity, NaN
            raise ValueError(f"not a scalar: {raw!r}") from None
    elif isinstance(raw, Fraction):
        value = raw
    else:
        raise ValueError(f"not a scalar: {raw!r}")
    if backend == FLOAT:
        try:
            return float(value)
        except OverflowError:  # finite, but beyond float range
            raise ValueError(f"not a scalar: {raw!r}") from None
    if backend == RATIONAL:
        return value
    raise ValueError(f"unknown backend {backend!r}")


def json_number(text: str):
    """A JSON number with a fraction or exponent as a float, but as its text
    where the float overflows (``1e400``) or underflows to a zero that the
    literal is not (``1e-400``), so that ``parse_scalar`` reads it as it
    reads the quoted string: exactly on the rational backend, and refused or
    rounded to zero on the float backend.  A literal that only rounds
    (``0.1``) stays a float.  Every reader of JSON text passes this to
    ``json.loads`` as ``parse_float``."""
    value = float(text)
    return text if is_inf(value) or (value == 0 and Fraction(text) != 0) else value


def format_scalar(v: Scalar):
    """JSON-ready form: ints stay ints, other rationals become 'p/q'."""
    if is_inf(v):
        return "inf"
    if isinstance(v, bool):
        raise ValueError(f"not a scalar: {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return f"{v.numerator}/{v.denominator}"
    return float(v)
