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
from typing import Union

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
    """v / 2, exact on rationals."""
    return v / 2 if isinstance(v, float) else Fraction(v, 2)


def leq(a: Scalar, b: Scalar, tol: Scalar = 0) -> bool:
    """a <= b up to an additive tolerance."""
    if is_inf(b):
        return True
    if is_inf(a):
        return False
    return a <= b + tol


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
        value = Fraction(text)
    elif isinstance(raw, bool):
        raise ValueError(f"not a scalar: {raw!r}")
    elif isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, float):
        if math.isinf(raw):
            return INF
        value = Fraction(raw)
    elif isinstance(raw, Fraction):
        value = raw
    else:
        raise ValueError(f"not a scalar: {raw!r}")
    if backend == FLOAT:
        return float(value)
    if backend == RATIONAL:
        return value
    raise ValueError(f"unknown backend {backend!r}")


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
