"""Exact [0,1]-valued rationals used on every verdict path."""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_value(x) -> Fraction:
    """Coerce to a Fraction and check it lies in [0,1]."""
    q = x if type(x) is Fraction else Fraction(x)
    if not 0 <= q.numerator <= q.denominator:  # the denominator is positive
        raise ValueError(f"value {q} outside [0,1]")
    return q


def clamp01(q: Fraction) -> Fraction:
    return ZERO if q < 0 else (ONE if q > 1 else q)


def monus(u: Fraction, v: Fraction) -> Fraction:
    """Truncated subtraction u ∸ v."""
    w = u - v
    return w if w > 0 else ZERO


def tsum(u: Fraction, v: Fraction) -> Fraction:
    """Truncated sum min(1, u+v)."""
    w = u + v
    return w if w < 1 else ONE


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer literal."""
    text = text.strip()
    if "/" in text:
        p, q = text.split("/", 1)
        return Fraction(int(p), int(q))
    return Fraction(int(text))


def show_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
