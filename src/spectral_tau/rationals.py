"""Exact rational scalars and their canonical string form.

Every exact value in this package is a ``fractions.Fraction`` (always
reduced, positive denominator) or a Python ``int``; there is no rounding
anywhere.  The wire format is ``"p/q"``
(or ``"p"`` when the denominator is 1), and parsing/formatting round-trips
bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

_MINUS_VARIANTS = "−–"  # unicode minus / en-dash occasionally seen in data files


def parse_rational(text: str | int) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (ASCII or unicode minus) into a Fraction.

    Integers are accepted as-is.  Anything float-like is rejected: decimal
    points and exponents would smuggle rounding into an exact pipeline.
    """
    if isinstance(text, bool):
        raise ValueError("booleans are not rational numbers")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ValueError("floats rejected; use p/q")
    s = text.strip()
    for ch in _MINUS_VARIANTS:
        s = s.replace(ch, "-")
    if any(ch in s for ch in ".eE"):
        raise ValueError(f"floats rejected; use p/q (got {text!r})")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Canonical string form: ``p/q``, or ``p`` when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
