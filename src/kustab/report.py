"""Report serialization shared by the CLI.

Text mode prints reduced rationals without a trailing "/1"; JSON mode keeps
the canonical "p/q" form (including "p/1") so machine consumers never need
to special-case integers.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import QuadNumber
from .variety import ChernVector


def fmt_rat_json(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def to_jsonable(obj):
    """Recursively convert exact values and containers to JSON-safe data."""
    if isinstance(obj, Fraction):
        return fmt_rat_json(obj)
    if isinstance(obj, QuadNumber):
        return {"a": fmt_rat_json(obj.a), "b": fmt_rat_json(obj.b),
                "radicand": fmt_rat_json(obj.F)}
    if isinstance(obj, ChernVector):
        return [fmt_rat_json(c) for c in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, frozenset):
        return sorted(str(x) for x in obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return str(obj)


def to_text_value(obj) -> str:
    """Human-oriented rendering of a payload value.

    Rationals and quadratic numbers print as their str(), without "/1".

    >>> to_text_value({"F": Fraction(2), "beta0": QuadNumber(0, -1, 2)})
    '{F=2, beta0=-sqrt(2)}'
    """
    if isinstance(obj, ChernVector):
        return obj.text()
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, dict):
        inner = ", ".join(f"{k}={to_text_value(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(to_text_value(x) for x in obj) + "]"
    if isinstance(obj, frozenset):
        return "{" + ", ".join(sorted(str(x) for x in obj)) + "}"
    if obj is None:
        return "none"
    return str(obj)
