"""Report serialization shared by the CLI.

Text mode prints reduced rationals without a trailing "/1"; JSON mode keeps
the canonical "p/q" form (including "p/1") so machine consumers never need
to special-case integers.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import QuadNumber
from .variety import ChernVector


def json_default(obj):
    """json.dumps's hook for the three exact payload types; json walks the rest."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, QuadNumber):
        return {"a": obj.a, "b": obj.b, "radicand": obj.F}
    if isinstance(obj, frozenset):
        return sorted(str(x) for x in obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
