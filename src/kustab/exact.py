"""Exact scalar and linear algebra substrate.

Everything in this module is exact: rationals are ``fractions.Fraction``,
real quadratic numbers a + b*sqrt(F) carry their radicand symbolically, and
hnf_rows is the one elimination: integer kernels, span and rank tests and
_reduced read it, and rref and _solve, the one solve on int or Fraction
rows, read _reduced.  No floating point enters any decision path, and no
approximation is used anywhere.  The one floor of a quadratic number, for
QuadNumber.floor, the wall scan and svg's square roots, is _qfloor on
integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from operator import mul


class DomainError(ValueError):
    """A precondition of an exact operation failed."""


# a sign and ASCII digits: int() and Fraction() also take "1_0", " 1", "١"
_INTEGER = r"[+-]?[0-9]+"
_RATIONAL = _INTEGER + "(/0*[1-9][0-9]*)?"      # a nonzero denominator


def integer(text: str) -> int:
    """Read an integer flag or twist: a sign and ASCII digits, else ValueError."""
    if not re.fullmatch(_INTEGER, text):
        raise DomainError(f"not an integer: {text!r}")
    return int(text)        # ValueError past the integer digit limit too


def rational(text: str) -> Fraction:
    """Read a rational flag or config string: an integer, optionally "/q", q > 0."""
    if not re.fullmatch(_RATIONAL, text):
        raise DomainError(f"not a rational: {text!r}")
    return Fraction(text)


def rat(x) -> Fraction:
    """Coerce ints (not bools), Fractions and 'p/q' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise DomainError(f"not an exact rational: {x!r}")


def is_square(q: Fraction) -> bool:
    """True when q is the square of a rational.

    >>> is_square(Fraction(1, 4))
    True
    >>> is_square(Fraction(2))
    False
    """
    if q < 0:
        return False
    p, d = q.numerator, q.denominator
    return isqrt(p) ** 2 == p and isqrt(d) ** 2 == d


class QuadNumber:
    """An exact real number a + b*sqrt(F) with rational a, b and F >= 0.

    Instances are normalized: whenever F is a rational square (or b = 0),
    the radical part is folded into the rational part and the stored
    radicand becomes 0.  Sign and order are decided exactly.

    >>> QuadNumber(0, 1, Fraction(1, 4))
    QuadNumber(1/2)
    >>> QuadNumber(1, 1, 2) < Fraction(5, 2)
    True
    """

    __slots__ = ("a", "b", "F")

    def __init__(self, a, b=0, F=0):
        a, b, F = rat(a), rat(b), rat(F)
        if F < 0:
            raise DomainError("negative radicand")
        if b == 0:
            F = Fraction(0)
        elif F == 0:
            b = Fraction(0)
        elif is_square(F):
            a += b * Fraction(isqrt(F.numerator), isqrt(F.denominator))
            b, F = Fraction(0), Fraction(0)
        self.a, self.b, self.F = a, b, F

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise DomainError("not a rational value")
        return self.a

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "QuadNumber":
        if isinstance(other, QuadNumber):
            return other
        return QuadNumber(rat(other))

    def _join_radicand(self, other: "QuadNumber") -> Fraction:
        if self.b == 0:
            return other.F
        if other.b == 0:
            return self.F
        if self.F != other.F:
            raise DomainError("incomparable radicands")
        return self.F

    def __add__(self, other):
        o = self._coerce(other)
        F = self._join_radicand(o)
        return QuadNumber(self.a + o.a, self.b + o.b, F)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        return QuadNumber(-self.a, -self.b, self.F)

    def __mul__(self, other):
        o = self._coerce(other)
        F = self._join_radicand(o)
        return QuadNumber(self.a * o.a + self.b * o.b * F,
                          self.a * o.b + self.b * o.a, F)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.sign() == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        if o.b == 0:
            return QuadNumber(self.a / o.a, self.b / o.a, self.F)
        F = self._join_radicand(o)
        # multiply by the conjugate; the norm a^2 - b^2 F is a nonzero rational
        norm = o.a * o.a - o.b * o.b * F
        conj = QuadNumber(o.a, -o.b, F)
        num = self * conj
        return QuadNumber(num.a / norm, num.b / norm, F)

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        a, b, F = self.a, self.b, self.F
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare a^2 with b^2 F (equality impossible, F non-square)
        s = 1 if a * a > b * b * F else -1
        return s if a > 0 else -s

    def _cmp(self, other) -> int:
        return (self - self._coerce(other)).sign()

    def __eq__(self, other):
        if isinstance(other, (QuadNumber, Fraction, int)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.F))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def floor(self) -> int:
        """Exact floor by _qfloor, with b sqrt(f/g) = (b/g) sqrt(f g)."""
        n = self.F.numerator * self.F.denominator
        c, (a, b) = _cleared((self.a, self.b / self.F.denominator))
        return _qfloor(a, b, c, n, isqrt(n), False)

    def __str__(self):
        """Report text: "a", "sqrt(F)", "-2*sqrt(F)", "1/2 - sqrt(F)", ...

        >>> str(QuadNumber(Fraction(1, 2), -1, 2))
        '1/2 - sqrt(2)'
        """
        if self.b == 0:
            return str(self.a)
        mag = "" if abs(self.b) == 1 else f"{abs(self.b)}*"
        rad = f"{mag}sqrt({self.F})"
        if self.a == 0:
            return rad if self.b > 0 else f"-{rad}"
        return f"{self.a} {'+' if self.b > 0 else '-'} {rad}"

    def __repr__(self):
        if self.b == 0:
            return f"QuadNumber({self.a})"
        return f"QuadNumber({self.a} + {self.b}*sqrt({self.F}))"


# -- rational matrices -------------------------------------------------------


@dataclass(frozen=True)
class RatMatrix:
    """A dense matrix of Fractions; inverse and solve read _solve."""

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "RatMatrix":
        tup = tuple(tuple(rat(x) for x in r) for r in rows)
        if tup and any(len(r) != len(tup[0]) for r in tup):
            raise DomainError("ragged matrix")
        return cls(tup)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls.from_rows([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i) -> tuple[Fraction, ...]:
        return self.entries[i]

    def transpose(self) -> "RatMatrix":
        return RatMatrix.from_rows(zip(*self.entries)) if self.entries else self

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DomainError("dimension mismatch")
        ot = list(zip(*other.entries))
        return RatMatrix.from_rows(
            [[sum(a * b for a, b in zip(r, c)) for c in ot] for r in self.entries])

    def apply(self, vec) -> tuple[Fraction, ...]:
        v = [rat(x) for x in vec]
        if len(v) != self.cols:
            raise DomainError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(r, v)) for r in self.entries)

    def rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        m, pivots = _reduced(self.entries)
        return m + [[Fraction(0)] * self.cols
                    for _ in range(self.rows - len(m))], pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "RatMatrix":
        n = self.rows
        if n != self.cols:
            raise DomainError("not square")
        return RatMatrix.from_rows(_solve(
            [[*r, *(int(i == j) for j in range(n))]
             for i, r in enumerate(self.entries)], n, "singular matrix"))

    def solve(self, rhs) -> tuple[Fraction, ...]:
        """The unique x with self @ x = rhs.

        Accepts square nonsingular systems and consistent tall systems of
        full column rank; anything else raises DomainError.
        """
        b = [rat(y) for y in rhs]
        if len(b) != self.rows:
            raise DomainError("dimension mismatch")
        rows = [[*r, y] for r, y in zip(self.entries, b)]
        return tuple(y for y, in _solve(rows, self.cols, "no unique solution"))


def _reduced(rows) -> tuple[list[list[Fraction]], list[int]]:
    # nonzero rows of the reduced row echelon form of int or Fraction rows,
    # and their pivots: hnf_rows of the cleared rows (same span over Q), each
    # row divided by its pivot and cleared in the later pivot columns
    h = hnf_rows([_cleared(r)[1] for r in rows])
    pivots = [next(j for j, x in enumerate(r) if x) for r in h]
    m = [[Fraction(x, r[c]) for x in r] for r, c in zip(h, pivots)]
    for i, c in enumerate(pivots):
        for k in range(i):
            if f := m[k][c]:
                m[k] = [x - f * y for x, y in zip(m[k], m[i])]
    return m, pivots


def _solve(rows, k: int, message: str) -> list[list[Fraction]]:
    # rows of the unique X with A X = B from the rows of [A | B], A the first
    # k columns; DomainError(message) unless A's columns are the pivots
    red, pivots = _reduced(rows)
    if pivots != list(range(k)):
        raise DomainError(message)
    return [r[k:] for r in red]


def _qfloor(a: int, b: int, c: int, n: int, s: int, strict: bool) -> int:
    """Largest k < (a + b sqrt(n)) / c, or k <= it if not strict; c > 0.

    s = isqrt(n).  For non-square n, floor(b sqrt(n)) is isqrt(b^2 n), or
    -isqrt(b^2 n) - 1 for b < 0, and the value is never an integer.
    """
    if b == 0 or s * s == n:
        q, r = divmod(a + b * s, c)
        return q - 1 if strict and r == 0 else q
    r = isqrt(b * b * n)
    return (a + r) // c if b > 0 else (a - r - 1) // c


def _cleared(v) -> tuple[int, list[int]]:
    """(p, V) with p the lcm of the denominators of the rationals v, V = p * v."""
    p = lcm(*(x.denominator for x in v))
    return p, [x.numerator * (p // x.denominator) for x in v]


def _dot(f, w) -> int:
    return sum(map(mul, f, w))


# -- integer lattice helpers --------------------------------------------------


def int_kernel(a: list[list[int]]) -> list[list[int]]:
    """Z-basis of the integer kernel {x : a @ x = 0}, in row Hermite normal form.

    The rows (a^T e_j | e_j) span the lattice of all (a x, x) with x integer;
    in its Hermite normal form the rows whose a^T part vanishes come last and
    span exactly the (0, x) with a x = 0, so their e_j parts are the HNF of
    the saturated kernel.
    """
    if not a:
        raise DomainError("empty matrix")
    k, cols = len(a), len(a[0])
    aug = [[r[j] for r in a] + [int(i == j) for i in range(cols)]
           for j in range(cols)]
    return [r[k:] for r in hnf_rows(aug) if not any(r[:k])]


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by integer rows.

    Each column is cleared below the pivot by Euclid's algorithm: the row
    with the smallest nonzero entry reduces the others with floor division
    until it is the only nonzero one left.  Pivots are then made positive,
    entries above each pivot are reduced into [0, pivot) and zero rows are
    dropped.  The HNF of a lattice is unique, which makes it the canonical
    basis for reproducible residual-lattice output.
    """
    m = [list(r) for r in rows if any(r)]
    r = 0
    for c in range(len(m[0]) if m else 0):
        live = [v for v in m[r:] if v[c]]
        if not live:
            continue
        rest = [v for v in m[r:] if not v[c]]
        while len(live) > 1:
            live.sort(key=lambda v: abs(v[c]))
            piv, others, live = live[0], live[1:], live[:1]
            for v in others:
                q = v[c] // piv[c]
                v = [x - q * y for x, y in zip(v, piv)]
                (live if v[c] else rest).append(v)
        piv = live[0] if live[0][c] > 0 else [-x for x in live[0]]
        for i in range(r):
            q = m[i][c] // piv[c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], piv)]
        m[r:] = [piv, *rest]
        r += 1
    return m[:r]
