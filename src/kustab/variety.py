"""Variety descriptors and the numerical K-theory engine.

A variety is described by the data that Riemann-Roch needs: dimension n,
degree d = H^n, the Todd class written as sum t_i H^i, the denominators of
the numerical lattice (+) Z * H^i / lambda_i, and the Fano index r with
omega = O(-r).  Chern characters live in ChernVector, the universal carrier
for classes sum c_i H^i, and the Euler pairing is, by Riemann-Roch,

    chi(v, w) = d * sum over i + j <= n of (-1)^i v_i w_j t_(n-i-j),

the H^n coefficient of ch(v)^dual * ch(w) * td times the degree.  Each
descriptor stores it in integers as (scale, G): scale is the lcm of the Todd
denominators, G[i][j] = scale * d * (-1)^i * t_(n-i-j) if i + j <= n, else 0,
and chi(V/p, W/q) = V^T G W / (scale * p * q) for integer vectors V, W.

Only this module reads (scale, G).  Other modules call euler_pairing,
_functionals (the integer rows F = V^T G of classes), _pairing_scale (the
scale), _chi_o_top (chi(O, H^n / lambda_n)), _serre_is_twist (whether the
pairing obeys Serre duality), _lattice_coords (the one written form of the
lattice rule) and _on_lattice (a row on its basis).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm

from .exact import DomainError, RatMatrix, _cleared, _dot, _solve, rat


class ChernVector(tuple):
    """Coefficients (c_0, ..., c_k) of a class sum c_i H^i, as Fractions.

    Full classes on an n-fold have length n + 1; the tilt and wall modules
    also accept vectors truncated to (c_0, c_1, c_2).  +, - and * are the
    vector operations, not tuple concatenation and repetition.

    >>> ChernVector([2, -1, 0, "1/12"])[3]
    Fraction(1, 12)
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        self = super().__new__(cls, map(rat, coeffs))
        if not self:
            raise DomainError("empty class")
        return self

    def __add__(self, other):
        if len(other) != len(self):
            raise DomainError("dimension mismatch")
        return ChernVector(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        if len(other) != len(self):
            raise DomainError("dimension mismatch")
        return ChernVector(a - b for a, b in zip(self, other))

    def __neg__(self):
        return ChernVector(-a for a in self)

    def __mul__(self, scalar):
        s = rat(scalar)
        return ChernVector(a * s for a in self)

    __rmul__ = __mul__

    def text(self) -> str:
        return ",".join(str(c) for c in self)

    def __repr__(self):
        return f"ChernVector({self.text()})"


def _lattice_int(n) -> int:
    # a lattice coordinate or denominator; int() would floor a float
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"not an integer: {n!r}")
    return n


@dataclass(frozen=True)
class VarietyDesc:
    """Numerical data of a polarized variety (X, H) of Picard rank one."""

    name: str
    dim: int
    degree: int
    todd: tuple[Fraction, ...]
    denoms: tuple[int, ...]
    index: int
    low_deg_H_generated: bool = True
    # (scale, G), the integer pairing form of the module docstring
    _form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "todd", tuple(rat(t) for t in self.todd))
        object.__setattr__(self, "denoms", tuple(map(_lattice_int, self.denoms)))
        _lattice_int(self.index)
        if _lattice_int(self.dim) < 1 or _lattice_int(self.degree) < 1:
            raise DomainError("dimension and degree must be positive")
        if len(self.todd) != self.dim + 1 or len(self.denoms) != self.dim + 1:
            raise DomainError("todd and denoms must have length dim + 1")
        if any(d < 1 for d in self.denoms):
            raise DomainError("denominators must be positive")
        n, (scale, td) = self.dim, _cleared(self.todd)
        object.__setattr__(self, "_form", (scale, tuple(tuple(
            (-1) ** i * td[n - i - j] * self.degree if i + j <= n else 0
            for j in range(n + 1)) for i in range(n + 1))))
        if self.todd[0] != 1:
            warnings.warn(f"{self.name}: todd[0] = {self.todd[0]} != 1")
        if 2 * self.todd[1] != self.index:
            warnings.warn(
                f"{self.name}: 2*todd[1] = {2 * self.todd[1]} "
                f"inconsistent with index {self.index}")
        chi_o = self.todd[self.dim] * self.degree
        if chi_o.denominator != 1:
            warnings.warn(f"{self.name}: chi(O) = {chi_o} is not an integer")

    def check_class(self, v: ChernVector) -> ChernVector:
        if len(v) != self.dim + 1:
            raise DomainError(
                f"wrong arity: {self.name} needs {self.dim + 1} coefficients")
        return v


PRESETS: dict[str, VarietyDesc] = {
    "p4": VarietyDesc(
        name="P4", dim=4, degree=1, index=5,
        todd=(Fraction(1), Fraction(5, 2), Fraction(35, 12),
              Fraction(25, 12), Fraction(1)),
        denoms=(1, 1, 2, 6, 24)),
    "q3": VarietyDesc(
        name="Q3", dim=3, degree=2, index=3,
        todd=(Fraction(1), Fraction(3, 2), Fraction(13, 12), Fraction(1, 2)),
        denoms=(1, 1, 2, 12)),
    "y4": VarietyDesc(
        name="Y4", dim=3, degree=4, index=2,
        todd=(Fraction(1), Fraction(1), Fraction(7, 12), Fraction(1, 4)),
        denoms=(1, 1, 2, 12)),
    "y2": VarietyDesc(
        name="Y2", dim=3, degree=2, index=2,
        todd=(Fraction(1), Fraction(1), Fraction(5, 6), Fraction(1, 2)),
        denoms=(1, 1, 2, 12)),
}

# rank-2 bundle with ch = 2 - H + H^3/12, generates the residual lattice on Q3
SPINOR_CLASS = ChernVector([2, -1, 0, Fraction(1, 12)])
SPINOR_VARIETIES = ("q3", "y4")


def get_preset(name: str) -> VarietyDesc:
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise DomainError(f"unknown variety: {name}") from None


def line_bundle_class(x: VarietyDesc, k: int) -> ChernVector:
    """ch O(k) = e^{kH}, coefficients k^i / i!."""
    return ChernVector(Fraction(k ** i, factorial(i)) for i in range(x.dim + 1))


def exp_twist(v: ChernVector, gamma) -> ChernVector:
    """Multiply a class by e^{gamma H}, truncated to the length of v.

    Twisting by ch O(k) is exp_twist(v, k); the beta-shifted character
    ch^beta = e^{-beta H} ch is exp_twist(v, -beta).
    """
    g = rat(gamma)
    n = len(v)
    exps = [g ** j / factorial(j) for j in range(n)]
    return ChernVector(
        sum(v[m - j] * exps[j] for j in range(m + 1)) for m in range(n))


def euler_pairing(x: VarietyDesc, v: ChernVector, w: ChernVector) -> Fraction:
    """chi(v, w) via Riemann-Roch."""
    (p, _, f), = _functionals(x, (v,))
    q, ws = _cleared(x.check_class(w))
    return Fraction(_dot(f, ws), x._form[0] * p * q)


def gram_matrix(x: VarietyDesc, convention: str = "chi") -> RatMatrix:
    """Euler pairing on the basis {1, H, ..., H^n}, entry (i, j) = chi(H^i, H^j).

    convention "chi" gives the raw pairing; "paper" divides every entry by
    the degree, the normalization usual in printed tables (top classes are
    written as the numbers they integrate to).
    """
    if convention not in ("chi", "paper"):
        raise DomainError(f"unknown convention: {convention}")
    scale = x._form[0] * (x.degree if convention == "paper" else 1)
    return RatMatrix.from_rows([[Fraction(e, scale) for e in row]
                                for row in x._form[1]])


def _functionals(x: VarietyDesc, classes) -> list[tuple[int, list, list]]:
    # (p, V, F) per class v = V / p, with V an integer vector and F = V^T G
    # its functional: chi(V / p, W / q) = F . W / (scale p q)
    cols = list(zip(*x._form[1]))
    return [(p, v, [_dot(v, col) for col in cols])
            for p, v in (_cleared(x.check_class(c)) for c in classes)]


def _pairing_scale(x: VarietyDesc) -> int:
    return x._form[0]


def _chi_o_top(x: VarietyDesc) -> Fraction:
    # chi(O, H^n / lambda_n) = G[0][n] / (scale lambda_n)
    scale, g = x._form
    return Fraction(g[0][x.dim], scale * x.denoms[x.dim])


def _serre_matrix(g, message: str) -> RatMatrix:
    # S with g S = g^T, so chi(v, S w) = chi(w, v) on a basis whose pairing
    # matrix is a multiple of the rows g; DomainError(message) if g is singular
    return RatMatrix.from_rows(_solve(
        [[*r, *col] for r, col in zip(g, zip(*g))], len(g), message))


def serre_numeric(x: VarietyDesc) -> RatMatrix:
    """Matrix S with chi(v, S w) = chi(w, v), the solution of G S = G^T.

    G is the integer form, a multiple of the Gram matrix with the same S.
    S equals the matrix of v -> (-1)^n exp_twist(v, -index) on the basis
    {1, H, ..., H^n}; the two constructions agreeing is a standing
    consistency check in the test suite.
    """
    return _serre_matrix(x._form[1], "degenerate pairing")


def _serre_is_twist(x: VarietyDesc) -> bool:
    # G T = n! G^T in integers, T = n! (-1)^n e^(-index H) on {1, H, ..., H^n}:
    # serre_numeric is the twist that classify_class and tilt read
    n, g, f = x.dim, x._form[1], factorial(x.dim)
    t_cols = [[(-1) ** n * f // factorial(i - j) * (-x.index) ** (i - j)
               if i >= j else 0 for i in range(n + 1)] for j in range(n + 1)]
    return all(_dot(g_row, t_col) == f * g_ba
               for g_row, g_col in zip(g, zip(*g))
               for t_col, g_ba in zip(t_cols, g_col))


def _lattice_coords(x: VarietyDesc, v: ChernVector) -> list[int] | None:
    # the integers lambda_i c_i (truncations too), or None when v is longer
    # than the lattice or some den(c_i) does not divide lambda_i
    if len(v) > len(x.denoms) or any(d % c.denominator
                                     for c, d in zip(v, x.denoms)):
        return None
    return [c.numerator * (d // c.denominator) for c, d in zip(v, x.denoms)]


def _on_lattice(x: VarietyDesc, f) -> list[int]:
    # integer row f on H^j read on the lattice basis H^j / lambda_j, times lcm
    big = lcm(*x.denoms)
    return [fj * (big // d) for fj, d in zip(f, x.denoms)]


def _truncated(v: ChernVector) -> tuple[int, int, int, int]:
    # (M, C0, C1, C2) with (c_0, c_1, c_2) = (C0, C1, C2)/M, M the lcm of the
    # denominators: how tilt and walls read a class; c_i H^(n-i) = d C_i / M
    if len(v) < 3:
        raise DomainError("class needs at least coefficients c0, c1, c2")
    m, c = _cleared(v[:3])
    return (m, *c)


def from_lattice_coords(x: VarietyDesc, coords) -> ChernVector:
    return ChernVector(Fraction(_lattice_int(c), d) for c, d in zip(coords, x.denoms))
