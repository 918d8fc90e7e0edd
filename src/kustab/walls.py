"""Wall-and-chamber analysis for truncated classes in the (alpha, beta) plane.

For a class v with positive rank and positive reduced discriminant F, every
numerical wall of v crosses the vertical line beta_0 = mu_H(v) - sqrt(F).
At a crossing, an actual destabilizing subobject class w must satisfy the
open interval criterion

    0 < ch_1^{beta_0}(w) H^{n-1} < ch_1^{beta_0}(v) H^{n-1} = sqrt(F) c_0 H^n,

and both w and v - w must satisfy the Bogomolov-Gieseker inequality
Delta_H >= 0.  It holds for tilt-semistable objects on every smooth
projective threefold (Bayer-Macri-Toda, arXiv:1103.5010, Cor. 7.3.2) and,
classically, on surfaces, so the filters and certificates need no
per-variety premise.  Since ch_2^{beta_0}(v) = 0, the wall of (v, w) meets
the line beta = beta_0 at a height alpha > 0 exactly when alpha^2 > 0 in

    alpha^2 (v_0 w_1 - v_1 w_0) / 2 = -ch_2^{beta_0}(w) v_0 sqrt(F),

with v_i, w_i the coefficients c_i: a strict bound on w_2 at
beta_0 w_1 - beta_0^2 w_0 / 2, above when v_0 w_1 - v_1 w_0 > 0 and below
when it is negative.  The no-wall certificate settles the rational-beta_0
case by a gcd computation on the value set; wall_scan enumerates the finite
set of candidate classes passing all filters inside given rank bounds.

The bounds and the locus are computed in integers.  With M the lcm of the
denominators of v_0, v_1, v_2, V_i = M v_i and N = V_1^2 - 2 V_0 V_2 > 0,
beta_0 = (V_1 - sqrt(N))/V_0 and bound / degree = sqrt(N) / M (_line).  For
w = (k_0/lam_0, k_1/lam_1, k_2/lam_2) each bound above, scaled to k_1 or
k_2, is one floor of (A + B sqrt(N)) / C with integers A, B, C, taken by
exact._qfloor, or a plain division for the B = 0 of the two discriminants.
The certificate and the violation search read _line too; beta_zero only
builds the QuadNumbers it returns.  _locus gives the wall of v and w as
integers (C0, C1, C2) from integer truncations.  Every wall wall_scan keeps
crosses the beta_0 line at alpha > 0, so it is a circle; the scan takes v's
truncation once from _line, deduplicates on the primitive triple
(C0, C1, C2) / g and builds Fractions once per distinct circle.  A scan
box of more than _SCAN_BUDGET lattice pairs (k0, k1) is refused with
DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm

from .exact import DomainError, QuadNumber, _qfloor, rat
from .variety import ChernVector, VarietyDesc, _lattice_coords, _truncated


_VIOLATION_RANK = 8     # rows |c0| <= 8 searched by first_interval_violation
_SCAN_BUDGET = 2 ** 20  # lattice pairs (k0, k1) a wall_scan box may hold


@dataclass(frozen=True)
class BetaZero:
    F: Fraction
    beta0: QuadNumber
    bound: QuadNumber   # sqrt(F) * c_0 * degree


@dataclass(frozen=True)
class NoWallCertificate:
    lattice_step: Fraction
    conclusion: str


@dataclass(frozen=True)
class WallCircle:
    """Solution locus of a tilt-slope equality in the half plane alpha > 0."""

    center_beta: Fraction
    radius_sq: Fraction
    witnesses: tuple[ChernVector, ...] = field(default=(), compare=False)


def beta_zero(x: VarietyDesc, v: ChernVector) -> BetaZero:
    """Reduced discriminant F, the line beta_0 = mu_H - sqrt(F), and the bound.

    Requires a lattice class with c_0 H^n > 0 and F > 0; the radical folds
    to a rational exactly when F is a rational square.

    >>> from kustab.variety import get_preset
    >>> bz = beta_zero(get_preset("q3"), ChernVector([1, 0, -1]))
    >>> print(bz.F, bz.beta0, bz.bound)
    2 -sqrt(2) 2*sqrt(2)
    """
    m, v0, v1, _, n, _ = _line(x, v)
    f = Fraction(n, v0 * v0)
    return BetaZero(F=f, beta0=QuadNumber(Fraction(v1, v0), -1, f),
                    bound=QuadNumber(0, Fraction(v0 * x.degree, m), f))


def _line(x: VarietyDesc, v: ChernVector) -> tuple[int, ...]:
    """(M, V0, V1, V2, N, isqrt(N)) of the module docstring, checking v first."""
    if _lattice_coords(x, v) is None:
        raise DomainError("class not in lattice")
    m, v0, v1, v2 = _truncated(v)
    if v0 <= 0:
        raise DomainError("rank not positive")
    n = v1 * v1 - 2 * v0 * v2
    if n <= 0:
        raise DomainError("no positive discriminant")
    return m, v0, v1, v2, n, isqrt(n)


def nowall_certificate(x: VarietyDesc, v: ChernVector) -> NoWallCertificate | None:
    """Certificate that no lattice class destabilizes along the beta_0 line.

    Decided on _line: beta_0 is rational exactly when N = s^2, s = isqrt(N),
    and then beta_0 = (V1 - s) / V0, bound = s d / M, and the values
    ch_1^{beta_0}(w) H^{n-1} over lattice pairs (c0, c1) are the multiples
    of a step computed by a gcd.  The certificate holds exactly when the
    step is at least the bound.
    When beta_0 is irrational the value set meets every open interval (the
    radical part equidistributes), so None is returned.
    """
    m, v0, v1, _, n, s = _line(x, v)
    if s * s != n:
        return None
    b0 = Fraction(v1 - s, v0)
    p, q = b0.numerator, b0.denominator
    lam0, lam1 = x.denoms[0], x.denoms[1]
    step = x.degree * Fraction(gcd(q * lam0, abs(p) * lam1), q * lam0 * lam1)
    bound = Fraction(s * x.degree, m)
    if step >= bound:
        return NoWallCertificate(
            lattice_step=step,
            conclusion=(f"values of ch_1^(beta_0) H^(n-1) on lattice classes "
                        f"are the multiples of {step}; none lies in the open "
                        f"interval (0, {bound})"))
    return None


def first_interval_violation(x: VarietyDesc, v: ChernVector):
    """A lattice pair (c0, c1) whose beta_0 value falls in (0, bound), if any.

    Used to report why a certificate does not exist.  Searches the rows
    |c0| <= _VIOLATION_RANK in the order 0, 1, -1, 2, -2, ... on one _line
    and returns (c0, c1, value) or None when it finds nothing.
    """
    _, v0, v1, _, n, _ = line = _line(x, v)
    lam0, lam1, d = x.denoms[0], x.denoms[1], x.degree
    k0_hi = _VIOLATION_RANK * lam0
    for k0 in sorted(range(-k0_hi, k0_hi + 1), key=lambda k: (abs(k), k < 0)):
        k1, k1_max = _k1_range(x.denoms, line, k0)
        if k1 <= k1_max:
            c0w, c1w = Fraction(k0, lam0), Fraction(k1, lam1)
            # d (c1 - c0 beta_0) = d (c1 - c0 V1 / V0) + d c0 sqrt(N / V0^2)
            return c0w, c1w, QuadNumber(d * (c1w - c0w * Fraction(v1, v0)),
                                        d * c0w, Fraction(n, v0 * v0))
    return None


def _locus(a, b) -> tuple[int, int, int]:
    """(C0, C1, C2) of the wall C0 (alpha^2 + beta^2) + C1 beta + C2 = 0 of v, w.

    C0 = A0 B1 - A1 B0, C1 = 2 (A2 B0 - A0 B2), C2 = 2 (A1 B2 - A2 B1) for
    a = (A0, A1, A2) = M v and b = (B0, B1, B2) = P w with M, P > 0: these
    are the cross-multiplied charges of v and w times 2 M P / d^2 > 0.
    """
    (a0, a1, a2), (b0, b1, b2) = a, b
    return a0 * b1 - a1 * b0, 2 * (a2 * b0 - a0 * b2), 2 * (a1 * b2 - a2 * b1)


def _k1_range(denoms, line, k0: int) -> tuple[int, int]:
    """(k1_lo, k1_hi): the k1 whose (k0/lam0, k1/lam1) has value in (0, bound)."""
    lam0, lam1 = denoms[0], denoms[1]
    m, v0, v1, _, n, s = line
    a, c = lam1 * k0 * m * v1, v0 * lam0 * m
    return (-_qfloor(-a, lam1 * k0 * m, c, n, s, True),
            _qfloor(a, lam1 * (v0 * lam0 - k0 * m), c, n, s, True))


def _k2_range(denoms, line, k0: int, k1: int) -> range:
    """The k2 of the cell (k0, k1) that pass all three c2 filters."""
    lam0, lam1, lam2 = denoms[0], denoms[1], denoms[2]
    m, v0, v1, v2, n, s = line
    direction = v0 * lam0 * k1 - v1 * lam1 * k0
    if direction == 0:
        return range(0)    # vertical or degenerate direction, never crosses beta_0
    u0, u1 = v0 * lam0 - m * k0, v1 * lam1 - m * k1
    lowers: list[int] = []
    uppers: list[int] = []
    # Delta(w) and Delta(v - w) as num / den: an upper bound when den > 0
    for num, den in ((lam2 * lam0 * k1 * k1, 2 * lam1 * lam1 * k0),
                     (lam2 * (u1 * u1 * lam0 - 2 * v2 * lam1 * lam1 * u0),
                      -2 * m * lam1 * lam1 * u0)):
        if den > 0:
            uppers.append(num // den)
        elif den < 0:
            lowers.append(-(-num // den))
    # crossing, strict: lam2 (beta_0 c1 - beta_0^2 c0 / 2) = (a + b sqrt(N)) / c
    a = lam2 * (2 * v0 * lam0 * v1 * k1 - (v1 * v1 + n) * k0 * lam1)
    b, c = -2 * lam2 * direction, 2 * v0 * v0 * lam0 * lam1
    if direction > 0:
        uppers.append(_qfloor(a, b, c, n, s, True))
    else:
        lowers.append(-_qfloor(-a, -b, c, n, s, True))
    if not lowers or not uppers:
        raise DomainError("unbounded candidate range")
    return range(max(lowers), min(uppers) + 1)


def wall_scan(x: VarietyDesc, v: ChernVector, max_rank, max_c1) -> list[WallCircle]:
    """Candidate numerical walls for v from lattice classes within bounds.

    Enumerates lattice pairs (c0, c1) with |c0| <= max_rank, |c1| <= max_c1
    passing the open interval criterion at beta_0, and for each the finite
    range of c2 allowed by Delta_H(w) >= 0, Delta_H(v - w) >= 0 and the
    requirement that the wall cross the beta_0 line at alpha > 0, so every
    candidate's wall is a circle.  Circles are deduplicated on the primitive
    triple (C0, C1, C2) / g with C0 > 0, which determines (center, radius^2),
    with witnesses aggregated; Fractions are built once per distinct circle,
    and the circles are sorted by center then radius.  An empty result is
    consistent with a no-wall certificate; a nonempty one lists candidates,
    not proven walls.  DomainError is raised when the box exceeds _SCAN_BUDGET.
    """
    line = _line(x, v)
    max_rank, max_c1 = rat(max_rank), rat(max_c1)
    if max_rank < 0 or max_c1 < 0:
        raise DomainError("negative scan bound")
    lam0, lam1, lam2 = x.denoms[0], x.denoms[1], x.denoms[2]
    a, big = line[1:4], lcm(lam0, lam1, lam2)   # w = (k0 s0, k1 s1, k2 s2) / big
    s0, s1, s2 = big // lam0, big // lam1, big // lam2
    walls: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    k0_hi = max_rank.numerator * lam0 // max_rank.denominator
    k1_box = max_c1.numerator * lam1 // max_c1.denominator
    cells = (2 * k0_hi + 1) * (2 * k1_box + 1)
    if cells > _SCAN_BUDGET:
        raise DomainError(f"scan box of {cells} lattice pairs exceeds the "
                          f"budget of {_SCAN_BUDGET}")
    # row k0's k1 window is lam1 beta_0 k0 / lam0 + (0, lam1 sqrt(N) / M), so it meets
    # [-K, K], K = k1_box, only for k0 strictly between lam0 (K, -K - lam1 sqrt(N) / M)
    # / (lam1 beta_0); 1 / beta_0 = (p + q sqrt(N)) / r, r = 0 when beta_0 = 0
    m, v0, v1, v2, n, s = line
    p, q, r = (v0, 0, v1 - s) if s * s == n else (v1, 1, 2 * v2)
    rows = range(-k0_hi, k0_hi + 1)
    if r:
        k, g = k1_box * m, lam0 if r > 0 else -lam0
        lo, hi = sorted(_qfloor(g * e, g * f, abs(r) * lam1 * m, n, s, True) for e, f in
                        ((k * p, k * q), (-k * p - lam1 * q * n, -k * q - lam1 * p)))
        rows = range(max(lo + 1, -k0_hi), min(hi, k0_hi) + 1)
    for k0 in rows:
        k1_lo, k1_hi = _k1_range(x.denoms, line, k0)
        for k1 in range(max(k1_lo, -k1_box), min(k1_hi, k1_box) + 1):
            for k2 in _k2_range(x.denoms, line, k0, k1):
                # a circle: direction != 0 gives C0 != 0, the strict crossing C1^2 > 4 C0 C2
                c0, c1, c2 = _locus(a, (k0 * s0, k1 * s1, k2 * s2))
                g = gcd(c0, c1, c2) if c0 > 0 else -gcd(c0, c1, c2)
                key = (c0 // g, c1 // g, c2 // g)
                walls.setdefault(key, []).append((k0, k1, k2))
    out = []
    for (c0, c1, c2), ks in walls.items():
        # every lam_i > 0: sorting the integer (k0, k1, k2) sorts the witnesses
        wits = tuple(ChernVector([Fraction(k0, lam0), Fraction(k1, lam1),
                                  Fraction(k2, lam2)]) for k0, k1, k2 in sorted(ks))
        out.append(WallCircle(center_beta=Fraction(-c1, 2 * c0),
                              radius_sq=Fraction(c1 * c1 - 4 * c0 * c2, 4 * c0 * c0),
                              witnesses=wits))
    return sorted(out, key=lambda w: (w.center_beta, w.radius_sq))
