"""Exceptional collections and their residual lattices.

The right orthogonal of a collection (E_1, ..., E_m) inside the numerical
lattice is { v : chi(E_i, v) = 0 for all i }.  This module computes a
canonical basis of that sublattice, the numerical projection onto it, the
induced Serre action, and the bookkeeping verdicts used to certify fullness
arguments at the lattice level.

Every chi(E_i, .) is an integer row from variety._functionals: a member
cleared to E_i = M_i / p_i has the functional F_i = M_i^T G, and chi(E_i,
W / q) = F_i . W / (scale p_i q) for an integer vector W.  A Collection
checks once, when it is built, that its members are lattice classes, and
builds these rows then; every call here reads them, on that variety only,
in integer dot products and HNFs.  The residual basis is the saturated
kernel in HNF, read once as lattice rows by _residual, so fullness_report
accepts a lattice generator exactly when adding it leaves that HNF unchanged.
The projection along span(E) is _project, one exact solve of the members'
integer Gram; sod_project and classify_class both read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm

from .exact import (DomainError, RatMatrix, _cleared, _dot, _solve, hnf_rows,
                    int_kernel)
from .variety import (ChernVector, VarietyDesc, _functionals, _lattice_coords,
                      _on_lattice, _pairing_scale, _serre_matrix,
                      from_lattice_coords)


@dataclass(frozen=True)
class Collection:
    """Ordered lattice classes, typically line bundles, checked once when
    built; _rows holds their rows (p_i, M_i, F_i) of variety._functionals."""

    variety: VarietyDesc
    members: tuple[ChernVector, ...]
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "_rows", tuple(_functionals(self.variety, self.members)))
        if any(_lattice_coords(self.variety, m) is None for m in self.members):
            raise DomainError("collection member not in lattice")

    def __len__(self):
        return len(self.members)

    def _rows_on(self, x: VarietyDesc) -> tuple:
        if x != self.variety:   # the rows pair on self.variety only
            raise DomainError("collection on another variety")
        return self._rows


@dataclass(frozen=True)
class ClassReport:
    chi_self: Fraction
    serre_eigenvalue: int | None   # +1, -1, or None when not an eigenvector
    labels: tuple[str, ...]   # sorted


@dataclass(frozen=True)
class FullnessVerdict:
    collection_rank: int
    residual_rank: int
    total_rank: int
    stability_assumed: bool
    verdict: str
    checks: tuple[tuple[str, bool], ...] = field(default=(), compare=False)


def is_numerically_exceptional(c: Collection) -> bool:
    """chi(E_i, E_i) = 1 and chi(E_j, E_i) = 0 for j > i."""
    rows, scale = c._rows, _pairing_scale(c.variety)   # F_i . M_i = scale p_i^2
    return all(_dot(f, m) == scale * p * p
               and all(_dot(g, m) == 0 for _, _, g in rows[i + 1:])
               for i, (p, m, f) in enumerate(rows))


def _residual(x: VarietyDesc, c: Collection) -> list[list[int]]:
    # lattice coordinates of the canonical residual basis: the saturated
    # kernel, in HNF, of the members' functionals; with no members, the
    # kernel of the zero row, which is the unit rows
    return int_kernel([_on_lattice(x, f) for _, _, f in c._rows_on(x)]
                      or [[0] * (x.dim + 1)])


def right_orthogonal(x: VarietyDesc, c: Collection) -> list[ChernVector]:
    """Canonical basis of the residual lattice of the collection.

    On the lattice basis H^j / lambda_j the functional chi(E_i, .) is a
    positive multiple of the integer row F_i[j] * L / lambda_j, with F_i the
    member's integer functional and L the lcm of the lambda_j.  int_kernel
    reads the kernel of those rows off a Hermite normal form, so the basis
    is saturated, in row HNF with positive pivots, and deterministic.
    """
    return [from_lattice_coords(x, k) for k in _residual(x, c)]


def _project(rows, w: list[int]) -> tuple[int, list[int]]:
    # (d, d W - sum B_i M_i), b = B / d solving sum_i (F_j . M_i) b_i = F_j . W
    # for the member rows (p_i, M_i, F_i): d times W projected along span(M)
    if not rows:
        return 1, list(w)
    d, b = _cleared([y for y, in _solve(
        [[*(_dot(f, m) for _, m, _ in rows), _dot(f, w)] for _, _, f in rows],
        len(rows), "degenerate collection pairing")])
    return d, [d * wk - _dot(b, col)
               for wk, col in zip(w, zip(*(m for _, m, _ in rows)))]


def sod_project(x: VarietyDesc, c: Collection, v: ChernVector) -> ChernVector:
    """Project v onto the residual lattice along the span of the collection.

    Subtracts the unique u in span(E_1, ..., E_m) with chi(E_j, v - u) = 0
    for every j, the numerical shadow of the projection functor of the
    semiorthogonal decomposition: v - u is _project of v = W / q over d q.
    """
    rows = c._rows_on(x)
    x.check_class(v)
    q, w = _cleared(v)
    d, u = _project(rows, w)
    return ChernVector(Fraction(y, d * q) for y in u)


def serre_on_residual(x: VarietyDesc, c: Collection,
                      basis: list[ChernVector]) -> RatMatrix:
    """Matrix of the induced Serre action on the residual lattice A.

    In the given basis of A it is G^-1 G^T, solved from G X = G^T, G the
    Gram matrix chi(b_i, b_j) of the basis (in integers: for b_i = B_i / L,
    F_i . B_j is scale L^2 chi(b_i, b_j)).
    The inverse Serre functor of the residual category is T = P . S^-1,
    the projection after the ambient inverse Serre action; for v, w in A
    the difference P S^-1 v - S^-1 v lies in span(E), which pairs to 0
    with A on the left, so T^T G = G^T and T^-1 = G^-1 G^T.

    An empty basis gives the empty matrix.  Otherwise DomainError
    "degenerate collection pairing" is raised when the members are
    dependent (the ranks do not add up to dim + 1) or G is singular.
    """
    if not basis:
        return RatMatrix.from_rows([])
    if len(basis) + len(c._rows_on(x)) != x.dim + 1:   # dependent members
        raise DomainError("degenerate collection pairing")
    rows = _functionals(x, basis)
    big = lcm(*(p for p, _, _ in rows))
    return _serre_matrix([[_dot(f, w) * (big // p) * (big // q)
                           for q, w, _ in rows] for p, _, f in rows],
                         "degenerate collection pairing")


def classify_class(x: VarietyDesc, c: Collection, v: ChernVector) -> ClassReport:
    """Self-pairing, Serre eigenvalue and labels of a residual class.

    The eigenvalue is e (+1 or -1) when the induced inverse Serre action
    P . S^-1 maps v to e v, P being the projection along span(E).  For
    v = V / p the vector n! p S^-1 v has the integer entries
    (-1)^n sum_k V_(i-k) r^k n! / k!, r the index; _project of it gives d
    and d n! p P(S^-1 v), which is e d n! V exactly when e is the
    eigenvalue.  DomainError "degenerate collection pairing" is raised by
    that solve when the members' Gram is singular.
    """
    rows = c._rows_on(x)
    (p, vv, fv), = _functionals(x, (v,))
    if not any(vv):
        raise DomainError("zero class")
    if _lattice_coords(x, v) is None or any(_dot(f, vv) for _, _, f in rows):
        raise DomainError("not residual")
    chi_self = Fraction(_dot(fv, vv), _pairing_scale(x) * p * p)
    n, big = x.dim, factorial(x.dim)
    twist = [(-1) ** n * x.index ** k * (big // factorial(k))
             for k in range(n + 1)]
    d, pu = _project(rows, [_dot(vv[i::-1], twist) for i in range(n + 1)])
    eigen = next((e for e in (1, -1)
                  if pu == [e * d * big * y for y in vv]), None)
    labels = []
    if chi_self == 1:
        labels.append("numerically-exceptional")
    if chi_self == 0:
        labels.append("isotropic")
    if eigen == 1:
        labels.append("numerical-point-object-even")
    elif eigen == -1:
        labels.append("numerical-point-object-odd")
    return ClassReport(chi_self=chi_self, serre_eigenvalue=eigen,
                       labels=tuple(sorted(labels)))


def fullness_report(x: VarietyDesc, c: Collection,
                    residual_gens: list[ChernVector],
                    stability_assumed: bool) -> FullnessVerdict:
    """Checklist verdict for the numerical legs of a fullness argument.

    (a) the collection is numerically exceptional, (b) the given generators
    span the residual lattice over Z, (c) a stability condition on the
    residual category is assumed (which rules out phantomic summands).
    All three passing with a nonzero residual yields
    "full-modulo-phantoms-excluded"; (a) + (b) with residual rank zero is
    already "numerically-full"; anything else is "inconclusive".
    """
    res_rows = _residual(x, c)
    gen_rows = [_lattice_coords(x, x.check_class(g)) for g in residual_gens]
    if None in gen_rows or hnf_rows(res_rows + gen_rows) != res_rows:
        raise DomainError("generator not in residual lattice")   # or not in span
    exceptional = is_numerically_exceptional(c)
    spans = hnf_rows(gen_rows) == res_rows
    checks = (
        ("collection numerically exceptional", exceptional),
        ("generators span residual lattice", spans),
        ("stability condition assumed", stability_assumed),
    )
    if exceptional and spans and not res_rows:
        verdict = "numerically-full"
    elif exceptional and spans and stability_assumed:
        verdict = "full-modulo-phantoms-excluded"
    else:
        verdict = "inconclusive"
    return FullnessVerdict(
        collection_rank=len(c),
        residual_rank=len(res_rows),
        total_rank=x.dim + 1,
        stability_assumed=stability_assumed,
        verdict=verdict,
        checks=checks)
