"""Exceptional collections and their residual lattices.

The right orthogonal of a collection (E_1, ..., E_m) inside the numerical
lattice is { v : chi(E_i, v) = 0 for all i }.  This module computes a
canonical basis of that sublattice, the numerical projection onto it, the
induced Serre action, and the bookkeeping verdicts used to certify fullness
arguments at the lattice level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import DomainError, RatMatrix, hnf_rows, kernel_basis
from .variety import (ChernVector, VarietyDesc, _pairing_matrix, _serre_matrix,
                      euler_pairing, from_lattice_coords, in_lattice,
                      serre_inverse_class, to_lattice_coords)


@dataclass(frozen=True)
class Collection:
    """An ordered tuple of classes, typically line bundles."""

    variety: VarietyDesc
    members: tuple[ChernVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        for m in self.members:
            self.variety.check_class(m)

    def __len__(self):
        return len(self.members)


@dataclass(frozen=True)
class ClassReport:
    chi_self: Fraction
    serre_eigenvalue: int | None   # +1, -1, or None when not an eigenvector
    labels: frozenset[str]


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
    g = _pairing_matrix(c.variety, c.members, c.members)
    m = len(c)
    return all(g[i, i] == 1 and all(g[j, i] == 0 for j in range(i + 1, m))
               for i in range(m))


def right_orthogonal(x: VarietyDesc, c: Collection) -> list[ChernVector]:
    """Canonical basis of the residual lattice of the collection.

    The chi-orthogonality system is solved over the integers in lattice
    coordinates: kernel_basis reads the kernel off the Hermite normal form
    of the rows (A^T e_j | e_j) of the functional matrix A, so the basis is
    saturated, in row HNF with positive pivots, and deterministic.
    """
    n = x.dim     # gens: the lattice basis H^j / lambda_j
    gens = [from_lattice_coords(x, [int(i == j) for i in range(n + 1)])
            for j in range(n + 1)]
    if not c.members:
        return gens
    if not all(in_lattice(x, m) for m in c.members):
        raise DomainError("collection member not in lattice")
    # functional matrix: row i, column j = chi(E_i, H^j / lambda_j)
    return [from_lattice_coords(x, k)
            for k in kernel_basis(_pairing_matrix(x, c.members, gens))]


def sod_project(x: VarietyDesc, c: Collection, v: ChernVector) -> ChernVector:
    """Project v onto the residual lattice along the span of the collection.

    Subtracts the unique u in span(E_1, ..., E_m) with chi(E_j, v - u) = 0
    for every j; this is the numerical shadow of the projection functor of
    the semiorthogonal decomposition.
    """
    x.check_class(v)
    if not c.members:
        return v
    gram = _pairing_matrix(x, c.members, c.members)
    rhs = [r[0] for r in _pairing_matrix(x, c.members, (v,)).entries]
    try:
        coeffs = gram.solve(rhs)
    except DomainError:
        raise DomainError("degenerate collection pairing") from None
    return v - sum((a * e for a, e in zip(coeffs, c.members)),
                   ChernVector([0] * len(v)))


def is_residual(x: VarietyDesc, c: Collection, v: ChernVector) -> bool:
    return in_lattice(x, v) and not any(
        r[0] for r in _pairing_matrix(x, c.members, (v,)).entries)


def serre_on_residual(x: VarietyDesc, c: Collection,
                      basis: list[ChernVector] | None = None) -> RatMatrix:
    """Matrix of the induced Serre action on the residual lattice A.

    In the given basis of A (by default the canonical one) it is G^-1 G^T,
    where G is the Gram matrix chi(b_i, b_j) of the basis.  The inverse
    Serre functor of the residual category is T = P . S^-1, the projection
    after the ambient inverse Serre action; for v, w in A the difference
    P S^-1 v - S^-1 v lies in span(E), which pairs to 0 with A on the left,
    so T^T G = G^T and T^-1 = G^-1 G^T.

    An empty basis gives the empty matrix.  Otherwise DomainError
    "degenerate collection pairing" is raised when the members are
    dependent (the ranks do not add up to dim + 1) or G is singular.
    """
    if basis is None:
        basis = right_orthogonal(x, c)
    if not basis:
        return RatMatrix.from_rows([])
    if len(basis) + len(c) != x.dim + 1:    # the members are dependent
        raise DomainError("degenerate collection pairing")
    g = _pairing_matrix(x, basis, basis)
    try:
        return _serre_matrix(g)
    except DomainError:
        raise DomainError("degenerate collection pairing") from None


def classify_class(x: VarietyDesc, c: Collection, v: ChernVector) -> ClassReport:
    """Self-pairing, Serre eigenvalue and labels of a residual class.

    The eigenvalue test applies the induced inverse Serre action directly:
    v is a +1 (resp. -1) eigenvector of the residual Serre action exactly
    when the projection of its ambient inverse Serre image is v (resp. -v).
    """
    x.check_class(v)
    if v.is_zero():
        raise DomainError("zero class")
    if not is_residual(x, c, v):
        raise DomainError("not residual")
    chi_self = euler_pairing(x, v, v)
    w = sod_project(x, c, serre_inverse_class(x, v))
    if w == v:
        eigen: int | None = 1
    elif w == -v:
        eigen = -1
    else:
        eigen = None
    labels = set()
    if chi_self == 1:
        labels.add("numerically-exceptional")
    if chi_self == 0:
        labels.add("isotropic")
    if eigen == 1:
        labels.add("numerical-point-object-even")
    elif eigen == -1:
        labels.add("numerical-point-object-odd")
    return ClassReport(chi_self=chi_self, serre_eigenvalue=eigen,
                       labels=frozenset(labels))


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
    residual = right_orthogonal(x, c)
    for g in residual_gens:
        if not is_residual(x, c, g):
            raise DomainError("generator not in residual lattice")
    exceptional = is_numerically_exceptional(c)
    res_rows = [to_lattice_coords(x, b) for b in residual]   # already HNF
    gen_rows = hnf_rows([to_lattice_coords(x, g) for g in residual_gens])
    spans = gen_rows == res_rows
    checks = (
        ("collection numerically exceptional", exceptional),
        ("generators span residual lattice", spans),
        ("stability condition assumed", stability_assumed),
    )
    if exceptional and spans and not residual:
        verdict = "numerically-full"
    elif exceptional and spans and stability_assumed:
        verdict = "full-modulo-phantoms-excluded"
    else:
        verdict = "inconclusive"
    return FullnessVerdict(
        collection_rank=len(c),
        residual_rank=len(residual),
        total_rank=x.dim + 1,
        stability_assumed=stability_assumed,
        verdict=verdict,
        checks=checks)
