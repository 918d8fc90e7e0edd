"""Exact substrate: kernels, Hermite normal form, quadratic comparisons."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul

import pytest

from kustab.exact import (DomainError, QuadNumber, RatMatrix, _cleared,
                          _solve, hnf_rows, int_kernel, integer, rational)
from kustab.svg import _sqrt_trunc
from kustab.tilt import AlphaInterval

from oracles import (SPELLINGS, floor_a_plus_b_sqrt, row_reduce_rank,
                     solve_square, sign_a_plus_b_sqrt, sqrt_interval)

# the 3 x 4 orthogonality system: rows ch(O), ch(O(1)), ch(O(2)) against the
# degree-normalized pairing matrix of the quadric threefold
A_ROWS = [
    [1, 0, 0, 0],
    [1, 1, Fraction(1, 2), Fraction(1, 6)],
    [1, 2, 2, Fraction(4, 3)],
]
G_ROWS = [
    [Fraction(1, 2), Fraction(13, 12), Fraction(3, 2), 1],
    [Fraction(-13, 12), Fraction(-3, 2), -1, 0],
    [Fraction(3, 2), 1, 0, 0],
    [-1, 0, 0, 0],
]


def _cleared_rows(m):
    """Each row of a rational matrix times the lcm of its denominators."""
    return [[int(q * lcm(*(p.denominator for p in r))) for q in r]
            for r in m.entries]


def _order(x, y) -> int:
    """-1, 0 or 1 from QuadNumber's <, == and >, which must agree."""
    lt, eq, gt = x < y, x == y, x > y
    assert lt + eq + gt == 1, (x, y)
    return gt - lt


def test_kernel_of_orthogonality_system():
    m = RatMatrix.from_rows(A_ROWS) @ RatMatrix.from_rows(G_ROWS)
    basis = int_kernel(_cleared_rows(m))
    assert len(basis) == 1
    (k,) = basis
    # primitive integer vector proportional to (2, -1, 0, 1/12)
    assert k == [24, -12, 0, 1]
    assert all(sum(r[j] * k[j] for j in range(4)) == 0 for r in m.entries)


def test_kernel_identity_empty():
    assert int_kernel(_cleared_rows(RatMatrix.identity(3))) == []


def test_kernel_zero_matrix_standard_basis():
    m = RatMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    basis = int_kernel(_cleared_rows(m))
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_rank_nullity_random():
    rng = random.Random(103)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = RatMatrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(cols)] for _ in range(rows)])
        basis = int_kernel(_cleared_rows(m))
        rank = row_reduce_rank(m.entries)
        assert len(basis) == cols - rank
        for k in basis:
            assert all(sum(r[j] * k[j] for j in range(cols)) == 0
                       for r in m.entries)
        if basis:
            assert row_reduce_rank(basis) == len(basis)


def test_kernel_basis_is_saturated():
    # the Z-span of the basis is every integer kernel vector: the maximal
    # minors of the basis matrix have gcd 1 ((1, 0, -2) and (0, 1, -1) here)
    basis = int_kernel(_cleared_rows(RatMatrix.from_rows([[2, 1, 1]])))
    assert basis == [[1, 0, -2], [0, 1, -1]]
    (a, b) = basis
    minors = [a[i] * b[j] - a[j] * b[i] for i, j in ((0, 1), (0, 2), (1, 2))]
    assert gcd(*minors) == 1


def test_quad_compare_examples():
    assert _order(QuadNumber(-1, 0, Fraction(1, 4)), QuadNumber(0)) == -1
    # sqrt(1/4) folds to the rational 1/2
    x = QuadNumber(0, 1, Fraction(1, 4))
    assert x.is_rational and x.rational_value() == Fraction(1, 2)
    assert _order(x, Fraction(1, 2)) == 0
    assert _order(QuadNumber(1, 1, 2), Fraction(5, 2)) == -1


def test_quad_compare_mismatched_radicands():
    x, y = QuadNumber(0, 1, 2), QuadNumber(0, 1, 3)
    for compare in (x.__lt__, x.__eq__, x.__gt__):
        with pytest.raises(DomainError, match="incomparable radicands"):
            compare(y)


def test_quad_rational_mixes_with_any_radicand():
    assert _order(QuadNumber(3), QuadNumber(0, 1, 5)) == 1
    assert _order(QuadNumber(2), QuadNumber(0, 1, 5)) == -1


def _random_quad(rng, f):
    return QuadNumber(Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                      Fraction(rng.randint(-8, 8), rng.randint(1, 4)), f)


def test_quad_compare_total_order_properties():
    rng = random.Random(51)
    for f in (Fraction(2), Fraction(3, 5), Fraction(7)):
        for _ in range(80):
            x, y, z = (_random_quad(rng, f) for _ in range(3))
            assert _order(x, y) == -_order(y, x)
            if _order(x, y) <= 0 and _order(y, z) <= 0:
                assert _order(x, z) <= 0


def test_quad_compare_against_interval_oracle():
    rng = random.Random(2026)
    checked = 0
    for _ in range(1000):
        f = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        x = _random_quad(rng, f)
        y = _random_quad(rng, f)
        lo, hi = sqrt_interval(f)
        bounds = []
        for q in (x, y):
            ends = sorted((q.a + q.b * lo, q.a + q.b * hi))
            bounds.append(ends)
        got = _order(x, y)
        if bounds[0][1] < bounds[1][0]:
            assert got == -1
        elif bounds[1][1] < bounds[0][0]:
            assert got == 1
        else:
            # overlapping enclosures at 40 digits: must be exactly equal
            assert got == 0 and x.a == y.a and x.b == y.b
        checked += 1
    assert checked == 1000


def test_quad_arithmetic_and_floor():
    s2 = QuadNumber(0, 1, 2)
    assert (s2 * s2) == Fraction(2)
    assert ((1 + s2) * (1 - s2)) == Fraction(-1)
    assert (s2 / s2) == Fraction(1)
    assert s2.floor() == 1
    assert (-s2).floor() == -2
    assert QuadNumber(Fraction(7, 2)).floor() == 3
    assert (3 * s2).floor() == 4   # 3*sqrt(2) = 4.24...


def _sqrt_convergent(n: int, s: int, limit: int) -> Fraction:
    """The last convergent h/(k s) of sqrt(n/s) = sqrt(n s)/s with k <= limit."""
    r, root = n * s, isqrt(n * s)
    m, d, t = 0, 1, root
    h0, h1, k0, k1 = 1, root, 0, 1
    while True:
        m = d * t - m
        d = (r - m * m) // d
        t = (root + m) // d
        if t * k1 + k0 > limit:
            return Fraction(h1, k1 * s)
        h0, h1, k0, k1 = h1, t * h1 + h0, k1, t * k1 + k0


def _floor_inputs():
    """Seeded (a, b, F) triples for the floor oracle comparisons."""
    rng = random.Random(6101)
    for _ in range(600):
        yield (Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 60)),
               Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 4),
                        rng.randint(1, 60)),
               Fraction(rng.randint(0, 300), rng.randint(1, 40)))
    for _ in range(100):   # square radicands fold to rationals; F = 0
        root = Fraction(rng.randint(0, 50), rng.randint(1, 12))
        yield (Fraction(rng.randint(-999, 999), rng.randint(1, 9)),
               Fraction(rng.randint(-99, 99), rng.randint(1, 9)), root * root)
    for _ in range(200):   # numerators near 10^30
        big = 10 ** 30 + rng.randint(-10 ** 6, 10 ** 6)
        yield (Fraction(rng.choice((-1, 1)) * big, rng.randint(1, 10 ** 3)),
               Fraction(rng.choice((-1, 1)) * big, rng.randint(1, 10 ** 24)),
               Fraction(rng.randint(2, 10 ** 4), rng.randint(1, 97)))
    count = 0
    while count < 200:     # within 10^-12 of an integer: a = m - b * (h/k)
        n, s = rng.randint(2, 500), rng.randint(1, 7)
        if isqrt(n * s) ** 2 == n * s:
            continue
        conv = _sqrt_convergent(n, s, 10 ** 9)
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 9))
        m = rng.randint(-10 ** 4, 10 ** 4)
        a, f = m - b * conv, Fraction(n, s)
        tiny = Fraction(1, 10 ** 12)
        assert sign_a_plus_b_sqrt(a - m - tiny, b, f) < 0
        assert sign_a_plus_b_sqrt(a - m + tiny, b, f) > 0
        yield a, b, f
        count += 1


def test_quad_floor_matches_bisection_oracle():
    for a, b, f in _floor_inputs():
        expected = floor_a_plus_b_sqrt(a, b, f)
        assert QuadNumber(a, b, f).floor() == expected, (a, b, f)
        assert (-QuadNumber(a, b, f)).floor() == floor_a_plus_b_sqrt(-a, -b, f)


def test_svg_sqrt_trunc_matches_bisection_oracle():
    rng = random.Random(6102)
    qs = [Fraction(0), Fraction(1), Fraction(1, 4), Fraction(2)]
    qs += [Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 3))
           for _ in range(300)]
    qs += [Fraction(rng.randint(1, 99), rng.randint(1, 9)) ** 2
           for _ in range(50)]
    for _ in range(100):   # sqrt(q) * 10^6 at or next to an integer
        edge = Fraction(rng.randint(1, 10 ** 9), 10 ** 6) ** 2
        qs += [edge, edge - Fraction(1, 10 ** 30), edge + Fraction(1, 10 ** 30)]
    for q in qs:
        expected = Fraction(floor_a_plus_b_sqrt(0, 10 ** 6, q), 10 ** 6)
        assert _sqrt_trunc(q) == expected, q


def test_quad_text_formatter():
    assert str(QuadNumber(Fraction(-3, 2))) == "-3/2"
    assert str(QuadNumber(0, 1, 2)) == "sqrt(2)"
    assert str(QuadNumber(0, -1, 2)) == "-sqrt(2)"
    assert str(QuadNumber(0, -2, 2)) == "-2*sqrt(2)"
    assert str(QuadNumber(0, Fraction(1, 2), 3)) == "1/2*sqrt(3)"
    assert str(QuadNumber(1, 1, 2)) == "1 + sqrt(2)"
    assert str(QuadNumber(1, -1, 2)) == "1 - sqrt(2)"
    assert str(QuadNumber(Fraction(1, 3), -1, Fraction(13, 9))) == "1/3 - sqrt(13/9)"
    assert str(QuadNumber(-1, -6, Fraction(13, 9))) == "-1 - 6*sqrt(13/9)"
    assert str(QuadNumber(-1, Fraction(5, 2), 7)) == "-1 + 5/2*sqrt(7)"
    readme = AlphaInterval(lo=QuadNumber(0), hi=QuadNumber(Fraction(1, 2)))
    assert readme.text() == "(0, 1/2)"
    closed = AlphaInterval(lo=QuadNumber(0), hi=QuadNumber(1, -1, 2) * -1,
                           hi_open=False)
    assert closed.text() == "(0, -1 + sqrt(2)]"
    assert AlphaInterval(lo=QuadNumber(0), hi=None).text() == "(0, inf)"


def test_quad_negative_radicand_rejected():
    with pytest.raises(DomainError):
        QuadNumber(0, 1, -2)


def test_matrix_inverse_and_solve():
    m = RatMatrix.from_rows([[1, 5, 14], [0, 1, 5], [0, 0, 1]])
    inv = m.inverse()
    assert (m @ inv).entries == RatMatrix.identity(3).entries
    assert m.solve([1, 1, 1]) == (7, -4, 1)
    with pytest.raises(DomainError):
        RatMatrix.from_rows([[1, 2], [2, 4]]).inverse()


def _random_rat_rows(rng):
    # 0-7 rows and columns, denominators 1, 2, 3 and 12, zeros, and now and
    # then a row that is a combination of two others
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    m = [[Fraction(rng.choice((0, 0, rng.randint(-9, 9))),
                   rng.choice((1, 2, 3, 12))) for _ in range(cols)]
         for _ in range(rows)]
    if rows > 2 and rng.random() < 0.4:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        m[rng.randrange(2, rows)] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


def _rat_inputs():
    rng = random.Random(2025)
    return [_random_rat_rows(rng) for _ in range(2000)]


def test_rref_rank_inverse_solve_match_oracles():
    # rref: reduced echelon shape, every row of its own, zero rows last, the
    # same row space; rank, inverse and solve against the oracles
    rng = random.Random(7)
    for rows in _rat_inputs():
        m = RatMatrix.from_rows(rows)
        red, pivots = m.rref()
        rank = len(pivots)
        assert len(red) == m.rows and len({id(r) for r in red}) == m.rows
        assert all(len(r) == m.cols for r in red), rows
        assert pivots == sorted(set(pivots)), rows
        for i, c in enumerate(pivots):
            assert not any(red[i][:c]) and red[i][c] == 1, rows
            assert all(red[k][c] == 0 for k in range(m.rows) if k != i), rows
        assert not any(x for r in red[rank:] for x in r), rows
        assert (row_reduce_rank(rows + red) == row_reduce_rank(rows)
                == rank == m.rank()), rows
        if m.rows == m.cols:
            b = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                 for _ in rows]
            x = solve_square(rows, b)
            if x is None:
                with pytest.raises(DomainError, match="no unique solution"):
                    m.solve(b)
                with pytest.raises(DomainError, match="singular matrix"):
                    m.inverse()
            else:
                assert list(m.solve(b)) == x, rows
                cols = [solve_square(rows, e) for e in RatMatrix.identity(
                    m.rows).entries]
                assert m.inverse().transpose().entries == tuple(
                    map(tuple, cols)), rows
        elif rank == m.cols > 0:    # tall, full column rank, consistent
            x = tuple(Fraction(rng.randint(-5, 5)) for _ in range(m.cols))
            assert m.solve(m.apply(x)) == x, rows


def test_solve_matches_inverse_and_oracle():
    # square, singular and tall systems A X = B given as the rows of [A | B],
    # in Fractions and cleared to integer rows: a square X is inverse() @ B
    # and solve_square per column, a tall X solves the system of full column
    # rank, and anything else raises the caller's message
    rng = random.Random(19)
    seen = Counter()
    for _ in range(600):
        n, k = rng.randint(1, 5), rng.randint(1, 3)
        tall = rng.random() < 0.4
        rows = [[Fraction(rng.choice((0, rng.randint(-9, 9))),
                          rng.choice((1, 2, 3, 12))) for _ in range(n)]
                for _ in range(n + rng.randint(1, 2) * tall)]
        if n > 1 and rng.random() < 0.25:     # a dependent column
            j = rng.randrange(1, n)
            for r in rows:
                r[j] = 2 * r[0]
        m = RatMatrix.from_rows(rows)
        b = [[Fraction(rng.randint(-5, 5), rng.choice((1, 3)))
              for _ in range(k)] for _ in rows]
        if tall and rng.random() < 0.7:     # consistent: b = m @ x
            b = [list(r) for r in (m @ RatMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(k)]
                 for _ in range(n)])).entries]
        aug = [[*r, *y] for r, y in zip(rows, b)]
        ints = [_cleared(r)[1] for r in aug]     # each row times its lcm
        assert all(type(e) is int for r in ints for e in r)
        unique = row_reduce_rank(rows) == n == row_reduce_rank(aug)
        if not unique:
            for system in (aug, ints):
                with pytest.raises(DomainError, match="^caller message$"):
                    _solve(system, n, "caller message")
            if not tall:
                assert solve_square(rows, [r[0] for r in b]) is None, rows
                with pytest.raises(DomainError, match="singular matrix"):
                    m.inverse()
            seen["tall, not unique" if tall else "singular"] += 1
            continue
        got = _solve(aug, n, "caller message")
        assert _solve(ints, n, "caller message") == got, rows
        assert len(got) == n and all(len(r) == k for r in got), rows
        assert (m @ RatMatrix.from_rows(got)).entries == tuple(
            map(tuple, b)), rows
        if not tall:
            assert got == [list(r) for r in (
                m.inverse() @ RatMatrix.from_rows(b)).entries], rows
            for j in range(k):
                assert [r[j] for r in got] == solve_square(
                    rows, [r[j] for r in b]), rows
        seen["tall" if tall else "square"] += 1
    assert len(seen) == 4 and min(seen.values()) >= 50, seen


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for rows in _rat_inputs():
        r = len(rows)
        c = len(rows[0]) if rows else 0
        red, pivots = sympy.Matrix(
            r, c, [sympy.Rational(x.numerator, x.denominator)
                   for row in rows for x in row]).rref()
        ours = RatMatrix.from_rows(rows).rref()
        assert ours == ([[Fraction(int(e.p), int(e.q)) for e in red.row(i)]
                         for i in range(r)], list(pivots)), rows


def _random_int_matrix(rng):
    # small and large entries, zeros, and now and then a dependent last row
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    m = [[rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10 ** 4, 10 ** 4)))
          for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and rng.random() < 0.3:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


def test_lattice_routines_match_sympy():
    # int_kernel: sympy's nullity, rows in sympy's nullspace, Smith invariants
    # all 1 (saturated); hnf_rows: the same row lattice as its input, by
    # sympy's Hermite normal form of the transposes
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form, invariant_factors
    rng = random.Random(1968)
    saturated = 0
    for _ in range(150):
        a = _random_int_matrix(rng)
        ma = sympy.Matrix(a)
        null = ma.nullspace()
        kernel = int_kernel(a)
        assert len(kernel) == len(null), a
        for k in kernel:
            assert all(type(c) is int for c in k)
            assert sympy.Matrix.hstack(*null, sympy.Matrix(k)).rank() == len(null)
        if kernel:
            assert set(invariant_factors(sympy.Matrix(kernel),
                                         domain=sympy.ZZ)) == {1}, a
            saturated += 1
        for rows in (a, kernel):
            h = hnf_rows(rows)
            assert len(h) == (sympy.Matrix(rows).rank() if rows else 0)
            if h:
                assert (hermite_normal_form(sympy.Matrix(h).T)
                        == hermite_normal_form(sympy.Matrix(rows).T)), rows
    assert saturated >= 50, saturated


def _is_hnf(h):
    # no zero rows, positive pivots moving strictly right, zeros below each
    # pivot (by the moving pivots) and entries above it in [0, pivot)
    pivots = [next((j for j, x in enumerate(r) if x), None) for r in h]
    if None in pivots or pivots != sorted(set(pivots)):
        return False
    return all(h[r][c] > 0 and all(0 <= h[i][c] < h[r][c] for i in range(r))
               for r, c in enumerate(pivots))


def _reduce(v, h):
    # v minus the multiple of each HNF row that clears its pivot entry; the
    # result is 0 exactly when v lies in the row lattice of h
    for r in h:
        c = next(j for j, x in enumerate(r) if x)
        v = [x - v[c] // r[c] * y for x, y in zip(v, r)]
    return v


def test_lattice_routines_without_sympy():
    # int_kernel: rows vanish under a, n - rank of them, and every kernel
    # vector of a small box lies in their span (saturation); hnf_rows: HNF
    # shape, unchanged under unimodular row operations on its input
    rng = random.Random(2718)
    boxed = 0
    for t in range(240):
        if t % 2:
            a = _random_int_matrix(rng)
        else:
            a = [[rng.randint(-2, 2) for _ in range(rng.randint(2, 5))]]
            a += [[rng.randint(-2, 2) for _ in a[0]]
                  for _ in range(rng.randint(0, 2))]
        cols = len(a[0])
        kernel = int_kernel(a)
        assert all(sum(map(mul, r, k)) == 0 for r in a for k in kernel), a
        assert len(kernel) == cols - row_reduce_rank(a), a
        assert _is_hnf(kernel), a
        span = range(-2, 3) if cols <= 4 else range(-1, 2)
        for x in product(span, repeat=cols):
            if any(x) and all(sum(map(mul, r, x)) == 0 for r in a):
                assert not any(_reduce(list(x), kernel)), (a, x)
                boxed += 1
        h = hnf_rows(a)
        assert _is_hnf(h) and len(h) == row_reduce_rank(a), a
        b = [list(r) for r in a] + [[0] * cols]
        for _ in range(8):
            i, j = rng.sample(range(len(b)), 2)
            op = rng.randrange(3)
            if op == 0:
                k = rng.choice((-3, -2, -1, 1, 2, 3))
                b[i] = [x + k * y for x, y in zip(b[i], b[j])]
            elif op == 1:
                b[i], b[j] = b[j], b[i]
            else:
                b[i] = [-x for x in b[i]]
        assert hnf_rows(b) == h, (a, b)
    assert boxed >= 500, boxed


def test_integer_and_rational_read_one_spelling_table():
    # argparse words a ValueError of a type= reader as "invalid <name> value"
    for text, wants in SPELLINGS.items():
        for reader, want in zip((integer, rational), wants):
            if want is None:
                with pytest.raises(ValueError):
                    reader(text)
            else:
                got = reader(text)
                assert got == want and type(got) is type(want), text
