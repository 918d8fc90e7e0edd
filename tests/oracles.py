"""Independent oracles used to freeze expected values.

Everything here is deliberately written from first principles (plain
Fractions, its own eliminations, its own sign arithmetic) so tests check
the library against derivations that do not share code with it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, isqrt


def binom(n, k: int) -> Fraction:
    """Binomial coefficient as a polynomial in n (valid for negative n)."""
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(n - i, i + 1)
    return out


def hilbert_q3(k: int) -> Fraction:
    """chi(O(k)) on a quadric threefold from the ambient exact sequence."""
    return binom(k + 4, 4) - binom(k + 2, 4)


def hilbert_p4(k: int) -> Fraction:
    return binom(k + 4, 4)


# -- number spellings ----------------------------------------------------------

# text -> (its value as an integer flag or twist, its value as a rational
# flag or config todd string), None where the reader refuses it.  int() and
# Fraction() alone read "1_0" as 10 and " 1" and "\u0661" (Arabic-Indic one)
# as 1, Fraction() reads "1.5" and "1e0", and "1/0" and "0/00" divide by zero.
SPELLINGS = {
    "1": (1, Fraction(1)),
    "+3": (3, Fraction(3)),
    "-1/2": (None, Fraction(-1, 2)),
    "1_0": (None, None),
    " 1": (None, None),
    "\u0661": (None, None),
    "1.5": (None, None),
    "1e0": (None, None),
    "1/0": (None, None),
    "0/00": (None, None),
    "9" * 5000: (None, None),       # past the integer digit limit
}


# -- truncated power series over Q -------------------------------------------


def series_mul(a, b, order: int):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def series_inv(a, order: int):
    assert a[0] == 1
    a = list(a) + [Fraction(0)] * (order + 1 - len(a))
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        out[n] = -sum(a[i] * out[n - i] for i in range(1, n + 1))
    return out


def series_pow(a, e: int, order: int):
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(e):
        out = series_mul(out, a, order)
    return out


def todd_p4() -> list[Fraction]:
    """td(P^4) = (x / (1 - e^-x))^5 truncated at x^4."""
    f = [Fraction((-1) ** i, factorial(i + 1)) for i in range(5)]
    return series_pow(series_inv(f, 4), 5, 4)


def todd_from_chern_3fold(c) -> list[Fraction]:
    """Todd class of a threefold from c = [1, c1, c2, c3] (coefficients of H^i)."""
    c1, c2 = c[1], c[2]
    return [Fraction(1), c1 / 2, (c1 * c1 + c2) / 12, c1 * c2 / 24]


def chern_y4() -> list[Fraction]:
    """c(Y4) by Whitney: (1+H)^6 / (1+2H)^2 on the (2,2) intersection."""
    num = series_pow([Fraction(1), Fraction(1)], 6, 3)
    den = series_pow([Fraction(1), Fraction(2)], 2, 3)
    return series_mul(num, series_inv(den, 3), 3)


def chern_y2() -> list[Fraction]:
    """c(Y2) for the double cover of P^3 branched over a quartic.

    The differentials sequence of the cover gives
    c(Y2) = (1+H)^4 (1+2H) / (1+4H) with H the pulled-back hyperplane.
    """
    num = series_mul(series_pow([Fraction(1), Fraction(1)], 4, 3),
                     [Fraction(1), Fraction(2)], 3)
    return series_mul(num, series_inv([Fraction(1), Fraction(4)], 3), 3)


# -- Riemann-Roch --------------------------------------------------------------


def euler_closed_sum(degree, todd, v, w) -> Fraction:
    """chi(v, w) = d * sum over i + j <= n of (-1)^i v_i w_j t_(n-i-j), term by term."""
    n = len(todd) - 1
    total = Fraction(0)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            total += (-1) ** i * Fraction(v[i]) * Fraction(w[j]) * Fraction(todd[n - i - j])
    return degree * total


# -- independent linear algebra ------------------------------------------------


def row_reduce_rank(rows) -> int:
    """Rank by plain forward elimination (column-major pivot search)."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def solve_upper_triangular(mat, rhs):
    """Back substitution for a square upper-triangular system."""
    n = len(rhs)
    sol = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = rhs[i] - sum(mat[i][j] * sol[j] for j in range(i + 1, n))
        sol[i] = s / mat[i][i]
    return sol


def solve_square(mat, rhs):
    """The solution of a square system by Gauss-Jordan, or None when singular."""
    n = len(rhs)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(mat, rhs)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def rank2_model(g, bound: int = 6):
    """(P, P G P^T) for the first P in GL2(Z) that takes G to a model, or None.

    The models are [[1, a], [0, 1]] (numerically an exceptional pair),
    [[1 - g, 1], [-1, 0]] (numerically D^b of a genus-g curve) and +-I2 (a
    definite symmetric form).  P runs over the integer matrices with
    |p_ij| <= bound and determinant +-1, by largest entry and then
    lexicographically, so the answer is the smallest such P.
    """
    span = range(-bound, bound + 1)
    for p in sorted(product(span, repeat=4),
                    key=lambda p: (max(map(abs, p)), p)):
        if abs(p[0] * p[3] - p[1] * p[2]) != 1:
            continue
        rows = (p[:2], p[2:])
        m = [[sum(r[i] * g[i][j] * s[j] for i in range(2) for j in range(2))
              for s in rows] for r in rows]
        if (m[1][0] == 0 and m[0][0] == m[1][1] == 1
                or m[0][1] == 1 and m[1][0] == -1 and m[1][1] == 0
                or m[0][1] == m[1][0] == 0 and m[0][0] == m[1][1] in (1, -1)):
            return [list(r) for r in rows], m
    return None


# -- the box lattice sum Z H^i / lambda_i ---------------------------------------


def box_coords(denoms, v):
    """The integers lambda_i c_i of v, or None when one is not an integer.

    Truncated classes qualify: only the coefficients v has are read.
    """
    scaled = [Fraction(c) * d for c, d in zip(v, denoms)]
    if any(s.denominator != 1 for s in scaled):
        return None
    return [s.numerator for s in scaled]


def box_class(rng, denoms, bound: int) -> list[Fraction]:
    """A seeded box-lattice class: k_i / lambda_i with |k_i| <= bound."""
    return [Fraction(rng.randint(-bound, bound), d) for d in denoms]


# -- residual classes by projection --------------------------------------------


def classify_by_projection(degree, todd, index, denoms, members, v):
    """(chi(v, v), Serre eigenvalue, labels) of a residual class, or an error.

    The eigenvalue is e when P(S^-1 v) = e v, with S^-1 v = (-1)^n v e^(rH)
    and P(u) = u - sum a_i E_i for the a solving chi(E_j, u - sum a_i E_i) = 0.
    Errors come back as the message strings "zero class", "not residual"
    (outside the lattice, or chi(E_i, v) != 0) and "degenerate collection
    pairing" (singular Gram chi(E_j, E_i)), checked in that order.
    """
    n = len(todd) - 1
    v = [Fraction(c) for c in v]

    def chi(a, b):
        return euler_closed_sum(degree, todd, a, b)

    if all(c == 0 for c in v):
        return "zero class"
    if box_coords(denoms, v) is None or any(chi(e, v) != 0 for e in members):
        return "not residual"
    chi_self = chi(v, v)
    twist = [Fraction(index) ** k / factorial(k) for k in range(n + 1)]
    u = [(-1) ** n * c for c in series_mul(v, twist, n)]
    a = solve_square([[chi(ej, ei) for ei in members] for ej in members],
                     [chi(ej, u) for ej in members])
    if a is None:
        return "degenerate collection pairing"
    pu = [ui - sum(ai * e[k] for ai, e in zip(a, members))
          for k, ui in enumerate(u)]
    eigen = 1 if pu == v else -1 if pu == [-c for c in v] else None
    labels = set()
    if chi_self == 1:
        labels.add("numerically-exceptional")
    if chi_self == 0:
        labels.add("isotropic")
    if eigen == 1:
        labels.add("numerical-point-object-even")
    if eigen == -1:
        labels.add("numerical-point-object-odd")
    return chi_self, eigen, tuple(sorted(labels))


# -- exact arithmetic with one radical ----------------------------------------


def sign_a_plus_b_sqrt(a: Fraction, b: Fraction, f: Fraction) -> int:
    """Sign of a + b*sqrt(f) for f >= 0, written independently of the library."""
    assert f >= 0
    if b == 0 or f == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * f
    if lhs == rhs:
        return 0
    big_a = lhs > rhs
    return (1 if big_a else -1) if a > 0 else (-1 if big_a else 1)


def floor_a_plus_b_sqrt(a: Fraction, b: Fraction, f: Fraction) -> int:
    """floor(a + b*sqrt(f)) by integer bisection on sign_a_plus_b_sqrt alone."""
    a, b, f = Fraction(a), Fraction(b), Fraction(f)
    # |a + b sqrt(f)| <= |a| + |b| (f + 1) since sqrt(f) <= f + 1
    reach = abs(a) + abs(b) * (f + 1)
    lo = -(reach.numerator // reach.denominator) - 1
    hi = -lo + 1
    # invariant: lo <= a + b sqrt(f) < hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sign_a_plus_b_sqrt(a - mid, b, f) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def sqrt_interval(f: Fraction, digits: int = 40) -> tuple[Fraction, Fraction]:
    """Exact enclosure lo <= sqrt(f) <= hi with width 1/10^digits."""
    scale = 10 ** digits
    p, q = f.numerator, f.denominator
    r = isqrt(p * q * scale * scale)
    return Fraction(r, q * scale), Fraction(r + 1, q * scale)


# -- degree numbers of a truncated class ---------------------------------------


def degree_numbers(d, v):
    """(c_0 H^n, c_1 H^(n-1), c_2 H^(n-2)) = d * (c_0, c_1, c_2) as Fractions."""
    return tuple(Fraction(c) * d for c in v[:3])


def weak_charge(d, v):
    """(Re, Im) of Z_H = -c_1 H^(n-1) + i c_0 H^n."""
    a0, a1, _ = degree_numbers(d, v)
    return -a1, a0


def weak_slope(d, v):
    """mu_H = (c_1 H^(n-1)) / (c_0 H^n), None standing for +infinity."""
    a0, a1, _ = degree_numbers(d, v)
    return None if a0 == 0 else a1 / a0


def discriminant(d, v):
    """Delta_H = (c_1 H^(n-1))^2 - 2 (c_0 H^n)(c_2 H^(n-2))."""
    a0, a1, a2 = degree_numbers(d, v)
    return a1 * a1 - 2 * a0 * a2


def beta_zero_parts(d, v):
    """(F, mu_H, c_0 H^n) with F = Delta_H / (c_0 H^n)^2.

    The beta_0 line is mu_H - sqrt(F) and the interval bound is
    sqrt(F) c_0 H^n; the caller ensures c_0 > 0.
    """
    a0 = degree_numbers(d, v)[0]
    return discriminant(d, v) / (a0 * a0), weak_slope(d, v), a0


# -- brute force wall enumeration ----------------------------------------------


def tilt_re_im(d, c0, c1, c2, alpha_sq: Fraction, beta: Fraction):
    """Re and Im/alpha of the tilt charge, from the displayed expansion."""
    a0, a1, a2 = c0 * d, c1 * d, c2 * d
    re = (alpha_sq - beta * beta) / 2 * a0 + beta * a1 - a2
    im_over_alpha = a1 - beta * a0
    return re, im_over_alpha


def tilt_slopes(c0, c1, c2, alpha: Fraction, beta: Fraction):
    """(mu_H, mu_{alpha,beta}) of (c0, c1, c2), None standing for +infinity.

    mu_H = c1/c0 and mu_{alpha,beta} = -Re Z / Im Z for the displayed tilt
    charge; the degree cancels from both, so it is taken to be 1.
    """
    re, im_over_alpha = tilt_re_im(1, c0, c1, c2, alpha * alpha, beta)
    mu_h = None if c0 == 0 else Fraction(c1) / c0
    mu_t = None if im_over_alpha == 0 else -re / (alpha * im_over_alpha)
    return mu_h, mu_t


def wall_equation(d, v, w):
    """(C0, C1, C2) with C0 (alpha^2 + beta^2) + C1 beta + C2 = 0.

    Recovered by evaluating the cross-multiplied slope equality at sample
    points rather than reusing any library algebra.
    """
    def g(alpha_sq, beta):
        re_v, imf_v = tilt_re_im(d, *v[:3], alpha_sq, beta)
        re_w, imf_w = tilt_re_im(d, *w[:3], alpha_sq, beta)
        return re_v * imf_w - re_w * imf_v

    c2 = g(Fraction(0), Fraction(0))
    c0 = g(Fraction(1), Fraction(0)) - c2
    c1 = g(Fraction(0), Fraction(1)) - c0 - c2
    return c0, c1, c2


def enumerate_walls(d, denoms, v, max_rank, max_c1,
                    c2_scaled_range: int = 80):
    """Exhaustive candidate-wall enumeration inside a fixed box.

    Filters: 0 < ch_1^{beta_0}(w) < ch_1^{beta_0}(v) at beta_0, both
    discriminants nonnegative, and the circle crosses the beta_0 line at
    alpha > 0.  The bounds may be fractions: |c0| <= max_rank and
    |c1| <= max_c1.  Returns {(center, radius_sq): set of witnesses}.
    """
    c0, c1, c2 = v[:3]
    a0, a1, a2 = c0 * d, c1 * d, c2 * d
    assert a0 > 0
    f = (a1 * a1 - 2 * a0 * a2) / (a0 * a0)
    assert f > 0
    mu = a1 / a0   # beta_0 = mu - sqrt(f)
    lam0, lam1, lam2 = denoms[0], denoms[1], denoms[2]
    box0 = int(Fraction(max_rank) * lam0)    # truncation is floor for >= 0
    box1 = int(Fraction(max_c1) * lam1)
    found: dict = {}
    for k0 in range(-box0, box0 + 1):
        for k1 in range(-box1, box1 + 1):
            c0w, c1w = Fraction(k0, lam0), Fraction(k1, lam1)
            # value(w) = (c1w - beta0 c0w) d = (c1w - mu c0w) d + c0w d sqrt(f)
            va, vb = (c1w - mu * c0w) * d, c0w * d
            if sign_a_plus_b_sqrt(va, vb, f) <= 0:
                continue
            # value(w) < bound = sqrt(f) a0
            if sign_a_plus_b_sqrt(va, vb - a0, f) >= 0:
                continue
            for k2 in range(-c2_scaled_range, c2_scaled_range + 1):
                c2w = Fraction(k2, lam2)
                if c1w * c1w - 2 * c0w * c2w < 0:
                    continue
                u0, u1, u2 = c0 - c0w, c1 - c1w, c2 - c2w
                if u1 * u1 - 2 * u0 * u2 < 0:
                    continue
                w = (c0w, c1w, c2w)
                e0, e1, e2 = wall_equation(d, v[:3], w)
                if e0 == 0:
                    continue
                center = -e1 / (2 * e0)
                radius_sq = center * center - e2 / e0
                # crossing: radius_sq - (beta0 - center)^2 > 0, beta0 = mu - sqrt(f)
                diff_a, diff_b = mu - center, Fraction(-1)
                # (beta0 - center)^2 = diff_a^2 + f - 2 diff_a sqrt(f)
                ca = radius_sq - diff_a * diff_a - f
                cb = 2 * diff_a
                if sign_a_plus_b_sqrt(ca, cb, f) <= 0:
                    continue
                found.setdefault((center, radius_sq), set()).add(w)
    return found
