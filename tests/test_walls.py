"""Wall geometry: the beta_0 line, certificates, circles, bounded scans."""

import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from kustab.config import variety_from_dict
from kustab.exact import DomainError, QuadNumber, _qfloor, is_square
from kustab.tilt import (TiltParams, charge_h, charge_tilt, heart_case,
                         slope_h, slope_tilt)
from kustab.variety import (PRESETS, ChernVector, VarietyDesc, _truncated,
                            exp_twist, get_preset, line_bundle_class)
from kustab import walls as walls_module
from kustab.walls import (_SCAN_BUDGET, _VIOLATION_RANK, BetaZero, _k1_range,
                          _k2_range, _line, _locus, beta_zero,
                          first_interval_violation, nowall_certificate,
                          wall_scan)

from oracles import (beta_zero_parts, box_coords, discriminant,
                     enumerate_walls, floor_a_plus_b_sqrt, sign_a_plus_b_sqrt,
                     wall_equation, weak_charge, weak_slope)

Q3 = get_preset("q3")
SPINOR_TRUNC = ChernVector([2, -1, 0])
IRRATIONAL = ChernVector([1, 0, -1])
# the README's config variety: Q3's data under another name
X = variety_from_dict({"name": "X", "dim": 3, "degree": 2, "index": 3,
                       "todd": ["1", "3/2", "13/12", "1/2"],
                       "denoms": [1, 1, 2, 12], "low_deg_H_generated": True})
# Q3's data with c2 in Z/4.  On the presets and X the discriminant
# c1^2 - 2 c0 c2 is an integer, so an irrational beta_0 has bound > degree
# and its first violation is (0, 1); on W the discriminant 1/2 moves it off
# c0 = 0, where the value is irrational
W = VarietyDesc(name="W", dim=3, degree=2, index=3, todd=Q3.todd,
                denoms=(1, 1, 4, 12))
HALF_DISCRIMINANT = ((1, 0, Fraction(-1, 4)), (7, 2, Fraction(1, 4)),
                     (7, 5, Fraction(7, 4)), (17, 3, Fraction(1, 4)))


def test_beta_zero_spinor():
    bz = beta_zero(Q3, SPINOR_TRUNC)
    assert bz.F == Fraction(1, 4)
    assert bz.beta0 == Fraction(-1)
    assert bz.bound == Fraction(2)


def test_beta_zero_errors():
    with pytest.raises(DomainError, match="no positive discriminant"):
        beta_zero(Q3, ChernVector([1, 0, 0]))
    with pytest.raises(DomainError, match="rank not positive"):
        beta_zero(Q3, ChernVector([0, 1, 0]))
    with pytest.raises(DomainError, match="rank not positive"):
        beta_zero(Q3, ChernVector([-1, 0, -1]))
    # rank 1/2; c2 = 1/4 where the lattice needs c2 in Z/2; c3 = 1/24
    for v in (ChernVector([Fraction(1, 2), 0, -1]),
              ChernVector([1, 0, Fraction(-1, 4)]),
              ChernVector([2, -1, 0, Fraction(1, 24)])):
        with pytest.raises(DomainError, match="class not in lattice"):
            beta_zero(Q3, v)


def test_beta_zero_irrational_branch():
    bz = beta_zero(Q3, IRRATIONAL)
    assert bz.F == 2
    assert not bz.beta0.is_rational
    assert bz.beta0 == QuadNumber(0, -1, 2)
    assert bz.bound == QuadNumber(0, 2, 2)


def test_nowall_certificate_spinor():
    cert = nowall_certificate(Q3, SPINOR_TRUNC)
    assert cert is not None
    assert cert.lattice_step == 2
    assert "(0, 2)" in cert.conclusion


def test_nowall_none_for_irrational_beta_zero():
    assert nowall_certificate(Q3, IRRATIONAL) is None
    violation = first_interval_violation(Q3, IRRATIONAL)
    assert violation is not None
    c0w, c1w, value = violation
    assert (c0w, c1w) == (0, 1)
    assert value == Fraction(2)         # 2 lies inside (0, 2*sqrt(2))


def test_nowall_none_when_step_beats_gcd():
    # (2, 0, -1): F = 1, beta_0 = -1, bound = 4 but the lattice step is 2
    v = ChernVector([2, 0, -1])
    bz = beta_zero(Q3, v)
    assert (bz.F, bz.beta0, bz.bound) == (1, Fraction(-1), Fraction(4))
    assert nowall_certificate(Q3, v) is None
    violation = first_interval_violation(Q3, v)
    assert violation is not None
    assert 0 < violation[2].rational_value() < 4


def test_nowall_error_propagates():
    with pytest.raises(DomainError, match="rank not positive"):
        nowall_certificate(Q3, ChernVector([0, 1, 0]))
    with pytest.raises(DomainError, match="class not in lattice"):
        nowall_certificate(Q3, ChernVector([Fraction(1, 2), 0, -1]))


def _rational_points_on_circle(center, radius_sq, count):
    # rational parametrization; requires a rational radius
    from math import isqrt
    num, den = radius_sq.numerator, radius_sq.denominator
    assert isqrt(num) ** 2 == num and isqrt(den) ** 2 == den
    r = Fraction(isqrt(num), isqrt(den))
    pts = []
    for t in range(1, count + 1):
        tt = Fraction(t)
        beta = center + r * (1 - tt * tt) / (1 + tt * tt)
        alpha = r * 2 * tt / (1 + tt * tt)
        if alpha > 0:
            pts.append((alpha, beta))
    return pts


def _class_locus(v, w):
    """_locus of two classes, read through their integer truncations."""
    return _locus(_truncated(v)[1:], _truncated(w)[1:])


def _circle(e0, e1, e2):
    """(center, radius^2) of e0 (alpha^2 + beta^2) + e1 beta + e2 = 0, e0 != 0."""
    center = Fraction(-e1, 2 * e0)
    return center, center * center - Fraction(e2) / e0


def test_wall_circle_line_bundles():
    v = ChernVector(line_bundle_class(Q3, 0)[:3])
    w = ChernVector(line_bundle_class(Q3, 1)[:3])
    center, radius_sq = _circle(*_class_locus(v, w))
    assert center == Fraction(1, 2)
    assert radius_sq == Fraction(1, 4)
    # cross-check: tilt slopes agree at rational points of the circle
    for alpha, beta in _rational_points_on_circle(center, radius_sq, 10):
        p = TiltParams(alpha=alpha, beta=beta)
        assert slope_tilt(Q3, v, p) == slope_tilt(Q3, w, p)


def test_wall_circle_symmetry():
    rng = random.Random(61)
    for _ in range(40):
        v = ChernVector([rng.randint(-4, 4),
                         rng.randint(-4, 4),
                         Fraction(rng.randint(-8, 8), 2)])
        w = ChernVector([rng.randint(-4, 4),
                         rng.randint(-4, 4),
                         Fraction(rng.randint(-8, 8), 2)])
        if not any(v) or not any(w):
            continue
        # the same wall: (C0, C1, C2) changes sign with the order of v and w
        assert _class_locus(w, v) == tuple(-c for c in _class_locus(v, w))


def _random_coeff(rng, lam, off_lattice=0.4):
    # 0 often enough that rank-0, proportional and degenerate truncations
    # all occur; otherwise k/lam, or k/3, k/4, k/5 which may be off the lattice
    if rng.random() < 0.2:
        return Fraction(0)
    den = rng.choice((3, 4, 5)) if rng.random() < off_lattice else lam
    return Fraction(rng.randint(-9, 9), den)


def _random_truncated_pair(rng, x):
    v = ChernVector([_random_coeff(rng, lam) for lam in x.denoms[:3]])
    t = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    mode = rng.randrange(4)
    if mode == 0:       # proportional: degenerate
        w = [c * t for c in v]
    elif mode == 1:     # proportional (c0, c1): a vertical line, or empty
        w = [v[0] * t, v[1] * t, _random_coeff(rng, x.denoms[2])]
    else:
        w = [_random_coeff(rng, lam) for lam in x.denoms[:3]]
    return v, ChernVector(w)


def _equation_kind(e0, e1, e2):
    """The locus e0 (alpha^2 + beta^2) + e1 beta + e2 = 0 in alpha > 0."""
    if e0 == e1 == e2 == 0:
        return "degenerate"
    if e0 != 0:
        return "circle" if e1 * e1 > 4 * e0 * e2 else "empty"
    return "vertical-line" if e1 != 0 else "empty"


def test_wall_circle_matches_wall_equation_oracle():
    # _locus is the sampled slope equality times 2 M P / d^2 > 0, on pairs
    # whose equations cover every kind of locus
    rng = random.Random(4711)
    kinds = Counter()
    for _ in range(3000):
        x = rng.choice(list(PRESETS.values()))
        v, w = _random_truncated_pair(rng, x)
        (m, *a), (p, *b) = _truncated(v), _truncated(w)
        expected = wall_equation(x.degree, tuple(v), tuple(w))
        scale = Fraction(x.degree ** 2, 2 * m * p)
        assert tuple(scale * c for c in _locus(a, b)) == expected, (x.name, v, w)
        kinds[_equation_kind(*expected)] += 1
    assert len(kinds) == 4 and min(kinds.values()) >= 20, kinds


def test_degree_number_readings_match_fraction_oracle():
    # charge_h, slope_h and beta_zero against plain-Fraction
    # degree numbers; invalid classes must fail with beta_zero's message
    rng = random.Random(4712)
    seen = Counter()
    for _ in range(3000):
        x = rng.choice(list(PRESETS.values()))
        v = ChernVector([_random_coeff(rng, lam, 0.1)
                         for lam in x.denoms[:rng.randint(3, x.dim + 1)]])
        d = x.degree
        z = charge_h(x, v)
        assert (z.re, z.im) == weak_charge(d, v)
        assert slope_h(x, v).value == weak_slope(d, v)
        message = _expected_message(x, v)
        if message is None:
            f, mu, a0 = beta_zero_parts(d, v)
            bz = beta_zero(x, v)
            assert bz.F == f
            assert bz.beta0 == QuadNumber(mu, -1, f)
            assert bz.bound == QuadNumber(0, a0, f)
            seen["valid"] += 1
            continue
        seen[message] += 1
        for check in (beta_zero, first_interval_violation,
                      lambda x, v: wall_scan(x, v, 1, 1)):
            with pytest.raises(DomainError, match=message):
                check(x, v)
    assert len(seen) == 4 and min(seen.values()) >= 100, seen


def _expected_message(x, v):
    """beta_zero's DomainError message for v from Fractions, None if valid."""
    if box_coords(x.denoms, v) is None:
        return "class not in lattice"
    if v[0] <= 0:
        return "rank not positive"
    if discriminant(x.degree, v) <= 0:
        return "no positive discriminant"
    return None


def _line_classes(rng, count, varieties=(*PRESETS.values(), X)):
    """count seeded (x, v): twists of (r, c1, k/lam2) with positive discriminant
    on the given varieties, so N is a square (beta_0 rational) now and then."""
    out = []
    while len(out) < count:
        x = rng.choice(varieties)
        base = ChernVector([rng.randint(1, 4), rng.randint(-4, 4),
                            Fraction(rng.randint(-9, 4), x.denoms[2])])
        v = exp_twist(base, rng.randint(-3, 3))
        if v[1] * v[1] - 2 * v[0] * v[2] > 0:
            out.append((x, v))
    return out


QUAD_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__truediv__", "__neg__")


def test_walls_take_no_quad_arithmetic(monkeypatch):
    # every decision reads _line in integers, and each QuadNumber that walls
    # returns is built by the constructor alone
    def refuse(*args):
        raise AssertionError("QuadNumber arithmetic in walls")

    rng = random.Random(2525)
    cases = [(x, v, rng.randint(0, 3), rng.randint(0, 6))
             for x, v in _line_classes(rng, 600)]
    for name in QUAD_ARITHMETIC:
        monkeypatch.setattr(QuadNumber, name, refuse)
    seen = Counter()
    for x, v, max_rank, max_c1 in cases:
        seen[x.name] += 1
        bz = beta_zero(x, v)
        seen["rational"] += bz.beta0.is_rational
        seen["certificate"] += nowall_certificate(x, v) is not None
        seen["violation"] += first_interval_violation(x, v) is not None
        seen["walls"] += len(wall_scan(x, v, max_rank, max_c1))
    assert len(seen) == 9 and min(seen.values()) >= 15, seen


def _arithmetic_beta_zero(x, v):
    """beta_zero by QuadNumber arithmetic on the Fraction oracle's parts."""
    message = _expected_message(x, v)
    if message is not None:
        raise DomainError(message)
    f, mu, a0 = beta_zero_parts(x.degree, v)
    sqrt_f = QuadNumber(0, 1, f)
    return BetaZero(F=f, beta0=QuadNumber(mu) - sqrt_f, bound=sqrt_f * a0)


def _arithmetic_violation(x, v):
    """first_interval_violation by QuadNumber arithmetic and order: in row
    c0, the least c1 in Z / lam1 above beta_0 c0, if its value is below the
    bound."""
    bz = _arithmetic_beta_zero(x, v)
    lam0, lam1 = x.denoms[0], x.denoms[1]
    order = [0]
    for k in range(1, _VIOLATION_RANK * lam0 + 1):
        order.extend([k, -k])
    for k0 in order:
        c0w = Fraction(k0, lam0)
        c1w = Fraction((bz.beta0 * c0w * lam1).floor() + 1, lam1)
        value = (QuadNumber(c1w) - bz.beta0 * c0w) * x.degree
        if value < bz.bound:
            return c0w, c1w, value
    return None


def _outcome(call, x, v):
    try:
        return repr(call(x, v))
    except DomainError as err:
        return f"DomainError: {err}"


def test_line_values_match_quad_arithmetic_reference():
    # reprs, the text of an irrational beta_0 or value included, and error
    # messages equal those of the QuadNumber arithmetic reference
    rng = random.Random(2626)
    cases = _line_classes(rng, 1200) + _line_classes(rng, 300, (W,))
    cases += [(W, exp_twist(ChernVector(base), k))
              for base in HALF_DISCRIMINANT for k in range(-6, 7)]
    for _ in range(1200):
        x = rng.choice([*PRESETS.values(), X])
        cases.append((x, ChernVector([
            _random_coeff(rng, lam, 0.1)
            for lam in x.denoms[:rng.randint(3, x.dim + 1)]])))
    seen = Counter()
    for x, v in cases:
        for got, want in ((beta_zero, _arithmetic_beta_zero),
                          (first_interval_violation, _arithmetic_violation)):
            outcome = _outcome(got, x, v)
            assert outcome == _outcome(want, x, v), (x.name, v)
        seen[x.name] += 1
        kind = ("no violation" if outcome == "None"
                else "irrational value" if "sqrt" in outcome
                else "rational value")
        seen[outcome if outcome.startswith("DomainError") else kind] += 1
    assert len(seen) == 12 and min(seen.values()) >= 20, seen


def test_wall_scan_candidates_are_circles(monkeypatch):
    # _k2_range gives no c2 when v0 w1 - v1 w0 = 0, so C0 != 0, and its
    # strict crossing bound puts a point of the locus at alpha > 0
    loci = []

    def recording_locus(a, b):
        locus = _locus(a, b)
        loci.append(locus)
        return locus

    monkeypatch.setattr(walls_module, "_locus", recording_locus)
    rng = random.Random(2727)
    for x, v in _line_classes(rng, 300):
        wall_scan(x, v, rng.randint(1, 4), rng.randint(2, 8))
    assert len(loci) >= 1000, len(loci)
    assert all(c0 != 0 and c1 * c1 > 4 * c0 * c2 for c0, c1, c2 in loci)


def test_nowall_certificate_computes_the_line_once(monkeypatch):
    # a certificate holds no BetaZero: beta_zero and a second _line never run
    calls = []

    def counting(name, f):
        def wrapped(x, v):
            calls.append(name)
            return f(x, v)
        monkeypatch.setattr(walls_module, name, wrapped)

    counting("beta_zero", beta_zero)
    counting("_line", walls_module._line)
    seen = Counter()
    for x, v in _line_classes(random.Random(2828), 2000):
        calls.clear()
        cert = nowall_certificate(x, v)
        assert calls == ["_line"], (x.name, v)
        seen[cert is not None] += 1
    assert min(seen.values()) >= 50, seen


def test_short_class_errors():
    p = TiltParams(alpha=1, beta=0)
    short = ChernVector([1, 0])
    message = "class needs at least coefficients c0, c1, c2"
    for call in (lambda v: charge_h(Q3, v), lambda v: slope_h(Q3, v),
                 lambda v: charge_tilt(Q3, v, 0, p),
                 lambda v: slope_tilt(Q3, v, p),
                 lambda v: heart_case(Q3, v, 0, p),
                 lambda v: beta_zero(Q3, v), lambda v: wall_scan(Q3, v, 1, 1)):
        with pytest.raises(DomainError, match=message):
            call(short)
    # the lattice test comes first in beta_zero
    with pytest.raises(DomainError, match="class not in lattice"):
        beta_zero(Q3, ChernVector([Fraction(1, 2), 0]))


def test_wall_scan_spinor_empty():
    assert wall_scan(Q3, SPINOR_TRUNC, 3, 3) == []
    assert wall_scan(Q3, SPINOR_TRUNC, 10, 10) == []


def test_wall_scan_zero_bounds_empty():
    assert wall_scan(Q3, IRRATIONAL, 0, 0) == []


def test_wall_scan_error_propagates():
    with pytest.raises(DomainError, match="rank not positive"):
        wall_scan(Q3, ChernVector([0, 1, 0]), 3, 3)
    for bounds in ((-1, 3), (3, Fraction(-1, 2))):
        with pytest.raises(DomainError, match="negative scan bound"):
            wall_scan(Q3, IRRATIONAL, *bounds)
    with pytest.raises(DomainError, match="class not in lattice"):
        wall_scan(Q3, ChernVector([Fraction(1, 2), 0, -1]), 3, 3)


def test_wall_scan_budget():
    # the largest benchmark box, |c0| <= 32 and |c1| <= 256, fits 30 times
    assert _SCAN_BUDGET >= 30 * 65 * 513
    with pytest.raises(DomainError) as exc:
        wall_scan(Q3, IRRATIONAL, 10 ** 9, 3)
    assert str(exc.value) == (f"scan box of {(2 * 10 ** 9 + 1) * 7} lattice "
                              f"pairs exceeds the budget of {_SCAN_BUDGET}")
    # the box counts lattice pairs, so a fractional bound floors to whole steps
    side = isqrt(_SCAN_BUDGET) // 2    # (2 side + 1)^2 > budget >= (2 side - 1)^2
    assert len(wall_scan(Q3, IRRATIONAL, side - 1, Fraction(2 * side - 1, 2))) == 4
    with pytest.raises(DomainError, match="exceeds the budget"):
        wall_scan(Q3, IRRATIONAL, side, side)
    # the bounds are checked before the budget
    with pytest.raises(DomainError, match="negative scan bound"):
        wall_scan(Q3, IRRATIONAL, 10 ** 9, -1)


def test_wall_scan_irrational_example():
    walls = wall_scan(Q3, IRRATIONAL, 3, 3)
    assert len(walls) == 1
    (w,) = walls
    assert w.center_beta == Fraction(-3, 2)
    assert w.radius_sq == Fraction(1, 4)
    assert w.witnesses == (ChernVector([-1, 2, -2]),
                           ChernVector([0, 1, Fraction(-3, 2)]),
                           ChernVector([1, -1, Fraction(1, 2)]),
                           ChernVector([2, -2, 1]))


def _qfloor_inputs(rng):
    for _ in range(1500):
        n = rng.choice((rng.randint(1, 10 ** 4), rng.randint(1, 99) ** 2))
        size = 10 ** rng.choice((3, 12, 30))
        yield (rng.randint(-size, size), rng.randint(-size, size),
               rng.randint(1, 10 ** 4), n)
    for _ in range(500):    # exact integers: square n, or b = 0
        s, c, k = rng.randint(0, 99), rng.randint(1, 999), rng.randint(-99, 99)
        b = rng.choice((0, rng.randint(-99, 99)))
        yield k * c - b * s, b, c, s * s


def test_qfloor_matches_bisection_oracle():
    rng = random.Random(1309)
    for a, b, c, n in _qfloor_inputs(rng):
        fa, fb = Fraction(a, c), Fraction(b, c)
        expected = floor_a_plus_b_sqrt(fa, fb, n)
        exact = sign_a_plus_b_sqrt(fa - expected, fb, Fraction(n)) == 0
        s = isqrt(n)
        assert _qfloor(a, b, c, n, s, False) == expected, (a, b, c, n)
        assert _qfloor(a, b, c, n, s, True) == expected - exact, (a, b, c, n)
        # the ceiling form: smallest k with k > value, or k >= value
        assert -_qfloor(-a, -b, c, n, s, True) == expected + 1
        assert -_qfloor(-a, -b, c, n, s, False) == expected + 1 - exact


def _random_scan_cases(rng, per_preset):
    """Seeded (variety, class, max_rank, max_c1) inputs for wall_scan.

    Classes are twists by -3..3 of (r, c1, k/lam2), so c2 often has
    denominator lam2; bounds are fractions small enough that the oracle's
    c2 box of +-80/lam2 covers every candidate.
    """
    for name in ("q3", "p4", "y4", "y2"):
        x = get_preset(name)
        made = 0
        while made < per_preset:
            base = ChernVector([rng.randint(1, 3), rng.randint(-2, 2),
                                Fraction(rng.randint(-7, 3), x.denoms[2])])
            v = exp_twist(base, rng.randint(-3, 3))
            if v[1] * v[1] - 2 * v[0] * v[2] <= 0:
                continue
            max_rank = Fraction(rng.randint(0, 12), rng.choice((1, 2, 4)))
            max_c1 = Fraction(rng.randint(0, 16), rng.choice((1, 2, 4)))
            if max_rank <= 3 and max_c1 <= 4:
                made += 1
                yield x, v, max_rank, max_c1


def _endpoint_hits(x, v, bz, max_rank, max_c1):
    """Lattice pairs (c0 != 0, c1) in the box with value 0 or the bound."""
    b0, bound = bz.beta0.rational_value(), bz.bound.rational_value()
    lam0, lam1 = x.denoms[0], x.denoms[1]
    hits = 0
    for k0 in range(-int(max_rank * lam0), int(max_rank * lam0) + 1):
        for k1 in range(-int(max_c1 * lam1), int(max_c1 * lam1) + 1):
            value = (Fraction(k1, lam1) - b0 * Fraction(k0, lam0)) * x.degree
            hits += k0 != 0 and value in (0, bound)
    return hits


def test_wall_scan_matches_enumeration_oracle(monkeypatch):
    # square F (rational beta_0, attained strict k1 endpoints), c2 off the
    # integers and rows with c0 < 0 must all occur, or the run proves little
    P4, Y4, Y2 = get_preset("p4"), get_preset("y4"), get_preset("y2")
    loci = []

    def recording_locus(a, b):
        locus = _locus(a, b)
        loci.append(locus)
        return locus

    # the exact filters leave only classes whose wall crosses beta_0 at
    # alpha > 0, so every class the scan tries is a circle
    monkeypatch.setattr("kustab.walls._locus", recording_locus)
    cases = [
        (Q3, IRRATIONAL, 3, 3), (Q3, IRRATIONAL, 5, 5),
        (Q3, ChernVector([2, 0, -1]), 4, 4),
        (Q3, ChernVector([2, -1, -1]), 3, 3),
        # rational beta_0 = -2
        (Q3, ChernVector([2, -1, -2]), 4, 4),
        (Q3, ChernVector([1, 0, -2]), 4, 4),
        (Q3, exp_twist(ChernVector([2, -1, -1]), 1), 3, 5),
        (P4, IRRATIONAL, 3, 3), (P4, ChernVector([2, -1, -2]), 3, 3),
        (Y4, IRRATIONAL, 3, 3), (Y4, ChernVector([2, -1, -1]), 3, 3),
        (Y2, IRRATIONAL, 3, 3), (Y2, ChernVector([2, 1, -1]), 3, 3),
        (Q3, ChernVector([3, -1, Fraction(-5, 2)]), 3, 4),
        (Q3, ChernVector([2, -1, -2]), Fraction(5, 2), Fraction(7, 2))]
    cases += _random_scan_cases(random.Random(8080), 12)
    seen = {"square": 0, "endpoint": 0, "fractional": 0, "negative_c0": 0}
    for x, v, max_rank, max_c1 in cases:
        got = wall_scan(x, v, max_rank, max_c1)
        expected = enumerate_walls(x.degree, x.denoms, tuple(v),
                                   max_rank, max_c1)
        assert {(w.center_beta, w.radius_sq): {tuple(c) for c in w.witnesses}
                for w in got} == expected, (x.name, v, max_rank, max_c1)
        for w in got:
            for c in w.witnesses:
                assert _circle(*wall_equation(x.degree, tuple(v), tuple(c))) == \
                    (w.center_beta, w.radius_sq), (x.name, v, c)
        bz = beta_zero(x, v)
        if is_square(bz.F):
            seen["square"] += 1
            seen["endpoint"] += _endpoint_hits(x, v, bz, max_rank, max_c1)
        seen["fractional"] += v[2].denominator > 1
        seen["negative_c0"] += sum(c[0] < 0 for w in got for c in w.witnesses)
    assert all(count >= 5 for count in seen.values()), seen
    assert loci and all(c0 != 0 and c1 * c1 > 4 * c0 * c2
                        for c0, c1, c2 in loci)


def test_wall_scan_circles_cross_beta_zero_line():
    for v in (IRRATIONAL, ChernVector([2, 0, -1]), ChernVector([2, -1, -1])):
        bz = beta_zero(Q3, v)
        for w in wall_scan(Q3, v, 5, 5):
            diff = bz.beta0 - w.center_beta
            assert diff * diff < w.radius_sq


def test_wall_scan_nesting():
    for v in (IRRATIONAL, ChernVector([2, 0, -1]), ChernVector([2, -1, -1])):
        walls = wall_scan(Q3, v, 6, 6)
        for i in range(len(walls)):
            for j in range(i + 1, len(walls)):
                a, b = walls[i], walls[j]
                dd = (a.center_beta - b.center_beta) ** 2
                t = dd - a.radius_sq - b.radius_sq
                # non-crossing circles: t^2 >= 4 r1^2 r2^2
                assert t * t >= 4 * a.radius_sq * b.radius_sq


def test_wall_scan_twist_equivariance():
    # fixed boxes are not twist covariant (a witness c1 moves by k c0), so
    # the invariant is tested as inclusion into scans with compensated bounds
    rank, c1 = 4, 4
    for v in (IRRATIONAL, ChernVector([2, -1, -1])):
        base = wall_scan(Q3, v, rank, c1)
        for k in range(-2, 3):
            wide = wall_scan(Q3, exp_twist(v, k), rank, c1 + abs(k) * rank)
            wide_keys = {(w.center_beta, w.radius_sq) for w in wide}
            for w in base:
                assert (w.center_beta + k, w.radius_sq) in wide_keys
            narrow = wall_scan(Q3, exp_twist(v, k), rank, c1)
            back = wall_scan(Q3, v, rank, c1 + abs(k) * rank)
            back_keys = {(w.center_beta, w.radius_sq) for w in back}
            for w in narrow:
                assert (w.center_beta - k, w.radius_sq) in back_keys


def test_nowall_certificate_commutes_with_twist():
    # twisting by O(1) moves beta_0 by one and keeps the certificate: its
    # step, bound and conclusion, or its absence, on every preset
    rng = random.Random(5205)
    outcomes = Counter()
    for x in PRESETS.values():
        for _ in range(60):
            v = ChernVector([Fraction(rng.randint(lo, 6), lam) for lo, lam
                             in zip((0, -6, -6), x.denoms)])
            try:
                cert = nowall_certificate(x, v)
            except DomainError as exc:
                with pytest.raises(DomainError, match=f"^{exc}$"):
                    nowall_certificate(x, exp_twist(v, 1))
                outcomes["error"] += 1
                continue
            assert nowall_certificate(x, exp_twist(v, 1)) == cert, (x.name, v)
            outcomes[cert is None] += 1
    assert min(outcomes[True], outcomes[False], outcomes["error"]) > 0, outcomes


def test_certificate_soundness():
    # certificate present implies empty scans for every bound up to (10, 10)
    for v in (SPINOR_TRUNC, ChernVector([1, -1, 0])):
        assert nowall_certificate(Q3, v) is not None
        for bound in ((1, 1), (4, 4), (10, 10)):
            assert wall_scan(Q3, v, *bound) == []


def _row_by_row_scan(x, v, max_rank, max_c1):
    """{(center, radius^2): witnesses} of every row |k0| <= max_rank lam0."""
    line, (lam0, lam1, lam2) = _line(x, v), x.denoms[:3]
    k0_hi, k1_box = int(max_rank * lam0), int(max_c1 * lam1)
    found = {}
    for k0 in range(-k0_hi, k0_hi + 1):
        k1_lo, k1_hi = _k1_range(x.denoms, line, k0)
        for k1 in range(max(k1_lo, -k1_box), min(k1_hi, k1_box) + 1):
            for k2 in _k2_range(x.denoms, line, k0, k1):
                w = ChernVector([Fraction(k0, lam0), Fraction(k1, lam1),
                                 Fraction(k2, lam2)])
                e0, e1, e2 = wall_equation(x.degree, tuple(v), tuple(w))
                if e0 != 0 and e1 * e1 > 4 * e0 * e2:
                    found.setdefault(_circle(e0, e1, e2), set()).add(tuple(w))
    return found


def test_wall_scan_rows_match_row_by_row_scan(monkeypatch):
    # the scan visits only the c0 rows whose c1 window can meet the c1 box;
    # boxes tall in c0 and narrow in c1, beta_0 irrational, rational with
    # square N, zero (every row's window the same) and of both signs
    rows = []

    def counting(denoms, line, k0):
        rows.append(k0)
        return _k1_range(denoms, line, k0)

    monkeypatch.setattr(walls_module, "_k1_range", counting)
    rng = random.Random(6060)
    cases = [(Q3, ChernVector(v), rank, c1)
             for v in ([1, 1, 0], [1, -1, 0], [2, 3, 2], [1, 3, 1], [2, -1, -2],
                       [1, 0, -1], [3, -1, Fraction(-5, 2)])
             for rank, c1 in ((12, 0), (12, 1), (9, 3), (7, Fraction(1, 2)))]
    cases += _random_scan_cases(rng, 6)
    for name in ("q3", "p4", "y4", "y2"):
        x = get_preset(name)
        for _ in range(8):
            v = exp_twist(ChernVector([rng.randint(1, 3), rng.randint(-3, 3),
                                       Fraction(rng.randint(-7, 3), x.denoms[2])]),
                          rng.randint(-3, 3))
            if v[1] * v[1] - 2 * v[0] * v[2] > 0:
                cases.append((x, v, rng.randint(0, 16),
                              Fraction(rng.randint(0, 6), rng.choice((1, 2)))))
    skipped = 0
    for x, v, max_rank, max_c1 in cases:
        rows.clear()
        got = wall_scan(x, v, max_rank, max_c1)
        k0_hi = int(max_rank * x.denoms[0])
        assert set(rows) <= set(range(-k0_hi, k0_hi + 1))
        skipped += 2 * k0_hi + 1 - len(rows)
        assert {(w.center_beta, w.radius_sq): set(map(tuple, w.witnesses))
                for w in got} == _row_by_row_scan(x, v, max_rank, max_c1), \
            (x.name, v, max_rank, max_c1)
    assert skipped >= 200, skipped


def test_wall_scan_narrow_box_visits_few_rows(monkeypatch):
    # |c0| <= 524287, c1 = 0: no row's window (-sqrt(2) k0, sqrt(2) (1 - k0))
    # meets c1 = 0, and the k0 interval is found before the loop
    calls = []

    def counting(denoms, line, k0):
        calls.append(k0)
        return _k1_range(denoms, line, k0)

    monkeypatch.setattr(walls_module, "_k1_range", counting)
    assert wall_scan(Q3, IRRATIONAL, 524287, 0) == []
    assert len(calls) <= 2, calls
