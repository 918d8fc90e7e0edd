"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact; the only tolerances are wall-scan and whole
suite runtimes.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import lcm

from kustab.cli import run
from kustab.exact import int_kernel
from kustab.semiorth import (Collection, classify_class, fullness_report,
                             right_orthogonal, serre_on_residual)
from kustab.tilt import (TiltParams, alpha_range, blms_check, charge_h,
                         charge_tilt, heart_case)
from kustab.variety import (ChernVector, SPINOR_CLASS, euler_pairing,
                            exp_twist, get_preset, line_bundle_class,
                            serre_numeric)
from kustab.walls import beta_zero, nowall_certificate, wall_scan

from oracles import box_class, discriminant, hilbert_q3

Q3 = get_preset("q3")
P4 = get_preset("p4")
Y4 = get_preset("y4")
Y2 = get_preset("y2")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL - {description}")
        raise
    print(f"[criterion {number:2d}] PASS - {description}")


def block(x):
    return Collection(variety=x,
                      members=tuple(line_bundle_class(x, k)
                                    for k in range(x.index)))


def test_criterion_01_todd_and_lattice():
    with criterion(1, "Q3 Todd class and lattice denominators"):
        assert Q3.todd == (1, Fraction(3, 2), Fraction(13, 12), Fraction(1, 2))
        assert Q3.denoms == (1, 1, 2, 12)


def test_criterion_02_gram_matrix(capsys):
    with criterion(2, "Euler pairing matrix in both conventions"):
        assert run(["gram", "--variety", "q3", "--convention", "paper",
                    "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = [[Fraction(e) for e in row] for row in doc["result"]["matrix"]]
        assert got == [
            [Fraction(1, 2), Fraction(13, 12), Fraction(3, 2), Fraction(1)],
            [Fraction(-13, 12), Fraction(-3, 2), Fraction(-1), Fraction(0)],
            [Fraction(3, 2), Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(-1), Fraction(0), Fraction(0), Fraction(0)],
        ]
        assert run(["gram", "--variety", "q3", "--convention", "chi",
                    "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert Fraction(doc["result"]["matrix"][0][0]) == 1
        chi_o_o1 = euler_pairing(Q3, line_bundle_class(Q3, 0),
                                 line_bundle_class(Q3, 1))
        assert chi_o_o1 == 5 == hilbert_q3(1)


def test_criterion_03_orthogonal_generator():
    with criterion(3, "right orthogonal of (O, O(1), O(2)) on Q3"):
        basis = right_orthogonal(Q3, block(Q3))
        assert basis == [ChernVector([2, -1, 0, Fraction(1, 12)])]
        assert basis == [SPINOR_CLASS]


def test_criterion_04_serre_action():
    with criterion(4, "numerical Serre action and point-object labels"):
        s = serre_numeric(Q3)
        for k in range(4):
            e = ChernVector([Fraction(i == k) for i in range(4)])
            expected = -exp_twist(e, -3)
            assert tuple(s.apply(list(e))) == tuple(expected)
        basis = right_orthogonal(Q3, block(Q3))
        assert serre_on_residual(Q3, block(Q3), basis).entries == ((1,),)
        rep = classify_class(Q3, block(Q3), SPINOR_CLASS)
        assert rep.chi_self == 1 and rep.serre_eigenvalue == 1
        assert rep.labels == ("numerical-point-object-even",
                              "numerically-exceptional")


def test_criterion_05_charges():
    with criterion(5, "weak and tilt charges of the spinor class"):
        z = charge_h(Q3, SPINOR_CLASS)
        assert (z.re, z.im) == (2, 4)
        for alpha in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
            p = TiltParams(alpha=alpha, beta=Fraction(-1, 2))
            zt = charge_tilt(Q3, SPINOR_CLASS, 1, p)
            assert zt.im == 0
            assert zt.re == -2 * alpha * alpha - Fraction(1, 2)


def test_criterion_06_heart_membership():
    with criterion(6, "double-tilt heart membership cases"):
        p = TiltParams(alpha=Fraction(1, 4), beta=Fraction(-1, 2))
        for n in (0, 1, 2):
            assert heart_case(Q3, line_bundle_class(Q3, n), 0, p).case_id == 1
            assert heart_case(Q3, line_bundle_class(Q3, n - 3), 2,
                              p).case_id == 4
        verdict = heart_case(Q3, SPINOR_CLASS, 1, p)
        assert verdict.case_id == 2
        assert verdict.slope_checks[1].value.is_infinite


def test_criterion_07_induced_stability():
    with criterion(7, "induced stability checklist and alpha interval"):
        mem = block(Q3).members
        p = TiltParams(alpha=Fraction(1, 4), beta=Fraction(-1, 2))
        assert blms_check(Q3, mem, p).passed
        ivs = alpha_range(Q3, mem, Fraction(-1, 2))
        assert len(ivs) == 1
        assert ivs[0].lo == 0 and ivs[0].lo_open
        assert ivs[0].hi == Fraction(1, 2) and ivs[0].hi_open
        half = TiltParams(alpha=Fraction(1, 2), beta=Fraction(-1, 2))
        rep = blms_check(Q3, mem, half)
        assert not rep.passed
        assert all(i.condition == 1 for i in rep.items if not i.passed)


def test_criterion_08_no_wall():
    with criterion(8, "no-wall certificate and empty bounded scan"):
        trunc = ChernVector([2, -1, 0])
        bz = beta_zero(Q3, trunc)
        assert bz.F == Fraction(1, 4)
        assert bz.beta0 == -1
        assert bz.bound == 2
        cert = nowall_certificate(Q3, trunc)
        assert cert is not None and cert.lattice_step == 2
        start = time.time()
        assert wall_scan(Q3, trunc, 10, 10) == []
        assert time.time() - start < 5


def test_criterion_09_fullness():
    with criterion(9, "fullness checklist verdicts"):
        assert fullness_report(Q3, block(Q3), [SPINOR_CLASS],
                               True).verdict == "full-modulo-phantoms-excluded"
        assert fullness_report(Q3, block(Q3), [SPINOR_CLASS],
                               False).verdict == "inconclusive"
        assert fullness_report(P4, block(P4), [],
                               False).verdict == "numerically-full"


def test_criterion_10_companion_examples():
    with criterion(10, "Y4 and Y2 residual lattices and eigenvalues"):
        c4 = block(Y4)
        assert len(right_orthogonal(Y4, c4)) == 2
        rep = classify_class(Y4, c4, SPINOR_CLASS)
        assert rep.serre_eigenvalue == -1
        c2 = block(Y2)
        basis = right_orthogonal(Y2, c2)
        assert len(basis) == 2
        rng = random.Random(10)
        for _ in range(20):
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            if a == 0 and b == 0:
                continue
            v = ChernVector([p + q for p, q in zip(a * basis[0], b * basis[1])])
            assert classify_class(Y2, c2, v).serre_eigenvalue == 1


def test_criterion_11_property_suites():
    with criterion(11, "property suites (exact, bounded runtime)"):
        start = time.time()
        rng = random.Random(11)
        for x in (P4, Q3, Y4, Y2):
            s = serre_numeric(x)
            for _ in range(200):
                v = ChernVector(box_class(rng, x.denoms, 6))
                w = ChernVector(box_class(rng, x.denoms, 6))
                sw = ChernVector(s.apply(list(w)))
                assert euler_pairing(x, v, sw) == euler_pairing(x, w, v)
        for v in (ChernVector([1, 0, -1]), ChernVector([2, 0, -1])):
            bz = beta_zero(Q3, v)
            walls = wall_scan(Q3, v, 5, 5)
            for w in walls:
                diff = bz.beta0 - w.center_beta
                assert diff * diff < w.radius_sq
            for i in range(len(walls)):
                for j in range(i + 1, len(walls)):
                    a, b = walls[i], walls[j]
                    t = (a.center_beta - b.center_beta) ** 2 \
                        - a.radius_sq - b.radius_sq
                    assert t * t >= 4 * a.radius_sq * b.radius_sq
        p = TiltParams(alpha=Fraction(2, 5), beta=Fraction(-1, 3))
        for _ in range(100):
            v = ChernVector(box_class(rng, Q3.denoms, 6))
            w = ChernVector(box_class(rng, Q3.denoms, 6))
            k = rng.randint(-3, 3)
            assert discriminant(Q3.degree, exp_twist(v, k)) == \
                discriminant(Q3.degree, v)
            zs = charge_tilt(Q3, ChernVector([a + b for a, b in zip(v, w)]),
                             0, p)
            zv, zw = charge_tilt(Q3, v, 0, p), charge_tilt(Q3, w, 0, p)
            assert (zs.re, zs.im) == (zv.re + zw.re, zv.im + zw.im)
        for _ in range(40):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
            m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(n_cols)] for _ in range(n_rows)]
            cleared = [[int(q * lcm(*(p.denominator for p in r))) for q in r]
                       for r in m]
            for vec in int_kernel(cleared):
                assert all(sum(r[j] * vec[j] for j in range(n_cols)) == 0
                           for r in m)
        assert time.time() - start < 30
