"""Charges, slopes, discriminant, heart membership, induced stability."""

import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from kustab import tilt
from kustab.exact import DomainError, QuadNumber
from kustab.config import variety_from_dict
from kustab.tilt import (TiltParams, _zero_charge_pairing, alpha_range,
                         blms_check, charge_h, charge_tilt, heart_case,
                         slope_h, slope_tilt)
from kustab.variety import (PRESETS, SPINOR_CLASS, SPINOR_VARIETIES,
                            ChernVector, VarietyDesc, euler_pairing,
                            exp_twist, get_preset, line_bundle_class)

from oracles import (box_class, discriminant, euler_closed_sum, tilt_re_im,
                     tilt_slopes)

Q3 = get_preset("q3")
Y4 = get_preset("y4")
# the README's config variety (Q3's data under another name) and a P2 surface
X = variety_from_dict({"name": "X", "dim": 3, "degree": 2, "index": 3,
                       "todd": ["1", "3/2", "13/12", "1/2"],
                       "denoms": [1, 1, 2, 12], "low_deg_H_generated": True})
P2 = VarietyDesc(name="p2", dim=2, degree=1, todd=(1, Fraction(3, 2), 1),
                 denoms=(1, 1, 2), index=3)
FLAG_OFF = dataclasses.replace(Q3, low_deg_H_generated=False)
STD = TiltParams(alpha=Fraction(1, 4), beta=Fraction(-1, 2))


def members(x, count=None):
    count = x.index if count is None else count
    return tuple(line_bundle_class(x, k) for k in range(count))


def _random_class(rng, x=Q3):
    return ChernVector(box_class(rng, x.denoms, 6))


def test_charge_h_examples():
    z = charge_h(Q3, SPINOR_CLASS)
    assert (z.re, z.im) == (2, 4)
    for n in range(-3, 4):
        z = charge_h(Q3, line_bundle_class(Q3, n))
        assert (z.re, z.im) == (-2 * n, 2)
    assert slope_h(Q3, ChernVector([0, 1, 2, 3])).is_infinite


def test_tilt_charge_spinor_closed_form():
    # Z(S[1]) at beta = -1/2 equals -2 alpha^2 - 1/2 for every alpha
    for alpha in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
        p = TiltParams(alpha=alpha, beta=Fraction(-1, 2))
        z = charge_tilt(Q3, SPINOR_CLASS, 1, p)
        assert z.im == 0
        assert z.re == -2 * alpha * alpha - Fraction(1, 2)


def test_tilt_charge_line_bundle_closed_form():
    # Z(O(n)[k]) = (-1)^k ((alpha^2 - n^2 - n - 1/4) + i alpha (2n + 1))
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(-3, 3)
        k = rng.randint(0, 3)
        alpha = Fraction(rng.randint(1, 8), 8)
        p = TiltParams(alpha=alpha, beta=Fraction(-1, 2))
        z = charge_tilt(Q3, line_bundle_class(Q3, n), k, p)
        sign = (-1) ** k
        assert z.re == sign * (alpha * alpha - n * n - n - Fraction(1, 4))
        assert z.im == sign * alpha * (2 * n + 1)
    p = TiltParams(alpha=Fraction(1, 4), beta=Fraction(-1, 2))
    z = charge_tilt(Q3, line_bundle_class(Q3, 0), 0, p)
    assert (z.re, z.im) == (Fraction(-3, 16), Fraction(1, 4))


def test_tilt_charge_additivity():
    rng = random.Random(29)
    p = TiltParams(alpha=Fraction(2, 7), beta=Fraction(-3, 5))
    for _ in range(40):
        v, w = _random_class(rng), _random_class(rng)
        zs = charge_tilt(Q3, ChernVector([a + b for a, b in zip(v, w)]), 0, p)
        zv, zw = charge_tilt(Q3, v, 0, p), charge_tilt(Q3, w, 0, p)
        assert (zs.re, zs.im) == (zv.re + zw.re, zv.im + zw.im)


def test_imaginary_part_decomposition():
    # Im Z = alpha (c1 - beta c0) d, and the ch^beta form of the real part
    rng = random.Random(37)
    for _ in range(40):
        v = _random_class(rng)
        alpha = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = TiltParams(alpha=alpha, beta=beta)
        z = charge_tilt(Q3, v, 0, p)
        assert z.im == alpha * (v[1] - beta * v[0]) * Q3.degree
        shifted = exp_twist(v, -beta)
        assert z.re == (alpha * alpha / 2 * shifted[0] - shifted[2]) * Q3.degree
        assert z.im == alpha * shifted[1] * Q3.degree


def test_slope_shift_invariance_and_scaling():
    rng = random.Random(41)
    p = TiltParams(alpha=Fraction(1, 3), beta=Fraction(-1, 2))
    for _ in range(30):
        v = _random_class(rng)
        s = slope_tilt(Q3, v, p)
        z0 = charge_tilt(Q3, v, 0, p)
        z1 = charge_tilt(Q3, v, 1, p)
        assert (z1.re, z1.im) == (-z0.re, -z0.im)
        k = rng.randint(1, 5)
        assert slope_tilt(Q3, k * v, p) == s


def test_discriminant_examples():
    for n in range(-3, 4):
        assert discriminant(Q3.degree, line_bundle_class(Q3, n)) == 0
    assert discriminant(Q3.degree, SPINOR_CLASS) == 4


def test_discriminant_twist_invariance():
    rng = random.Random(43)
    for _ in range(40):
        v = _random_class(rng)
        k = rng.randint(-3, 3)
        assert discriminant(Q3.degree, exp_twist(v, k)) == \
            discriminant(Q3.degree, v)


def test_heart_case_paper_checks():
    for n in (0, 1, 2):
        assert heart_case(Q3, line_bundle_class(Q3, n), 0, STD).case_id == 1
        assert heart_case(Q3, line_bundle_class(Q3, n - 3), 2, STD).case_id == 4
    verdict = heart_case(Q3, SPINOR_CLASS, 1, STD)
    assert verdict.case_id == 2
    assert verdict.slope_checks[1].value.is_infinite


def test_heart_case_slope_values():
    # mu_tilt(O(n)) = (n^2 + n + 1/4 - alpha^2) / (alpha (2n + 1)) at beta = -1/2
    for n, expected in ((0, Fraction(3, 4)), (1, Fraction(35, 12)),
                        (2, Fraction(99, 20))):
        assert slope_tilt(Q3, line_bundle_class(Q3, n), STD).value == expected
    for n, expected in ((-3, Fraction(-99, 20)), (-2, Fraction(-35, 12)),
                        (-1, Fraction(-3, 4))):
        assert slope_tilt(Q3, line_bundle_class(Q3, n), STD).value == expected


def test_heart_case_not_in_heart_and_errors():
    assert heart_case(Q3, line_bundle_class(Q3, 0), 1, STD).case_id is None
    with pytest.raises(DomainError, match="shift out of range"):
        heart_case(Q3, line_bundle_class(Q3, 0), 3, STD)


def test_heart_case_mutual_exclusion():
    rng = random.Random(47)
    for _ in range(80):
        v = _random_class(rng)
        if v[0] == 0 and v[1] == 0:
            continue
        p = TiltParams(alpha=Fraction(rng.randint(1, 8), 8),
                       beta=Fraction(rng.randint(-8, 8), 4))
        matched = [s for s in (0, 1, 2)
                   if heart_case(Q3, v, s, p).case_id is not None]
        # shift 1 carries the two middle cases; still at most one fires per shift
        cases = [heart_case(Q3, v, s, p).case_id for s in matched]
        assert len(cases) == len(set(cases))


# (shift of the sheaf, mu_H > beta, mu_tilt > mu) -> case, as in the paper
PAPER_CASES = {(0, True, True): 1, (1, False, True): 2,
               (1, True, False): 3, (2, False, False): 4}
# the checks reported at each shift when no case holds
FALLBACK_CHECKS = {0: ("mu_H > beta", "mu_tilt > mu"),
                   1: ("mu_H <= beta", "mu_tilt > mu"),
                   2: ("mu_H <= beta", "mu_tilt <= mu")}


def _oracle_heart(v, shift, alpha, beta, mu):
    """(case_id, ((check name, value, threshold, satisfied), ...)) from
    oracle slopes; a value None stands for +infinity."""
    mu_h, mu_t = tilt_slopes(v[0], v[1], v[2], alpha, beta)
    truth = {"mu_H > beta": mu_h is None or mu_h > beta,
             "mu_tilt > mu": mu_t is None or mu_t > mu}
    truth["mu_H <= beta"] = not truth["mu_H > beta"]
    truth["mu_tilt <= mu"] = not truth["mu_tilt > mu"]
    case = PAPER_CASES.get(
        (shift, truth["mu_H > beta"], truth["mu_tilt > mu"]))
    if case is None:
        names = FALLBACK_CHECKS[shift]
    else:
        names = ("mu_H > beta" if case in (1, 3) else "mu_H <= beta",
                 "mu_tilt > mu" if case in (1, 2) else "mu_tilt <= mu")
    value = {"mu_H": (mu_h, beta), "mu_tilt": (mu_t, mu)}
    return case, tuple((n, *value[n.split()[0]], truth[n]) for n in names)


def _check_tuples(verdict):
    return tuple((c.name, c.value.value, c.threshold, c.satisfied)
                 for c in verdict.slope_checks)


def test_heart_case_matches_case_oracle():
    alphas = (Fraction(1, 8), Fraction(1, 2), Fraction(1), Fraction(5, 2))
    mus = (Fraction(-2), Fraction(0), Fraction(3, 4), Fraction(5))
    for key, x in PRESETS.items():
        tail = [Fraction(0)] * (x.dim - 2)
        classes = [line_bundle_class(x, k) for k in range(-3, 4)]
        if key in SPINOR_VARIETIES:
            classes.append(SPINOR_CLASS)
        classes += [ChernVector([0, 1, 0] + tail),        # rank 0: mu_H = inf
                    ChernVector([0, -2, Fraction(1, 2)] + tail),
                    ChernVector([0, 0, 1] + tail)]         # tilt slope inf too
        for v in classes:
            betas = {Fraction(b, 2) for b in range(-5, 4)}
            if v[0] != 0:
                betas.add(v[1] / v[0])                    # tilt slope = +inf
            for beta in sorted(betas):
                for alpha in alphas:
                    for mu in mus:
                        p = TiltParams(alpha=alpha, beta=beta, mu=mu)
                        for shift in (0, 1, 2):
                            got = heart_case(x, v, shift, p)
                            case, checks = _oracle_heart(v, shift, alpha,
                                                         beta, mu)
                            assert got.case_id == case, (key, v, shift, p)
                            assert _check_tuples(got) == checks


def test_heart_case_matches_slope_oracle_on_truncated_classes():
    # truncated classes with c0 < 0, c0 = 0 and c0 > 0; beta is put on mu_H,
    # c2 on a zero tilt slope and mu on the tilt slope some of the time
    rng = random.Random(53)
    seen = Counter()
    for _ in range(800):
        x = rng.choice(list(PRESETS.values()))
        c0, c1, c2 = (Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 12)))
                      for _ in range(3))
        alpha = Fraction(rng.randint(1, 20), rng.choice((1, 2, 4, 7)))
        beta = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 8)))
        if c0 != 0 and rng.random() < 0.2:
            beta = c1 / c0
        if rng.random() < 0.2:       # Re Z = 0
            c2 = (alpha * alpha - beta * beta) / 2 * c0 + beta * c1
        mu_h, mu_t = tilt_slopes(c0, c1, c2, alpha, beta)
        mu = Fraction(rng.randint(-20, 20), rng.choice((1, 3, 5)))
        if mu_t is not None and rng.random() < 0.3:
            mu = mu_t
        v = ChernVector([c0, c1, c2])
        p = TiltParams(alpha=alpha, beta=beta, mu=mu)
        for shift in (0, 1, 2):
            got = heart_case(x, v, shift, p)
            case, checks = _oracle_heart(v, shift, alpha, beta, mu)
            assert got.case_id == case, (v, shift, p)
            assert _check_tuples(got) == checks, (v, shift, p)
        seen.update({"c0 < 0": c0 < 0, "c0 = 0": c0 == 0,
                     "mu_H = beta": mu_h == beta, "mu_tilt = inf": mu_t is None,
                     "mu_tilt = 0": mu_t == 0, "mu_tilt = mu": mu_t == mu})
    assert min(seen[k] for k in ("c0 < 0", "c0 = 0", "mu_H = beta",
                                 "mu_tilt = inf", "mu_tilt = 0",
                                 "mu_tilt = mu")) >= 20, seen


def _oracle_blms_items(x, ks, alpha, beta, mu):
    """(condition, label, passed, detail) of every blms_check item for the
    block O(k), k in ks, from oracle slopes, charges and pairings."""
    items, shift = [], x.dim - 1
    for k in ks:
        j = k - x.index
        for d, s, label in ((k, 0, f"O({k}) in heart at shift 0"),
                            (j, shift, f"O({j})[{shift}] in heart")):
            case, checks = _oracle_heart((1, d, Fraction(d * d, 2)), s,
                                         alpha, beta, mu)
            parts = [f"{name}: {'inf' if value is None else value} vs {thr}"
                     f" [{'ok' if ok else 'fail'}]"
                     for name, value, thr, ok in checks]
            items.append((1, label, case is not None,
                          f"case {case or 'not-in-heart'}; " + "; ".join(parts)))
    for k in ks:
        re, im_over_alpha = tilt_re_im(x.degree, 1, k, Fraction(k * k, 2),
                                       alpha * alpha, beta)
        im = alpha * im_over_alpha
        items.append((2, f"Z(O({k})) nonzero", re != 0 or im != 0,
                      f"Z = {re} + {im}*i"))
    label = "zero-charge classes pair with O"
    if not x.low_deg_H_generated:
        return items + [(3, label, False, "low-degree cohomology flag not set")]
    top = [0] * x.dim + [Fraction(1, x.denoms[x.dim])]
    chi = euler_closed_sum(x.degree, x.todd, [1] + [0] * x.dim, top)
    return items + [(3, label, chi != 0,
                     f"chi(O, minimal zero-charge class) = {chi}")]


def test_blms_items_match_slope_oracle():
    # random alpha, beta and nonzero mu, and for each member and Serre image
    # O(j) the boundaries beta = j (tilt slope +inf), alpha = |j - beta|
    # (tilt slope 0) and mu equal to the tilt slope
    rng = random.Random(61)
    seen = Counter()
    flag_off = dataclasses.replace(Q3, low_deg_H_generated=False)
    for x in (Q3, Y4, get_preset("y2"), X, P2, flag_off):
        for a in range(-3, 3):
            for m in (1, 2, 3):
                ks = list(range(a, a + m))
                mem = tuple(line_bundle_class(x, k) for k in ks)
                params = [(Fraction(rng.randint(1, 24), 8),
                           Fraction(rng.randint(-32, 16), 8),
                           Fraction(rng.choice((-1, 1)) * rng.randint(1, 24), 6))
                          for _ in range(3)]
                for j in ks + [k - x.index for k in ks]:
                    alpha = Fraction(rng.randint(1, 24), 8)
                    beta = j + Fraction(rng.randint(-12, 12), 4)
                    mu_t = tilt_slopes(1, j, Fraction(j * j, 2), alpha, beta)[1]
                    params += [(alpha, Fraction(j), Fraction(rng.randint(-9, 9), 4)),
                               (alpha, beta, Fraction(-1) if mu_t is None else mu_t)]
                    if beta != j:
                        params.append((abs(j - beta), beta, Fraction(1, 3)))
                for alpha, beta, mu in params:
                    rep = blms_check(x, mem, TiltParams(alpha, beta, mu))
                    want = _oracle_blms_items(x, ks, alpha, beta, mu)
                    assert [(i.condition, i.label, i.passed, i.detail)
                            for i in rep.items] == want, (x.name, ks, alpha,
                                                           beta, mu)
                    assert rep.passed == all(i[2] for i in want)
                    seen.update(passed=rep.passed, failed=not rep.passed)
                    for j in ks + [k - x.index for k in ks]:
                        mu_t = tilt_slopes(1, j, Fraction(j * j, 2), alpha,
                                           beta)[1]
                        seen.update({"inf": mu_t is None, "zero": mu_t == 0,
                                     "at mu": mu_t == mu})
    assert min(seen.values()) >= 20 and len(seen) == 5, seen


def test_zero_charge_pairing_is_the_stored_form_entry():
    # chi(O, H^n / lambda_n) read off the pairing form equals euler_pairing
    for x in (*PRESETS.values(), X, P2):
        top = ChernVector([0] * x.dim + [Fraction(1, x.denoms[x.dim])])
        assert _zero_charge_pairing(x) == euler_pairing(
            x, line_bundle_class(x, 0), top), x.name
    flag_off = dataclasses.replace(Q3, low_deg_H_generated=False)
    assert _zero_charge_pairing(flag_off) is None
    # a point of Q3 is H^3 / 2, and chi(O, O_pt) = 1
    assert euler_pairing(Q3, line_bundle_class(Q3, 0),
                         ChernVector([0, 0, 0, Fraction(1, 2)])) == 1


def test_blms_q3_passes_at_quarter():
    rep = blms_check(Q3, members(Q3), STD)
    assert rep.passed
    assert all(i.passed for i in rep.items)


def test_blms_q3_fails_at_half():
    p = TiltParams(alpha=Fraction(1, 2), beta=Fraction(-1, 2))
    rep = blms_check(Q3, members(Q3), p)
    assert not rep.passed
    failing = [i for i in rep.items if not i.passed]
    assert failing and all(i.condition == 1 for i in failing)
    assert any("O(0)" in i.label for i in failing)


def test_blms_y4_passes():
    rep = blms_check(Y4, members(Y4), STD)
    assert rep.passed


def test_blms_rejects_non_line_bundles():
    with pytest.raises(DomainError, match="semistability not certified"):
        blms_check(Q3, (SPINOR_CLASS,), STD)


def test_alpha_range_q3():
    ivs = alpha_range(Q3, members(Q3), Fraction(-1, 2))
    assert len(ivs) == 1
    iv = ivs[0]
    assert iv.lo == QuadNumber(0) and iv.lo_open
    assert iv.hi == Fraction(1, 2) and iv.hi_open


def test_twisting_a_block_by_o1_shifts_beta_by_one():
    # tensoring with O(1) carries sigma_(alpha, beta) to sigma_(alpha, beta + 1)
    # (arXiv:1103.5010): on the threefold presets the checklist and the alpha
    # range of O(a), ..., O(a + m - 1) at beta are those of the twisted block
    # at beta + 1
    rng = random.Random(1103)
    alphas = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1),
              Fraction(3, 2)]
    seen = Counter()
    for x in (PRESETS["q3"], PRESETS["y4"], PRESETS["y2"]):
        for a in range(-2, 3):
            for m in range(1, 4):
                block = [line_bundle_class(x, k) for k in range(a, a + m)]
                twisted = [exp_twist(v, 1) for v in block]
                for _ in range(10):
                    beta = a + Fraction(rng.randint(-16, 8), rng.choice((2, 3, 4)))
                    got = alpha_range(x, block, beta)
                    assert alpha_range(x, twisted, beta + 1) == got, (
                        x.name, a, m, beta)
                    seen["range"] += bool(got)
                    for alpha in alphas:
                        passed = blms_check(x, block, TiltParams(alpha, beta)).passed
                        assert blms_check(
                            x, twisted, TiltParams(alpha, beta + 1)).passed == passed
                        seen[passed] += 1
    assert seen[True] and seen[False] and seen["range"], seen


def test_readme_library_snippet():
    # the README's library example, run line by line: each commented line
    # evaluates to its comment (a str value shown in double quotes)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    env, checked = {}, 0
    for line in block.split("```", 1)[0].splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, env)
            continue
        value = eval(code, env)
        shown = json.dumps(value) if isinstance(value, str) else str(value)
        assert shown == comment.strip(), code
        checked += 1
    assert checked == 4


def test_alpha_range_q3_beta_zero_empty():
    assert alpha_range(Q3, members(Q3), Fraction(0)) == []


def test_alpha_range_y4():
    ivs = alpha_range(Y4, members(Y4), Fraction(-1, 2))
    assert len(ivs) == 1
    assert ivs[0].contains(Fraction(1, 4))
    assert ivs[0].hi == Fraction(1, 2)


def test_alpha_range_half_closed_endpoint():
    # for (O(2),) at beta = -3/4 the binding bound is the non-strict Serre
    # side alpha <= beta - (k - index) = 1/4, so the interval is (0, 1/4]
    mem = (line_bundle_class(Q3, 2),)
    beta = Fraction(-3, 4)
    ivs = alpha_range(Q3, mem, beta)
    assert len(ivs) == 1
    assert ivs[0].hi == Fraction(1, 4) and not ivs[0].hi_open
    p_edge = TiltParams(alpha=Fraction(1, 4), beta=beta)
    assert blms_check(Q3, mem, p_edge).passed
    p_past = TiltParams(alpha=Fraction(3, 10), beta=beta)
    assert not blms_check(Q3, mem, p_past).passed


def test_alpha_range_guards_match_blms_check():
    # for every dimension 1..4 a non-empty block makes alpha_range raise
    # exactly when blms_check does, with the same message: a curve has no
    # c2, and P4's Serre shift of 3 is outside the double tilt
    p1 = VarietyDesc(name="p1", dim=1, degree=1, todd=(1, 1), denoms=(1, 1),
                     index=2)
    p2 = VarietyDesc(name="p2", dim=2, degree=1, todd=(1, Fraction(3, 2), 1),
                     denoms=(1, 1, 2), index=3)
    expected = {"p1": "class needs at least coefficients c0, c1, c2",
                "p2": None, "Q3": None,
                "P4": "shift out of range for double tilt"}
    for x in (p1, p2, Q3, get_preset("p4")):
        for mem in (members(x, 1), members(x, 2), (line_bundle_class(x, 3),)):
            for beta in (Fraction(-7, 2), Fraction(-1, 2), Fraction(5, 2)):
                got = []
                for call in (lambda: alpha_range(x, mem, beta),
                             lambda: blms_check(x, mem, TiltParams(1, beta))):
                    try:
                        call()
                        got.append(None)
                    except DomainError as exc:
                        got.append(str(exc))
                assert got == [expected[x.name]] * 2, (x.name, mem, beta)
        # the empty collection has no Serre image to place
        assert [iv.text() for iv in alpha_range(x, (), 0)] == ["(0, inf)"]


def _range_samples(xs):
    """(x, ks, members, beta, alpha_range, alphas) on the sampled grid.

    A threefold gets every sub-block of its standard block and the empty
    block, beta on quarter steps over [-4, 3]; a surface gets the blocks
    O(a)..O(a + m - 1), a in [-3, 2], m <= 3, beta over [-6, 3).  The alphas
    are five fixed values plus every interval end and its neighbours.
    """
    step, eps = Fraction(1, 4), Fraction(1, 1000)
    for x in xs:
        if x.dim == 2:
            blocks = [range(a, a + m) for a in range(-3, 3) for m in (1, 2, 3)]
        else:
            blocks = [range(i, j) for i in range(x.index)
                      for j in range(i + 1, x.index + 1)] + [range(0)]
        for ks in blocks:
            mem = tuple(line_bundle_class(x, k) for k in ks)
            for b in range(-24, 12) if x.dim == 2 else range(-16, 13):
                beta = b * step
                ivs = alpha_range(x, mem, beta)
                ends = {iv.lo.rational_value() for iv in ivs} | {
                    iv.hi.rational_value() for iv in ivs if iv.hi is not None}
                alphas = {Fraction(1, 8), Fraction(1, 2), Fraction(1),
                          Fraction(2), Fraction(4)}
                alphas |= {e + d for e in ends | {Fraction(0)}
                           for d in (-eps, 0, eps)}
                yield (x, list(ks), mem, beta, ivs,
                       sorted(a for a in alphas if a > 0))


def test_alpha_range_matches_sampled_blms():
    # p4 is left out: its Serre shift of 3 is outside the double tilt
    # the empty collection has range (0, inf); the flag-off variety has none
    # on the surface P2 the Serre image sits at shift 1 (cases 2 and 3), so
    # its blocks O(a)..O(a + m - 1) also get ranges with a positive left end;
    # each sample is also decided by the slope oracle, which shares no code
    # with _HEART_CASES
    lower_ends = 0
    for x, ks, mem, beta, ivs, alphas in _range_samples(
            (Q3, Y4, get_preset("y2"), FLAG_OFF, P2)):
        assert all(iv.hi.rational_value() > 0 for iv in ivs
                   if iv.hi is not None), (x.name, ks, beta)
        lower_ends += sum(iv.lo.rational_value() > 0 for iv in ivs)
        for alpha in alphas:
            inside = any(iv.contains(alpha) for iv in ivs)
            passed = blms_check(x, mem, TiltParams(alpha, beta)).passed
            oracle = all(i[2] for i in _oracle_blms_items(x, ks, alpha, beta, 0))
            assert passed == inside == oracle, (x.name, ks, beta, alpha)
    assert lower_ends >= 20, lower_ends
    assert [iv.text() for iv in alpha_range(Q3, (), 0)] == ["(0, inf)"]
    assert alpha_range(Q3, members(Q3), Fraction(-1, 2)) != []
    assert alpha_range(FLAG_OFF, members(Q3), Fraction(-1, 2)) == []


def test_alpha_range_reads_the_heart_table(monkeypatch):
    # alpha_range has no case analysis of its own: under a table whose
    # shift-1 cases swap their mu_H tests it still agrees with blms_check,
    # and the changed table changes the verdict of some samples
    monkeypatch.setattr(tilt, "_HEART_CASES", (
        (1, 0, True, True), (2, 1, True, True), (3, 1, False, False),
        (4, 2, False, False)))
    samples = []
    for x, _, mem, beta, ivs, alphas in _range_samples((Q3, P2)):
        for alpha in alphas:
            passed = blms_check(x, mem, TiltParams(alpha, beta)).passed
            assert passed == any(iv.contains(alpha) for iv in ivs), (
                x.name, mem, beta, alpha)
            samples.append((x, mem, TiltParams(alpha, beta), passed))
    monkeypatch.undo()
    changed = sum(blms_check(x, mem, p).passed != passed
                  for x, mem, p, passed in samples)
    assert changed > 1000, (len(samples), changed)


def test_alpha_range_is_the_mu_zero_range():
    # the range is where blms_check passes at mu = 0; a nonzero mu moves
    # the tilt thresholds: alpha = 3/8 is in the range for q3's block at
    # beta = -1/2 and passes at mu = 0, but fails at mu = 1/2
    beta, alpha = Fraction(-1, 2), Fraction(3, 8)
    (iv,) = alpha_range(Q3, members(Q3), beta)
    assert iv.contains(alpha)
    assert blms_check(Q3, members(Q3), TiltParams(alpha, beta)).passed
    assert not blms_check(Q3, members(Q3),
                          TiltParams(alpha, beta, Fraction(1, 2))).passed

