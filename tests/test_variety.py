"""Riemann-Roch engine: presets, twists, pairings, Serre action, lattice."""

import dataclasses
import random
import warnings
from fractions import Fraction
from math import factorial

import pytest

from kustab.config import variety_from_dict
from kustab.exact import DomainError, RatMatrix
from kustab.variety import (ChernVector, SPINOR_CLASS, VarietyDesc,
                            _lattice_coords, _serre_is_twist, euler_pairing,
                            exp_twist,
                            from_lattice_coords, get_preset, gram_matrix,
                            line_bundle_class, serre_numeric)

from oracles import (box_class, box_coords, chern_y2, chern_y4,
                     euler_closed_sum, hilbert_p4, hilbert_q3, series_mul,
                     todd_from_chern_3fold, todd_p4)

Q3 = get_preset("q3")
P4 = get_preset("p4")
Y4 = get_preset("y4")
Y2 = get_preset("y2")
PRESET_LIST = [P4, Q3, Y4, Y2]


def _random_lattice_class(rng, x):
    return ChernVector(box_class(rng, x.denoms, 6))


def _oracle_varieties():
    # the presets, the P2 surface of the alpha_range test, a P1 curve and a
    # descriptor with todd[0] = 0 (so the Gram antidiagonal vanishes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        no_unit = VarietyDesc(name="no-unit", dim=3, degree=5, index=1,
                              todd=(0, Fraction(1, 3), Fraction(-5, 7),
                                    Fraction(1, 11)),
                              denoms=(1, 3, 7, 11))
    return PRESET_LIST + [
        VarietyDesc(name="p2", dim=2, degree=1, todd=(1, Fraction(3, 2), 1),
                    denoms=(1, 1, 2), index=3),
        VarietyDesc(name="p1", dim=1, degree=1, todd=(1, 1), denoms=(1, 1),
                    index=2),
        no_unit]


def _random_rational_class(rng, n):
    # denominators up to 10^6, a quarter of the coefficients zero, and now
    # and then the zero class
    if rng.random() < 0.05:
        return ChernVector([0] * (n + 1))
    return ChernVector([
        Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        if rng.random() < 0.75 else Fraction(0) for _ in range(n + 1)])


def test_q3_todd_and_denoms():
    assert Q3.todd == (1, Fraction(3, 2), Fraction(13, 12), Fraction(1, 2))
    assert Q3.denoms == (1, 1, 2, 12)


def test_p4_todd_matches_series_oracle():
    assert list(P4.todd) == todd_p4()


def test_y4_todd_matches_whitney_oracle():
    chern = chern_y4()
    assert chern == [1, 2, 3, 0]
    assert list(Y4.todd) == todd_from_chern_3fold(chern)


def test_y2_todd_matches_double_cover_oracle():
    chern = chern_y2()
    assert chern == [1, 2, 6, -8]   # c3 integrates to the Euler number -16
    assert list(Y2.todd) == todd_from_chern_3fold(chern)


def test_chi_structure_sheaf_is_one():
    for x in PRESET_LIST:
        assert x.todd[x.dim] * x.degree == 1


def test_line_bundle_classes():
    assert line_bundle_class(Q3, 1) == (1, 1, Fraction(1, 2), Fraction(1, 6))
    assert line_bundle_class(Q3, 0) == (1, 0, 0, 0)
    expected = [Fraction((-3) ** i, factorial(i)) for i in range(4)]
    assert line_bundle_class(Q3, -3) == tuple(expected)


def test_exp_twist_examples():
    twisted = exp_twist(SPINOR_CLASS, 1)
    assert twisted[1] == 1          # ch_1 of S(1); pairs to 2 against H^2
    assert exp_twist(SPINOR_CLASS, 0) == SPINOR_CLASS


def test_exp_twist_group_law():
    rng = random.Random(11)
    for _ in range(40):
        v = _random_lattice_class(rng, Q3)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert exp_twist(exp_twist(v, a), -a) == v
        assert exp_twist(exp_twist(v, a), b) == exp_twist(v, a + b)


def test_euler_pairing_against_hilbert_oracle():
    for a in range(-3, 4):
        for b in range(-3, 4):
            got = euler_pairing(Q3, line_bundle_class(Q3, a),
                                line_bundle_class(Q3, b))
            assert got == hilbert_q3(b - a)
    for a in range(-2, 3):
        for b in range(-2, 3):
            got = euler_pairing(P4, line_bundle_class(P4, a),
                                line_bundle_class(P4, b))
            assert got == hilbert_p4(b - a)


def test_euler_pairing_matches_series_oracle():
    # d * [H^n] of dual(v) * w * td by truncated series products, on random
    # rational classes with zero entries and nonzero odd-degree entries
    rng = random.Random(5)
    for x in PRESET_LIST:
        n = x.dim
        for _ in range(60):
            v, w = ([Fraction(rng.randint(-6, 6), rng.randint(1, 12))
                     if rng.random() < 0.7 else Fraction(0)
                     for _ in range(n + 1)] for _ in range(2))
            dual = [c if i % 2 == 0 else -c for i, c in enumerate(v)]
            expected = x.degree * series_mul(
                series_mul(dual, w, n), list(x.todd), n)[n]
            assert euler_pairing(x, ChernVector(v), ChernVector(w)) == expected


def test_pairings_match_closed_sum_oracle():
    # euler_pairing and gram_matrix against the term-by-term Todd sum
    rng = random.Random(2024)
    for x in _oracle_varieties():
        n = x.dim

        def chi(v, w):
            return euler_closed_sum(x.degree, x.todd, v, w)

        for _ in range(60):
            v, w = (_random_rational_class(rng, n) for _ in range(2))
            got = euler_pairing(x, v, w)
            assert type(got) is Fraction and got == chi(v, w), (x.name, v, w)
        basis = [[Fraction(i == k) for i in range(n + 1)] for k in range(n + 1)]
        chi_gram, paper = gram_matrix(x, "chi"), gram_matrix(x, "paper")
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                assert chi_gram[i, j] == chi(ei, ej)
                assert paper[i, j] == chi(ei, ej) / x.degree


def test_pairing_wrong_arity_message():
    short, full = ChernVector([1, 0, 0]), SPINOR_CLASS
    for call in (lambda: euler_pairing(Q3, short, full),
                 lambda: euler_pairing(Q3, full, short),
                 lambda: euler_pairing(Q3, short, short)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == "wrong arity: Q3 needs 4 coefficients"


def test_descriptor_identity_is_its_declared_fields():
    # repr, == and hash see only the seven declared fields
    def p2():
        return VarietyDesc(name="p2", dim=2, degree=1,
                           todd=(1, Fraction(3, 2), 1), denoms=(1, 1, 2),
                           index=3)

    a, b = p2(), p2()
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(("p2", 2, 1, (1, Fraction(3, 2), 1), (1, 1, 2), 3,
                            True))
    assert repr(a) == (
        "VarietyDesc(name='p2', dim=2, degree=1, todd=(Fraction(1, 1), "
        "Fraction(3, 2), Fraction(1, 1)), denoms=(1, 1, 2), index=3, "
        "low_deg_H_generated=True)")
    assert [f.name for f in dataclasses.fields(a) if f.compare] == [
        "name", "dim", "degree", "todd", "denoms", "index",
        "low_deg_H_generated"]
    flag_off = dataclasses.replace(Q3, low_deg_H_generated=False)
    assert flag_off != Q3
    assert dataclasses.replace(flag_off, low_deg_H_generated=True) == Q3


def test_euler_pairing_spinor():
    assert euler_pairing(Q3, SPINOR_CLASS, SPINOR_CLASS) == 1
    assert euler_pairing(Q3, line_bundle_class(Q3, 1),
                         line_bundle_class(Q3, 0)) == 0


def test_twist_invariance_of_pairing():
    rng = random.Random(23)
    for x in PRESET_LIST:
        for _ in range(20):
            a = rng.randint(-4, 4)
            b = rng.randint(-4, 4)
            k = rng.randint(-3, 3)
            lhs = euler_pairing(x, line_bundle_class(x, a + k),
                                line_bundle_class(x, b + k))
            rhs = euler_pairing(x, line_bundle_class(x, a),
                                line_bundle_class(x, b))
            assert lhs == rhs


def test_integrality_on_sheaf_class_span():
    # chi is integer valued on integer combinations of genuine sheaf classes
    rng = random.Random(67)
    spans = {
        "q3": [line_bundle_class(Q3, k) for k in range(3)] + [SPINOR_CLASS],
        "p4": [line_bundle_class(P4, k) for k in range(5)],
        "y4": [line_bundle_class(Y4, k) for k in range(-1, 3)] + [SPINOR_CLASS],
        "y2": [line_bundle_class(Y2, k) for k in range(-2, 3)],
    }
    for name, gens in spans.items():
        x = get_preset(name)

        def combo():
            out = ChernVector([Fraction(0)] * (x.dim + 1))
            for g in gens:
                out = out + rng.randint(-3, 3) * g
            return out

        for _ in range(40):
            assert euler_pairing(x, combo(), combo()).denominator == 1


PAPER_GRAM = [
    [Fraction(1, 2), Fraction(13, 12), Fraction(3, 2), Fraction(1)],
    [Fraction(-13, 12), Fraction(-3, 2), Fraction(-1), Fraction(0)],
    [Fraction(3, 2), Fraction(1), Fraction(0), Fraction(0)],
    [Fraction(-1), Fraction(0), Fraction(0), Fraction(0)],
]


def test_gram_matrix_conventions():
    paper = gram_matrix(Q3, "paper")
    assert [list(paper.row(i)) for i in range(4)] == PAPER_GRAM
    chi = gram_matrix(Q3, "chi")
    assert chi[0, 0] == 1
    for i in range(4):
        for j in range(4):
            assert chi[i, j] == 2 * paper[i, j]
    with pytest.raises(DomainError):
        gram_matrix(Q3, "weird")


def test_p4_line_bundle_gram_is_unipotent_triangular():
    members = [line_bundle_class(P4, k) for k in range(5)]
    for i, ei in enumerate(members):
        for j, ej in enumerate(members):
            val = euler_pairing(P4, ei, ej)
            if i == j:
                assert val == 1
            elif i > j:
                assert val == 0


def test_serre_matrix_matches_twist_formula():
    for x in PRESET_LIST:
        s = serre_numeric(x)
        n = x.dim
        # the twist formula v -> (-1)^n exp_twist(v, -index) on the basis H^k
        cols = [(-1) ** n * exp_twist(ChernVector([Fraction(i == k)
                                                   for i in range(n + 1)]),
                                      -x.index)
                for k in range(n + 1)]
        expected = RatMatrix.from_rows(
            [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)])
        assert s.entries == expected.entries
        g = gram_matrix(x)
        assert s == g.inverse() @ g.transpose(), x.name


def test_serre_compatibility_random_pairs():
    rng = random.Random(404)
    for x in PRESET_LIST:
        s = serre_numeric(x)
        for _ in range(200):
            v = _random_lattice_class(rng, x)
            w = _random_lattice_class(rng, x)
            sw = ChernVector(s.apply(list(w)))
            assert euler_pairing(x, v, sw) == euler_pairing(x, w, v)


def test_serre_inverse_roundtrip():
    # the inverse Serre matrix is the inverse twist (-1)^n exp_twist(v, index)
    rng = random.Random(5)
    for x in PRESET_LIST:
        s_inv = serre_numeric(x).inverse()
        for _ in range(10):
            v = _random_lattice_class(rng, x)
            assert ChernVector(s_inv.apply(list(v))) == \
                (-1) ** x.dim * exp_twist(v, x.index)


def test_serre_on_spinor_classes():
    # ambient action on Q3: -exp_twist(., -3)
    img = ChernVector(serre_numeric(Q3).apply(list(SPINOR_CLASS)))
    assert img == -exp_twist(SPINOR_CLASS, -3)


def test_degenerate_pairing_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        broken = VarietyDesc(name="broken", dim=1, degree=1,
                             todd=(Fraction(0), Fraction(0)), denoms=(1, 1),
                             index=0)
    with pytest.raises(DomainError, match="degenerate pairing"):
        serre_numeric(broken)


def test_in_lattice_examples():
    assert _lattice_coords(Q3, SPINOR_CLASS) == [2, -1, 0, 1]
    assert _lattice_coords(Q3, ChernVector([0, 0, Fraction(1, 2), 0])) == [0, 0, 1, 0]
    assert _lattice_coords(Q3, ChernVector([0, 0, Fraction(1, 4), 0])) is None


def test_lattice_coords_match_box_oracle():
    # variety's box rule against oracles.box_coords on seeded classes, full
    # and truncated, on and off the lattice, on every preset, P2, P1, the
    # README's config X and W (Q3's data with c2 in Z/4); from_lattice_coords
    # inverts it
    x_config = variety_from_dict({
        "name": "X", "dim": 3, "degree": 2, "index": 3,
        "todd": ["1", "3/2", "13/12", "1/2"], "denoms": [1, 1, 2, 12],
        "low_deg_H_generated": True})
    w = VarietyDesc(name="W", dim=3, degree=2, index=3, todd=Q3.todd,
                    denoms=(1, 1, 4, 12))
    rng = random.Random(3121)
    seen = set()
    for _ in range(4000):
        x = rng.choice([*_oracle_varieties(), x_config, w])
        n = rng.randint(min(3, x.dim + 1), x.dim + 1)
        kind = rng.randrange(3)
        if kind == 2:
            v = ChernVector(_random_rational_class(rng, n - 1))
        else:
            coeffs = box_class(rng, x.denoms[:n], 6)
            if kind == 1:       # k/lambda + 1/(m lambda) is off the lattice
                i = rng.randrange(n)
                coeffs[i] += Fraction(1, rng.choice((2, 3, 5)) * x.denoms[i])
            v = ChernVector(coeffs)
        want = box_coords(x.denoms, v)
        assert _lattice_coords(x, v) == want, (x.name, v)
        if want is not None:
            assert from_lattice_coords(x, want) == v
        seen.add((x.name, n == x.dim + 1, want is None))
    assert len(seen) == 4 * 9 - 4, sorted(seen)    # no truncation on P1, P2


def test_descriptor_warnings_for_inconsistent_data():
    with pytest.warns(UserWarning):
        VarietyDesc(name="odd", dim=2, degree=1,
                    todd=(Fraction(1), Fraction(1), Fraction(1, 3)),
                    denoms=(1, 1, 1), index=3)


def _fano_threefold(name, index, degree):
    # Picard rank one: chi(O) = c1 c2 / 24 = 1 and c1 = index H give
    # c2 = 24 / (index degree) H^2, so td = 1 + c1/2 + (c1^2 + c2)/12 + 1/degree
    t2 = (index ** 2 + Fraction(24, index * degree)) / 12
    return VarietyDesc(name=name, dim=3, degree=degree, index=index,
                       todd=(1, Fraction(index, 2), t2, Fraction(1, degree)),
                       denoms=(1, 1, 2, 12))


def test_serre_matrix_is_the_twist_on_genuine_varieties_only():
    # G T = n! G^T with T = n! (-1)^n e^(-index H) holds for P1, P2, the del
    # Pezzo threefolds Y1..Y5, the index-one threefolds X2..X22, a fake
    # projective plane, a K3 surface and the quintic threefold
    genuine = [*PRESET_LIST,
               VarietyDesc(name="P1", dim=1, degree=1, index=2, todd=(1, 1),
                           denoms=(1, 1)),
               VarietyDesc(name="P2", dim=2, degree=1, index=3,
                           todd=(1, Fraction(3, 2), 1), denoms=(1, 1, 2)),
               VarietyDesc(name="fake", dim=2, degree=1, index=-3,
                           todd=(1, Fraction(-3, 2), 1), denoms=(1, 1, 2)),
               VarietyDesc(name="K3", dim=2, degree=2, index=0, todd=(1, 0, 1),
                           denoms=(1, 1, 2)),
               VarietyDesc(name="quintic", dim=3, degree=5, index=0,
                           todd=(1, 0, Fraction(5, 6), 0), denoms=(1, 1, 2, 6)),
               *(_fano_threefold(f"Y{d}", 2, d) for d in range(1, 6)),
               *(_fano_threefold(f"X{d}", 1, d)
                 for d in (2, 4, 6, 8, 10, 12, 14, 16, 18, 22))]
    for x in (Q3, Y4, Y2):      # the formula gives the presets' Todd classes
        assert _fano_threefold(x.name, x.index, x.degree).todd == x.todd
    assert all(_serre_is_twist(x) for x in genuine)
    # Z: Q3's data with t_2 = 1, the Serre matrix's corner reads 19/4, not 9/2;
    # and t_0 = 1 with 2 t_1 != index
    z = VarietyDesc(name="Z", dim=3, degree=2, index=3,
                    todd=(1, Fraction(3, 2), 1, Fraction(1, 2)),
                    denoms=(1, 1, 2, 12))
    assert serre_numeric(z)[3, 0] == Fraction(19, 4)
    broken = [z]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        broken += [dataclasses.replace(x, index=x.index + shift)
                   for x in genuine for shift in (-1, 1)]
    assert not any(_serre_is_twist(x) for x in broken)


def test_wrong_arity_rejected():
    with pytest.raises(DomainError, match="wrong arity"):
        euler_pairing(Q3, ChernVector([1, 0, 0]), SPINOR_CLASS)


def test_chern_vector_is_an_immutable_tuple_of_fractions():
    v = ChernVector([2, "-1", Fraction(1, 2)])
    assert isinstance(v, tuple) and v == (2, -1, Fraction(1, 2))
    assert all(type(c) is Fraction for c in v)
    assert hash(v) == hash((Fraction(2), Fraction(-1), Fraction(1, 2)))
    assert v != [2, -1, Fraction(1, 2)]        # a list is not a class
    assert type(v[:2]) is tuple and v.text() == "2,-1,1/2"
    assert repr(v) == "ChernVector(2,-1,1/2)"
    # +, - and * are the vector operations, not concatenation and repetition
    w = ChernVector([1, 1, 1])
    assert v + w == ChernVector([3, 0, Fraction(3, 2)]) and v + (1, 1, 1) == v + w
    assert v - w == ChernVector([1, -2, Fraction(-1, 2)])
    assert 2 * v == v * 2 == v + v == ChernVector([4, -2, 1]) and -v == v * -1
    assert all(type(r) is ChernVector for r in (v + w, v - w, 2 * v, v * 2, -v))
    assert not any(v - v) and any(v)
    with pytest.raises(DomainError, match="dimension mismatch"):
        v + ChernVector([1, 1])
    with pytest.raises(DomainError, match="empty class"):
        ChernVector([])
    # rat() reads the entries; a bool is an int subclass, not a rational
    for bad in (0.5, True, False):
        with pytest.raises(DomainError, match="not an exact rational"):
            ChernVector([bad, 0, 0])
    with pytest.raises(AttributeError):
        v.coeffs = (1,)
    with pytest.raises(TypeError):
        v[0] = Fraction(3)


def test_lattice_integers_refuse_floats_and_bools():
    # int() would floor 1.9 to 1; a lattice number must be an int already
    for bad in (1.9, 1.0, True):
        with pytest.raises(DomainError, match="not an integer"):
            from_lattice_coords(Q3, [bad, 0, 0, 0])
        with pytest.raises(DomainError, match="not an integer"):
            VarietyDesc(name="Q", dim=3, degree=2, index=3, todd=Q3.todd,
                        denoms=(bad, 1, 2, 12))
        for field in ("dim", "degree", "index"):
            fields = dict(name="Q", dim=3, degree=2, index=3, todd=Q3.todd,
                          denoms=(1, 1, 2, 12))
            fields[field] = bad
            with pytest.raises(DomainError, match="not an integer"):
                VarietyDesc(**fields)
    assert from_lattice_coords(Q3, [1, 0, 1, 1]) == (1, 0, Fraction(1, 2),
                                                     Fraction(1, 12))
    assert VarietyDesc(name="Q", dim=3, degree=2, index=3, todd=Q3.todd,
                       denoms=[1, 1, 2, 12]).denoms == (1, 1, 2, 12)
