"""Correctness checks for the benchmark, computed apart from kustab.

Expected values come from first principles: Hilbert polynomials, Todd
classes from Chern classes by series products, exact sign tests for
a + b*sqrt(F), the wall equation evaluated at sample points, and the
brute-force enumerator of ``tests/oracles.py``.  Nothing here calls the
library; library values enter only as the outputs under test (plain
Fractions read from its result objects or from CLI output).

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402  (the repository's independent oracles)
from oracles import binom  # noqa: E402

from workloads import C1_BOX, USER_CONFIG  # noqa: E402

# -- numerical data of the varieties, derived independently --------------------


def _chern_q3():
    # c(Q3) = (1+H)^5 / (1+2H) from the normal sequence of a quadric in P^4
    num = oracles.series_pow([Fraction(1), Fraction(1)], 5, 3)
    return oracles.series_mul(num, oracles.series_inv([Fraction(1), Fraction(2)], 3), 3)


def _user_todd():
    return [Fraction(t) for t in USER_CONFIG["varieties"][0]["todd"]]


# name -> (dim, degree, index, lattice denominators, Todd class, chi(O(k)) or None)
VARIETIES = {
    "q3": (3, 2, 3, (1, 1, 2, 12), oracles.todd_from_chern_3fold(_chern_q3()),
           oracles.hilbert_q3),
    "p4": (4, 1, 5, (1, 1, 2, 6, 24), oracles.todd_p4(), oracles.hilbert_p4),
    # (2,2) complete intersection in P^5 and double cover of P^3 in a quartic
    "y4": (3, 4, 2, (1, 1, 2, 12), oracles.todd_from_chern_3fold(oracles.chern_y4()),
           lambda k: binom(k + 5, 5) - 2 * binom(k + 3, 5) + binom(k + 1, 5)),
    "y2": (3, 2, 2, (1, 1, 2, 12), oracles.todd_from_chern_3fold(oracles.chern_y2()),
           lambda k: binom(k + 3, 3) + binom(k + 1, 3)),
    "x": (3, 2, 3, (1, 1, 2, 12), _user_todd(), None),
}


def line_bundle(n: int, k: int) -> list[Fraction]:
    return [Fraction(k) ** i / factorial(i) for i in range(n + 1)]


def twist(v, k, length=None) -> list[Fraction]:
    """v * e^{kH}, truncated to len(v)."""
    n = len(v) if length is None else length
    e = [Fraction(k) ** i / factorial(i) for i in range(n)]
    return oracles.series_mul([Fraction(x) for x in v], e, n - 1)


def chi(key: str, v, w) -> Fraction:
    """Euler pairing d * [H^n](v^dual * w * td), or a Hilbert polynomial."""
    n, d, _, _, td, hilbert = VARIETIES[key]
    v = [Fraction(x) for x in v]
    w = [Fraction(x) for x in w]
    kv, kw = _line_degree(n, v), _line_degree(n, w)
    if hilbert is not None and kv is not None and kw is not None:
        return Fraction(hilbert(kw - kv))
    dual = [c if i % 2 == 0 else -c for i, c in enumerate(v)]
    return d * oracles.series_mul(oracles.series_mul(dual, w, n), td, n)[n]


def _line_degree(n, v):
    if v[0] == 1 and v[1].denominator == 1 and v == line_bundle(n, int(v[1])):
        return int(v[1])
    return None


def in_lattice(key: str, v) -> bool:
    return all((Fraction(c) * lam).denominator == 1
               for c, lam in zip(v, VARIETIES[key][3]))


def _det(m) -> Fraction:
    m = [list(r) for r in m]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _minors_gcd(rows) -> int:
    g = 0
    for cols in combinations(range(len(rows[0])), len(rows)):
        g = gcd(g, int(_det([[r[c] for c in cols] for r in rows])))
    return g


def _solve(rows, rhs):
    """Unique solution of a square system by Gauss-Jordan elimination."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    n = len(m)
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [r[n] for r in m]


def project(key: str, members, v) -> list[Fraction]:
    """v minus the u in span(members) with chi(E_j, v - u) = 0 for all j."""
    if not members:
        return list(v)
    gram = [[chi(key, ej, ei) for ei in members] for ej in members]
    coeffs = _solve(gram, [chi(key, ej, v) for ej in members])
    out = [Fraction(x) for x in v]
    for a, e in zip(coeffs, members):
        out = [x - a * y for x, y in zip(out, e)]
    return out


def serre_inverse(key: str, v) -> list[Fraction]:
    n, _, r = VARIETIES[key][:3]
    return [(-1) ** n * x for x in twist(v, r)]


# -- residual_survey ------------------------------------------------------------


def check_basis(key: str, members, basis) -> list[str]:
    """Basis of the residual lattice: orthogonal, right rank, saturated."""
    n = VARIETIES[key][0]
    out = []
    if len(basis) != n + 1 - len(members):
        out.append(f"residual rank {len(basis)}, expected {n + 1 - len(members)}")
    for b in basis:
        if not in_lattice(key, b):
            out.append(f"basis vector {b} not in the lattice")
        if any(chi(key, e, b) != 0 for e in members):
            out.append(f"basis vector {b} not chi-orthogonal to the collection")
    if basis and all(in_lattice(key, b) for b in basis):
        coords = [[Fraction(c) * lam for c, lam in zip(b, VARIETIES[key][3])]
                  for b in basis]
        if _minors_gcd(coords) != 1:
            out.append("basis is not primitive and saturated")
    return out


def check_survey(op, res) -> list[str]:
    key = op.variety.name.lower()
    n = VARIETIES[key][0]
    members = [list(m) for m in op.collection.members]
    m = len(members)
    out = []
    exceptional = all(chi(key, members[i], members[i]) == 1 for i in range(m)) and all(
        chi(key, members[j], members[i]) == 0
        for i in range(m) for j in range(i + 1, m))
    if res.exceptional != exceptional:
        out.append(f"exceptional {res.exceptional}, expected {exceptional}")
    basis = [list(b) for b in res.basis]
    out += check_basis(key, members, basis)
    # Serre duality chi(a, b) = chi(b, S a) with the induced action S
    s = [[Fraction(res.serre[i, j]) for j in range(len(basis))]
         for i in range(len(basis))]
    for i, a in enumerate(basis):
        sa = [sum(s[k][i] * basis[k][c] for k in range(len(basis)))
              for c in range(n + 1)]
        for b in basis:
            if chi(key, a, b) != chi(key, b, sa):
                out.append(f"Serre duality fails for {a}, {b}")
    for b, rep in zip(basis, res.classes):
        out += _check_classify(key, members, b, rep.chi_self,
                               rep.serre_eigenvalue, rep.labels)
    out += check_projection(key, members, list(op.target), list(res.projection))
    rank = n + 1 - m
    verdict = "numerically-full" if rank == 0 else "full-modulo-phantoms-excluded"
    f = res.fullness
    if (f.verdict, f.residual_rank, f.collection_rank, f.total_rank) != (
            verdict, rank, m, n + 1):
        out.append(f"fullness {f.verdict} ranks {f.residual_rank}/{f.total_rank}")
    for (alpha, beta), passed in res.blms.items():
        inside = any(in_interval(alpha, (i.lo.a, i.lo.b, i.lo.F),
                                 None if i.hi is None else (i.hi.a, i.hi.b, i.hi.F),
                                 i.lo_open, i.hi_open)
                     for i in res.ranges[beta])
        if passed != inside:
            out.append(f"blms_check {passed} but alpha_range says {inside} "
                       f"at alpha={alpha}, beta={beta}")
    return out


def _check_classify(key, members, v, chi_self, eigen, labels) -> list[str]:
    out = []
    expected_chi = chi(key, v, v)
    w = project(key, members, serre_inverse(key, v))
    vv = [Fraction(x) for x in v]
    expected_eigen = 1 if w == vv else (-1 if w == [-x for x in vv] else None)
    expected = set()
    if expected_chi == 1:
        expected.add("numerically-exceptional")
    if expected_chi == 0:
        expected.add("isotropic")
    if expected_eigen is not None:
        expected.add("numerical-point-object-" + ("even" if expected_eigen == 1 else "odd"))
    if (Fraction(chi_self), eigen, set(labels)) != (expected_chi, expected_eigen, expected):
        out.append(f"classify {v}: chi {chi_self} eigen {eigen} labels "
                   f"{sorted(labels)}, expected {expected_chi} {expected_eigen}")
    return out


def check_projection(key, members, v, p) -> list[str]:
    out = []
    if any(chi(key, e, p) != 0 for e in members):
        out.append(f"projection {p} not orthogonal to the collection")
    diff = [a - b for a, b in zip(v, p)]
    if members and oracles.row_reduce_rank(members + [diff]) != oracles.row_reduce_rank(members):
        out.append(f"{v} - projection not in the span of the collection")
    return out


def _quad_sign(a, b, f) -> int:
    return oracles.sign_a_plus_b_sqrt(Fraction(a), Fraction(b), Fraction(f))


def in_interval(alpha, lo, hi, lo_open, hi_open) -> bool:
    """alpha in an interval whose ends are (a, b, F) triples, hi None for inf."""
    s_lo = -_quad_sign(lo[0] - alpha, lo[1], lo[2])        # sign(alpha - lo)
    if s_lo < 0 or (s_lo == 0 and lo_open):
        return False
    if hi is None:
        return True
    s_hi = _quad_sign(hi[0] - alpha, hi[1], hi[2])         # sign(hi - alpha)
    return s_hi > 0 or (s_hi == 0 and not hi_open)


# -- walls_sweep ------------------------------------------------------------------


def beta_zero(v):
    """(mu, F) with beta_0 = mu - sqrt(F), for a class with c0 > 0."""
    c0, c1, c2 = (Fraction(x) for x in v[:3])
    return c1 / c0, (c1 * c1 - 2 * c0 * c2) / (c0 * c0)


def expect_certificate(key: str, v) -> bool:
    """The lattice step d/q of ch_1^{beta_0} H^{n-1} reaches sqrt(F) c0 d."""
    mu, f = beta_zero(v)
    p, q = f.numerator, f.denominator
    rp, rq = _isqrt_exact(p), _isqrt_exact(q)
    if rp is None or rq is None:
        return False
    beta0 = mu - Fraction(rp, rq)
    lam0, lam1 = VARIETIES[key][3][:2]
    step = Fraction(gcd(beta0.denominator * lam0, abs(beta0.numerator) * lam1),
                    beta0.denominator * lam0 * lam1)
    return step >= Fraction(rp, rq) * Fraction(v[0])


def _isqrt_exact(n: int):
    r = isqrt(n)
    return r if r * r == n else None


def check_circles(key: str, v, circles, bound, max_c1) -> list[str]:
    """Four sign tests per witness, lattice and box membership, sort order.

    circles is a list of (center, radius_sq, witnesses) with Fractions.
    """
    d, lam = VARIETIES[key][1], VARIETIES[key][3]
    v = [Fraction(x) for x in v[:3]]
    mu, f = beta_zero(v)
    out = []
    keys = [(c, r) for c, r, _ in circles]
    if keys != sorted(set(keys)):
        out.append("circles not distinct and sorted by (center, radius^2)")
    for center, radius_sq, wits in circles:
        if not wits:
            out.append(f"circle ({center}, {radius_sq}) without a witness")
        for w in wits:
            w = [Fraction(x) for x in w]
            tag = f"witness {w} of ({center}, {radius_sq})"
            if len(w) != 3 or not all((c * l).denominator == 1 for c, l in zip(w, lam)):
                out.append(f"{tag} not a truncated lattice class")
                continue
            if abs(w[0]) > bound or abs(w[1]) > max_c1:
                out.append(f"{tag} outside the scan box")
            va, vb = (w[1] - mu * w[0]) * d, w[0] * d
            if _quad_sign(va, vb, f) <= 0 or _quad_sign(va, vb - v[0] * d, f) >= 0:
                out.append(f"{tag}: ch_1^beta0 H^2 outside (0, bound)")
            u = [a - b for a, b in zip(v, w)]
            if w[1] ** 2 - 2 * w[0] * w[2] < 0 or u[1] ** 2 - 2 * u[0] * u[2] < 0:
                out.append(f"{tag}: Bogomolov-Gieseker fails")
            e0, e1, e2 = oracles.wall_equation(d, v, w)
            if e0 == 0:
                out.append(f"{tag}: wall is not a circle")
                continue
            c = -e1 / (2 * e0)
            r2 = c * c - e2 / e0
            if (c, r2) != (center, radius_sq):
                out.append(f"{tag}: wall equation gives ({c}, {r2})")
            # radius^2 - (beta_0 - c)^2 > 0 with beta_0 = mu - sqrt(F)
            if _quad_sign(r2 - (mu - c) ** 2 - f, 2 * (mu - c), f) <= 0:
                out.append(f"{tag}: circle misses beta = beta_0 at alpha > 0")
    return out


def circles_of(found):
    return [(w.center_beta, w.radius_sq, tuple(tuple(x) for x in w.witnesses))
            for w in found]


def check_wall_op(op, cert, found) -> list[str]:
    key = op.preset
    circles = circles_of(found)
    out = [f"{op.preset} {op.target} bound {op.bound}: {p}" for p in
           check_circles(key, op.target, circles, op.bound, C1_BOX * op.bound)]
    if (cert is not None) != expect_certificate(key, op.target):
        out.append(f"{op.preset} {op.target}: certificate {cert is not None}")
    if cert is not None and circles:
        out.append(f"{op.preset} {op.target}: certified class has walls")
    return out


def check_nesting(scans) -> list[str]:
    """scans: bound -> circles for one class; each is contained in the next."""
    out = []
    bounds = sorted(scans)
    for lo, hi in zip(bounds, bounds[1:]):
        big = {(c, r): set(w) for c, r, w in scans[hi]}
        for c, r, w in scans[lo]:
            if not set(w) <= big.get((c, r), set()):
                out.append(f"scan at bound {lo} not contained in bound {hi}")
                break
    return out


def check_against_enumeration(op, circles) -> list[str]:
    """Untwist a small-bound scan and compare with the brute-force enumerator.

    The base classes have |beta_0| <= 3, so every witness has
    |c1| < 3 bound + sqrt(D) <= 4 bound and the enumerator's c1 box of
    4 bound does not clip either.
    """
    key = op.preset
    n_deg, lam = VARIETIES[key][1], VARIETIES[key][3]
    got = {}
    for c, r, wits in circles:
        got[(c - op.twist, r)] = {tuple(twist(w, -op.twist)) for w in wits}
    expected = oracles.enumerate_walls(n_deg, lam, tuple(Fraction(x) for x in op.base),
                                       op.bound, 4 * op.bound)
    if got != expected:
        return [f"{op.preset} {op.base} twisted by {op.twist} at bound {op.bound}: "
                f"scan differs from the brute-force enumeration"]
    return []


# -- cli_cold ---------------------------------------------------------------------


def parse_class(token: str, n: int):
    if token == "O":
        return line_bundle(n, 0)
    if token.startswith("O("):
        return line_bundle(n, int(token[2:-1]))
    return [Fraction(x) for x in token.split(",")]


def _text_fields(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        k, _, v = line.partition(": ")
        fields.setdefault(k, v)
    return fields


def _classes_text(s: str):
    inner = s.strip()[1:-1]
    return [[Fraction(x) for x in c.split(",")] for c in inner.split(", ")] if inner else []


def expected_exit(op) -> int:
    """Exit code of a well-formed README command, derived independently."""
    key = op.variety
    n = VARIETIES[key][0]
    cmd = op.argv[0]
    if cmd in ("blms", "alpha-range") and n != 3:
        return 3        # the Serre image sits at shift n - 1 = 3, outside a double tilt
    if cmd == "classify":
        v = parse_class(_positional(op.argv)[0], n)
        if not in_lattice(key, v) or any(chi(key, e, v) != 0 for e in default_block(key)):
            return 3
    return 0


def _positional(argv):
    out, skip = [], False
    for a in argv[1:]:
        if skip:
            skip = False
        elif a.startswith("--"):
            skip = a not in ("--json", "--stability-assumed")
        else:
            out.append(a)
    return out


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def default_block(key: str):
    n, _, index = VARIETIES[key][:3]
    return [line_bundle(n, k) for k in range(index)]


def check_cli_output(op, stdout: bytes, by_argv: dict) -> list[str]:
    """Semantic checks of one README command that exited 0.

    by_argv maps each argv of the pass to its standard output, for the
    checks that compare two commands (svg against walls, blms against
    alpha-range).  Text reports are checked on the fields that carry a
    verdict or a number; JSON reports on every field listed below.
    """
    key, argv, cmd = op.variety, op.argv, op.argv[0]
    n, d = VARIETIES[key][:2]
    pos = _positional(argv)
    block = default_block(key)
    tag = " ".join(argv)
    if cmd == "svg":
        try:
            root = ET.fromstring(stdout)
        except ET.ParseError as exc:
            return [f"{tag}: SVG does not parse: {exc}"]
        paths = sum(1 for e in root.iter() if e.get("class") == "wall")
        box = argv[1:argv.index("--beta-min")]
        twin = next((o for a, o in by_argv.items()
                     if a[0] == "walls" and a[1:len(box) + 1] == box), None)
        if twin is not None and paths != _count(twin):
            return [f"{tag}: {paths} wall paths, walls reports {_count(twin)}"]
        return []
    text = stdout.decode("utf-8")
    if "--json" in argv:
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return [f"{tag}: JSON does not parse: {exc}"]
        header, r = (doc.get("command"), doc.get("variety", "")), doc["result"]
        get = r.get
    else:
        fields = _text_fields(text)
        header, r = (fields.get("command"), fields.get("variety", "")), None
        get = fields.get
    if header[0] != cmd or header[1].lower() != key:
        return [f"{tag}: report header {header}"]
    out = []
    if cmd == "chi":
        want = chi(key, parse_class(pos[0], n), parse_class(pos[1], n))
        if Fraction(get("chi")) != want:
            out.append(f"{tag}: chi {get('chi')}, expected {want}")
    elif cmd == "orth":
        basis = ([[Fraction(x) for x in b] for b in r["basis"]] if r
                 else _classes_text(get("basis")))
        out += check_basis(key, block, basis)
    elif cmd == "fullness":
        gens = [parse_class(_flag(argv, "--gen"), n)] if "--gen" in argv else []
        rank = n + 1 - len(block)
        spans = len(gens) == rank and not check_basis(key, block, gens)
        want = ("numerically-full" if spans and rank == 0 else
                "full-modulo-phantoms-excluded" if spans else "inconclusive")
        if get("verdict") != want:
            out.append(f"{tag}: verdict {get('verdict')}, expected {want}")
    elif cmd == "blms":
        twin = next(json.loads(o)["result"]["intervals"] for a, o in by_argv.items()
                    if a[0] == "alpha-range" and a[1:-3] == argv[1:argv.index("--alpha")])
        alpha = Fraction(_flag(argv, "--alpha"))
        inside = any(in_interval(alpha, _quad(i["lo"]),
                                 None if i["hi"] is None else _quad(i["hi"]),
                                 i["lo_open"], i["hi_open"]) for i in twin)
        if (get("verdict") == "PASS") != inside:
            out.append(f"{tag}: verdict {get('verdict')} but alpha-range "
                       f"{'contains' if inside else 'excludes'} alpha")
    elif cmd == "nowall":
        want = expect_certificate(key, parse_class(pos[0], n))
        if get("certificate") not in (want, str(want).lower()):
            out.append(f"{tag}: certificate {get('certificate')}, expected {want}")
    elif r is None:
        return out
    elif cmd == "walls":
        v = parse_class(pos[0], n)
        circles = [(Fraction(w["center"]), Fraction(w["radius_sq"]),
                    tuple(tuple(Fraction(x) for x in c) for c in w["witnesses"]))
                   for w in r["walls"]]
        out += [f"{tag}: {p}" for p in check_circles(
            key, v, circles, Fraction(_flag(argv, "--max-rank")),
            Fraction(_flag(argv, "--max-c1")))]
    elif cmd == "gram":
        scale = d if r["convention"] == "paper" else 1
        want = [[chi(key, _unit(n, i), _unit(n, j)) / scale for j in range(n + 1)]
                for i in range(n + 1)]
        if [[Fraction(x) for x in row] for row in r["matrix"]] != want:
            out.append(f"{tag}: Gram matrix differs from Riemann-Roch")
    elif cmd == "serre":
        s = [[Fraction(x) for x in row] for row in r["matrix"]]
        for i in range(n + 1):
            for j in range(n + 1):
                image = [s[k][j] for k in range(n + 1)]
                if chi(key, _unit(n, i), image) != chi(key, _unit(n, j), _unit(n, i)):
                    out.append(f"{tag}: chi(H^{i}, S H^{j}) != chi(H^{j}, H^{i})")
    elif cmd == "project":
        out += check_projection(key, block, parse_class(pos[0], n),
                                [Fraction(x) for x in r["projection"]])
    elif cmd == "classify":
        eigen = {"+1": 1, "-1": -1, "none": None}[r["serre_eigenvalue"]]
        out += _check_classify(key, block, parse_class(pos[0], n),
                               Fraction(r["chi_self"]), eigen, r["labels"])
    elif cmd == "zh":
        v = parse_class(pos[0], n)
        if (Fraction(r["re"]), Fraction(r["im"])) != (-v[1] * d, v[0] * d):
            out.append(f"{tag}: Z_H differs")
    elif cmd == "ztilt":
        v = parse_class(pos[0], n)
        alpha, beta = Fraction(_flag(argv, "--alpha")), Fraction(_flag(argv, "--beta"))
        re, im_over_alpha = oracles.tilt_re_im(d, v[0], v[1], v[2], alpha * alpha, beta)
        sign = (-1) ** (int(_flag(argv, "--shift", "0")) % 2)
        if (Fraction(r["re"]), Fraction(r["im"])) != (sign * re, sign * im_over_alpha * alpha):
            out.append(f"{tag}: tilt charge differs")
    elif cmd == "beta0":
        mu, f = beta_zero(parse_class(pos[0], n))
        root = _isqrt_exact(f.numerator), _isqrt_exact(f.denominator)
        want = (mu - Fraction(*root), 0, 0) if None not in root else (mu, -1, f)
        if _quad(r["beta0"]) != want or Fraction(r["F"]) != f:
            out.append(f"{tag}: beta_0 {r['beta0']}, expected {want}")
    return out


def _unit(n, i):
    return [Fraction(int(k == i)) for k in range(n + 1)]


def _quad(q):
    return Fraction(q["a"]), Fraction(q["b"]), Fraction(q["radicand"])


def _count(stdout: bytes) -> int:
    text = stdout.decode("utf-8")
    if text.startswith("{"):
        return json.loads(text)["result"]["count"]
    return int(_text_fields(text)["count"])
