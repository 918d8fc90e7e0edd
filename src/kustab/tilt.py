"""Weak and tilt stability numerics.

Charges follow the two-step tilting construction: the weak charge
Z_H = -c_1 d + i c_0 d on the standard heart, and for alpha > 0, beta real

    Z_{alpha,beta} = ((alpha^2 - beta^2)/2 c_0 d + beta c_1 d - c_2 d)
                     + i alpha (c_1 - beta c_0) d,

with slopes mu = -Re/Im (set to +infinity when the imaginary part
vanishes).  Shifting an object by [k] multiplies both charges by (-1)^k;
slopes are shift invariant.  Membership of a shifted semistable sheaf in
the doubly tilted heart reduces to four slope-inequality cases, evaluated
by heart_case.

Every charge and slope is computed in integers.  Write (c_0, c_1, c_2) =
(C0, C1, C2)/M with M the lcm of the denominators (variety._truncated),
alpha = an/ad and beta = bn/bd; then

    Z_{alpha,beta} = d/M * (R / (2 ad^2 bd^2) + i an I / (ad bd)),
    I = bd C1 - bn C0,
    R = (an^2 bd^2 - bn^2 ad^2) C0 + 2 ad^2 bd (bn C1 - bd C2),

so mu_H > beta iff C0 I > 0 (mu_H = +infinity at C0 = 0), and the tilt
slope is -R / (2 an ad bd I) (+infinity at I = 0).  A line bundle O(k),
ch = e^{kH}, is (C0, C1, C2) = (2, 2k, k^2) with M = 2: mu_H = k,

    Z_{alpha,beta}(O(k)) = d (alpha^2 - (k - beta)^2)/2 + i alpha d (k - beta),

and mu_{alpha,beta}(O(k)) = ((k - beta)^2 - alpha^2) / (2 alpha (k - beta)),
or +infinity at k = beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .exact import DomainError, QuadNumber, rat
from .variety import ChernVector, VarietyDesc, _chi_o_top, _truncated


@dataclass(frozen=True)
class TiltParams:
    alpha: Fraction
    beta: Fraction
    mu: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "alpha", rat(self.alpha))
        object.__setattr__(self, "beta", rat(self.beta))
        object.__setattr__(self, "mu", rat(self.mu))
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")


@dataclass(frozen=True)
class Charge:
    re: Fraction
    im: Fraction

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


@dataclass(frozen=True)
class ExtSlope:
    """A rational slope or +infinity; defines equality but no order."""

    value: Fraction | None    # None encodes +infinity

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __str__(self):
        return "inf" if self.is_infinite else str(self.value)


def charge_h(x: VarietyDesc, v: ChernVector) -> Charge:
    """Z_H = -c_1 H^{n-1} + i c_0 H^n."""
    m, c0, c1, _ = _truncated(v)
    return Charge(Fraction(-x.degree * c1, m), Fraction(x.degree * c0, m))


def _slope(num: int, den: int) -> ExtSlope:
    # num / den, +infinity at den = 0: every slope of this module
    return ExtSlope(Fraction(num, den) if den else None)


def slope_h(x: VarietyDesc, v: ChernVector) -> ExtSlope:
    _, c0, c1, _ = _truncated(v)
    return _slope(c1, c0)


def charge_tilt(x: VarietyDesc, v: ChernVector, shift: int,
                p: TiltParams) -> Charge:
    m, c0, c1, c2 = _truncated(v)
    return _charge((-1) ** (shift % 2) * x.degree, m,
                   *_tilt_numbers(c0, c1, c2, p), p)


def _tilt_numbers(c0: int, c1: int, c2: int, p: TiltParams) -> tuple[int, int]:
    # (R, I) of the module docstring for the integer class (C0, C1, C2)
    an, ad = p.alpha.numerator, p.alpha.denominator
    bn, bd = p.beta.numerator, p.beta.denominator
    return (((an * bd) ** 2 - (bn * ad) ** 2) * c0
            + 2 * ad * ad * bd * (bn * c1 - bd * c2), bd * c1 - bn * c0)


def _charge(d: int, m: int, r: int, i: int, p: TiltParams) -> Charge:
    # Z = d/M (R / (2 ad^2 bd^2) + i an I / (ad bd)); d carries the shift sign
    ad, bd = p.alpha.denominator, p.beta.denominator
    return Charge(Fraction(d * r, 2 * m * (ad * bd) ** 2),
                  Fraction(d * p.alpha.numerator * i, m * ad * bd))


def slope_tilt(x: VarietyDesc, v: ChernVector, p: TiltParams) -> ExtSlope:
    """mu_{alpha,beta} = -Re/Im of the tilt charge; shift invariant."""
    _, c0, c1, c2 = _truncated(v)
    r, i = _tilt_numbers(c0, c1, c2, p)
    return _slope(-r, 2 * p.alpha.numerator * p.alpha.denominator
                  * p.beta.denominator * i)


@dataclass(frozen=True)
class SlopeCheck:
    name: str
    value: ExtSlope
    threshold: Fraction
    satisfied: bool


@dataclass(frozen=True)
class HeartVerdict:
    case_id: int | None      # 1..4, or None for not-in-heart
    slope_checks: tuple[SlopeCheck, ...]

    @property
    def in_heart(self) -> bool:
        return self.case_id is not None


# the four membership cases: (case, shift of the sheaf, mu_H > beta,
# mu_tilt > mu); the first case at each shift is reported when none holds
_HEART_CASES = ((1, 0, True, True), (2, 1, False, True),
                (3, 1, True, False), (4, 2, False, False))


def heart_case(x: VarietyDesc, v: ChernVector, shift: int,
               p: TiltParams) -> HeartVerdict:
    """Membership of sheaf[shift] in the doubly tilted heart.

    The caller asserts that the object is semistable for both the weak and
    the tilt charge; under that hypothesis membership is equivalent to one
    of the four slope-inequality cases of _HEART_CASES at the shift where
    the underlying sheaf sits.  The verdict carries that case's two checks.
    """
    if shift not in (c[1] for c in _HEART_CASES):
        raise DomainError("shift out of range for double tilt")
    _, c0, c1, c2 = _truncated(v)
    return _heart(c0, c1, c2, shift, p)


def _heart(c0: int, c1: int, c2: int, shift: int,
           p: TiltParams) -> HeartVerdict:
    # heart_case for the integer class (C0, C1, C2), a positive multiple of
    # (c_0, c_1, c_2): with D = 2 an ad bd I the tilt slope is -R/D, and
    # -R/D > mu = mn/md iff (-R md - mn D) I > 0; only the two reported
    # slopes become Fractions
    r, i = _tilt_numbers(c0, c1, c2, p)
    den = 2 * p.alpha.numerator * p.alpha.denominator * p.beta.denominator * i
    signs = (c0 == 0 or c0 * i > 0,
             i == 0 or (-r * p.mu.denominator - p.mu.numerator * den) * i > 0)
    at_shift = [c for c in _HEART_CASES if c[1] == shift]
    held = [c for c in at_shift if c[2:] == signs]
    case, _, h_gt, t_gt = (held or at_shift)[0]
    checks = (
        SlopeCheck(f"mu_H {'>' if h_gt else '<='} beta", _slope(c1, c0),
                   p.beta, signs[0] == h_gt),
        SlopeCheck(f"mu_tilt {'>' if t_gt else '<='} mu", _slope(-r, den),
                   p.mu, signs[1] == t_gt))
    return HeartVerdict(case_id=case if held else None, slope_checks=checks)


# -- induced stability check --------------------------------------------------


@dataclass(frozen=True)
class BlmsItem:
    condition: int
    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class BlmsReport:
    passed: bool
    items: tuple[BlmsItem, ...]


def _placements(x: VarietyDesc, members) -> list[tuple[int, int]]:
    # (k, 0) for each member O(k) and (k - index, n - 1) for its Serre image,
    # in member order; O(k) is checked as c_i = k^i / i! in integers, and a
    # non-empty block also needs c0, c1, c2 and a Serre shift in _HEART_CASES
    out = []
    for m in members:
        x.check_class(m)
        k = m[1].numerator
        if m[1].denominator != 1 or any(
                c.numerator * factorial(i) != k ** i * c.denominator
                for i, c in enumerate(m)):
            raise DomainError("semistability not certified")
        out += [(k, 0), (k - x.index, x.dim - 1)]
    if out and x.dim < 2:
        raise DomainError("class needs at least coefficients c0, c1, c2")
    if out and x.dim - 1 not in (c[1] for c in _HEART_CASES):
        raise DomainError("shift out of range for double tilt")
    return out


def blms_check(x: VarietyDesc, members, p: TiltParams) -> BlmsReport:
    """Induced-stability checklist for the right orthogonal of line bundles.

    Members must be line-bundle classes: those have Delta_H = 0, which
    certifies the joint semistability hypothesis the heart criterion needs.
    Three conditions are checked, with per-item detail:

      (1) every member lies in the heart at shift 0 and its Serre image,
          shifted back by one, lies in the heart (the twist by -index at
          shift n - 1);
      (2) every member has nonzero tilt charge;
      (3) nonzero lattice classes with identically zero charge pair
          nontrivially with ch O, so the charge restricted to the residual
          lattice has trivial kernel.

    Each O(k) enters the heart test as the integer class (2, 2k, k^2), so
    mu_H = k and mu_{alpha,beta} = ((k - beta)^2 - alpha^2) /
    (2 alpha (k - beta)), +infinity at k = beta, and its charge is
    Z = d (alpha^2 - (k - beta)^2)/2 + i alpha d (k - beta).  Condition (2)
    therefore always holds for alpha > 0: Im Z = 0 only at k = beta, where
    Re Z = d alpha^2 / 2.
    """
    placements = _placements(x, members)
    items: list[BlmsItem] = []
    for k, shift in placements:
        verdict = _heart(2, 2 * k, k * k, shift, p)
        label = (f"O({k})[{shift}] in heart" if shift
                 else f"O({k}) in heart at shift 0")
        items.append(BlmsItem(1, label, verdict.in_heart,
                              _checks_text(verdict)))
    for k in [k for k, shift in placements if shift == 0]:
        z = _charge(x.degree, 2, *_tilt_numbers(2, 2 * k, k * k, p), p)
        items.append(BlmsItem(2, f"Z(O({k})) nonzero", not z.is_zero(),
                              f"Z = {z.re} + {z.im}*i"))
    pairing = _zero_charge_pairing(x)
    detail = ("low-degree cohomology flag not set" if pairing is None
              else f"chi(O, minimal zero-charge class) = {pairing}")
    items.append(BlmsItem(3, "zero-charge classes pair with O",
                          bool(pairing), detail))
    return BlmsReport(passed=all(i.passed for i in items), items=tuple(items))


def _zero_charge_pairing(x: VarietyDesc) -> Fraction | None:
    # condition (3): chi(O, H^n / lambda_n); None without the flag
    return _chi_o_top(x) if x.low_deg_H_generated else None


def _checks_text(verdict: HeartVerdict) -> str:
    parts = [f"{c.name}: {c.value} vs {c.threshold}"
             f" [{'ok' if c.satisfied else 'fail'}]"
             for c in verdict.slope_checks]
    case = verdict.case_id if verdict.in_heart else "not-in-heart"
    return f"case {case}; " + "; ".join(parts)


# -- exact alpha intervals ----------------------------------------------------


@dataclass(frozen=True)
class AlphaInterval:
    """An interval of admissible alpha with exact endpoints.

    lo/hi are rational QuadNumbers (hi None means unbounded above); an end
    is closed when its binding inequality is non-strict.
    """

    lo: QuadNumber
    hi: QuadNumber | None
    lo_open: bool = True
    hi_open: bool = True

    def contains(self, alpha) -> bool:
        a, lo = rat(alpha), self.lo.rational_value()
        if a < lo or (self.lo_open and a == lo):
            return False
        hi = None if self.hi is None else self.hi.rational_value()
        return hi is None or a < hi or (not self.hi_open and a == hi)

    def text(self) -> str:
        """Interval notation.

        >>> AlphaInterval(lo=QuadNumber(0), hi=QuadNumber(Fraction(1, 2))).text()
        '(0, 1/2)'
        """
        lb, rb = "(" if self.lo_open else "[", ")" if self.hi_open else "]"
        return f"{lb}{self.lo}, {'inf' if self.hi is None else self.hi}{rb}"


def alpha_range(x: VarietyDesc, members, beta) -> list[AlphaInterval]:
    """Exact set of alpha > 0 where blms_check passes at mu = 0, fixed beta.

    A placement (k, s) of _placements, with d = k - beta, is decided by the
    case of _HEART_CASES at shift s whose mu_H test is d > 0 (none: empty
    range).  At mu = 0 its tilt test holds for all alpha when d = 0, else
    iff alpha < d (d > 0) or alpha > -d (d < 0), so it bounds alpha by |d|,
    from above iff the tilt test equals d > 0, strictly iff it is '>'; no
    square-root threshold occurs.  The range runs from the largest lower to
    the smallest upper bound, open at a strict one; it is empty when they
    cross or condition (3) fails.  A nonzero mu moves the tilt thresholds.
    """
    bn, bd = rat(beta).as_integer_ratio()
    lows, highs = [(0, True)], []     # (bound * bd, strict)
    for k, shift in _placements(x, members):
        d = k * bd - bn               # (k - beta) * bd
        case = next((c for c in _HEART_CASES
                     if c[1] == shift and c[2] == (d > 0)), None)
        if case is None:
            return []
        (highs if case[3] == (d > 0) else lows).append((abs(d), case[3]))
    if not _zero_charge_pairing(x):
        return []
    lo, lo_open = max(lows)
    hi, hi_closed = min(((b, not s) for b, s in highs), default=(None, False))
    if hi is not None and lo >= hi:     # a closed end only meets a strict one
        return []
    return [AlphaInterval(
        lo=QuadNumber(Fraction(lo, bd)), lo_open=lo_open,
        hi=None if hi is None else QuadNumber(Fraction(hi, bd)),
        hi_open=not hi_closed)]
