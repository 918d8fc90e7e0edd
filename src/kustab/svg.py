"""Deterministic SVG rendering of wall atlases in the (alpha, beta) half plane.

Every coordinate is derived from exact rationals (or exact square roots)
and truncated to six decimals with integer arithmetic, so the output is
byte-identical across runs and platforms.  Decimals appear only here, after
all decisions have been made exactly.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import ceil, floor, isqrt

from .exact import DomainError, _qfloor, rat
from .walls import WallCircle

SCALE = 100          # pixels per unit
MARGIN = 40
_TICK_BUDGET = 4096  # integer beta ticks a viewport may hold


def _trunc6(q: Fraction) -> str:
    """Fixed 6-decimal string of a rational, truncated toward zero."""
    n = abs(q.numerator) * 10 ** 6 // q.denominator
    try:
        s = f"{n // 10 ** 6}.{n % 10 ** 6:06d}"
    except ValueError:      # an integer past the str conversion limit
        raise DomainError("svg coordinate needs an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    return "-" + s if q < 0 and n else s


def _sqrt_trunc(q: Fraction) -> Fraction:
    """floor(sqrt(q) * 10^6) / 10^6, exactly: 10^6 sqrt(n d) / d for q = n / d."""
    nd = q.numerator * q.denominator
    return Fraction(_qfloor(0, 10 ** 6, q.denominator, nd, isqrt(nd), False), 10 ** 6)


def render_walls_svg(circles: list[WallCircle], viewport: dict) -> bytes:
    """Render walls as an SVG document.

    viewport maps beta_min, beta_max, alpha_max to rationals.  Each wall, a
    circle as wall_scan returns it, becomes an upper semicircular path with
    its witnesses in a title element.  DomainError is raised when the
    viewport holds more than _TICK_BUDGET integer beta ticks and when a
    coordinate needs an integer past the str conversion limit.
    """
    beta_min = rat(viewport["beta_min"])
    beta_max = rat(viewport["beta_max"])
    alpha_max = rat(viewport["alpha_max"])
    if beta_max <= beta_min or alpha_max <= 0:
        raise ValueError("empty viewport")
    first = ceil(beta_min)
    count = floor(beta_max) + 1 - first
    if count > _TICK_BUDGET:
        raise DomainError(f"viewport of {count} beta ticks exceeds the "
                          f"budget of {_TICK_BUDGET}")

    def px(beta: Fraction) -> str:
        return _trunc6((beta - beta_min) * SCALE + MARGIN)

    def py(alpha: Fraction) -> str:
        return _trunc6((alpha_max - alpha) * SCALE + MARGIN)

    width = _trunc6((beta_max - beta_min) * SCALE + 2 * MARGIN)
    height = _trunc6(alpha_max * SCALE + 2 * MARGIN)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        f'<line class="axis" x1="{px(beta_min)}" y1="{py(Fraction(0))}" '
        f'x2="{px(beta_max)}" y2="{py(Fraction(0))}" stroke="black"/>',
    ]
    if beta_min <= 0 <= beta_max:
        lines.append(
            f'<line class="axis" x1="{px(Fraction(0))}" y1="{py(Fraction(0))}" '
            f'x2="{px(Fraction(0))}" y2="{py(alpha_max)}" stroke="black"/>')
    tick_y = _trunc6(alpha_max * SCALE + MARGIN + 16)
    lines += [f'<text class="tick" x="{px(Fraction(b))}" y="{tick_y}" '
              f'font-size="12" text-anchor="middle">{b}</text>' for b in range(first, first + count)]
    for c in circles:
        title = "; ".join(w.text() for w in c.witnesses)
        r = _sqrt_trunc(c.radius_sq)
        lines.append(
            f'<path class="wall" d="M {px(c.center_beta - r)} '
            f'{py(Fraction(0))} A {_trunc6(r * SCALE)} '
            f'{_trunc6(r * SCALE)} 0 0 1 {px(c.center_beta + r)} '
            f'{py(Fraction(0))}" fill="none" stroke="crimson">'
            f'<title>{title}</title></path>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
