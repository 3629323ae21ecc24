"""Static SVG pictures of planar sets and their gaps.

The picture is an 800 x 800 viewport with a small margin; coordinates are
scaled to fit the drawn content and the y axis points up.  Rendered floats
are capped at twelve significant digits, which is far below the pixel at
this size, so equal inputs always produce identical documents.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Sequence

from .planar import AxisGap, RectGap, _require_planar
from .sets import FiniteSet

SIZE = 800
MARGIN = 48
POINT_RADIUS = 4.0

_POINT_STYLE = 'fill="#1d4ed8"'
_RECT_STYLE = 'fill="none" stroke="#dc2626" stroke-width="2"'
_STRIP_FILL = {"x": "#f59e0b", "y": "#10b981"}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def render_planar_svg(E: FiniteSet,
                      rects: Sequence[RectGap] = (),
                      strips: Sequence[AxisGap] = ()) -> str:
    """An SVG document showing the points of a planar set, optionally with
    rectangular gaps outlined and axis gaps as translucent strips."""
    _require_planar(E)
    xs = [p[0] for p in E.elements]
    ys = [p[1] for p in E.elements]
    for g in rects:
        xs.extend((g.a, g.b))
        ys.extend((g.c, g.d))
    inner = SIZE - 2 * MARGIN

    def axis(values: List[Fraction], origin: int, sign: int) -> Callable[[Fraction], float]:
        lo = min(values)
        span = max(values) - lo or Fraction(1)
        return lambda v: origin + sign * float((v - lo) / span) * inner

    X, Y = axis(xs, MARGIN, 1), axis(ys, SIZE - MARGIN, -1)
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>',
    ]

    def rect(x0: float, y0: float, x1: float, y1: float, style: str) -> None:
        """The box from the top-left corner (x0, y0) to (x1, y1)."""
        parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" '
                     f'width="{_fmt(x1 - x0)}" height="{_fmt(y1 - y0)}" {style}/>')

    for strip in strips:
        style = f'fill="{_STRIP_FILL.get(strip.axis, "#6b7280")}" opacity="0.15"'
        if strip.axis == "x":
            rect(X(strip.lo), MARGIN, X(strip.hi), SIZE - MARGIN, style)
        else:
            rect(MARGIN, Y(strip.hi), SIZE - MARGIN, Y(strip.lo), style)
    for g in rects:
        rect(X(g.a), Y(g.d), X(g.b), Y(g.c), _RECT_STYLE)
    for p in E.elements:
        parts.append(
            f'<circle cx="{_fmt(X(p[0]))}" cy="{_fmt(Y(p[1]))}" '
            f'r="{POINT_RADIUS}" {_POINT_STYLE}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
