"""Deterministic SVG rendering of lattice polygons, fans, and
Newton-Okounkov bodies: lattice-dot grid, filled polygon, vertex labels
with exact rational coordinates, rays as arrows.  Byte-identical output
for identical input."""

from __future__ import annotations

from fractions import Fraction

from .fans import Fan2
from .geometry import RatPolygon

SCALE = 40
MARGIN = 60
DOT = 2.2
# the grid has a dot per lattice point of the bounding box; past this many
# they would bury the figure, and their number grows with its area
MAX_GRID_DOTS = 10_000


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _label(p) -> str:
    def one(t):
        f = Fraction(t)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    return f"({one(p[0])},{one(p[1])})"


class _Canvas:
    def __init__(self, xmin, xmax, ymin, ymax):
        self.xmin, self.ymin = xmin, ymin
        self.width = (xmax - xmin) * SCALE + 2 * MARGIN
        self.height = (ymax - ymin) * SCALE + 2 * MARGIN
        self.ymax = ymax
        self.parts = []

    def to_px(self, p):
        x = MARGIN + (float(p[0]) - self.xmin) * SCALE
        y = MARGIN + (self.ymax - float(p[1])) * SCALE
        return x, y

    def add(self, s: str):
        self.parts.append(s)

    def render(self) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">\n'
        )
        return head + "\n".join(self.parts) + "\n</svg>\n"


def _grid(cv: _Canvas):
    xs = range(int(cv.xmin), int(cv.xmin + (cv.width - 2 * MARGIN) / SCALE) + 1)
    ys = range(int(cv.ymax - (cv.height - 2 * MARGIN) / SCALE), int(cv.ymax) + 1)
    if len(xs) * len(ys) > MAX_GRID_DOTS:
        return
    for x in xs:
        for y in ys:
            px, py = cv.to_px((x, y))
            cv.add(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{DOT}" fill="#c8c8c8"/>'
            )


def _bounds(points, pad=1):
    import math

    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    return (
        math.floor(min(xs)) - pad,
        math.ceil(max(xs)) + pad,
        math.floor(min(ys)) - pad,
        math.ceil(max(ys)) + pad,
    )


def polygon_svg(p: RatPolygon, title: str = "") -> str:
    if p.is_empty:
        raise ValueError("cannot draw the empty polygon")
    cv = _Canvas(*_bounds(p.vertices))
    _grid(cv)
    pts = " ".join(
        f"{_fmt(x)},{_fmt(y)}" for x, y in (cv.to_px(q) for q in p.vertices)
    )
    if p.dim == 2:
        cv.add(f'<polygon points="{pts}" fill="#ffd54d" fill-opacity="0.6" stroke="#202020" stroke-width="1.5"/>')
    else:
        cv.add(f'<polyline points="{pts}" fill="none" stroke="#202020" stroke-width="2"/>')
    for q in p.vertices:
        px, py = cv.to_px(q)
        cv.add(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="#b3001b"/>')
        cv.add(
            f'<text x="{_fmt(px + 5)}" y="{_fmt(py - 5)}" font-size="11" '
            f'font-family="monospace">{_label(q)}</text>'
        )
    if title:
        cv.add(f'<text x="8" y="16" font-size="13" font-family="monospace">{title}</text>')
    return cv.render()


def fan_svg(fan: Fan2, title: str = "") -> str:
    pts = list(fan.rays) + [(0, 0)]
    cv = _Canvas(*_bounds(pts))
    _grid(cv)
    ox, oy = cv.to_px((0, 0))
    for r in fan.rays:
        px, py = cv.to_px(r)
        cv.add(
            f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(px)}" y2="{_fmt(py)}" '
            'stroke="#1a4f8b" stroke-width="2"/>'
        )
        dx, dy = px - ox, py - oy
        n = (dx * dx + dy * dy) ** 0.5
        ux, uy = dx / n, dy / n
        for sgn in (1, -1):
            wx = px - 8 * ux + sgn * 4 * -uy
            wy = py - 8 * uy + sgn * 4 * ux
            cv.add(
                f'<line x1="{_fmt(px)}" y1="{_fmt(py)}" x2="{_fmt(wx)}" y2="{_fmt(wy)}" '
                'stroke="#1a4f8b" stroke-width="2"/>'
            )
        cv.add(
            f'<text x="{_fmt(px + 5)}" y="{_fmt(py - 5)}" font-size="11" '
            f'font-family="monospace">{_label(r)}</text>'
        )
    if title:
        cv.add(f'<text x="8" y="16" font-size="13" font-family="monospace">{title}</text>')
    return cv.render()


def nobody_svg(body, flip_axes: bool = False, title: str = "") -> str:
    """Newton-Okounkov body in (q, t)-axes; flip_axes swaps the two."""
    verts = body.polygon.vertices
    if flip_axes:
        verts = tuple((t, q) for q, t in verts)
    poly = RatPolygon.from_vertices(verts)
    return polygon_svg(poly, title=title)
