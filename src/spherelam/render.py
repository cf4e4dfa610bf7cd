"""Deterministic SVG rendering of lifted-plane pictures: the grid of a
type-I triangulation, the lattice punctures, and lifted curves with
spiral glyphs at their endpoints."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import AllowableCurve, SpiralDir
from .lattice import _egcd
from .shear import BASE_TRI, TypeITri, _closed_lift_start

Window = tuple[int, int, int, int]  # xmin, ymin, xmax, ymax

_SCALE = 40
_MARGIN = 20
_GLYPH_STEPS = 24
_FAMILY_STYLE = (
    'stroke="#b44" stroke-width="1"',
    'stroke="#47b" stroke-width="1"',
    'stroke="#494" stroke-width="1" stroke-dasharray="4,3"',
)


@dataclass(frozen=True)
class RenderSpec:
    curves: tuple[AllowableCurve, ...] = ()
    triangulation: TypeITri = BASE_TRI
    window: Window = (0, 2, 0, 2)  # (xmin, xmax, ymin, ymax)

    def __post_init__(self) -> None:
        xmin, xmax, ymin, ymax = self.window
        if xmin >= xmax or ymin >= ymax:
            raise ValueError("window must be nonempty")


def _clip_line(p0, d, window) -> tuple | None:
    """Clip the line p0 + t*d to a rectangle; exact parametric clipping."""
    xmin, xmax, ymin, ymax = (Fraction(w) for w in window)
    t_lo, t_hi = Fraction(-10**9), Fraction(10**9)
    for coord, lo, hi in ((0, xmin, xmax), (1, ymin, ymax)):
        rate = d[coord]
        start = p0[coord]
        if rate == 0:
            if not lo <= start <= hi:
                return None
            continue
        t1 = (lo - start) / rate
        t2 = (hi - start) / rate
        if t1 > t2:
            t1, t2 = t2, t1
        t_lo, t_hi = max(t_lo, t1), min(t_hi, t2)
    if t_lo >= t_hi:
        return None
    a = (p0[0] + t_lo * d[0], p0[1] + t_lo * d[1])
    b = (p0[0] + t_hi * d[0], p0[1] + t_hi * d[1])
    return a, b


def _line_offsets(s, window: Window) -> range:
    """The c of the lattice lines b*x - a*y = c of slope s (a, b) that can
    meet the window: every integer between the values at its corners."""
    xmin, xmax, ymin, ymax = window
    a, b = s.vector
    vals = [b * x - a * y for x in (xmin, xmax) for y in (ymin, ymax)]
    return range(min(vals), max(vals) + 1)


def element_count(spec: RenderSpec) -> int:
    """An upper bound on the lattice lines and punctures :func:`render`
    draws, computed without drawing them."""
    xmin, xmax, ymin, ymax = spec.window
    # range.stop - range.start, not len(), which overflows past sys.maxsize
    lines = sum(r.stop - r.start for r in (_line_offsets(s, spec.window)
                                           for s in spec.triangulation.triple))
    return lines + (xmax - xmin + 1) * (ymax - ymin + 1)


def grid_lines(tri: TypeITri, window: Window):
    """All lattice lines of the triple's three slopes meeting the window,
    grouped by slope family, as clipped segments."""
    families = []
    for s in tri.triple:
        a, b = s.vector
        segs = []
        for c in _line_offsets(s, window):
            # anchor point on the line
            if b != 0:
                g, u, v = _egcd(b, -a)
                p0 = (Fraction(u * c, g), Fraction(v * c, g))
            else:
                p0 = (Fraction(0), Fraction(-c, a))
            seg = _clip_line(p0, (a, b), window)
            if seg is not None:
                segs.append(seg)
        families.append(segs)
    return families


def curve_polyline(curve: AllowableCurve, window: Window):
    """The drawn portion of a curve's lift: a clipped full line for closed
    curves, the lattice segment for spiraling ones."""
    a, b = curve.slope.vector
    if curve.is_closed:
        return _clip_line(_closed_lift_start(a, b), (a, b), window)
    (p, _), _ = curve.ends  # type: ignore[misc]
    start = (Fraction(p.i), Fraction(p.j))
    return (start, (start[0] + a, start[1] + b))


def _spiral_glyph(center, direction: SpiralDir, to_svg):
    """A small spiral polyline marking a spiral endpoint."""
    import math

    cx, cy = float(center[0]), float(center[1])
    sign = 1.0 if direction is SpiralDir.CCW else -1.0
    pts = []
    for i in range(_GLYPH_STEPS + 1):
        theta = sign * 4.2 * i / _GLYPH_STEPS
        r = 0.26 * (1 - i / (_GLYPH_STEPS + 2))
        pts.append((cx + r * math.cos(theta), cy + r * math.sin(theta)))
    return " ".join("%.2f,%.2f" % to_svg(x, y) for x, y in pts)


def render(spec: RenderSpec) -> str:
    """Render a spec to a standalone SVG document (byte-deterministic)."""
    xmin, xmax, ymin, ymax = spec.window
    width = (xmax - xmin) * _SCALE + 2 * _MARGIN
    height = (ymax - ymin) * _SCALE + 2 * _MARGIN

    def to_svg(x, y):
        return (
            _MARGIN + (float(x) - xmin) * _SCALE,
            _MARGIN + (ymax - float(y)) * _SCALE,
        )

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for fam, segs in enumerate(grid_lines(spec.triangulation, spec.window)):
        out.append(f'<g class="fam{fam}" {_FAMILY_STYLE[fam]}>')
        for (a, b) in segs:
            x1, y1 = to_svg(*a)
            x2, y2 = to_svg(*b)
            out.append(
                '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>' % (x1, y1, x2, y2)
            )
        out.append("</g>")
    out.append('<g class="punctures" fill="#222">')
    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            cx, cy = to_svg(x, y)
            out.append('<circle cx="%.2f" cy="%.2f" r="3"/>' % (cx, cy))
    out.append("</g>")
    for i, curve in enumerate(spec.curves):
        seg = curve_polyline(curve, spec.window)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = seg
        p1, p2 = to_svg(x1, y1), to_svg(x2, y2)
        out.append(f'<g class="curve{i}" stroke="#909" stroke-width="2" fill="none">')
        out.append(
            '<polyline points="%.2f,%.2f %.2f,%.2f"/>' % (p1[0], p1[1], p2[0], p2[1])
        )
        if curve.ends is not None:
            for anchor, (_, d) in zip(((x1, y1), (x2, y2)), curve.ends):
                out.append(
                    '<polyline points="%s"/>' % _spiral_glyph(anchor, d, to_svg)
                )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
