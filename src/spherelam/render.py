"""Deterministic SVG rendering of lifted-plane pictures: the grid of a
type-I triangulation, the lattice punctures, and lifted curves with
spiral glyphs at their endpoints."""

from __future__ import annotations

from ._frozen import Frozen
from .curves import AllowableCurve, SpiralDir, TaggedTriangulation, _type_i_triple, \
    base_triangulation
from .lattice import _left_farey_neighbor
from .plane import _closed_lift, _nonzero_product

Window = tuple[int, int, int, int]  # xmin, xmax, ymin, ymax

_SCALE = 40
_MARGIN = 20
_GLYPH_STEPS = 24
# A spiraling curve's lattice segment is drawn whole when both its ends lie
# within this many lattice units of the window; otherwise it is cut where it
# leaves the window grown by this much, 4e7 pixels past the canvas, and its
# far ends get no glyph.  Uncut, the end of a 400-digit slope, or an end
# under a 400-digit window, lies beyond every float.
_REACH = 10**6
_FAMILY_STYLE = (
    'stroke="#b44" stroke-width="1"',
    'stroke="#47b" stroke-width="1"',
    'stroke="#494" stroke-width="1" stroke-dasharray="4,3"',
)


class RenderSpec(Frozen):
    """Lifted curves over the grid of a type-I triangulation, in a window."""

    __slots__ = _fields = ("curves", "triangulation", "window")
    curves: tuple[AllowableCurve, ...]
    triangulation: TaggedTriangulation
    window: Window  # (xmin, xmax, ymin, ymax)

    def __init__(self, curves: tuple[AllowableCurve, ...] = (),
                 triangulation: TaggedTriangulation = base_triangulation(),
                 window: Window = (0, 2, 0, 2)) -> None:
        xmin, xmax, ymin, ymax = window
        if xmin >= xmax or ymin >= ymax:
            raise ValueError("window must be nonempty")
        _type_i_triple(triangulation)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "triangulation", triangulation)
        object.__setattr__(self, "window", window)


def _clip_line(p0, q: int, d, window, segment: bool = False):
    """Clip the line p0/q + t*d (integer numerators p0 over q > 0, integer
    direction d) to the window with integer comparisons; with ``segment``,
    only its part for 0 <= t <= 1.  The endpoints come back as numerator
    pairs over the returned denominator, in the direction of d; None when
    the line misses the window or only touches it."""
    xmin, xmax, ymin, ymax = window
    # t is counted in units of 1/(q*m), in which every bound is an integer
    m = _nonzero_product(*d)
    t_lo = t_hi = None
    for start, rate, lo, hi in ((p0[0], d[0], xmin, xmax), (p0[1], d[1], ymin, ymax)):
        if rate == 0:
            if not lo * q <= start <= hi * q:
                return None
            continue
        t1 = (lo * q - start) * m // rate
        t2 = (hi * q - start) * m // rate
        if t1 > t2:
            t1, t2 = t2, t1
        t_lo = t1 if t_lo is None else max(t_lo, t1)
        t_hi = t2 if t_hi is None else min(t_hi, t2)
    if segment:
        t_lo, t_hi = max(t_lo, 0), min(t_hi, q * m)
    if t_lo >= t_hi:
        return None
    x, y = p0[0] * m, p0[1] * m
    return (x + t_lo * d[0], y + t_lo * d[1]), (x + t_hi * d[0], y + t_hi * d[1]), q * m


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
    offsets = (_line_offsets(s, spec.window) for s in _type_i_triple(spec.triangulation))
    lines = sum(r.stop - r.start for r in offsets)
    return lines + (xmax - xmin + 1) * (ymax - ymin + 1)


def grid_lines(tri: TaggedTriangulation, window: Window):
    """All lattice lines of the three slopes of a type-I triangulation
    meeting the window, grouped by slope in the order of the arcs through
    v00, as clipped segments (p1, p2, den): endpoint numerators over den."""
    families = []
    for s in _type_i_triple(tri):
        a, b = s.vector
        segs = []
        # (x, y) = the left Farey neighbour of s has b*x - a*y = 1, so
        # c*(x, y) is an integer point of the line b*x - a*y = c
        x, y = _left_farey_neighbor(s).vector
        for c in _line_offsets(s, window):
            seg = _clip_line((c * x, c * y), 1, (a, b), window)
            if seg is not None:
                segs.append(seg)
        families.append(segs)
    return families


def curve_polyline(curve: AllowableCurve, window: Window):
    """The drawn portion of a curve's lift as (p1, p2, den), endpoint
    numerators over den: a clipped full line for closed curves (None when
    it misses the window), the lattice segment for spiraling ones, cut at
    ``_REACH`` around the window when an end lies beyond it."""
    a, b = curve.slope.vector
    if curve.is_closed:
        return _clip_line(*_closed_lift(a, b, (a, b)), (a, b), window)
    ends = _spiral_ends(curve)
    xmin, xmax, ymin, ymax = window
    reach = (xmin - _REACH, xmax + _REACH, ymin - _REACH, ymax + _REACH)
    if all(reach[0] <= x <= reach[1] and reach[2] <= y <= reach[3] for x, y in ends):
        return (*ends, 1)
    return _clip_line(ends[0], 1, (a, b), reach, segment=True)


def _spiral_ends(curve: AllowableCurve):
    """The ends of a spiraling curve's lattice segment, in the order of
    ``curve.ends``: its first puncture, and that point plus the slope."""
    a, b = curve.slope.vector
    (p, _), _ = curve.ends  # type: ignore[misc]
    return (p.i, p.j), (p.i + a, p.j + b)


def _spiral_glyph(center, direction: SpiralDir, to_svg):
    """A small spiral polyline marking a spiral endpoint, the lattice point
    ``center``, drawn around its place on the canvas."""
    import math

    cx, cy = to_svg(*center)
    sign = 1.0 if direction is SpiralDir.CCW else -1.0
    pts = []
    for i in range(_GLYPH_STEPS + 1):
        theta = sign * 4.2 * i / _GLYPH_STEPS
        r = 0.26 * (1 - i / (_GLYPH_STEPS + 2)) * _SCALE
        pts.append((cx + r * math.cos(theta), cy - r * math.sin(theta)))
    return " ".join("%.2f,%.2f" % pt for pt in pts)


def render(spec: RenderSpec) -> str:
    """Render a spec to a standalone SVG document (byte-deterministic)."""
    xmin, xmax, ymin, ymax = spec.window
    width = (xmax - xmin) * _SCALE + 2 * _MARGIN
    height = (ymax - ymin) * _SCALE + 2 * _MARGIN

    def to_svg(x, y, den=1):
        # the point (x, y) / den, its offsets from the window exact before
        # the float: a window far from the origin keeps its precision
        return (
            _MARGIN + (x - xmin * den) / den * _SCALE,
            _MARGIN + (ymax * den - y) / den * _SCALE,
        )

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for fam, segs in enumerate(grid_lines(spec.triangulation, spec.window)):
        out.append(f'<g class="fam{fam}" {_FAMILY_STYLE[fam]}>')
        for (p1, p2, den) in segs:
            x1, y1 = to_svg(*p1, den)
            x2, y2 = to_svg(*p2, den)
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
        (x1, y1), (x2, y2), den = seg
        p1, p2 = to_svg(x1, y1, den), to_svg(x2, y2, den)
        out.append(f'<g class="curve{i}" stroke="#909" stroke-width="2" fill="none">')
        out.append(
            '<polyline points="%.2f,%.2f %.2f,%.2f"/>' % (p1[0], p1[1], p2[0], p2[1])
        )
        if curve.ends is not None:
            # a glyph at each end the segment reaches, none where it was cut
            for (x, y), end, (_, d) in zip(seg[:2], _spiral_ends(curve), curve.ends):
                if (x, y) == (end[0] * den, end[1] * den):
                    out.append(
                        '<polyline points="%s"/>' % _spiral_glyph(end, d, to_svg)
                    )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
