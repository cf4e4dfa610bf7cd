"""Command line front end.

Every command emits a single JSON document on stdout (bare arrays for
vector results, schema-tagged objects otherwise).  Exit codes: 0 success,
1 bad input (an error document with ``"kind": "domain"``), 2 usage error,
3 internal error, a bug (an error document with ``"kind": "internal"``).

Each call is a fresh interpreter, so a command imports the modules beyond
``curves`` and ``lattice`` inside the functions that use them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .curves import AllowableCurve, TaggedArc, Puncture, Tagging, \
    arcs_compatible, classify_pair, curves_compatible, json_field, json_object
from .errors import (
    DomainError,
    InternalError,
    MalformedInput,
    SphereLamError,
)
from .lattice import Slope

if TYPE_CHECKING:
    from .shear import Tangle, TypeITri
    from .triangulation import ExchangeMatrix, TaggedTriangulation

SCHEMA = "sphere-lam/1"

# Work caps.  The word and oracle paths walk every crossing of the curve, so
# their time grows linearly with the slope height; render draws one element
# per lattice line and puncture that meets the window.  At these caps a
# command takes under half a second: the oracle on the closed curve 1000/997
# about 0.1 s, the word on 50000/49999 about 0.3 s (2-core Xeon, Python 3.11).
SHEAR_MAX_HEIGHT = {"word": 50_000, "oracle": 1_000}
RENDER_MAX_ELEMENTS = 10_000
# cones and locate build every maximal cone up to their --max-height: about
# 1.7 s at the default 6, 5.4 s and 58 MB at this cap (same host; a whole
# `cones` command, JSON included, about 2.2 s and 6.6 s)
CONE_MAX_HEIGHT = 10


def _doc(**fields) -> str:
    return json.dumps({"schema": SCHEMA, **fields}, indent=None, sort_keys=False)


def _parse_curve(text: str) -> AllowableCurve:
    return AllowableCurve.from_json(json.loads(text))


def _parse_tri(text: str | None) -> TypeITri:
    """A type-I triangulation; the base one when no text is given."""
    from .shear import BASE_TRI, TypeITri

    return TypeITri.from_json(json.loads(text)) if text else BASE_TRI


def _parse_tagged_triangulation(text: str) -> TaggedTriangulation:
    from .triangulation import TaggedTriangulation

    return TaggedTriangulation.from_json(json.loads(text))


def _parse_object(text: str):
    """An arc or a curve, depending on the JSON fields."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise MalformedInput("an arc or a curve is a JSON object")
    ends = obj.get("ends")
    first = ends[0] if isinstance(ends, list) and ends else None
    if "closed" in obj or (isinstance(first, dict) and "spiral" in first):
        return AllowableCurve.from_json(obj)
    return TaggedArc.from_json(obj)


def _parse_matrix(text: str) -> ExchangeMatrix:
    B = json.loads(text)
    if not (isinstance(B, list) and len(B) == 6 and all(
        isinstance(row, list) and len(row) == 6
        and all(type(x) is int for x in row) for row in B
    )):
        raise MalformedInput("matrix must be a 6x6 array of integers")
    return tuple(tuple(row) for row in B)


def _parse_tags(items: list[str]):
    out = []
    for item in items:
        v, _, t = item.partition("=")
        out.append((Puncture.parse(v.strip()), Tagging(t.strip())))
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spherelam",
        description="Exact curves, triangulations and shear coordinates "
        "on the four-punctured sphere.",
    )
    p.add_argument("--plain", action="store_true",
                   help="line-oriented text output instead of JSON")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("shear", help="shear coordinates of a curve")
    s.add_argument("--curve", required=True, help="curve JSON")
    s.add_argument("--tri", help="type-I triangulation JSON (default: base)")
    s.add_argument("--method", choices=("formula", "word", "oracle"),
                   default="formula")

    s = sub.add_parser("compat", help="compatibility of two arcs or curves")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)

    s = sub.add_parser("triangulate", help="build a triangulation from type data")
    s.add_argument("--type", required=True, dest="tri_type",
                   choices=("I", "II", "III", "IV", "V", "VI"))
    s.add_argument("--p", help="first slope")
    s.add_argument("--q", help="second slope")
    s.add_argument("--r", help="third slope (types I, VI)")
    s.add_argument("--v", help="distinguished puncture, e.g. 00")
    s.add_argument("--v-prime", help="secondary puncture (types III, IV)")
    s.add_argument("--tag", action="append", default=[],
                   help="puncture tagging, e.g. 00=plain (repeatable)")

    s = sub.add_parser("classify", help="type data of a triangulation")
    s.add_argument("--tri", required=True, help="triangulation JSON (6 arcs)")

    s = sub.add_parser("flip", help="flip one arc of a triangulation")
    s.add_argument("--tri", required=True)
    s.add_argument("--k", type=int, required=True)

    s = sub.add_parser("badj", help="signed adjacency matrix (all-plain)")
    s.add_argument("--tri", required=True)

    s = sub.add_parser("mutate", help="matrix mutation")
    s.add_argument("--matrix", required=True, help="6x6 matrix JSON")
    s.add_argument("--k", type=int, required=True)

    s = sub.add_parser("cones", help="maximal cones at bounded height")
    s.add_argument("--max-height", type=int, default=6)

    s = sub.add_parser("locate", help="quasi-lamination of an integer vector")
    s.add_argument("--vector", required=True, help='JSON array, e.g. "[-3,2,1,-3,2,1]"')
    s.add_argument("--max-height", type=int, default=6)

    s = sub.add_parser("gvectors", help="g-vector list at bounded height")
    s.add_argument("--max-height", type=int, default=6)

    s = sub.add_parser("universal", help="universal coefficient list")
    s.add_argument("--form", choices=("thm12", "thm81"), default="thm81")
    s.add_argument("--max-height", type=int, default=6)

    s = sub.add_parser("tangle-check", help="null-tangle witness search")
    s.add_argument("--tangle", required=True,
                   help='JSON: [{"curve": {...}, "weight": n}, ...]')
    s.add_argument("--max-height", type=int, default=6)

    s = sub.add_parser("render", help="render lifted curves to SVG")
    s.add_argument("--curve", action="append", default=[])
    s.add_argument("--tri", help="type-I triangulation for the grid")
    s.add_argument("--window", default="0,2,0,2",
                   help="xmin,xmax,ymin,ymax")
    s.add_argument("--out", required=True, help="output SVG path")

    sub.add_parser("selftest", help="re-run the published fixtures")
    return p


def _cmd_shear(args) -> str:
    from . import shear

    curve = _parse_curve(args.curve)
    tri = _parse_tri(args.tri)
    cap = SHEAR_MAX_HEIGHT.get(args.method)
    if cap is not None and curve.height > cap:
        raise DomainError(f"the {args.method} method is capped at slope height "
                          f"{cap}; this curve has height {curve.height}")
    if args.method == "formula":
        vec = shear.shear_wrt(curve, tri)
    elif args.method == "word":
        if tri != shear.BASE_TRI:
            raise DomainError("the word method computes against the base triangulation")
        vec = shear.shear_via_word(curve)
    else:
        if tri != shear.BASE_TRI:
            raise DomainError("the oracle computes against the base triangulation")
        vec = shear.shear_oracle(curve)
    return json.dumps(list(vec))


def _cmd_compat(args) -> str:
    x, y = _parse_object(args.a), _parse_object(args.b)
    if isinstance(x, TaggedArc) != isinstance(y, TaggedArc):
        raise DomainError("compare two arcs or two curves, not a mix")
    if isinstance(x, TaggedArc):
        ok = arcs_compatible(x, y)
        klass = classify_pair(x, y).value
        return _doc(compatible=ok, **{"class": klass})
    return _doc(compatible=curves_compatible(x, y))


def _cmd_triangulate(args) -> str:
    from . import triangulation

    slopes = [Slope.parse(s) for s in (args.p, args.q, args.r) if s]
    spec = triangulation.TriType(
        args.tri_type,
        tuple(slopes),
        v=Puncture.parse(args.v) if args.v else None,
        v_prime=Puncture.parse(args.v_prime) if args.v_prime else None,
        taggings=_parse_tags(args.tag),
    )
    tri = triangulation.build_type(spec)
    return _doc(triangulation=tri.to_json(),
                type=triangulation.classify(tri).to_json())


def _cmd_classify(args) -> str:
    from . import triangulation

    tri = _parse_tagged_triangulation(args.tri)
    return _doc(type=triangulation.classify(tri).to_json())


def _cmd_flip(args) -> str:
    from . import triangulation

    tri = _parse_tagged_triangulation(args.tri)
    if not 0 <= args.k < 6:
        raise DomainError("arc index must be in 0..5")
    flipped = triangulation.flip(tri, args.k)
    return _doc(triangulation=flipped.to_json(),
                type=triangulation.classify(flipped).to_json())


def _cmd_badj(args) -> str:
    from . import triangulation

    tri = _parse_tagged_triangulation(args.tri)
    return json.dumps([list(r) for r in triangulation.signed_adjacency(tri)])


def _cmd_mutate(args) -> str:
    B = _parse_matrix(args.matrix)
    if any(B[i][j] != -B[j][i] for i in range(6) for j in range(6)):
        raise DomainError("matrix must be skew-symmetric")
    if not 0 <= args.k < 6:
        raise DomainError("mutation index must be in 0..5")
    from . import triangulation

    return json.dumps([list(r) for r in triangulation.mutate(B, args.k)])


def _check_cone_height(max_height: int) -> None:
    if max_height > CONE_MAX_HEIGHT:
        raise DomainError(f"cones and locate are capped at max height {CONE_MAX_HEIGHT}; "
                          f"got {max_height}")
    if max_height < 1:
        raise DomainError(f"cones and locate need max height at least 1; got {max_height}")


def _cmd_cones(args) -> str:
    _check_cone_height(args.max_height)
    from . import fan

    cones = fan.cone_index(args.max_height).cones
    return _doc(
        max_height=args.max_height,
        count=len(cones),
        cones=[
            {"kind": c.kind, "generators": [list(g) for g in c.generators]}
            for c in cones
        ],
    )


def _cmd_locate(args) -> str:
    v = json.loads(args.vector)
    _check_cone_height(args.max_height)
    from . import fan

    lam = fan.locate(v, args.max_height)  # checks v before building the index
    return _doc(lamination=[
        {"curve": c.to_json(), "weight": w} for c, w in lam.weights
    ])


def _cmd_gvectors(args) -> str:
    from . import fan

    return _doc(max_height=args.max_height,
                vectors=[list(v) for v in fan.g_vectors(args.max_height)])


def _cmd_universal(args) -> str:
    from . import fan

    vecs = fan.universal_coeffs(args.max_height, args.form)
    return _doc(max_height=args.max_height, vectors=[list(v) for v in vecs])


def _parse_tangle(text: str) -> Tangle:
    from .shear import Tangle

    entries = json.loads(text)
    if not isinstance(entries, list):
        raise MalformedInput("a tangle is a JSON array of {curve, weight} objects")
    weights = []
    for e in entries:
        e = json_object(e, "curve", "weight")
        curve = AllowableCurve.from_json(json_field(e, "curve", dict))
        if type(e.get("weight")) is not int:
            raise MalformedInput("a tangle weight is an integer")
        weights.append((curve, e["weight"]))
    return Tangle(tuple(weights))


def _cmd_tangle_check(args) -> str:
    from . import shear

    tangle = _parse_tangle(args.tangle)
    witness = shear.find_witness(tangle, args.max_height)
    if witness is None:
        return _doc(witness=None)
    return _doc(witness=witness.to_json(),
                shear=list(shear.tangle_shear(tangle, witness)))


def _cmd_render(args) -> str:
    from . import render

    curves = tuple(_parse_curve(c) for c in args.curve)
    tri = _parse_tri(args.tri)
    window = tuple(int(x) for x in args.window.split(","))
    if len(window) != 4:
        raise DomainError("window must be xmin,xmax,ymin,ymax")
    spec = render.RenderSpec(curves=curves, triangulation=tri, window=window)
    elements = render.element_count(spec)
    if elements > RENDER_MAX_ELEMENTS:
        raise DomainError(f"render draws at most {RENDER_MAX_ELEMENTS} lattice "
                          f"lines and punctures; this window needs {elements}")
    doc = render.render(spec)
    with open(args.out, "w") as fh:
        fh.write(doc)
    return _doc(written=args.out, bytes=len(doc))


def _cmd_selftest(_args) -> str:
    from .selftest import run_selftest

    checks = run_selftest()
    failed = [c for c in checks if not c[1]]
    doc = _doc(
        passed=len(checks) - len(failed),
        failed=len(failed),
        failures=[c[0] for c in failed],
    )
    if failed:
        raise DomainError(doc)
    return doc


_DISPATCH = {
    "shear": _cmd_shear,
    "compat": _cmd_compat,
    "triangulate": _cmd_triangulate,
    "classify": _cmd_classify,
    "flip": _cmd_flip,
    "badj": _cmd_badj,
    "mutate": _cmd_mutate,
    "cones": _cmd_cones,
    "locate": _cmd_locate,
    "gvectors": _cmd_gvectors,
    "universal": _cmd_universal,
    "tangle-check": _cmd_tangle_check,
    "render": _cmd_render,
    "selftest": _cmd_selftest,
}


def _plain_text(out: str) -> str:
    """Flatten a JSON document to line-oriented text."""
    doc = json.loads(out)
    if isinstance(doc, list):
        return " ".join(json.dumps(x) for x in doc)
    lines = []
    for key, value in doc.items():
        if key == "schema":
            continue
        if isinstance(value, list):
            lines.append(f"{key}:")
            lines.extend("  " + json.dumps(item) for item in value)
        else:
            lines.append(f"{key}: {json.dumps(value)}")
    return "\n".join(lines)


def _error_doc(message: str, kind: str) -> str:
    return json.dumps({"schema": SCHEMA, "error": message, "kind": kind})


def run(argv: list[str]) -> tuple[int, str]:
    """Dispatch a command line; returns (exit code, stdout text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return (int(e.code or 0) and 2, "")
    try:
        out = _DISPATCH[args.command](args)
    except InternalError as e:
        return 3, _error_doc(f"{type(e).__name__}: {e}", "internal")
    except (ValueError, KeyError, json.JSONDecodeError, SphereLamError) as e:
        return 1, _error_doc(f"{type(e).__name__}: {e}", "domain")
    if args.plain:
        return 0, _plain_text(out)
    return 0, out


def main(argv: list[str] | None = None) -> int:
    code, out = run(sys.argv[1:] if argv is None else argv)
    if out:
        print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
