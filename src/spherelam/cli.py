"""Command line front end.

Every command emits a single JSON document on stdout (bare arrays for
vector results, schema-tagged objects otherwise).  ``cones`` writes its
document one cone at a time.  Exit codes: 0 success,
1 bad input (an error document with ``"kind": "domain"``), 2 usage error,
3 internal error, a bug (an error document with ``"kind": "internal"``),
74 (:data:`OUTPUT_ERROR`) stdout could not be written, its error named in
one line on stderr, and 141 the reader closed the output early.

Each call is a fresh interpreter that compiles every module it imports, so
a call pays only for what its command uses.  At import this module loads
``curves``, ``lattice``, ``errors`` and ``_frozen`` of the package and no
more; each command imports the further modules it runs inside its handler,
and :func:`run` builds the parser of the named command alone.  No module
of the package imports :mod:`dataclasses` or :mod:`fractions`.

A call ends through :func:`entry`: it flushes stdout and stderr and leaves
by ``os._exit``, without the interpreter's teardown, which would cost a light
command about 8 ms after its output is written.  In one process,
:func:`main` and :func:`run` return the exit code and never exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Iterator, NoReturn

from .curves import AllowableCurve, TaggedArc, TaggedTriangulation, Puncture, Tagging, \
    arcs_compatible, base_triangulation, classify_pair, curves_compatible, json_field, \
    json_object
from .errors import (
    DomainError,
    InternalError,
    MalformedInput,
    SphereLamError,
)
from .lattice import Slope, _parse_int

if TYPE_CHECKING:
    from .shear import Tangle
    from .triangulation import ExchangeMatrix

SCHEMA = "sphere-lam/1"

# Work caps.  The word and oracle paths walk every crossing of the curve, so
# their time grows linearly with the slope height; render draws one element
# per lattice line and puncture that meets the window.  At these caps a
# command takes under half a second: the oracle on the closed curve 1000/997
# about 0.08 s for the whole call (0.008 s of it in the oracle), the word on
# 50000/49999 about 0.16 s (0.08 s of it in the word; 2-core Xeon, Python
# 3.11.7).
SHEAR_MAX_HEIGHT = {"word": 50_000, "oracle": 1_000}
RENDER_MAX_ELEMENTS = 10_000
# cones and locate build every maximal cone up to their --max-height.  A
# whole `locate` command takes about 0.65-0.95 s at the default 6 and
# 1.5-1.7 s with a 45 MB peak at this cap; a whole `cones` command, JSON
# included, about 0.5 s and 1.5-2.0 s with 32 MB (same host)
CONE_MAX_HEIGHT = 10


def _doc(**fields) -> str:
    return json.dumps({"schema": SCHEMA, **fields}, indent=None, sort_keys=False)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedInput(f"repeated JSON key {key!r}")
        obj[key] = value
    return obj


def _loads(text: str):
    """JSON input; json.loads alone would keep the last value of a repeated
    key without a word, so a repeated key is MalformedInput, and it raises
    RecursionError on deep nesting, which is MalformedInput too.  Integers
    are capped in digits (:func:`lattice._parse_int`)."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys, parse_int=_parse_int)
    except RecursionError:
        raise MalformedInput("JSON input nested too deeply") from None


def _parse_curve(text: str) -> AllowableCurve:
    return AllowableCurve.from_json(_loads(text))


def _parse_object(text: str):
    """An arc or a curve, depending on the JSON fields."""
    obj = _loads(text)
    if not isinstance(obj, dict):
        raise MalformedInput("an arc or a curve is a JSON object")
    ends = obj.get("ends")
    first = ends[0] if isinstance(ends, list) and ends else None
    if "closed" in obj or (isinstance(first, dict) and "spiral" in first):
        return AllowableCurve.from_json(obj)
    return TaggedArc.from_json(obj)


def _parse_matrix(text: str) -> ExchangeMatrix:
    B = _loads(text)
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


def _cmd_shear(args) -> str:
    curve = _parse_curve(args.curve)
    base = base_triangulation()
    tri = TaggedTriangulation.from_json(_loads(args.tri)) if args.tri else base
    cap = SHEAR_MAX_HEIGHT.get(args.method)
    if cap is not None and curve.height > cap:
        raise DomainError(f"the {args.method} method is capped at slope height "
                          f"{cap}; this curve has height {curve.height}")
    from . import shear

    # the word and the oracle give the coordinates at the base arcs in the
    # base order: the same arcs in another order would print them permuted
    if args.method == "formula":
        vec = shear.shear_wrt(curve, tri)
    elif tri._keys != base._keys:
        what = "word method" if args.method == "word" else "oracle"
        raise DomainError(f"the {what} computes against the base triangulation")
    else:
        vec = (shear.shear_via_word if args.method == "word" else shear.shear_oracle)(curve)
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

    tri = TaggedTriangulation.from_json(_loads(args.tri))
    return _doc(type=triangulation.classify(tri).to_json())


def _cmd_flip(args) -> str:
    from . import triangulation

    tri = TaggedTriangulation.from_json(_loads(args.tri))
    flipped = triangulation.flip(tri, args.k)
    return _doc(triangulation=flipped.to_json(),
                type=triangulation.classify(flipped).to_json())


def _cmd_badj(args) -> str:
    from . import triangulation

    tri = TaggedTriangulation.from_json(_loads(args.tri))
    return json.dumps([list(r) for r in triangulation.signed_adjacency(tri)])


def _cmd_mutate(args) -> str:
    B = _parse_matrix(args.matrix)
    if any(B[i][j] != -B[j][i] for i in range(6) for j in range(6)):
        raise DomainError("matrix must be skew-symmetric")
    from . import triangulation

    return json.dumps([list(r) for r in triangulation.mutate(B, args.k)])


def _check_cone_height(max_height: int) -> None:
    if max_height > CONE_MAX_HEIGHT:
        raise DomainError(f"cones and locate are capped at max height {CONE_MAX_HEIGHT}; "
                          f"got {max_height}")
    if max_height < 1:
        raise DomainError(f"cones and locate need max height at least 1; got {max_height}")


def _cmd_cones(args) -> Iterator[str]:
    """The document in pieces joining to its one ``json.dumps``: the head, a
    piece per cone, the brackets; the cones (no sign-key listing) come first."""
    _check_cone_height(args.max_height)
    from . import fan

    cones = fan._maximal_cones(args.max_height)
    head = _doc(max_height=args.max_height, count=len(cones), cones=[])

    def pieces() -> Iterator[str]:
        yield head[:-2]  # up to the open bracket of the list
        for n, c in enumerate(cones):
            yield (", " if n else "") + json.dumps(
                {"kind": c.kind, "generators": [list(g) for g in c.generators]})
        yield "]}"

    return pieces()


def _cmd_locate(args) -> str:
    v = _loads(args.vector)
    _check_cone_height(args.max_height)
    from . import fan

    lam = fan.locate(v, args.max_height)  # checks v before building the index
    return _doc(lamination=[
        {"curve": c.to_json(), "weight": w} for c, w in lam.weights
    ])


def _cmd_gvectors(args) -> str:
    from . import coefficients

    return _doc(max_height=args.max_height,
                vectors=[list(v) for v in coefficients.g_vectors(args.max_height)])


def _cmd_universal(args) -> str:
    from . import coefficients

    vecs = coefficients.universal_coeffs(args.max_height, args.form)
    return _doc(max_height=args.max_height, vectors=[list(v) for v in vecs])


def _parse_tangle(text: str) -> Tangle:
    entries = _loads(text)
    if not isinstance(entries, list):
        raise MalformedInput("a tangle is a JSON array of {curve, weight} objects")
    weights = []
    for e in entries:
        e = json_object(e, "curve", "weight")
        curve = AllowableCurve.from_json(json_field(e, "curve", dict))
        if type(e.get("weight")) is not int:
            raise MalformedInput("a tangle weight is an integer")
        weights.append((curve, e["weight"]))
    from .shear import Tangle

    return Tangle(tuple(weights))


def _cmd_tangle_check(args) -> str:
    tangle = _parse_tangle(args.tangle)
    from . import shear

    witness = shear.find_witness(tangle, args.max_height)
    if witness is None:
        return _doc(witness=None)
    return _doc(witness=witness.to_json(),
                shear=list(shear.tangle_shear(tangle, witness)))


def _cmd_render(args) -> str:
    from . import render

    curves = tuple(_parse_curve(c) for c in args.curve)
    tri = TaggedTriangulation.from_json(_loads(args.tri)) if args.tri else base_triangulation()
    window = tuple(_parse_int(x) for x in args.window.split(","))
    if len(window) != 4:
        raise DomainError("window must be xmin,xmax,ymin,ymax")
    spec = render.RenderSpec(curves=curves, triangulation=tri, window=window)
    elements = render.element_count(spec)
    if elements > RENDER_MAX_ELEMENTS:
        raise DomainError(f"render draws at most {RENDER_MAX_ELEMENTS} lattice "
                          f"lines and punctures; this window needs {elements}")
    doc = render.render(spec)
    try:
        with open(args.out, "w") as fh:
            fh.write(doc)
    except OSError as e:
        raise DomainError(f"cannot write {args.out}: {e.strerror or e}") from None
    return _doc(written=args.out, bytes=len(doc))


def _cmd_selftest(_args) -> str:
    from .selftest import run_selftest

    checks = run_selftest()
    failures = [name for name, ok in checks if not ok]
    if failures:
        # a published fixture that fails is a bug, not bad input
        raise InternalError(f"{len(failures)} of {len(checks)} selftest checks failed: "
                            + "; ".join(failures))
    return _doc(passed=len(checks), failed=0, failures=[])


def integer(text: str) -> int:
    """The type of the integer options: ``int`` within the digit cap of the
    JSON integers (:func:`lattice._parse_int`), so that a longer value is
    one error document on every Python, not a usage error that echoes it
    (3.11 and up) or a range error (3.10)."""
    return _parse_int(text)


_HEIGHT = ("--max-height", dict(type=integer, default=6))

# name -> (handler, help, options), each option (flag, add_argument keywords)
_COMMANDS = {
    "shear": (_cmd_shear, "shear coordinates of a curve", (
        ("--curve", dict(required=True, help="curve JSON")),
        ("--tri", dict(help='type-I triangulation: six arcs or {"triple","tags"}')),
        ("--method", dict(choices=("formula", "word", "oracle"), default="formula")),
    )),
    "compat": (_cmd_compat, "compatibility of two arcs or curves", (
        ("--a", dict(required=True)),
        ("--b", dict(required=True)),
    )),
    "triangulate": (_cmd_triangulate, "build a triangulation from type data", (
        ("--type", dict(required=True, dest="tri_type",
                        choices=("I", "II", "III", "IV", "V", "VI"))),
        ("--p", dict(help="first slope")),
        ("--q", dict(help="second slope")),
        ("--r", dict(help="third slope (types I, VI)")),
        ("--v", dict(help="distinguished puncture, e.g. 00")),
        ("--v-prime", dict(help="secondary puncture (types III, IV)")),
        ("--tag", dict(action="append", default=[],
                       help="puncture tagging, e.g. 00=plain (repeatable)")),
    )),
    "classify": (_cmd_classify, "type data of a triangulation", (
        ("--tri", dict(required=True, help='six arcs, or {"triple","tags"} for type I')),
    )),
    "flip": (_cmd_flip, "flip one arc of a triangulation", (
        ("--tri", dict(required=True)),
        ("--k", dict(type=integer, required=True)),
    )),
    "badj": (_cmd_badj, "signed adjacency matrix (any type, any tags)", (
        ("--tri", dict(required=True)),
    )),
    "mutate": (_cmd_mutate, "matrix mutation", (
        ("--matrix", dict(required=True, help="6x6 matrix JSON")),
        ("--k", dict(type=integer, required=True)),
    )),
    "cones": (_cmd_cones, "maximal cones at bounded height", (_HEIGHT,)),
    "locate": (_cmd_locate, "quasi-lamination of an integer vector", (
        ("--vector", dict(required=True, help='JSON array, e.g. "[-3,2,1,-3,2,1]"')),
        _HEIGHT,
    )),
    "gvectors": (_cmd_gvectors, "g-vector list at bounded height", (_HEIGHT,)),
    "universal": (_cmd_universal, "universal coefficient list", (
        ("--form", dict(choices=("thm12", "thm81"), default="thm81")),
        _HEIGHT,
    )),
    "tangle-check": (_cmd_tangle_check, "null-tangle witness search", (
        ("--tangle", dict(required=True,
                          help='JSON: [{"curve": {...}, "weight": n}, ...]')),
        _HEIGHT,
    )),
    "render": (_cmd_render, "render lifted curves to SVG", (
        ("--curve", dict(action="append", default=[])),
        ("--tri", dict(help="type-I triangulation for the grid, as for shear")),
        ("--window", dict(default="0,2,0,2", help="xmin,xmax,ymin,ymax")),
        ("--out", dict(required=True, help="output SVG path")),
    )),
    "selftest": (_cmd_selftest, "re-run the published fixtures", ()),
}


class _Help(Exception):
    """The help text a ``--help`` asked for, raised to :func:`run`."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose ``--help`` raises its text as :class:`_Help`
    instead of printing it, so that :func:`run` returns the text as the
    command's document and :func:`main` writes it, meeting a failing
    stdout as for any document: argparse's own write drops an OSError."""

    def print_help(self, file=None) -> NoReturn:
        raise _Help(self.format_help()[:-1])  # main ends the document with "\n"


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, given a ``command``, of that one
    alone under the same usage line."""
    p = _Parser(
        prog="spherelam",
        description="Exact curves, triangulations and shear coordinates "
        "on the four-punctured sphere.",
    )
    p.add_argument("--plain", action="store_true",
                   help="line-oriented text output instead of JSON")
    if command is None:
        sub = p.add_subparsers(dest="command", required=True)
    else:
        # the usage line lists every command; a metavar would also rename
        # the argument in the "invalid choice" and "required" errors, which
        # a named command never meets
        sub = p.add_subparsers(dest="command", required=True,
                               metavar="{" + ",".join(_COMMANDS) + "}")
    for name, (_, help_, options) in _COMMANDS.items():
        if command in (None, name):
            s = sub.add_parser(name, help=help_)
            for flag, keywords in options:
                s.add_argument(flag, **keywords)
    return p


def _named_command(argv: list[str]) -> str | None:
    """The command that argv names when only ``--plain`` comes before it;
    None for anything else (help, no command, an unknown one)."""
    for token in argv:
        if token != "--plain":
            return token if token in _COMMANDS else None
    return None


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


def run(argv: list[str], pieces: bool = False) -> tuple[int, str | Iterator[str]]:
    """Dispatch a command line; returns (exit code, stdout text), the help
    text included, or with ``pieces`` the iterator of a document a command
    writes in pieces (``cones``), each error raised before the first piece."""
    # a command builds its own parser only: building all of them would cost
    # more than a light command's mathematics
    parser = build_parser(_named_command(argv))
    try:
        args = parser.parse_args(argv)
    except _Help as e:
        return 0, str(e)
    except SystemExit as e:   # a usage error, written to stderr
        return (int(e.code or 0) and 2, "")
    except DomainError as e:   # an integer option past the digit cap
        return 1, _error_doc(f"{type(e).__name__}: {e}", "domain")
    try:
        out = _COMMANDS[args.command][0](args)
    except (InternalError, KeyError) as e:
        return 3, _error_doc(f"{type(e).__name__}: {e}", "internal")
    except (ValueError, json.JSONDecodeError, SphereLamError) as e:
        return 1, _error_doc(f"{type(e).__name__}: {e}", "domain")
    if not isinstance(out, str) and (args.plain or not pieces):
        out = "".join(out)
    return 0, _plain_text(out) if args.plain else out


# The exit code of an output that could not be written (EX_IOERR of sysexits.h).
OUTPUT_ERROR = 74


def _output_failed(error: OSError) -> int:
    """Writing stdout failed: what is left of the output, and any later
    flush, go to devnull instead of a traceback.  A reader that closed the
    pipe ends the command silently with 141 (128 + SIGPIPE, as for a tool
    the closed pipe stops); any other error, such as a full device, is
    named in one line on stderr and ends it with :data:`OUTPUT_ERROR`."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    if isinstance(error, BrokenPipeError):
        return 141
    try:
        sys.stderr.write(f"spherelam: output not written: {type(error).__name__}: {error}\n")
        sys.stderr.flush()
    except OSError:
        pass  # stderr fails too: the exit code alone tells
    return OUTPUT_ERROR


def main(argv: list[str] | None = None) -> int:
    """Run a command line and write its output; returns the exit code and
    never exits, so a library caller or a test may call it."""
    code, out = run(sys.argv[1:] if argv is None else argv, pieces=True)
    if out:
        try:
            sys.stdout.writelines([out] if isinstance(out, str) else out)
            sys.stdout.write("\n")
            sys.stdout.flush()
        except OSError as error:
            return _output_failed(error)
    return code


def entry() -> NoReturn:
    """The process entry of ``python -m spherelam.cli`` and the ``spherelam``
    script: :func:`main`, a flush of stdout and stderr, and ``os._exit``.

    The interpreter's teardown (the last garbage collection, the clearing of
    every module, the freeing of every object) costs a light command about
    8 ms and a cold ``locate`` about 40 ms, after its output is written, for
    a process about to end.  Nothing is lost by skipping it: no module of the
    package registers an ``atexit`` handler or starts a thread, ``render``
    closes its SVG before it returns, and the flush below writes what the
    standard streams still hold, under the output-error rule of :func:`main`.
    An exception that escapes :func:`main` (a bug) is raised here, before
    ``os._exit``, so it ends the process with its traceback as usual."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as error:
        code = _output_failed(error)
    os._exit(code)


if __name__ == "__main__":
    entry()
