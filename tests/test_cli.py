import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import spherelam
from spherelam import cli
from spherelam.cli import run
from spherelam.errors import DomainError, InternalNonUnique
from spherelam.curves import V00, V01, V11, PUNCTURES, AllowableCurve, SpiralDir, TaggedArc, \
    TaggedTriangulation, Tagging, base_triangulation, tag_choices, type_i_triangulation
from spherelam.render import RenderSpec, curve_polyline, grid_lines, render
from spherelam.lattice import INF, MINUS_ONE, ZERO, Slope
from spherelam.shear import shear_wrt
from spherelam.triangulation import _enumerate_typed, classify, enumerate_triangulations, flip, \
    signed_adjacency
from test_lattice import BAD_SLOPE_TEXTS
from test_triangulation import INVALID_SPECS


def ok(argv):
    code, out = run(argv)
    assert code == 0, out
    return json.loads(out) if out else None


def fails(argv, code=1):
    got, out = run(argv)
    assert got == code, (got, out)
    return out


CURVE_PRIME = '{"slope":"2/3","ends":[{"v":"00","spiral":"cw"},{"v":"10","spiral":"cw"}]}'


class TestShearCommand:
    def test_paper_fixture(self):
        assert ok(["shear", "--curve", CURVE_PRIME]) == [-2, 1, 0, -1, 1, 0]

    def test_methods_agree(self):
        closed = '{"closed":"3/2"}'
        for method in ("formula", "word", "oracle"):
            assert ok(["shear", "--curve", closed, "--method", method]) == \
                [-3, 2, 1, -3, 2, 1]

    def test_with_triangulation(self):
        tri = json.dumps({
            "triple": ["0/1", "inf", "-1/1"],
            "tags": {"00": "notched", "01": "notched", "10": "notched", "11": "notched"},
        })
        curve = '{"slope":"3/2","ends":[{"v":"00","spiral":"ccw"},{"v":"01","spiral":"ccw"}]}'
        assert ok(["shear", "--curve", curve, "--tri", tri]) == [-2, 0, 1, -2, 1, 1]

    def test_both_forms_of_tri(self):
        # the compact type-I object and its six-arc array are one triangulation,
        # and the coordinates follow its arcs
        compact = {"triple": ["2/1", "1/1", "inf"], "tags": {"01": "notched"}}
        tri = TaggedTriangulation.from_json(compact)
        assert tri.arcs == type_i_triangulation(
            (Slope(1, 2), Slope(1, 1), INF),
            tuple((p, Tagging.NOTCHED if p == V01 else Tagging.PLAIN) for p in PUNCTURES)).arcs
        for c in (CURVE_PRIME, '{"closed":"3/2"}'):
            want = list(shear_wrt(AllowableCurve.from_json(json.loads(c)), tri))
            for form in (compact, tri.to_json()):
                assert ok(["shear", "--curve", c, "--tri", json.dumps(form)]) == want

    def test_tri_not_of_type_one(self):
        # a type-II arc array: one domain error document for every method
        type_ii = json.dumps(flip(base_triangulation(), 0).to_json())
        for method in ("formula", "word", "oracle"):
            doc = json.loads(fails(["shear", "--curve", '{"closed":"3/2"}', "--tri", type_ii,
                                    "--method", method]))
            assert doc["kind"] == "domain", doc
        doc = json.loads(fails(["shear", "--curve", CURVE_PRIME, "--tri", type_ii]))
        assert doc["error"] == ("DomainError: the triangulation is not type I: its puncture "
                                "degrees are (2, 2, 4, 4), not (3, 3, 3, 3)")

    def test_word_and_oracle_need_the_base_arcs_in_order(self):
        # equal arc sets are not enough: the base slopes in another order
        # would print the coordinates in that order
        closed = '{"closed":"3/2"}'
        base = base_triangulation().to_json()
        in_order = [{"triple": ["0", "inf", "-1"]}, base]
        reordered = [{"triple": ["inf", "0", "-1"]}, base[::-1], base[3:] + base[:3]]
        for method in ("word", "oracle"):
            for tri in in_order:
                assert ok(["shear", "--curve", closed, "--method", method,
                           "--tri", json.dumps(tri)]) == [-3, 2, 1, -3, 2, 1]
            for tri in reordered:
                doc = json.loads(fails(["shear", "--curve", closed, "--method", method,
                                        "--tri", json.dumps(tri)]))
                assert doc["kind"] == "domain"
                assert doc["error"].endswith("computes against the base triangulation"), doc

    def test_not_a_farey_triple_names_its_slopes(self):
        doc = json.loads(fails(["shear", "--curve", CURVE_PRIME,
                                "--tri", '{"triple":["0","inf","inf"]}']))
        assert doc["error"] == "NotFareyTriple: (0/1, inf, inf) is not a Farey-1 triple"

    def test_bad_curve_is_domain_error(self):
        fails(["shear", "--curve", '{"slope":"3/2","ends":[{"v":"00","spiral":"cw"},{"v":"10","spiral":"cw"}]}'])

    def test_usage_error(self):
        assert run(["shear"])[0] == 2
        assert run(["nonsense"])[0] == 2


class TestCompat:
    def test_curves(self):
        a = '{"closed":"3/2"}'
        b = '{"closed":"1/1"}'
        doc = ok(["compat", "--a", a, "--b", b])
        assert doc["compatible"] is False

    def test_arcs(self):
        a = '{"slope":"0/1","ends":[{"v":"00","tag":"plain"},{"v":"10","tag":"plain"}]}'
        b = '{"slope":"inf","ends":[{"v":"00","tag":"plain"},{"v":"01","tag":"plain"}]}'
        doc = ok(["compat", "--a", a, "--b", b])
        assert doc["compatible"] is True and doc["class"] == "farey1"


class TestTriangulationCommands:
    def test_triangulate_classify_roundtrip(self):
        doc = ok([
            "triangulate", "--type", "II", "--p", "1/1", "--q=-1/1", "--v", "00",
            "--tag", "00=plain", "--tag", "01=plain",
            "--tag", "10=plain", "--tag", "11=plain",
        ])
        assert doc["type"]["type"] == "II"
        back = ok(["classify", "--tri", json.dumps(doc["triangulation"])])
        assert back["type"] == doc["type"]

    def test_classify_compact_type_one(self):
        # the compact form is type I with the triple's slopes, sorted, and its tags
        compact = {"triple": ["inf", "2/1", "1/1"], "tags": {"10": "notched"}}
        assert ok(["classify", "--tri", json.dumps(compact)])["type"] == {
            "type": "I", "slopes": ["1/1", "2/1", "inf"],
            "tags": {"00": "plain", "01": "plain", "10": "notched", "11": "plain"}}

    def test_flip(self):
        t0 = json.dumps(base_triangulation().to_json())
        doc = ok(["flip", "--tri", t0, "--k", "0"])
        assert doc["type"]["type"] == "II"

    def test_badj_and_mutate(self):
        t0 = json.dumps(base_triangulation().to_json())
        B = ok(["badj", "--tri", t0])
        assert B[0] == [0, 1, -1, 0, 1, -1]
        M = ok(["mutate", "--matrix", json.dumps(B), "--k", "2"])
        back = ok(["mutate", "--matrix", json.dumps(M), "--k", "2"])
        assert back == B

    def test_mutate_validates(self):
        fails(["mutate", "--matrix", "[[0,1],[-1,0]]", "--k", "0"])

    @pytest.mark.parametrize("k", ["-1", "6"])
    def test_index_out_of_range(self, k):
        # the library's DomainError reaches the user as the command's own error
        t0 = json.dumps(base_triangulation().to_json())
        B = json.dumps(_MATRIX)
        for argv, what in ((["flip", "--tri", t0, "--k", k], "arc"),
                           (["mutate", "--matrix", B, "--k", k], "mutation")):
            assert json.loads(fails(argv)) == {
                "schema": cli.SCHEMA, "kind": "domain",
                "error": f"DomainError: {what} index must be in 0..5"}


class TestFanCommands:
    def test_locate(self):
        doc = ok(["locate", "--vector", "[-3,2,1,-3,2,1]", "--max-height", "3"])
        assert doc["lamination"] == [{"curve": {"closed": "3/2"}, "weight": 1}]

    def test_locate_rejects_floats(self):
        fails(["locate", "--vector", "[0.5,0,0,0,0,0]"])

    def test_locate_rejects_malformed_vectors(self):
        for vector in ("[-1,0,0]", "[-1,0,0,0,0,0,5]", "[true,0,0,0,0,0]", "[0,0,0]",
                       "5", '"abcdef"', "{}", "null"):
            doc = json.loads(fails(["locate", "--vector", vector, "--max-height", "1"]))
            assert doc["kind"] == "domain" and "six integers" in doc["error"], vector

    def test_universal_forms_identical(self):
        a = ok(["universal", "--form", "thm12", "--max-height", "1"])
        b = ok(["universal", "--form", "thm81", "--max-height", "1"])
        assert a["vectors"] == b["vectors"]

    def test_gvectors(self):
        doc = ok(["gvectors", "--max-height", "1"])
        assert [0, 1, 0, 0, 1, -1] in doc["vectors"]

    def test_cones(self):
        doc = ok(["cones", "--max-height", "1"])
        assert doc["count"] == len(doc["cones"])
        kinds = {c["kind"] for c in doc["cones"]}
        assert "VII" in kinds and "I" in kinds
        # the former no-op --json flag is a usage error now
        assert run(["cones", "--max-height", "1", "--json"])[0] == 2

    def test_cones_are_written_one_cone_at_a_time(self):
        # main writes the pieces that run returns with pieces=True: the
        # head, one per cone and the brackets, joining to run's document;
        # a bad height is refused before any piece
        code, text = run(["cones", "--max-height", "2"])
        code2, pieces = run(["cones", "--max-height", "2"], pieces=True)
        pieces = list(pieces)
        assert code == code2 == 0 and "".join(pieces) == text
        assert len(pieces) == json.loads(text)["count"] + 2 == 914
        assert [json.loads(p.removeprefix(", ")) for p in pieces[1:-1]] == \
            json.loads(text)["cones"]
        code, doc = run(["cones", "--max-height", "0"], pieces=True)
        assert code == 1 and json.loads(doc)["kind"] == "domain"
        assert run(["--plain", "cones", "--max-height", "1"], pieces=True)[1] == \
            run(["--plain", "cones", "--max-height", "1"])[1]

    def test_tangle_check(self):
        tangle = json.dumps([{"curve": {"closed": "1/1"}, "weight": 1}])
        doc = ok(["tangle-check", "--tangle", tangle])
        assert doc["witness"] is not None
        assert any(doc["shear"])
        empty = ok(["tangle-check", "--tangle", "[]"])
        assert empty["witness"] is None

    def test_tangle_check_witness_round_trip(self):
        # the witness is a six-arc array; shear --tri reads it back and
        # reproduces the document's shear.  The two closed curves cancel on
        # the base triangulation, so the witness is another one.
        entries = [{"curve": {"closed": "inf"}, "weight": 1},
                   {"curve": {"closed": "-1/2"}, "weight": 1},
                   {"curve": json.loads(CURVE_PRIME), "weight": 0}]
        doc = ok(["tangle-check", "--tangle", json.dumps(entries)])
        assert len(doc["witness"]) == 6
        assert TaggedTriangulation.from_json(doc["witness"]) != base_triangulation()
        total = [0] * 6
        for e in entries:
            v = ok(["shear", "--curve", json.dumps(e["curve"]),
                    "--tri", json.dumps(doc["witness"])])
            total = [t + e["weight"] * x for t, x in zip(total, v)]
        assert total == doc["shear"] and any(total)


class TestSelftest:
    def test_selftest_passes(self):
        doc = ok(["selftest"])
        assert doc["failed"] == 0 and doc["passed"] > 30

    def test_failed_check_is_a_bug(self, monkeypatch):
        # a published fixture that fails is an internal error, not bad input
        import spherelam.selftest

        monkeypatch.setattr(spherelam.selftest, "run_selftest", lambda: [
            ("fixture a", True), ("fixture b", False), ("fixture c", False)])
        doc = json.loads(fails(["selftest"], code=3))
        assert doc == {"schema": cli.SCHEMA, "kind": "internal",
                       "error": "InternalError: 2 of 3 selftest checks failed: "
                                "fixture b; fixture c"}


class TestPlainOutput:
    def test_vector(self):
        code, out = run(["--plain", "shear", "--curve", '{"closed":"3/2"}'])
        assert code == 0 and out == "-3 2 1 -3 2 1"

    def test_document(self):
        code, out = run(["--plain", "locate", "--vector", "[-3,2,1,-3,2,1]",
                         "--max-height", "3"])
        assert code == 0 and out.startswith("lamination:")


class TestClosedPipe:
    def test_reader_closing_early_gets_no_traceback(self):
        # 141 kB of cones, far more than a pipe buffers: the write is still
        # running when the reader goes
        proc = subprocess.Popen([sys.executable, "-m", "spherelam.cli", "cones",
                                 "--max-height", "2"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": SRC})
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert head == b'{"schema":'
        assert err == b""


def _entry(argv, stdout=subprocess.PIPE, code=None, **env):
    """A child process of the command line's exit entry: ``python -m
    spherelam.cli argv``, or the ``-c`` program ``code`` with argv as its
    arguments.  Its stdout is buffered, as a pipe's is by default, so only
    the entry's flush writes what a command leaves in the buffer; help is
    wrapped at 80 columns, as in :class:`TestExitEntry`."""
    head = ["-c", code] if code else ["-m", "spherelam.cli"]
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80", "PYTHONUNBUFFERED": None,
           **env}
    return subprocess.run([sys.executable, *head, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120,
                          env={k: v for k, v in env.items() if v is not None})


class TestExitEntry:
    """``python -m spherelam.cli`` and the ``spherelam`` script end through
    ``cli.entry``: main, one flush of stdout and stderr, and ``os._exit``.
    Every byte a command writes still reaches its reader, with its code."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_large_document_through_a_pipe(self):
        code, out = run(["cones", "--max-height", "3"])
        proc = _entry(["cones", "--max-height", "3"])
        assert (proc.returncode, proc.stderr) == (code, b"") == (0, b"")
        assert len(out) > 1 << 18  # far more than a pipe buffers (64 kB)
        assert proc.stdout == (out + "\n").encode()

    @pytest.mark.parametrize("argv", [["--help"], ["shear", "--help"]])
    def test_help(self, argv):
        parser = cli.build_parser()
        if argv[0] == "shear":
            parser = parser._subparsers._group_actions[0].choices["shear"]
        proc = _entry(argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode() == parser.format_help()

    def test_usage_error(self, capsys):
        assert run(["shear"]) == (2, "")
        err = capsys.readouterr().err
        proc = _entry(["shear"])
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode() == err
        assert "the following arguments are required: --curve" in err

    def test_reject(self):
        argv = ["shear", "--curve", "[1,2]"]
        code, out = run(argv)
        proc = _entry(argv)
        assert (proc.returncode, proc.stderr) == (code, b"") == (1, b"")
        assert proc.stdout == (out + "\n").encode()
        assert json.loads(proc.stdout)["kind"] == "domain"

    def test_failed_selftest_is_internal(self):
        code = ("import spherelam.selftest\n"
                "spherelam.selftest.run_selftest = lambda: [('fixture a', True), "
                "('fixture b', False)]\n"
                "from spherelam import cli\n"
                "cli.entry()\n")
        proc = _entry(["selftest"], code=code)
        assert (proc.returncode, proc.stderr) == (3, b"")
        assert json.loads(proc.stdout) == {
            "schema": cli.SCHEMA, "kind": "internal",
            "error": "InternalError: 1 of 2 selftest checks failed: fixture b"}

    def test_escaping_exception_keeps_its_traceback(self):
        # a bug escaping main never reaches os._exit: the interpreter ends
        # the process with the traceback and exit code 1
        code = ("from spherelam import cli\n"
                "def main():\n"
                "    raise RuntimeError('a bug')\n"
                "cli.main = main\n"
                "cli.entry()\n")
        proc = _entry([], code=code)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"Traceback")
        assert proc.stderr.endswith(b"RuntimeError: a bug\n")

    def test_render_file_is_complete(self, tmp_path):
        out = tmp_path / "lift.svg"
        proc = _entry(["render", "--curve", '{"closed":"3/2"}', "--window", "0,2,0,3",
                       "--out", str(out)])
        svg = render(RenderSpec((AllowableCurve(Slope.parse("3/2")),), base_triangulation(),
                                (0, 2, 0, 3)))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout) == {"schema": cli.SCHEMA, "written": str(out),
                                           "bytes": len(svg)}
        assert out.read_text() == svg

    @pytest.mark.parametrize("unbuffered, code", [("1", 141), (None, 141)])
    def test_help_into_a_closed_pipe(self, unbuffered, code):
        # the help text is the command's document, written by main: a
        # closed pipe ends it silently with 141, buffered or not
        r, w = os.pipe()
        os.close(r)
        try:
            proc = _entry(["--help"], stdout=w, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (code, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["shear", "--curve", '{"closed":"3/2"}'], ["--help"]],
                             ids=["shear", "help"])
    def test_output_error(self, argv, unbuffered):
        # a stdout that fails otherwise than by a closed pipe (a full
        # device): one stderr line naming the error class and exit 74, no
        # traceback; the help text too is a document that main writes
        with open("/dev/full", "wb") as full:
            proc = _entry(argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
        assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr
        assert proc.returncode == cli.OUTPUT_ERROR == 74
        assert proc.stderr.startswith(b"spherelam: output not written: OSError: ")
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")

    def test_main_returns_its_code(self, capsys):
        # in-process, main and run return the exit code and never exit
        assert cli.main(["shear", "--curve", '{"closed":"3/2"}']) == 0
        assert capsys.readouterr().out == "[-3, 2, 1, -3, 2, 1]\n"
        assert cli.main(["shear", "--curve", "[1,2]"]) == 1
        assert json.loads(capsys.readouterr().out)["kind"] == "domain"
        assert cli.main(["shear"]) == 2
        assert cli.main(["--help"]) == 0
        assert "selftest" in capsys.readouterr().out

    def test_one_exit_home(self):
        # os._exit is called once, in cli.entry; no module registers an
        # atexit handler or starts a thread, whose work the skipped
        # teardown would lose
        import ast
        import pathlib

        paths = sorted(pathlib.Path(spherelam.__file__).parent.glob("*.py"))
        assert len(paths) >= 12
        homes, exits = [], 0
        for path in paths:
            tree = ast.parse(path.read_text())
            found = [node for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "_exit"]
            homes += [(path.name, func.name) for func in tree.body
                      if isinstance(func, ast.FunctionDef)
                      and any(node in found for node in ast.walk(func))]
            exits += len(found)
            assert "atexit" not in _imported_modules(path), path.name
            assert not {"register", "Thread", "start_new_thread"} & _called_names(path), \
                path.name
        assert homes == [("cli.py", "entry")] and exits == 1

    def test_script_is_the_entry(self):
        # the installed script ends the way python -m spherelam.cli does
        import pathlib

        text = (pathlib.Path(SRC).parent / "pyproject.toml").read_text()
        scripts = text.split("[project.scripts]\n")[1].split("\n\n")[0]
        assert scripts.splitlines() == ['spherelam = "spherelam.cli:entry"']


class TestRender:
    def test_structure(self, tmp_path):
        out = tmp_path / "grid.svg"
        doc = ok(["render", "--window", "0,2,0,2", "--out", str(out)])
        svg = out.read_text()
        assert svg.count('class="fam') == 3
        assert svg.count("<circle") == 9

    def test_deterministic(self, tmp_path):
        args = ["render", "--curve", '{"closed":"3/2"}', "--window", "0,2,0,3"]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        ok(args + ["--out", str(a)])
        ok(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_closed_curve_grid_line_count(self):
        # distinct grid lines met by the drawn lift of the closed slope-3/2
        # curve in the window [0,2]x[0,3]: the clipped lift runs from
        # (1/6, 0) to (2, 11/4), meeting x=1,2, y=0,1,2 and x+y=1,2,3,4
        window = (0, 2, 0, 3)
        curve = AllowableCurve(Slope(2, 3))
        seg = curve_polyline(curve, window)
        assert seg is not None
        p1, p2, den = seg
        (x1, y1), (x2, y2) = [(Fraction(x, den), Fraction(y, den)) for x, y in (p1, p2)]
        assert (x1, y1) == (Fraction(1, 6), 0)
        assert (x2, y2) == (2, Fraction(11, 4))
        crossed = 0
        for k in range(0, 3):  # x = k
            lo, hi = sorted((x1, x2))
            if lo <= k <= hi:
                crossed += 1
        for k in range(0, 4):  # y = k
            lo, hi = sorted((y1, y2))
            if lo <= k <= hi:
                crossed += 1
        for k in range(0, 6):  # x + y = k
            lo, hi = sorted((x1 + y1, x2 + y2))
            if lo <= k <= hi:
                crossed += 1
        assert crossed == 9

    def test_spec_validates_window(self):
        with pytest.raises(ValueError):
            RenderSpec(window=(2, 0, 0, 2))

    def test_grid_lines_cover_window(self):
        fams = grid_lines(base_triangulation(), (0, 2, 0, 2))
        assert len(fams) == 3
        assert all(len(f) >= 3 for f in fams)

    @staticmethod
    def fraction_clip(p0, d, window):
        """Parametric clipping of p0 + t*d in Fractions, as a reference."""
        xmin, xmax, ymin, ymax = window
        t_lo = t_hi = None
        for start, rate, lo, hi in ((p0[0], d[0], xmin, xmax), (p0[1], d[1], ymin, ymax)):
            if rate == 0:
                if not lo <= start <= hi:
                    return None
                continue
            t1, t2 = sorted(((lo - start) / rate, (hi - start) / rate))
            t_lo = t1 if t_lo is None else max(t_lo, t1)
            t_hi = t2 if t_hi is None else min(t_hi, t2)
        if t_lo >= t_hi:
            return None
        return tuple((p0[0] + t * d[0], p0[1] + t * d[1]) for t in (t_lo, t_hi))

    def test_grid_lines_match_fraction_clipping(self):
        from spherelam.render import _line_offsets

        triples = ((ZERO, INF, MINUS_ONE), (Slope(2, 1), Slope(3, 2), Slope(1, 1)),
                   (Slope(1, -2), Slope(2, -3), Slope(1, -1)))
        windows = ((0, 2, 0, 2), (-3, 2, -4, 1), (-7, -2, -5, -1), (5, 9, -9, -2),
                   (10**12, 10**12 + 2, -3, 0))
        for triple in triples:
            tri = type_i_triangulation(triple)
            for w in windows:
                for s, segs in zip(triple, grid_lines(tri, w)):
                    a, b = s.vector
                    # any point of the line b*x - a*y = c will do
                    anchors = (((Fraction(c, b), Fraction(0)) if b else (Fraction(0), Fraction(-c, a)))
                               for c in _line_offsets(s, w))
                    want = [seg for seg in (self.fraction_clip(p0, (a, b), w) for p0 in anchors)
                            if seg is not None]
                    got = [tuple((Fraction(x, den), Fraction(y, den)) for x, y in (p1, p2))
                           for p1, p2, den in segs]
                    assert got == want, (tri, w, s)

    def test_far_windows_keep_their_lines(self):
        # anchors more than 10^9 parameter units from the window, which a
        # clipping window of t in [-10^9, 10^9] would lose
        fams = grid_lines(base_triangulation(), (10**12, 10**12 + 2, 0, 2))
        assert [len(f) for f in fams] == [3, 3, 3]

    @staticmethod
    def spiral(slope, spirals=("cw", "cw")):
        return json.dumps({"slope": slope, "ends": [{"v": "00", "spiral": spirals[0]},
                                                    {"v": "11", "spiral": spirals[1]}]})

    @staticmethod
    def polylines(svg):
        return re.findall(r'<polyline points="([^"]*)"/>', svg)

    def test_far_spiral_end_is_cut(self, tmp_path):
        # the lattice segment of a 400-digit slope ends about 10^400 above
        # the window: it is cut 10^6 units past the window, and only its
        # near end has a glyph
        n = 10**400
        out = tmp_path / "far.svg"
        ok(["render", "--curve", self.spiral(f"{n + 1}/1"), "--out", str(out)])
        segment, *glyphs = self.polylines(out.read_text())
        assert segment == f"20.00,100.00 20.00,{100 - 40 * (10**6 + 2)}.00"
        assert len(glyphs) == 1 and glyphs[0].startswith("30.40,100.00 ")

    def test_spirals_under_a_far_window(self, tmp_path):
        # a window of 400-digit entries: a small spiral lies far below it
        # and is not drawn; the near end of a 400-digit slope is drawn
        # where the window's own puncture is, with its glyph
        n = 10**400
        out = tmp_path / "far.svg"
        ok(["render", "--curve", self.spiral("1/1"), "--window", f"{n},{n + 2},{-n - 2},{-n}",
            "--out", str(out)])
        assert self.polylines(out.read_text()) == []
        ok(["render", "--curve", self.spiral(f"{n + 1}/1", ("cw", "ccw")),
            "--window", f"0,2,{n},{n + 2}", "--out", str(out)])
        svg = out.read_text()
        assert '<circle cx="60.00" cy="60.00" r="3"/>' in svg
        segment, glyph = self.polylines(svg)
        assert segment == f"60.00,{60 + 40 * (10**6 + 1)}.00 60.00,60.00"
        assert glyph.startswith("70.40,60.00 69.85,58.26 ")

    def test_spiral_cut_only_past_the_reach(self):
        # an end 10^6 units past the window is drawn whole; two more, and
        # the segment ends where it leaves the window grown by 10^6
        ends = ((V00, SpiralDir.CW), (V11, SpiralDir.CW))
        whole = AllowableCurve(Slope(1, 10**6 + 1), ends)
        assert curve_polyline(whole, (0, 2, 0, 2)) == ((0, 0), (1, 10**6 + 1), 1)
        p1, p2, den = curve_polyline(AllowableCurve(Slope(1, 10**6 + 3), ends), (0, 2, 0, 2))
        assert p1 == (0, 0)
        assert (Fraction(p2[0], den), Fraction(p2[1], den)) == (
            Fraction(10**6 + 2, 10**6 + 3), 10**6 + 2)

    def test_nontrivial_triple_grid(self):
        tri = type_i_triangulation((Slope(2, 1), Slope(3, 2), Slope(1, 1)))
        fams = grid_lines(tri, (0, 3, 0, 3))
        assert len(fams) == 3 and all(fams)
        doc = render(RenderSpec(triangulation=tri, window=(0, 3, 0, 3)))
        assert doc == render(RenderSpec(triangulation=tri, window=(0, 3, 0, 3)))


class TestErrorDocuments:
    """Bad input exits 1 with one error document of kind "domain"; a bug
    exits 3 with kind "internal"."""

    def domain_error(self, argv):
        doc = json.loads(fails(argv))
        assert doc["schema"] == "sphere-lam/1" and doc["kind"] == "domain"

    def test_curve_list(self):
        self.domain_error(["shear", "--curve", "[1,2]"])

    def test_closed_int(self):
        self.domain_error(["shear", "--curve", '{"closed":3}'])

    @pytest.mark.parametrize("text", BAD_SLOPE_TEXTS)
    def test_slope_outside_the_grammar(self, text):
        for curve in ({"closed": text}, {"slope": text, "ends": [{"v": "00", "spiral": "cw"},
                                                                 {"v": "11", "spiral": "cw"}]}):
            doc = json.loads(fails(["shear", "--curve", json.dumps(curve)]))
            assert doc["kind"] == "domain", doc
            assert doc["error"].startswith('MalformedInput: a slope is "b/a"'), doc

    def test_matrix_int(self):
        self.domain_error(["mutate", "--matrix", "5", "--k", "1"])

    def test_ends_empty(self):
        self.domain_error(["compat", "--a", '{"slope":"1/1","ends":[]}',
                           "--b", '{"closed":"1/1"}'])

    def test_tangle_shapes(self):
        for tangle in ("[5]", "{}", '[{"curve":{"closed":"1/1"},"weight":1.5}]',
                       '[{"curve":{"closed":"1/1"},"weight":[1]}]'):
            self.domain_error(["tangle-check", "--tangle", tangle])

    def test_curve_with_one_end(self):
        self.domain_error(["shear", "--curve",
                           '{"slope":"1/1","ends":[{"v":"00","spiral":"cw"}]}'])

    TRIPLE = ["--p", "0", "--q", "inf", "--r=-1"]
    PAIR = ["--p", "1/1", "--q=-1/1", "--v", "00"]
    PLAIN4 = [arg for v in ("00", "01", "10", "11") for arg in ("--tag", f"{v}=plain")]

    @pytest.mark.parametrize("argv", [
        pytest.param(["I", *TRIPLE, *PLAIN4, "--tag", "00=notched"], id="tagged-twice"),
        pytest.param(["I", *TRIPLE, "--v", "00", *PLAIN4], id="I-v"),
        pytest.param(["II", *PAIR, "--v-prime", "01", *PLAIN4], id="II-v-prime"),
        pytest.param(["V", *PAIR, "--v-prime", "01", "--tag", "00=plain", "--tag", "11=plain"],
                     id="V-v-prime"),
        pytest.param(["VI", *TRIPLE, "--v", "00", "--v-prime", "01", "--tag", "00=plain"],
                     id="VI-v-prime"),
    ])
    def test_triangulate_conflicting_parameters(self, argv):
        self.domain_error(["triangulate", "--type", *argv])

    @pytest.mark.parametrize("argv", [
        pytest.param(["--tri", '{"triple":["0","inf","-1"],"tags":{"0":"notched"}}'],
                     id="tag-key-not-a-puncture"),
        pytest.param(["--tri", '{"triple":["0","inf","-1"],"tag":{"00":"notched"}}'],
                     id="unknown-tri-field"),
        pytest.param(["--tri", '{"triple":["0","inf"]}'], id="two-slope-triple"),
        pytest.param(["--curve", '{"closed":"3/2","slope":"1/1"}'], id="closed-and-slope"),
        pytest.param(["--curve", '{"closed":"3/2","ends":[{"v":"00","spiral":"cw"},'
                                 '{"v":"11","spiral":"cw"}]}'], id="closed-and-ends"),
    ])
    def test_json_fields_that_would_be_ignored(self, argv):
        if "--curve" not in argv:
            argv = ["--curve", CURVE_PRIME, *argv]
        self.domain_error(["shear", *argv])

    ARC = '{"slope":"1/1","ends":[{"v":"00","tag":"plain"},{"v":"11","tag":"%s"%s}]%s}'

    @pytest.mark.parametrize("argv", [
        pytest.param(["compat", "--a", ARC % ("plain", ',"spiral":"cw"', ',"weight":3'),
                      "--b", ARC % ("notched", "", "")], id="arc-and-end-fields"),
        pytest.param(["compat", "--a", ARC % ("plain", ',"spiral":"cw"', ""),
                      "--b", ARC % ("notched", "", "")], id="arc-end-field"),
        pytest.param(["compat", "--a", ARC % ("plain", "", ',"weight":3'),
                      "--b", ARC % ("notched", "", "")], id="arc-field"),
        pytest.param(["shear", "--curve", CURVE_PRIME[:-1] + ',"weight":3}'], id="curve-field"),
        pytest.param(["shear", "--curve", CURVE_PRIME.replace('"cw"}', '"cw","tag":"plain"}', 1)],
                     id="curve-end-field"),
        pytest.param(["shear", "--curve", '{"closed":"3/2","weight":1}'], id="closed-field"),
        pytest.param(["tangle-check", "--tangle",
                      '[{"curve":{"closed":"1/1"},"weight":1,"w":2}]'], id="tangle-entry-field"),
    ])
    def test_unknown_json_fields(self, argv):
        doc = json.loads(fails(argv))
        assert doc["kind"] == "domain"
        assert doc["error"].startswith("MalformedInput: unknown field"), doc

    TRI_REPEATED = '{"triple":["0","inf","-1"],"tags":{"00":"plain","00":"notched"}}'
    ROW = "[0,0,0,0,0,0]"

    @pytest.mark.parametrize("argv", [
        pytest.param(["shear", "--curve", '{"closed":"1/1","closed":"3/2"}'], id="curve"),
        pytest.param(["shear", "--curve", CURVE_PRIME, "--tri", TRI_REPEATED], id="tri"),
        pytest.param(["classify", "--tri", json.dumps(base_triangulation().to_json())
                      .replace('{"slope": ', '{"slope": "inf", "slope": ', 1)],
                     id="tagged-triangulation"),
        pytest.param(["compat", "--a", '{"closed":"1/1"}', "--b",
                      '{"slope":"1/1","ends":[{"v":"00","tag":"plain","v":"01"},'
                      '{"v":"11","tag":"plain"}]}'], id="object"),
        pytest.param(["mutate", "--matrix", "[" + ",".join([ROW] * 5) + ',{"r":1,"r":2}]',
                      "--k", "0"], id="matrix"),
        pytest.param(["tangle-check", "--tangle",
                      '[{"curve":{"closed":"1/1"},"weight":1,"weight":2}]'], id="tangle"),
        pytest.param(["locate", "--vector", '{"v":[1,0,0,0,0,0],"v":[0,1,0,0,0,0]}'],
                     id="vector"),
    ])
    def test_repeated_json_keys(self, argv):
        # json.loads would keep the last value and compute on it
        doc = json.loads(fails(argv))
        assert doc["kind"] == "domain"
        assert doc["error"].startswith("MalformedInput: repeated JSON key"), doc

    DEEP = "[" * 100_000

    @pytest.mark.parametrize("argv", [
        pytest.param(["shear", "--curve", DEEP], id="curve"),
        pytest.param(["locate", "--vector", DEEP], id="vector"),
        pytest.param(["tangle-check", "--tangle", "[" * 5000 + "]" * 5000], id="closed"),
    ])
    def test_deeply_nested_json(self, argv):
        # json.loads raises RecursionError past the interpreter's depth limit
        doc = json.loads(fails(argv))
        assert doc["kind"] == "domain"
        assert doc["error"] == "MalformedInput: JSON input nested too deeply", doc

    def test_render_tri_not_of_type_one(self, tmp_path):
        # a type-II arc array has four grid slopes and three family styles
        out = tmp_path / "grid.svg"
        type_ii = flip(base_triangulation(), 0)
        doc = json.loads(fails(["render", "--tri", json.dumps(type_ii.to_json()),
                                "--out", str(out)]))
        assert doc["kind"] == "domain"
        assert doc["error"].startswith("DomainError: the triangulation is not type I"), doc
        assert not out.exists()
        with pytest.raises(DomainError):
            RenderSpec(triangulation=type_ii)

    def test_render_tri_forms(self, tmp_path):
        # both JSON forms draw the grid of one triangulation
        tri = TaggedTriangulation.from_json(_TYPE_I)
        want = render(RenderSpec((AllowableCurve(Slope(2, 3)),), tri, (0, 2, 0, 2)))
        for i, form in enumerate((_TYPE_I, tri.to_json())):
            out = tmp_path / f"{i}.svg"
            ok(["render", "--curve", '{"closed":"3/2"}', "--tri", json.dumps(form),
                "--out", str(out)])
            assert out.read_text() == want

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_render_output(self, tmp_path, where):
        out = tmp_path / "missing" / "curve.svg" if where == "missing-directory" else tmp_path
        doc = json.loads(fails(["render", "--curve", '{"closed":"3/2"}', "--out", str(out)]))
        assert doc["kind"] == "domain"
        assert doc["error"].startswith(f"DomainError: cannot write {out}: "), doc

    @pytest.mark.parametrize("argv, error_class", [
        (["triangulate", "--type", "I", *TRIPLE, "--tag", "00=plain", "--tag", "00=notched"],
         "InvalidParameters:"),
        (["locate", "--vector", "[-3,2,1,-3,2,1]", "--max-height", "1"], "BoundExhausted:"),
    ])
    def test_error_names_its_class(self, argv, error_class):
        doc = json.loads(fails(argv))
        assert doc["kind"] == "domain" and doc["error"].startswith(error_class), doc

    @pytest.mark.parametrize("argv", [
        ["locate", "--vector", "[0,0,0,0,0,0]", "--max-height", "0"],
        ["locate", "--vector", "[0,0,0,0,0,0]", "--max-height", "-5"],
        ["cones", "--max-height", "0"],
        ["tangle-check", "--max-height", "-4", "--tangle", "[]"],
        ["tangle-check", "--max-height", "1000",
         "--tangle", '[{"curve":{"closed":"1/1"},"weight":1}]'],
    ])
    def test_height_checked_before_early_returns(self, argv):
        # each input returns early (zero vector, empty tangle, witness found
        # first) before any enumeration would check the height
        doc = json.loads(fails(argv))
        assert doc["kind"] == "domain" and "max" in doc["error"], doc

    def test_pair_that_is_not_farey_2(self):
        tags = [a for p in ("00", "01", "10", "11") for a in ("--tag", f"{p}=plain")]
        assert fails(["triangulate", "--type", "II", "--p", "0", "--q", "inf", "--v", "00",
                      *tags]) == ('{"schema": "sphere-lam/1", "error": "InvalidParameters: '
                                  'types II-V need a Farey-2 pair", "kind": "domain"}')

    def test_internal_error(self, monkeypatch):
        def broken_flip(tri, k):
            raise InternalNonUnique("flip produced 0 completions instead of 1")

        monkeypatch.setattr(spherelam.triangulation, "flip", broken_flip)
        t0 = json.dumps(base_triangulation().to_json())
        doc = json.loads(fails(["flip", "--tri", t0, "--k", "0"], code=3))
        assert doc["kind"] == "internal"
        assert doc["error"].startswith("InternalNonUnique:")

    def test_key_error_is_internal(self, monkeypatch):
        # no input path raises KeyError, so one from a handler is a bug
        def broken_badj(args):
            raise KeyError((1, 1, 6))

        monkeypatch.setitem(cli._COMMANDS, "badj", (broken_badj, *cli._COMMANDS["badj"][1:]))
        t0 = json.dumps(base_triangulation().to_json())
        doc = json.loads(fails(["badj", "--tri", t0], code=3))
        assert doc == {"schema": cli.SCHEMA, "error": "KeyError: (1, 1, 6)", "kind": "internal"}


class TestWorkCaps:
    """Inputs whose work grows without bound are rejected with one error
    document that names the cap."""

    def test_oracle_height(self, monkeypatch):
        huge = '{"closed":"99999999999999999999/1"}'
        for method in ("word", "oracle"):
            with monkeypatch.context() as m:
                m.setitem(cli.SHEAR_MAX_HEIGHT, method, 5)
                assert ok(["shear", "--method", method, "--curve", '{"closed":"5/1"}']) == \
                    ok(["shear", "--curve", '{"closed":"5/1"}'])
                fails(["shear", "--method", method, "--curve", '{"closed":"6/1"}'])
            cap = cli.SHEAR_MAX_HEIGHT[method]
            doc = json.loads(fails(["shear", "--method", method, "--curve", huge]))
            assert doc["kind"] == "domain" and f"height {cap}" in doc["error"]
        # the closed formula does not walk the curve and has no cap
        assert ok(["shear", "--curve", huge])[0] == -99999999999999999999

    def test_render_window(self, tmp_path):
        out = tmp_path / "huge.svg"
        doc = json.loads(fails(["render", "--window", "0,1,0,1000000", "--out", str(out)]))
        assert doc["kind"] == "domain" and str(cli.RENDER_MAX_ELEMENTS) in doc["error"]
        assert not out.exists()
        # steep grid lines count too, not only the window area
        tri = json.dumps({"triple": ["10000/1", "10001/1", "inf"],
                          "tags": {"00": "plain", "01": "plain", "10": "plain", "11": "plain"}})
        fails(["render", "--tri", tri, "--window", "0,1,0,1", "--out", str(out)])

    def test_cone_height(self, monkeypatch):
        vec = "[-3,2,1,-3,2,1]"
        cap = cli.CONE_MAX_HEIGHT
        assert cli.build_parser().parse_args(["cones"]).max_height <= cap
        for argv in (["cones"], ["locate", "--vector", vec]):
            for height in (cap + 1, 64):
                doc = json.loads(fails(argv + ["--max-height", str(height)]))
                assert doc["kind"] == "domain" and f"max height {cap};" in doc["error"]
        monkeypatch.setattr(cli, "CONE_MAX_HEIGHT", 1)
        assert ok(["cones", "--max-height", "1"])["count"] == 240
        assert ok(["locate", "--vector", "[-1,0,0,0,0,0]", "--max-height", "1"])
        for argv in (["cones"], ["locate", "--vector", vec]):
            doc = json.loads(fails(argv + ["--max-height", "2"]))
            assert "max height 1;" in doc["error"]

    @staticmethod
    def digit_inputs(d, svg):
        """(name, argv) of commands reading integers of d digits each, the
        worst cases of shear --tri and tangle-check among them."""
        n = 10**d - 1
        tri = json.dumps({"triple": [f"{n - 1}/1", "inf", f"{n}/1"], "tags": {"01": "notched"}})
        spiral = {"slope": f"-{n}/{n - 1}", "ends": [{"v": "00", "spiral": "cw"},
                                                     {"v": "01", "spiral": "ccw"}]}
        # closed curves of opposite shear on the base triangulation in every
        # tagging (test_shear's antipodal pair): the witness is a triple of
        # d-digit slopes around one of them, whose frame carries the other
        # curve to a vector of 2d digits, multiplied by a weight of d digits
        a = 5 * 10**(d - 1) - 1
        tangle = json.dumps([{"curve": {"closed": f"{a - 1}/{a}"}, "weight": n},
                             {"curve": {"closed": f"{-a - 1}/{a}"}, "weight": n}])
        matrix = [[0 if i == j else (n if (i < j) == (i + j) % 2 else -n) for j in range(6)]
                  for i in range(6)]
        return [
            ("numerator", ["shear", "--curve", json.dumps({"closed": f"{n}/1"})]),
            ("denominator", ["shear", "--curve", json.dumps({"closed": f"-1/{n}"})]),
            ("shear --tri", ["shear", "--curve", json.dumps(spiral), "--tri", tri]),
            ("tangle-check", ["tangle-check", "--tangle", tangle]),
            ("mutate", ["mutate", "--matrix", json.dumps(matrix), "--k", "0"]),
            ("locate", ["locate", "--vector", json.dumps([-n, 0, n, -n, 0, n]),
                        "--max-height", "2"]),
            ("render", ["render", "--window", f"{n - 1},{n},-{n},{1 - n}",
                        "--curve", '{"closed":"1/1"}', "--out", str(svg)]),
        ]

    def test_integers_at_the_digit_cap(self, tmp_path):
        # every command prints its result, and no printed integer reaches the
        # 4300 digits of Python 3.11's int-to-text limit: on 3.10, which has
        # no limit, the outputs are the same
        import re

        from spherelam.lattice import _MAX_DIGITS

        longest = {}
        for name, argv in self.digit_inputs(_MAX_DIGITS, tmp_path / "cap.svg"):
            code, out = run(argv)
            assert code == 0, (name, out[:200])
            longest[name] = max(map(len, re.findall(r"[0-9]+", out)))
        assert longest["numerator"] == longest["denominator"] == longest["locate"] == _MAX_DIGITS
        assert longest["shear --tri"] >= longest["mutate"] >= 2 * _MAX_DIGITS
        assert 3 * _MAX_DIGITS <= longest["tangle-check"] < 4300
        svg = (tmp_path / "cap.svg").read_text()
        assert '<circle cx="20.00" cy="60.00" r="3"/>' in svg and "inf" not in svg

    def test_integers_past_the_digit_cap(self, tmp_path):
        # one digit more is one error document naming the cap, on every
        # Python, instead of the interpreter's own limit on 3.11 and up
        from spherelam.lattice import _MAX_DIGITS

        for name, argv in self.digit_inputs(_MAX_DIGITS + 1, tmp_path / "past.svg"):
            doc = json.loads(fails(argv))
            assert doc == {"schema": "sphere-lam/1", "kind": "domain", "error": (
                f"MalformedInput: an integer has at most {_MAX_DIGITS} digits, "
                f"got {_MAX_DIGITS + 1}")}, name
        assert not (tmp_path / "past.svg").exists()

    @pytest.mark.parametrize("digits", [1401, 4301, 5000])
    def test_integer_options_past_the_digit_cap(self, digits, capsys):
        # --k and --max-height read integers under the cap of the JSON
        # ones: a longer value is one error document with exit 1, on every
        # Python, and nothing echoes it
        from spherelam.lattice import _MAX_DIGITS

        t0 = json.dumps(base_triangulation().to_json())
        value = "9" * digits
        argvs = [["flip", "--tri", t0, "--k", value],
                 ["mutate", "--matrix", json.dumps(_MATRIX), "--k", value]]
        argvs += [[*command, "--max-height", value] for command in (
            ["cones"], ["locate", "--vector", "[1,0,0,0,0,0]"], ["gvectors"], ["universal"],
            ["tangle-check", "--tangle", "[]"])]
        error = f"MalformedInput: an integer has at most {_MAX_DIGITS} digits, got {digits}"
        for argv in argvs:
            assert json.loads(fails(argv)) == {"schema": "sphere-lam/1", "kind": "domain",
                                               "error": error}
        assert capsys.readouterr() == ("", "")
        # text that is no integer is still a usage error
        assert run(["cones", "--max-height", "1.5"])[0] == 2
        assert ok(["mutate", "--matrix", json.dumps(_MATRIX), "--k", "0" * 1399 + "2"]) == \
            ok(["mutate", "--matrix", json.dumps(_MATRIX), "--k", "2"])

    def test_element_count_bounds_render(self):
        from spherelam.render import element_count

        for tri in (base_triangulation(), type_i_triangulation((Slope(2, 1), Slope(3, 2),
                                                                Slope(1, 1)))):
            for window in ((0, 2, 0, 2), (-3, 1, 2, 7), (0, 1, 0, 9)):
                spec = RenderSpec(triangulation=tri, window=window)
                svg = render(spec)
                assert svg.count("<line") + svg.count("<circle") <= element_count(spec)


SRC = os.path.dirname(os.path.dirname(spherelam.__file__))


def _modules_loaded(argv, exit_code="0"):
    """The modules a fresh interpreter loads for one command that exits
    with ``exit_code``, spherelam's without their package prefix."""
    code = ("import sys; before = set(sys.modules); from spherelam.cli import run; "
            "code, _ = run(sys.argv[1:]); "
            "print(code, *sorted(m for m in sys.modules if m not in before))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})
    code, *mods = proc.stdout.split()
    assert code == exit_code, proc.stdout
    return {m.removeprefix("spherelam.") for m in mods}


def _imported_modules(path) -> set:
    """The modules a source file names in its import statements."""
    import ast

    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    return imported


def _unused_imports(path) -> list:
    """The names a source file imports and never uses; a name used only in
    a string annotation counts as used."""
    import ast

    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _called_names(path) -> set:
    """The names a source file calls, as ``f(...)`` or ``module.f(...)``."""
    import ast

    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}


class TestColdStart:
    """Each command imports only the modules it runs; none imports
    dataclasses (with inspect), fractions or decimal, or a name it never
    uses, and none holds an assert.  One module builds the lattice frame of
    a triangulation."""

    def test_no_module_imports_an_unused_name(self):
        import pathlib

        paths = sorted(pathlib.Path(spherelam.__file__).parent.glob("*.py"))
        assert len(paths) >= 12
        for path in paths:
            assert _unused_imports(path) == [], path.name

    def test_no_module_holds_an_assert(self):
        # python -O strips assert statements: every check in the package
        # raises, so it holds under -O too
        import ast
        import pathlib

        paths = sorted(pathlib.Path(spherelam.__file__).parent.glob("*.py"))
        assert len(paths) >= 12
        for path in paths:
            asserts = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.Assert)]
            assert asserts == [], path.name

    def test_lattice_frame_is_built_in_curves_only(self):
        # the key images are called in curves only, where the one key kernel
        # moves the keys of an image and of the frame kernel's map; every
        # other module reads curves._lattice_frame or an arc's image
        import pathlib

        paths = sorted(pathlib.Path(spherelam.__file__).parent.glob("*.py"))
        assert len(paths) >= 12
        for path in paths:
            if path.name != "curves.py":
                assert "_key_images" not in _called_names(path), path.name

    def test_only_the_matrix_builds_its_table(self, monkeypatch):
        # classify, flip, the shears, the witness search and render leave
        # the exchange-matrix table empty, through the API and the command
        # line; signed_adjacency of a type I stores its one entry
        from spherelam import shear, triangulation
        from test_triangulation import fresh_table

        fresh_table(monkeypatch)
        t = type_i_triangulation((Slope(1, 2), Slope(1, 1), INF))
        tangle = shear.Tangle(((AllowableCurve(Slope(1, 1)), 1),))
        for tri in (t, flip(t, 0), flip(flip(t, 0), 3)):
            classify(tri)
        shear_wrt(AllowableCurve(Slope(2, 3)), t)
        assert shear.find_witness(tangle, 3) is not None
        render(RenderSpec((AllowableCurve(Slope(1, 1)),), t))
        t0 = json.dumps(t.to_json())
        for argv in (["classify", "--tri", t0], ["flip", "--tri", t0, "--k", "1"],
                     ["shear", "--curve", CURVE_PRIME, "--tri", t0],
                     ["tangle-check", "--tangle", '[{"curve":{"closed":"1/1"},"weight":1}]']):
            assert run(argv)[0] == 0, argv
        assert triangulation._TABLE == {}
        signed_adjacency(t)
        assert len(triangulation._TABLE) == 1

    def test_each_type_fact_has_one_home(self):
        # the admissible degree sequences are written in curves, the base
        # triple in lattice; selftest reads public names only.  selftest's
        # published fixtures keep their literal expected values.
        import ast
        import pathlib

        degrees = {(2, 2, 2, 6), (2, 2, 3, 5), (2, 2, 4, 4), (3, 3, 3, 3)}
        homes = {}
        for path in sorted(pathlib.Path(spherelam.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Tuple):
                    values = tuple(getattr(e, "value", getattr(e, "id", None))
                                   for e in node.elts)
                    if values in degrees and path.name != "selftest.py":
                        homes.setdefault("degrees", set()).add(path.name)
                    if values == ("ZERO", "INF", "MINUS_ONE"):
                        homes.setdefault("base triple", set()).add(path.name)
                if isinstance(node, ast.ImportFrom) and path.name == "selftest.py":
                    assert not [a.name for a in node.names if a.name.startswith("_")]
        assert homes == {"degrees": {"curves.py"}, "base triple": {"lattice.py"}}

    def test_no_module_imports_dataclasses(self):
        import pathlib

        for path in pathlib.Path(spherelam.__file__).parent.glob("*.py"):
            assert "dataclasses" not in _imported_modules(path), path.name

    def test_plane_and_render_do_not_import_fractions(self):
        import pathlib

        package = pathlib.Path(spherelam.__file__).parent
        for name in ("plane.py", "render.py"):
            assert "fractions" not in _imported_modules(package / name), name

    def test_no_module_imports_fractions(self):
        # every answer of the package is an integer: no module, the cone
        # index and the fan check included, can build a Fraction
        import pathlib

        paths = sorted(pathlib.Path(spherelam.__file__).parent.glob("*.py"))
        assert len(paths) >= 12
        for path in paths:
            assert "fractions" not in _imported_modules(path), path.name

    def test_command_import_sets(self, tmp_path):
        t0 = json.dumps(base_triangulation().to_json())
        B = json.dumps([list(r) for r in signed_adjacency(base_triangulation())])
        compact = json.dumps(_TYPE_I)
        never = {"render", "selftest"}
        cases = {
            "shear": (["shear", "--curve", CURVE_PRIME],
                      {"fan", "triangulation", "exactla", "plane"}),
            "shear-oracle": (["shear", "--curve", CURVE_PRIME, "--method", "oracle"],
                             {"fan", "triangulation", "exactla"}),
            "render": (["render", "--curve", '{"closed":"3/2"}', "--window", "0,2,0,2",
                        "--out", str(tmp_path / "curve.svg")],
                       {"fan", "triangulation", "exactla", "shear"}),
            "compat": (["compat", "--a", '{"closed":"3/2"}', "--b", '{"closed":"1/1"}'],
                       {"fan", "triangulation", "exactla", "shear", "plane"}),
            "mutate": (["mutate", "--matrix", B, "--k", "2"], {"plane", "shear", "fan"}),
            "badj": (["badj", "--tri", t0], {"plane", "shear", "fan", "exactla"}),
            "flip": (["flip", "--tri", t0, "--k", "0"], {"plane", "shear", "fan"}),
            "gvectors": (["gvectors", "--max-height", "1"],
                         {"triangulation", "plane", "fan", "exactla"}),
            "universal": (["universal", "--max-height", "1"],
                          {"triangulation", "plane", "fan", "exactla"}),
            "universal-thm12": (["universal", "--form", "thm12", "--max-height", "1"],
                                {"triangulation", "plane", "fan", "exactla"}),
            "locate": (["locate", "--vector", "[-1,1,0,-1,1,0]", "--max-height", "1"],
                       {"plane", "coefficients"}),
            "cones": (["cones", "--max-height", "1"], {"plane", "coefficients"}),
            "selftest": (["selftest"], set()),
            "tangle-check": (["tangle-check", "--tangle",
                              '[{"curve":{"closed":"1/1"},"weight":1}]'],
                             {"fan", "triangulation", "exactla", "plane"}),
            "classify": (["classify", "--tri", t0], {"fan", "shear", "exactla", "plane"}),
            "shear-tri-compact": (["shear", "--curve", CURVE_PRIME, "--tri", compact],
                                  {"fan", "triangulation", "exactla", "plane"}),
            "shear-tri-arcs": (["shear", "--curve", CURVE_PRIME, "--tri", t0],
                               {"fan", "triangulation", "exactla", "plane"}),
            "render-tri": (["render", "--curve", '{"closed":"3/2"}', "--tri", compact,
                            "--out", str(tmp_path / "grid.svg")],
                           {"fan", "triangulation", "exactla", "shear"}),
            "classify-compact": (["classify", "--tri", compact],
                                 {"fan", "shear", "exactla", "plane"}),
            "triangulate": (["triangulate", "--type", "VI", "--p", "0", "--q", "inf",
                             "--r=-1", "--v", "00", "--tag", "00=plain"],
                            {"fan", "shear", "exactla", "plane"}),
        }
        # inputs rejected while parsing import nothing that would compute
        computing = {"fan", "shear", "triangulation", "exactla", "plane"}
        rejects = {
            "shear-curve-list": ["shear", "--curve", "[1,2]"],
            "shear-closed-int": ["shear", "--curve", '{"closed":3}'],
            "shear-tri-list": ["shear", "--curve", CURVE_PRIME, "--tri", "[1]"],
            "tangle-check-object": ["tangle-check", "--tangle", '{"curve":1}'],
            "tangle-check-weight": ["tangle-check", "--tangle",
                                    '[{"curve":{"closed":"1/1"},"weight":"1"}]'],
        }
        for name, argv in rejects.items():
            loaded = _modules_loaded(argv, exit_code="1")
            assert "curves" in loaded and not loaded & computing, (name, sorted(loaded))
        for name, (argv, absent) in cases.items():
            loaded = _modules_loaded(argv)
            assert "curves" in loaded, (name, sorted(loaded))
            assert not loaded & (absent | (never - {argv[0]})), (name, sorted(loaded))
            assert not loaded & {"dataclasses", "inspect"}, (name, sorted(loaded))
            assert not loaded & {"fractions", "decimal"}, (name, sorted(loaded))

    def test_exports_resolve(self):
        import importlib

        table = spherelam._EXPORTS
        assert spherelam.__all__ == [n for names in table.values() for n in names]
        for module, names in table.items():
            mod = importlib.import_module(f"spherelam.{module}")
            for name in names:
                assert getattr(spherelam, name) is getattr(mod, name), name
        ns: dict = {}
        exec("from spherelam import *", ns)
        assert set(spherelam.__all__) <= set(ns)
        with pytest.raises(AttributeError):
            spherelam.no_such_name  # noqa: B018

    def test_selftest_under_optimize(self):
        # the invariant checks raise, so they hold with asserts stripped
        proc = subprocess.run([sys.executable, "-O", "-m", "spherelam.cli", "selftest"],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["failed"] == 0

    def test_flip_under_optimize(self):
        # the compatibility checks of a triangulation raise, not assert
        arcs = list(base_triangulation().arcs)
        arcs[0] = arcs[0].retag(min(arcs[0].punctures), Tagging.NOTCHED)
        valid = json.dumps(base_triangulation().to_json())
        incompatible = json.dumps([a.to_json() for a in arcs])
        for tri, code in ((valid, 0), (incompatible, 1)):
            argv = ["-m", "spherelam.cli", "flip", "--tri", tri, "--k", "1"]
            procs = [subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                                    text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
                     for flags in ((), ("-O",))]
            assert [p.returncode for p in procs] == [code, code], procs[1].stderr
            assert procs[0].stdout == procs[1].stdout
            assert ("error" in json.loads(procs[1].stdout)) == (code == 1)

    def test_cones_under_optimize(self):
        # the cone index's checks, the memo's hit check among them, raise
        # rather than assert: the same bytes with asserts stripped
        argv = ["-m", "spherelam.cli", "cones", "--max-height", "2"]
        procs = [subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                                timeout=120, env={**os.environ, "PYTHONPATH": SRC})
                 for flags in ((), ("-O",))]
        assert [p.returncode for p in procs] == [0, 0], procs[1].stderr
        assert procs[0].stdout == procs[1].stdout
        assert len(json.loads(procs[0].stdout)["cones"]) == 912


class TestParserParity:
    """run builds the parser of the named command alone; every argv gets
    the exit code, stdout and stderr that the parser of all commands gives."""

    @pytest.mark.parametrize("argv, named", [
        ([], None),
        (["--help"], None),
        (["-h", "shear"], None),
        (["--plain"], None),
        (["bogus"], None),
        (["shear"], "shear"),
        (["shear", "--bogus", "x"], "shear"),
        (["shear", "-h"], "shear"),
        (["shear", "--curve", CURVE_PRIME, "--plain"], "shear"),
        (["--plain", "shear", "--curve", CURVE_PRIME], "shear"),
        (["--plain", "--plain", "locate", "--vector", "[1,0,0,0,0,0]", "--max-height", "x"],
         "locate"),
        (["compat", "--a", "flip", "--b", '{"closed":"1/1"}'], "compat"),
        (["selftest", "--k", "1"], "selftest"),
    ])
    def test_same_as_full_parser(self, argv, named, capsys, monkeypatch):
        assert cli._named_command(argv) == named
        got = run(argv), capsys.readouterr()
        monkeypatch.setattr(cli, "_named_command", lambda argv: None)
        assert (run(argv), capsys.readouterr()) == got


class TestJsonRoundTrips:
    def test_triangulation_doc(self):
        t0 = base_triangulation()
        assert TaggedTriangulation.from_json(t0.to_json()) == t0

    def test_error_document_shape(self):
        out = fails(["classify", "--tri", "[]"])
        doc = json.loads(out)
        assert "error" in doc and doc["schema"] == "sphere-lam/1"
        assert doc["kind"] == "domain"


_GOLDEN_CURVES = (CURVE_PRIME, '{"closed":"3/2"}',
                  '{"slope":"-1","ends":[{"v":"00","spiral":"ccw"},{"v":"11","spiral":"cw"}]}')


def _golden_argvs() -> list:
    """The fixed command set of :class:`TestGoldenOutput`; render writes
    to the path OUT."""
    argvs = []
    for spec, tri in _enumerate_typed(2):
        argvs.append(["triangulate", *_triangulate_options(spec)])
        argvs.append(["classify", "--tri", json.dumps(tri.to_json())])
    argvs.append(["cones", "--max-height", "2"])
    argvs += [["universal", "--form", form, "--max-height", "3"] for form in ("thm12", "thm81")]
    argvs.append(["gvectors", "--max-height", "3"])
    for triple in (["0", "inf", "-1"], ["2/1", "1", "inf"], ["2/3", "1/2", "1"]):
        for tags in tag_choices(PUNCTURES):
            tri = json.dumps({"triple": triple, "tags": {str(p): t.value for p, t in tags}})
            argvs += [["shear", "--curve", c, "--tri", tri] for c in _GOLDEN_CURVES[:2]]
    argvs.append(["render", *(f"--curve={c}" for c in _GOLDEN_CURVES), "--out", "OUT"])
    argvs.append(["selftest"])
    argvs += [["triangulate", *_triangulate_options(spec)] for spec in INVALID_SPECS]
    type_ii = json.dumps(flip(base_triangulation(), 0).to_json())
    argvs.append(["shear", "--curve", CURVE_PRIME, "--tri", type_ii])
    return argvs


class TestGoldenOutput:
    """The exit codes and stdout of a fixed command set, digested: every
    output of the set stays byte-identical.  The digest was taken at the
    commit that first read triangulations by their integer arc keys."""

    DIGEST = "1763625fb12b4eeda82e0ea5dbbd0bb44d7e40f090729ca2c068121d62c277db"

    def test_outputs_unchanged(self, tmp_path):
        svg = tmp_path / "golden.svg"
        digest = hashlib.sha256()
        argvs = _golden_argvs()
        assert len(argvs) == 1688
        for argv in argvs:
            code, out = run([str(svg) if a == "OUT" else a for a in argv])
            if argv[0] == "render":
                out = out.replace(str(svg), "OUT") + svg.read_text()
            digest.update(f"{code}\n{out}\n".encode())
        assert digest.hexdigest() == self.DIGEST


def _fan_argvs() -> list:
    """The fixed command set of :class:`TestFanGoldenOutput`: ``cones`` at
    h = 3, and ``locate`` at h = 1, 2, 3 on seeded vectors built from the
    collections alone (never from the cones or the index): interior
    points of kind-VII cones, curves' shear vectors (rays, in the fan at
    their height and not below it), points of faces, and malformed input."""
    from spherelam.fan import maximal_collections
    from spherelam.shear import shear_closed_form

    rng = random.Random(47)
    argvs = [["cones", "--max-height", "3"]]

    def point(weighted):
        return [sum(w * x for w, x in zip([w for w, _ in weighted], col))
                for col in zip(*[shear_closed_form(c) for _, c in weighted])]

    colls = list(maximal_collections(3))
    vii = [coll for coll in colls if coll.kind == "VII"]
    vectors = [point([(rng.randint(1, 4), c) for c in coll.curves])
               for coll in rng.sample(vii, 12)]
    vectors += [list(shear_closed_form(c)) for coll in rng.sample(colls, 8)
                for c in rng.sample(coll.curves, 2)]
    for coll in rng.sample(colls, 16):
        face = rng.sample(coll.curves, rng.randint(2, len(coll.curves) - 1))
        vectors.append(point([(rng.randint(1, 3), c) for c in face]))
    vectors += [[rng.choice((0, rng.randint(-3, 3))) for _ in range(6)] for _ in range(8)]
    texts = [json.dumps(v) for v in vectors]
    texts += ["[0,0,0,0,0,0]", "[1.5,0,0,0,0,0]", "[1,2,3]", "[true,0,0,0,0,0]", "{}", "[",
              '"[-3,2,1,-3,2,1]"']
    for h in ("1", "2", "3"):
        argvs += [["locate", "--vector", text, "--max-height", h] for text in texts]
    return argvs


class TestFanGoldenOutput:
    """The exit codes and stdout of ``cones`` and ``locate`` on a fixed
    command set (:func:`_fan_argvs`), digested: both read the cones'
    functionals and the index's sign-key listing, and stay byte-identical.
    The digest was taken at the commit before the cone build carried each
    ``GAMMA24`` orbit's functionals and sign keys from one representative."""

    DIGEST = "2f9ab16032c9792f8aa686d838eb52afe5a29fa52b3f2b9a4ded4b92a4193d27"

    def test_outputs_unchanged(self):
        digest = hashlib.sha256()
        argvs = _fan_argvs()
        assert len(argvs) == 1 + 3 * 59
        codes = []
        for argv in argvs:
            code, out = run(argv)
            codes.append(code)
            digest.update(f"{code}\n{out}\n".encode())
        assert codes.count(0) > codes.count(1) > 0
        assert digest.hexdigest() == self.DIGEST


# ---------------------------------------------------------------------------
# Fuzz of cli.run over the light commands with mutated JSON
# ---------------------------------------------------------------------------

# A JSON tree for the fuzz: ("obj", [(key, tree), ...]), ("arr", [tree, ...])
# or ("val", scalar).  An object is a list of pairs so that a key can repeat.


def _tree(value):
    if isinstance(value, dict):
        return ("obj", [(k, _tree(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("arr", [_tree(v) for v in value])
    return ("val", value)


def _text(tree) -> str:
    kind, body = tree
    if kind == "obj":
        return "{" + ",".join(f"{json.dumps(k)}:{_text(v)}" for k, v in body) + "}"
    if kind == "arr":
        return "[" + ",".join(map(_text, body)) + "]"
    return json.dumps(body)


def _nodes(tree, path=()):
    """(path, node) for every node, the path being its member positions;
    the root, at (), first."""
    yield path, tree
    kind, body = tree
    if kind != "val":
        for i, member in enumerate(body):
            yield from _nodes(member[1] if kind == "obj" else member, path + (i,))


def _splice(tree, path, nodes):
    """tree with the node at path replaced by the list nodes: none drops it,
    two repeat it (an object member keeps its key); the root becomes
    nodes[0], or null."""
    if not path:
        return nodes[0] if nodes else ("val", None)
    kind, body = tree
    body = list(body)
    i = path[0]
    if len(path) == 1:
        body[i:i + 1] = [(body[i][0], n) for n in nodes] if kind == "obj" else nodes
    elif kind == "obj":
        body[i] = (body[i][0], _splice(body[i][1], path[1:], nodes))
    else:
        body[i] = _splice(body[i], path[1:], nodes)
    return (kind, body)


_RETYPES = [("val", v) for v in (None, True, 0, -1, 7, 1.5, "", "x", "3/2", "inf", "00")]
_RETYPES += [("arr", []), ("obj", [])]


@st.composite
def _mutated(draw, doc):
    """The JSON text of doc after one to three mutations: a value or field
    dropped, repeated (a key twice) or retyped, or nested one level deeper
    or shallower."""
    tree = _tree(doc)
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(tree))))
        op = draw(st.sampled_from(("drop", "repeat", "retype", "nest", "unnest")))
        if op == "drop":
            nodes = []
        elif op == "repeat":
            nodes = [node, draw(st.sampled_from([node] + _RETYPES))]
        elif op == "retype":
            nodes = [draw(st.sampled_from(_RETYPES))]
        elif op == "nest":
            nodes = [draw(st.sampled_from([("arr", [node]), ("obj", [("x", node)])]))]
        else:
            kind, body = node
            inner = body[0][1] if kind == "obj" and body else \
                body[0] if kind == "arr" and body else node
            nodes = [inner]
        tree = _splice(tree, path, nodes)
    return _text(tree)


_CURVES = [json.loads(CURVE_PRIME), {"closed": "3/2"}]
_TRIS = [base_triangulation().to_json(),
         json.loads(json.dumps(base_triangulation().to_json()).replace("plain", "notched"))]
_TYPE_I = {"triple": ["0/1", "inf", "-1/1"], "tags": {"00": "notched", "11": "plain"}}
_MATRIX = [list(r) for r in signed_adjacency(base_triangulation())]
_TANGLE = [{"curve": {"closed": "1/1"}, "weight": 1},
           {"curve": json.loads(CURVE_PRIME), "weight": -2}]


@st.composite
def _fuzz_argv(draw):
    """argv of a light command whose JSON arguments are each either valid
    or mutated; an arc index may be out of range or not a number."""
    def arg(doc):
        return draw(st.one_of(st.just(json.dumps(doc)), _mutated(doc)))

    k = draw(st.sampled_from(("-1", "0", "3", "5", "6", "x")))
    name = draw(st.sampled_from(("shear", "compat", "classify", "flip", "badj",
                                 "mutate", "tangle-check")))
    if name == "shear":
        argv = ["shear", "--curve", arg(draw(st.sampled_from(_CURVES))),
                "--method", draw(st.sampled_from(("formula", "word", "oracle")))]
        if draw(st.booleans()):
            argv += ["--tri", arg(draw(st.sampled_from((_TYPE_I, *_TRIS))))]
        return argv
    if name == "compat":
        pool = draw(st.sampled_from((_CURVES, _TRIS[0], _TRIS[1])))
        return ["compat", "--a", arg(draw(st.sampled_from(pool))),
                "--b", arg(draw(st.sampled_from(pool)))]
    if name in ("classify", "badj"):
        return [name, "--tri", arg(draw(st.sampled_from((*_TRIS, _TYPE_I))))]
    if name == "flip":
        return ["flip", "--tri", arg(draw(st.sampled_from((*_TRIS, _TYPE_I)))), "--k", k]
    if name == "mutate":
        return ["mutate", "--matrix", arg(_MATRIX), "--k", k]
    return ["tangle-check", "--tangle", arg(_TANGLE), "--max-height", "1"]


_SLOPE_TEXTS = ("0", "inf", "-1", "1/1", "1/2", "3/2", "1/0", "2/4", "x", "")
_PUNCTURE_TEXTS = ("00", "01", "10", "11", "0", "12", "")
_VECTORS = [[-1, 1, 0, -1, 1, 0], [1, 0, 0, 0, 0, 0], [-3, 2, 1, -3, 2, 1]]


def _triangulate_options(spec):
    """The triangulate options that build the triangulation of a TriType."""
    doc = spec.to_json()
    opts = [f"--type={doc['type']}"]
    opts += [f"--{flag}={s}" for flag, s in zip("pqr", doc["slopes"])]
    opts += [f"--{flag.replace('_', '-')}={doc[flag]}" for flag in ("v", "v_prime") if flag in doc]
    return opts + [f"--tag={v}={t}" for v, t in doc["tags"].items()]


# one valid option list per type, from the height-1 triangulations
_TRIANGULATE = list({spec.tag: _triangulate_options(spec)
                     for spec in map(classify, enumerate_triangulations(1))}.values())
_TRIANGULATE_POOL = ([f"--{f}={s}" for f in "pqr" for s in _SLOPE_TEXTS]
                     + [f"--{f}={v}" for f in ("v", "v-prime") for v in _PUNCTURE_TEXTS]
                     + [f"--tag={v}={t}" for v in _PUNCTURE_TEXTS[:5]
                        for t in ("plain", "notched", "x")]
                     + ["--type=VII", "--type=I", "--type=IV"])


@st.composite
def _fuzz_heavy_argv(draw):
    """argv of triangulate, of a fan command at height 1 or of render, with
    parameters drawn valid or not and JSON arguments valid or mutated;
    render writes to the path OUT."""
    def arg(doc):
        return draw(st.one_of(st.just(json.dumps(doc)), _mutated(doc)))

    def height(*bad):
        return draw(st.sampled_from(("1", "1", "0", "x") + bad))

    name = draw(st.sampled_from(("triangulate", "gvectors", "universal", "locate", "cones",
                                 "render")))
    if name == "triangulate":
        # a valid option list with up to three options dropped, replaced
        # or added
        opts = list(draw(st.sampled_from(_TRIANGULATE)))
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(opts)))
            new = [draw(st.sampled_from(_TRIANGULATE_POOL))]
            opts[i:i + draw(st.integers(0, 1))] = draw(st.sampled_from(([], new)))
        return ["triangulate", *opts]
    if name == "gvectors":
        return ["gvectors", "--max-height", height("-1", "65")]
    if name == "universal":
        return ["universal", "--max-height", height("65"),
                "--form", draw(st.sampled_from(("thm12", "thm81", "thm0")))]
    if name == "locate":
        return ["locate", "--vector", arg(draw(st.sampled_from(_VECTORS))),
                "--max-height", height("11")]
    if name == "cones":
        return ["cones", "--max-height", height("-1", "11")]
    argv = ["render", "--out", "OUT"]
    for _ in range(draw(st.integers(0, 2))):
        argv.append("--curve=" + arg(draw(st.sampled_from(_CURVES))))
    if draw(st.booleans()):
        argv.append("--tri=" + arg(draw(st.sampled_from((_TYPE_I, *_TRIS)))))
    if draw(st.integers(0, 4)):
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        w, h = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        window = f"{x},{x + w},{y},{y + h}"
    else:
        window = draw(st.sampled_from(("0,1,0", "0,1,0,1,2", "a,0,1,1", "", "1,0,0,1")))
    return argv + [f"--window={window}"]


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_fuzz_argv())
    def test_light_commands(self, argv):
        # bad input is an error document or a usage error, never a bug
        code, out = run(argv)
        assert code in (0, 1, 2), (argv, out)
        if code in (0, 1):
            json.loads(out)  # exactly one document: trailing text raises

    @settings(max_examples=150, deadline=None)
    @given(_fuzz_heavy_argv())
    def test_heavy_commands(self, tmp_path_factory, argv):
        out_path = str(tmp_path_factory.getbasetemp() / "fuzz.svg")
        argv = [out_path if a == "OUT" else a for a in argv]
        code, out = run(argv)
        assert code in (0, 1, 2), (argv, out)
        if code in (0, 1):
            json.loads(out)
