import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import spherelam
from spherelam import cli
from spherelam.cli import run
from spherelam.errors import InternalNonUnique
from spherelam.curves import AllowableCurve, TaggedArc, Tagging
from spherelam.render import RenderSpec, curve_polyline, grid_lines, render
from spherelam.lattice import Slope
from spherelam.shear import BASE_TRI
from spherelam.triangulation import TaggedTriangulation, base_triangulation, signed_adjacency


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

    def test_tangle_check(self):
        tangle = json.dumps([{"curve": {"closed": "1/1"}, "weight": 1}])
        doc = ok(["tangle-check", "--tangle", tangle])
        assert doc["witness"] is not None
        assert any(doc["shear"])
        empty = ok(["tangle-check", "--tangle", "[]"])
        assert empty["witness"] is None


class TestSelftest:
    def test_selftest_passes(self):
        doc = ok(["selftest"])
        assert doc["failed"] == 0 and doc["passed"] > 30


class TestPlainOutput:
    def test_vector(self):
        code, out = run(["--plain", "shear", "--curve", '{"closed":"3/2"}'])
        assert code == 0 and out == "-3 2 1 -3 2 1"

    def test_document(self):
        code, out = run(["--plain", "locate", "--vector", "[-3,2,1,-3,2,1]",
                         "--max-height", "3"])
        assert code == 0 and out.startswith("lamination:")


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
        (x1, y1), (x2, y2) = seg
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
        fams = grid_lines(BASE_TRI, (0, 2, 0, 2))
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
        from spherelam.shear import TypeITri

        tris = (BASE_TRI, TypeITri((Slope(2, 1), Slope(3, 2), Slope(1, 1))),
                TypeITri((Slope(1, -2), Slope(2, -3), Slope(1, -1))))
        windows = ((0, 2, 0, 2), (-3, 2, -4, 1), (-7, -2, -5, -1), (5, 9, -9, -2),
                   (10**12, 10**12 + 2, -3, 0))
        for tri in tris:
            for w in windows:
                for s, segs in zip(tri.triple, grid_lines(tri, w)):
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
        fams = grid_lines(BASE_TRI, (10**12, 10**12 + 2, 0, 2))
        assert [len(f) for f in fams] == [3, 3, 3]

    def test_nontrivial_triple_grid(self):
        from spherelam.shear import TypeITri

        tri = TypeITri((Slope(2, 1), Slope(3, 2), Slope(1, 1)))
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

    def test_internal_error(self, monkeypatch):
        def broken_flip(tri, k):
            raise InternalNonUnique("flip produced 0 completions instead of 1")

        monkeypatch.setattr(spherelam.triangulation, "flip", broken_flip)
        t0 = json.dumps(base_triangulation().to_json())
        doc = json.loads(fails(["flip", "--tri", t0, "--k", "0"], code=3))
        assert doc["kind"] == "internal"
        assert doc["error"].startswith("InternalNonUnique:")


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

    def test_element_count_bounds_render(self):
        from spherelam.render import element_count
        from spherelam.shear import TypeITri

        for tri in (BASE_TRI, TypeITri((Slope(2, 1), Slope(3, 2), Slope(1, 1)))):
            for window in ((0, 2, 0, 2), (-3, 1, 2, 7), (0, 1, 0, 9)):
                spec = RenderSpec(triangulation=tri, window=window)
                svg = render(spec)
                assert svg.count("<line") + svg.count("<circle") <= element_count(spec)


SRC = os.path.dirname(os.path.dirname(spherelam.__file__))


def _modules_loaded(argv):
    """The spherelam modules a fresh interpreter holds after one command."""
    code = ("import sys; from spherelam.cli import run; code, _ = run(sys.argv[1:]); "
            "print(code, *sorted(m for m in sys.modules if m.startswith('spherelam.')))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})
    code, *mods = proc.stdout.split()
    assert code == "0", proc.stdout
    return {m.removeprefix("spherelam.") for m in mods}


class TestColdStart:
    """Each command imports only the modules it runs."""

    def test_command_import_sets(self):
        t0 = json.dumps(base_triangulation().to_json())
        B = json.dumps([list(r) for r in signed_adjacency(base_triangulation())])
        never = {"render", "selftest"}
        cases = {
            "shear": (["shear", "--curve", CURVE_PRIME],
                      {"fan", "triangulation", "exactla", "plane"}),
            "compat": (["compat", "--a", '{"closed":"3/2"}', "--b", '{"closed":"1/1"}'],
                       {"fan", "triangulation", "exactla", "shear", "plane"}),
            "mutate": (["mutate", "--matrix", B, "--k", "2"], {"plane", "shear", "fan"}),
            "badj": (["badj", "--tri", t0], {"plane", "shear", "fan", "exactla"}),
            "flip": (["flip", "--tri", t0, "--k", "0"], {"plane", "shear", "fan"}),
            "gvectors": (["gvectors", "--max-height", "1"], {"triangulation", "plane"}),
            "tangle-check": (["tangle-check", "--tangle",
                              '[{"curve":{"closed":"1/1"},"weight":1}]'],
                             {"fan", "triangulation", "exactla", "plane"}),
            "classify": (["classify", "--tri", t0], {"fan", "shear", "exactla", "plane"}),
            "triangulate": (["triangulate", "--type", "VI", "--p", "0", "--q", "inf",
                             "--r=-1", "--v", "00", "--tag", "00=plain"],
                            {"fan", "shear", "exactla", "plane"}),
        }
        for name, (argv, absent) in cases.items():
            loaded = _modules_loaded(argv)
            assert not loaded & (absent | never), (name, sorted(loaded))

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


class TestJsonRoundTrips:
    def test_triangulation_doc(self):
        t0 = base_triangulation()
        assert TaggedTriangulation.from_json(t0.to_json()) == t0

    def test_error_document_shape(self):
        out = fails(["classify", "--tri", "[]"])
        doc = json.loads(out)
        assert "error" in doc and doc["schema"] == "sphere-lam/1"
        assert doc["kind"] == "domain"
