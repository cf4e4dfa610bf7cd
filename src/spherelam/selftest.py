"""Built-in fixture suite: the published worked examples, re-checked at
runtime.  Returns (name, ok) pairs; the CLI ``selftest`` command wraps it."""

from __future__ import annotations

from . import coefficients, exactla, fan, shear, triangulation
from .curves import (
    V00, V01, V10, V11,
    PUNCTURES,
    AllowableCurve,
    SpiralDir,
    TaggedArc,
    Tagging,
    base_triangulation,
    endpoint_sets,
    kappa,
    curves_compatible,
    type_i_triangulation,
)
from .lattice import BASE_TRIPLE, INF, Slope, is_farey1_triple, standard_form
from .shear import (
    GAMMA24,
    PERM_25,
    PERM_Z2,
    apply_perm,
    parse_word,
    shear_closed_form,
    shear_oracle,
    shear_via_word,
    shear_wrt,
    torus_shear,
    word_of_curve,
    word_prime,
)

CW, CCW = SpiralDir.CW, SpiralDir.CCW


def _open(a, b, e0, d0, e1, d1):
    return AllowableCurve(Slope(a, b), ((e0, d0), (e1, d1)))


LAMBDA = _open(2, 3, V00, CCW, V01, CCW)
LAMBDA_C = AllowableCurve(Slope(2, 3))
LAMBDA_P = _open(3, 2, V00, CW, V10, CW)
LAMBDA_PP = _open(5, -2, V00, CCW, V10, CCW)
LAMBDA_PPP = _open(2, 3, V10, CCW, V11, CCW)

SHEAR_FIXTURES = (
    (LAMBDA, (-1, 2, 0, -1, 1, 0)),
    (LAMBDA_C, (-3, 2, 1, -3, 2, 1)),
    (LAMBDA_P, (-2, 1, 0, -1, 1, 0)),
    (LAMBDA_PP, (2, 0, -1, 1, 0, -1)),
    (LAMBDA_PPP, (-1, 1, 0, -1, 2, 0)),
)


def run_selftest() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, bool(ok)))

    check("standard form (0,-7) -> inf", standard_form(0, -7) == INF)
    check("standard form (5,-2) fixed", standard_form(5, -2) == Slope(5, -2))
    check("(0, inf, -1) is a Farey-1 triple", is_farey1_triple(*BASE_TRIPLE))
    check(
        "endpoint pairs of slope 3/2",
        endpoint_sets(Slope(2, 3)) == ((V00, V01), (V10, V11)),
    )

    arc = TaggedArc(
        Slope(2, 3), ((V00, Tagging.NOTCHED), (V01, Tagging.NOTCHED))
    )
    check("kappa sends notched to counterclockwise", kappa(arc) == LAMBDA)
    check(
        "distinct closed curves are incompatible",
        not curves_compatible(AllowableCurve(Slope(2, 3)), AllowableCurve(Slope(1, 1))),
    )
    check(
        "closed and open of equal slope are compatible",
        curves_compatible(AllowableCurve(Slope(2, 3)), LAMBDA),
    )

    check("w'(2,3)", word_prime(2, 3) == parse_word("t4 r5 t1"))
    check("w'(1,1) empty", word_prime(1, 1) == ())
    check("word of the open curve", word_of_curve(LAMBDA) == parse_word("t1 r2 t4 r5 t1 r2"))
    check(
        "word of the closed curve",
        word_of_curve(LAMBDA_C) == parse_word("t1 t4 r5 t1 r2 t4 t1 r5 t4 r2 t1"),
    )

    for curve, expected in SHEAR_FIXTURES:
        check(f"closed form {curve}", shear_closed_form(curve) == expected)
        check(f"oracle {curve}", shear_oracle(curve) == expected)
    check("word shear (open)", shear_via_word(LAMBDA) == SHEAR_FIXTURES[0][1])
    check("word shear (closed)", shear_via_word(LAMBDA_C) == SHEAR_FIXTURES[1][1])

    check(
        "translation permutation (25)",
        apply_perm(PERM_25, (-1, 2, 0, -1, 1, 0)) == (-1, 1, 0, -1, 2, 0),
    )
    check(
        "slope rotation permutation",
        apply_perm(PERM_Z2, (-1, 2, 0, -1, 1, 0)) == (2, 0, -1, 1, 0, -1),
    )

    t0 = base_triangulation()
    check("base triangulation type I", triangulation.classify(t0).tag == "I")
    check(
        "base triangulation triple",
        triangulation.classify(t0).slopes == tuple(sorted(BASE_TRIPLE)),
    )
    B = triangulation.signed_adjacency(t0)
    check("signed adjacency of the base triangulation", B == triangulation.FIG1_MATRIX)
    check(
        "every base flip is type II",
        all(
            triangulation.classify(triangulation.flip(t0, k)).tag == "II"
            for k in range(6)
        ),
    )
    check(
        "mutation is an involution",
        all(triangulation.mutate(triangulation.mutate(B, k), k) == B for k in range(6)),
    )
    flipped = triangulation.flip(t0, 0)
    check(
        "flip matches matrix mutation",
        triangulation.signed_adjacency(flipped) == triangulation.mutate(B, 0),
    )

    notched = type_i_triangulation(BASE_TRIPLE, tuple((p, Tagging.NOTCHED) for p in PUNCTURES))
    check(
        "all-notched triangulation reverses spirals",
        shear_wrt(LAMBDA, notched) == (-2, 0, 1, -2, 1, 1),
    )
    check(
        "closed curves ignore taggings",
        shear_wrt(LAMBDA_C, notched) == shear_closed_form(LAMBDA_C),
    )

    check("torus shear of slope 3/2", torus_shear(Slope(2, 3)) == (-3, 2, 1))
    check("torus shear of slope 0", torus_shear(Slope(1, 0)) == (0, 1, -1))
    check(
        "sphere-to-torus projection",
        shear.sphere_torus_check(Slope(2, 3), t0),
    )

    base_coll = fan.MaximalCollection(
        tuple(kappa(a) for a in t0.arcs), "I"
    )
    check("base cone has rank 6", exactla.rank(fan.cone_of(base_coll).generators) == 6)
    vii = fan.closed_collections(Slope(1, 1))[0]
    check("closed-curve cones have rank 5", exactla.rank(fan.cone_of(vii).generators) == 5)
    check(
        "base cone generators include the slope-0 ray",
        (-1, 0, 0, 0, 0, 0) in fan.cone_of(base_coll).generators,
    )

    check(
        "both universal listings agree at height 2",
        coefficients.universal_coeffs(2, "thm12") == coefficients.universal_coeffs(2, "thm81"),
    )
    raw = coefficients.universal_raw(2, "thm81")
    check("irredundant universal listing", len(raw) == len(set(raw)))

    check("orbit sizes 6/6/12/3 per slope", all(
        [len({apply_perm(p, item(a, b)) for p in GAMMA24}) for item in coefficients.THM12_ITEMS]
        == [6, 6, 12, 3] for a, b in ((1, 1), (2, 3), (0, 1))))

    vi = triangulation.build_type(
        triangulation.TriType(
            "VI", BASE_TRIPLE, v=V00, taggings=((V00, Tagging.PLAIN),)
        )
    )
    check("three coinciding pairs classify as type VI",
          triangulation.classify(vi).tag == "VI"
          and vi.degree_sequence == (2, 2, 2, 6))

    type_v = triangulation.build_type(
        triangulation.TriType(
            "V", (Slope(1, 1), Slope(1, -1)), v=V00,
            taggings=((V00, Tagging.PLAIN), (V11, Tagging.PLAIN)),
        )
    )
    v_flip_kinds = sorted(
        triangulation.classify(triangulation.flip(type_v, k)).tag for k in range(6)
    )
    check("type-V flips reach types IV and VI only",
          v_flip_kinds == ["IV", "IV", "IV", "IV", "VI", "VI"])

    iv_coll = None
    for coll in fan.maximal_collections(1):
        if coll.kind == "IV":
            iv_coll = coll
            break
    iv_kinds = sorted(c.kind for c in fan.flip_adjacency(fan.cone_of(iv_coll)))
    check("type-IV cone adjacency profile",
          iv_kinds == ["II", "II", "III", "IV", "IV", "V"])
    vii_nbrs = fan.flip_adjacency(fan.cone_of(vii))
    check("type-VII cones have four type-VII neighbors",
          len(vii_nbrs) == 4 and all(c.kind == "VII" for c in vii_nbrs))

    ray = shear_closed_form(AllowableCurve(Slope(1, 1)))
    hits = list(fan.cone_index(2).containing(ray))
    check("closed ray lies in exactly sixteen type-VII cones",
          len(hits) == 16 and all(c.kind == "VII" for c, _, _ in hits))
    return checks
