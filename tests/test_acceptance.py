"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <n>: PASS`` line once its
assertions hold (run with ``pytest -s`` to see the lines as they pass).
Randomized criteria use fixed seeds for reproducibility.
"""

import itertools
import math
import operator
import random
import time
from collections import Counter

import pytest

from box_oracle import box_adjacency
from spherelam import fan
from spherelam.curves import (
    V00, V01,
    AllowableCurve,
    SpiralDir,
    base_triangulation,
    endpoint_sets,
    enumerate_curves,
    type_i_triangulation,
)
from spherelam.errors import UnsupportedBaseCase
from spherelam.selftest import SHEAR_FIXTURES
from spherelam.lattice import (
    Slope,
    enumerate_slopes,
    farey1_triples,
    farey_distance,
    is_farey1_triple,
    separating_neighbors,
    standard_form,
)
from spherelam.shear import (
    GAMMA24,
    QuasiLamination,
    Tangle,
    apply_perm,
    find_witness,
    format_word,
    shear_closed_form,
    shear_oracle,
    shear_via_word,
    sphere_torus_check,
    tangle_shear,
    torus_shear,
    word_of_curve,
    word_prime,
)
from spherelam.triangulation import (
    FIG1_MATRIX,
    classify,
    enumerate_triangulations,
    flip,
    mutate,
    signed_adjacency,
    _farey2_pairs,
)

CW, CCW = SpiralDir.CW, SpiralDir.CCW


def _curve(a, b, e0, d0, e1, d1):
    return AllowableCurve(Slope(a, b), ((e0, d0), (e1, d1)))


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS  {text}")


# The plane P of closed-curve shear vectors: x1 + x2 + x3 = 0 and
# x_i = x_{i+3}.
PLANE_P_EQS: tuple[tuple[int, ...], ...] = (
    (1, 1, 1, 0, 0, 0),
    (1, 0, 0, -1, 0, 0),
    (0, 1, 0, 0, -1, 0),
    (0, 0, 1, 0, 0, -1),
)


def in_plane_p(v) -> bool:
    return all(sum(map(operator.mul, eq, v)) == 0 for eq in PLANE_P_EQS)


def test_criterion_01_paper_shear_fixtures():
    start = time.time()
    for c, expected in SHEAR_FIXTURES:
        assert shear_closed_form(c) == expected, c
        assert shear_oracle(c) == expected, c
        try:
            assert shear_via_word(c) == expected, c
        except UnsupportedBaseCase:
            pass
    elapsed = time.time() - start
    assert elapsed < 1.0, f"fixtures took {elapsed:.2f}s"
    _report(1, f"five published shear vectors, all paths agree ({elapsed:.3f}s)")


def test_criterion_02_word_fixtures():
    assert format_word(word_prime(2, 3)) == "t4 r5 t1"
    lam = _curve(2, 3, V00, CCW, V01, CCW)
    assert format_word(word_of_curve(lam)) == "t1 r2 t4 r5 t1 r2"
    lam_c = AllowableCurve(Slope(2, 3))
    assert format_word(word_of_curve(lam_c)) == "t1 t4 r5 t1 r2 t4 t1 r5 t4 r2 t1"
    _report(2, "crossing-word fixtures exact")


def test_criterion_03_three_path_equivalence_sweep():
    start = time.time()
    curves = enumerate_curves(12)
    word_checked = 0
    for c in curves:
        formula = shear_closed_form(c)
        assert shear_oracle(c) == formula, c
        try:
            assert shear_via_word(c) == formula, c
            word_checked += 1
        except UnsupportedBaseCase:
            pass
    elapsed = time.time() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _report(
        3,
        f"{len(curves)} curves at height <= 12, zero mismatches "
        f"({word_checked} word-checked, {elapsed:.1f}s)",
    )


def test_criterion_04_signed_adjacency_and_mutation():
    # signed_adjacency is built from FIG1_MATRIX by mutation; the box
    # oracle reads both off the lifted triangles, independently
    assert box_adjacency(base_triangulation()) == FIG1_MATRIX
    checked = plain = 0
    for tri in enumerate_triangulations(3):
        if not tri.all_plain:
            continue
        B = signed_adjacency(tri)
        assert B == box_adjacency(tri), tri
        plain += 1
        for k in range(6):
            flipped = flip(tri, k)
            if not flipped.all_plain:
                continue
            assert signed_adjacency(flipped) == mutate(B, k), (tri, k)
            checked += 1
    _report(4, f"Figure-1 matrix exact; box oracle agrees on {plain} triangulations; "
               f"flip/mutation identity on {checked} cases")


FLIP_PROFILES = {
    "I": {"II": 6},
    "II": {"I": 2, "IV": 4},
    "III": {"III": 2, "IV": 4},
    "IV": {"II": 2, "III": 1, "IV": 2, "V": 1},
    "V": {"IV": 4, "VI": 2},
    "VI": {"V": 6},
}


def test_criterion_05_taxonomy_and_adjacency():
    slopes = enumerate_slopes(3)
    f1 = len(farey1_triples(slopes))
    f2 = len(_farey2_pairs(slopes))
    expected = {
        "I": f1 * 16,
        "II": f2 * 32,
        "III": f2 * 16,
        "IV": f2 * 64,
        "V": f2 * 16,
        "VI": f1 * 8,
    }
    tris = list(enumerate_triangulations(3))
    assert len(set(tris)) == len(tris)
    counts = Counter(classify(t).tag for t in tris)
    assert dict(counts) == expected
    assert all(t.degree_sequence != (2, 3, 3, 4) for t in tris)

    flip_memo: dict[frozenset, tuple] = {}
    for t in tris:
        profile = Counter()
        for k in range(6):
            key = frozenset(t.arcs[:k] + t.arcs[k + 1:])
            pair = flip_memo.get(key)
            if pair is None:
                result = flip(t, k)
                flip_memo[key] = (t, result)
            else:
                result = pair[1] if pair[0] == t else pair[0]
            profile[classify(result).tag] += 1
        assert dict(profile) == FLIP_PROFILES[classify(t).tag], t
    _report(
        5,
        f"{len(tris)} triangulations at height <= 3: counts "
        f"{dict(sorted(counts.items()))}, all flip profiles exact",
    )


def test_criterion_06_universal_lists():
    assert fan.universal_coeffs(10, "thm12") == fan.universal_coeffs(10, "thm81")
    raw = fan.universal_raw(10, "thm81")
    assert len(raw) == len(set(raw))
    for s in enumerate_slopes(6):
        if s.b < 1:
            continue
        orbits = [
            {apply_perm(p, item(s.a, s.b)) for p in GAMMA24}
            for item in fan.THM12_ITEMS
        ]
        assert [len(o) for o in orbits] == [6, 6, 12, 3], s
        assert len(set().union(*orbits)) == 27, s
    _report(6, f"both listings equal at height <= 10 ({len(set(raw))} vectors), "
               "irredundant, 27 = 6+6+12+3 per slope")


def test_criterion_07_injectivity():
    curves = enumerate_curves(10)
    vectors = [shear_closed_form(c) for c in curves]
    assert len(set(vectors)) == len(vectors)
    _report(7, f"{len(curves)} curve shear vectors pairwise distinct at height <= 10")


def test_criterion_08_closed_curve_plane_and_cone_count():
    for s in enumerate_slopes(10):
        v = shear_closed_form(AllowableCurve(s))
        assert in_plane_p(v), s
        assert math.gcd(*[abs(x) for x in v]) == 1, s
    ray = shear_closed_form(AllowableCurve(Slope(2, 3)))
    hits = list(fan.cone_index(3).containing(ray))
    assert len(hits) == 16
    assert all(c.kind == "VII" for c, _, _ in hits)
    _report(8, "closed rays in the plane with coprime entries; "
               "the slope-3/2 ray lies in exactly 16 type-VII cones")


def test_criterion_09_fan_axioms_and_locate():
    idx3 = fan.cone_index(3)
    report = fan.fan_check(idx3.cones, trials=500, seed=20240)
    assert report.ok and report.pairs_checked == 500

    rng = random.Random(515)
    idx4 = fan.cone_index(4)
    collections = [c.collection for c in idx4.cones]
    for _ in range(200):
        coll = rng.choice(collections)
        chosen = rng.sample(list(coll.curves), rng.randint(1, 4))
        lam = QuasiLamination(tuple((c, rng.randint(1, 3)) for c in chosen))
        vec = tangle_shear(Tangle(lam.weights))
        assert fan.locate(vec, 4) == lam
    _report(9, "500 cone pairs intersect in common faces; "
               "200 quasi-laminations located exactly")


def test_criterion_10_torus_projection():
    triples = farey1_triples(enumerate_slopes(3))
    slopes = enumerate_slopes(10)
    for triple in triples:
        tri = type_i_triangulation(triple)
        for s in slopes:
            assert sphere_torus_check(s, tri), (s, triple)
    # nonnegative slopes realize [-b, a, b-a] literally; negative slopes
    # carry a cyclic permutation of their rotation representative's vector
    for s in slopes:
        a, b = s.vector
        if b >= 0:
            assert torus_shear(s) == (-b, a, b - a), s
        else:
            rep = standard_form(-a - b, a) if -b >= a else standard_form(-b, a + b)
            base = torus_shear(rep)
            cyc = {base, (base[2], base[0], base[1]), (base[1], base[2], base[0])}
            assert torus_shear(s) in cyc, s
    _report(10, f"projection identity over {len(triples)} triples x "
                f"{len(slopes)} slopes; torus vectors in cyclic form")


def test_criterion_11_null_tangle_detection():
    assert find_witness(Tangle(())) is None
    rng = random.Random(99)
    pool = enumerate_curves(4)
    found = 0
    while found < 100:
        n = rng.randint(1, 5)
        weights = tuple(
            (c, rng.choice([-3, -2, -1, 1, 2, 3])) for c in rng.sample(pool, n)
        )
        tangle = Tangle(weights)
        if not tangle.support:
            continue
        witness = find_witness(tangle, 8)
        assert witness is not None
        assert any(tangle_shear(tangle, witness)), tangle
        found += 1
    _report(11, "witness triangulations found for 100 random nonzero tangles; "
                "empty tangle yields none")


def test_criterion_12_separating_neighbors():
    rng = random.Random(7177)
    pool = enumerate_slopes(8)
    for _ in range(100):
        M = set(rng.sample(pool, rng.randint(1, 10)))
        f = rng.choice(sorted(M))
        lo, mid = separating_neighbors(M, f)
        assert is_farey1_triple(lo, mid, f)
        assert lo < mid < f
        assert not any(lo <= q < f for q in M)
    _report(12, "Stern-Brocot separating neighbors verified against "
                "100 random slope sets")
