"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
lines including timings.
"""

import itertools
import json
import math
import pathlib
import random
import time

import pytest

import fullgroups as fg
from fullgroups.cli import main as cli_main

from conftest import (
    enumerate_points,
    make_e2,
    make_e_inf,
    make_e_nr,
    make_gamma2_diagram,
    make_gamma24_diagram,
    make_leveled_chain_graph,
    make_no_cover,
    make_one_orbit,
    make_two_vertex_omega,
    path,
)
from test_embed import mutations

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(n, took, text):
    print(f"ACCEPTANCE {n:>2} PASS ({took:.2f}s): {text}")


def emit_via_cli(tmp_path, graph, bound):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(fg.graph_to_json(graph)))
    out = tmp_path / "out.txt"
    code = cli_main(["emit", str(gfile), "--bound", str(bound), "--out", str(out)])
    assert code == 0
    return out.read_text()


def test_criterion_01_golden_generators_o_infinity(tmp_path):
    t0 = time.monotonic()
    got = emit_via_cli(tmp_path, make_e_inf(), 10)
    assert got == (GOLDEN / "emit_einf.txt").read_text()
    took = time.monotonic() - t0
    assert took < 1.0
    report(1, took, "omega-loop graph generators byte-exact (p_w -> 1, s_j -> s(a^{j-1}b))")


def test_criterion_02_golden_generators_two_vertex(tmp_path):
    t0 = time.monotonic()
    got = emit_via_cli(tmp_path, make_two_vertex_omega(), 10)
    assert got == (GOLDEN / "emit_two_vertex.txt").read_text()
    lines = got.splitlines()
    assert lines[0] == "p[w1] -> s(b) s(b)*"
    assert lines[1] == "p[w2] -> s(a) s(a)*"
    assert lines[2] == "s[h] -> s(bb) s(a)*"
    assert "s[e[10]] -> s(baaaaaaaaaab) s(b)*" in lines
    # f-images follow the generator recipe: word(f_j) = a^j b
    assert "s[f[1]] -> s(ab) s(a)*" in lines
    assert "s[f[10]] -> s(aaaaaaaaaab) s(a)*" in lines
    took = time.monotonic() - t0
    report(2, took, "two-vertex graph generators byte-exact (f_j per the word recipe)")


def test_criterion_03_golden_generators_leveled(tmp_path):
    t0 = time.monotonic()
    got = emit_via_cli(tmp_path, make_leveled_chain_graph(), 6)
    assert got == (GOLDEN / "emit_leveled_f.txt").read_text()
    lines = got.splitlines()
    assert "p[w6] -> s(aaaaab) s(aaaaab)*" in lines
    # parity split of the chain edges
    assert "s[e2] -> s(ab) s(aab)*" in lines        # even: a^{j-1}b . (a^j b)*
    assert "s[e3] -> s(aabb) s(aaab)*" in lines     # odd:  a^{j-1}bb . (a^j b)*
    assert "s[f3] -> s(aaba) s(aab)*" in lines      # loops: a^{j-1}ba . (a^{j-1}b)*
    took = time.monotonic() - t0
    report(3, took, "infinite-vertex graph generators byte-exact for i, j <= 6")


def test_criterion_04_ck_preservation():
    t0 = time.monotonic()
    regular_graphs = [make_e2(), make_e_nr(2, 2), make_e_nr(3, 2)]
    for g in regular_graphs:
        img = fg.emit_generators(g, fg.default_labeling(g), 4)
        ok, failures = fg.ck_check(g, img)
        assert ok, failures
        for mutated, _tag in mutations(img):
            assert not fg.ck_check(g, mutated)[0]
    tv = make_two_vertex_omega()
    bound = 4
    img = fg.emit_generators(tv, fg.default_labeling(tv), bound)
    ok, failures = fg.ck_check(tv, img)
    assert ok, failures
    # omega relations are sampled: the only undetectable flips are the
    # trailing letters of each bundle's last emitted edge
    allowed = {(f"e[{bound}]", "alpha"), (f"f[{bound}]", "alpha")}
    for mutated, tag in mutations(img):
        if not fg.ck_check(tv, mutated)[0]:
            continue
        assert tag in allowed
    took = time.monotonic() - t0
    assert took < 5.0
    report(4, took, "CK relations hold on all four graphs; letter flips are caught")


def test_criterion_05_condition_goldens_and_covering(tmp_path):
    t0 = time.monotonic()
    g = make_one_orbit()
    gfile = tmp_path / "oo.json"
    gfile.write_text(json.dumps(fg.graph_to_json(g)))
    out = tmp_path / "report.json"
    assert cli_main(["analyze", str(gfile), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["L"]["holds"] is True
    assert rep["cofinal"]["holds"] is False
    assert rep["minimal"]["holds"] is False
    U = fg.make_table(g, [
        (path(g, "v", "e", "e"), frozenset(), path(g, "v", "e")),
        (path(g, "v", "e", "f"), frozenset(), path(g, "w", "g1", "g2")),
        (path(g, "w", "g1"), frozenset(), path(g, "w", "g1", "g1")),
        (path(g, "v", "f"), frozenset(), path(g, "v", "f")),
        (path(g, "w", "g2"), frozenset(), path(g, "w", "g2")),
    ])
    einf = fg.periodic_point(g, fg.trivial_path(g, "v"), path(g, "v", "e"))
    assert fg.contains_arrow(U, fg.Arrow(einf, 1, einf))

    # statistical (non-exhaustive) support for the non-covering claim
    h = make_no_cover()
    einf_h = fg.periodic_point(h, fg.trivial_path(h, "v"), path(h, "v", "e"))
    arrow = fg.Arrow(einf_h, 1, einf_h)
    rng = random.Random(515)
    for _ in range(500):
        t = fg.random_table(h, rng, splits=rng.randint(1, 6))
        fg.validate_table(t)
        assert not fg.contains_arrow(t, arrow)
    took = time.monotonic() - t0
    report(5, took, "condition goldens; covering arrow found; 500-trial non-covering")


GROUP_LAW_GRAPHS = [
    ("binary", make_e2),
    ("E22", lambda: make_e_nr(2, 2)),
    ("one-orbit", make_one_orbit),
]


def test_criterion_06_group_axioms():
    t0 = time.monotonic()
    rng = random.Random(606)
    for name, factory in GROUP_LAW_GRAPHS:
        g = factory()
        pts = [p for p in enumerate_points(g, 4, 3) if not p.is_finite]
        tables = [fg.random_table(g, rng, splits=rng.randint(1, 5)) for _ in range(200)]
        ident = fg.identity(g)
        for i, t in enumerate(tables):
            s = tables[(i + 1) % len(tables)]
            u = tables[(i + 2) % len(tables)]
            st = fg.compose(s, t)
            assert fg.germ_equal(fg.compose(st, u), fg.compose(s, fg.compose(t, u)))
            assert fg.is_identity(fg.compose(t, fg.inverse(t)))
            assert fg.is_identity(fg.compose(fg.inverse(t), t))
            assert fg.germ_equal(fg.compose(t, ident), t)
            assert fg.germ_equal(fg.compose(ident, t), t)
            for p in pts:
                assert fg.apply(st, p) == fg.apply(s, fg.apply(t, p))
    took = time.monotonic() - t0
    assert took < 60.0
    report(6, took, "group axioms and pointwise composition on 200 tables x 3 graphs")


EMBED_GRAPHS = [
    ("binary", make_e2),
    ("E22", lambda: make_e_nr(2, 2)),
    ("E32", lambda: make_e_nr(3, 2)),
    ("one-orbit", make_one_orbit),
    ("two-vertex-omega", make_two_vertex_omega),
    ("omega-loop", make_e_inf),
]


def test_criterion_07_embedding_homomorphism_and_conjugation():
    t0 = time.monotonic()
    rng = random.Random(707)
    for name, factory in EMBED_GRAPHS:
        g = factory()
        lab = fg.default_labeling(g)
        pts = enumerate_points(g, 3, 2, omega_bound=2)[:30]
        tables = [fg.random_table(g, rng, splits=rng.randint(1, 4), omega_bound=3)
                  for _ in range(200)]
        images = []
        for t in tables:
            vt = fg.embed_table(t, lab)
            images.append(vt)
            for p in pts:
                assert (fg.point_map(fg.apply(t, p), lab)
                        == fg.apply(vt, fg.point_map(p, lab)))
        for i in range(len(tables) - 1):
            s, t = tables[i], tables[i + 1]
            assert fg.germ_equal(fg.embed_table(fg.compose(s, t), lab),
                                 fg.compose(images[i], images[i + 1]))
            assert fg.germ_equal(fg.embed_table(fg.inverse(s), lab),
                                 fg.inverse(images[i]))
    took = time.monotonic() - t0
    assert took < 120.0
    report(7, took, "embedding is a homomorphism and conjugates the action, 6 graphs")


def test_criterion_08_prefix_code_suite():
    t0 = time.monotonic()
    for i in range(1, 13):
        assert fg.code_partition_check(i, 12)
    assert fg.code_partition_check(fg.OMEGA, 12)
    took = time.monotonic() - t0
    report(8, took, "prefix codes tile depth 12 for i = 1..12 and i = omega")


def _k_cycle_table(g, stems):
    pieces = []
    for i, s in enumerate(stems):
        pieces.append(fg.Piece(stems[(i + 1) % len(stems)], frozenset(), s))
    return fg.make_table(g, pieces)


def _germ_order(t, cap=10):
    acc, k = t, 1
    while not fg.is_identity(acc):
        acc = fg.compose(acc, t)
        k += 1
        assert k <= cap
    return k


def test_criterion_09_higman_thompson():
    t0 = time.monotonic()
    e21 = make_e_nr(2, 1)
    assert fg.check_condition_K(e21).holds and fg.check_minimal(e21).holds
    e32 = make_e_nr(3, 2)
    assert fg.check_condition_K(e32).holds and fg.check_minimal(e32).holds

    stems21 = [path(e21, "w1", *w) for w in
               (("e1", "e1"), ("e1", "e2"), ("e2", "e1", "e1"), ("e2", "e1", "e2"),
                ("e2", "e2", "e1"), ("e2", "e2", "e2"))]
    stems32 = [path(e32, "w1", *w) for w in
               (("e1",), ("e2",), ("e3", "f1", "e1"), ("e3", "f1", "e2"),
                ("e3", "f1", "e3", "f1", "e1"), ("e3", "f1", "e3", "f1", "e2"))]
    for g, stems in ((e21, stems21), (e32, stems32)):
        lab = fg.default_labeling(g)
        for k in range(1, 7):
            t = _k_cycle_table(g, stems[:k])
            assert _germ_order(t) == (k if k > 1 else 1)
            vt = fg.embed_table(t, lab)
            assert _germ_order(vt) == (k if k > 1 else 1)
    took = time.monotonic() - t0
    report(9, took, "order-k elements embed with order exactly k for k <= 6")


def _random_diagram(rng):
    while True:
        nlevels = rng.randint(2, 3)
        levels = []
        for _ in range(nlevels):
            levels.append(tuple(f"n{len(levels)}_{i}" for i in range(rng.randint(1, 2))))
        edges = []
        ok = True
        for lo, hi in zip(levels, levels[1:]):
            eset = []
            for s in lo:
                for _ in range(rng.randint(1, 2)):
                    eset.append((s, rng.choice(hi)))
            edges.append(tuple(eset))
        b = fg.BratteliDiagram(tuple(levels), tuple(edges), None)
        N = nlevels - 1
        total_paths = sum(len(f) for f in b.fibers(N).values())
        if total_paths <= 8 and b.gamma_order(N) <= 10_000:
            return b, N


def test_criterion_10_bratteli_suite():
    t0 = time.monotonic()
    rng = random.Random(1010)
    for _ in range(10):
        b, N = _random_diagram(rng)
        paths = [p for ps in b.fibers(N).values() for p in ps]
        brute = sum(
            1 for perm in itertools.permutations(paths)
            if all(p.rng == q.rng for p, q in zip(paths, perm))
        )
        assert brute == b.gamma_order(N)
        assert b.gamma_order(N) == math.prod(
            math.factorial(len(f)) for f in b.fibers(N).values())

    for b, N in ((make_gamma2_diagram(), 1), (make_gamma24_diagram(), 2)):
        els = list(b.gamma_elements(N))
        assert len(els) == b.gamma_order(N)
        images = {}
        for el in els:
            vt = fg.af_to_v(el)
            images[id(el)] = vt
            order = el.order()
            assert _germ_order(vt, cap=order + 1) == order
        pairs = [(els[i], els[(i * 7 + 3) % len(els)]) for i in range(len(els))]
        for e1, e2 in pairs[:24]:
            assert fg.germ_equal(fg.af_to_v(e1.compose(e2)),
                                 fg.compose(images[id(e1)], images[id(e2)]))
    took = time.monotonic() - t0
    assert took < 60.0
    report(10, took, "finitary group orders match brute force; AF pipeline preserves orders")


SET_ALGEBRA_GRAPHS = [
    ("binary", make_e2),
    ("one-orbit", make_one_orbit),
    ("omega-loop", make_e_inf),
]


def _random_atom(g, rng, depth=3):
    v = rng.choice(list(g.vertices))
    p = fg.trivial_path(g, v)
    for _ in range(rng.randint(0, depth)):
        fams = g.out_families(p.rng)
        fam = rng.choice(list(fams))
        p = fg.extend(g, p, (fam.id, 1 if not fam.is_omega else rng.randint(1, 3)))
    F = set()
    if rng.random() < 0.4:
        singles = [(f.id, 1) for f in g.out_singles(p.rng)]
        fam = g.omega_family(p.rng)
        cands = singles + ([(fam.id, j) for j in (1, 2)] if fam else [])
        F = set(rng.sample(cands, rng.randint(0, len(cands))))
        if g.is_regular(p.rng) and F == set(singles):
            F = set()
    return fg.atom(g, p, F)


def test_criterion_11_set_algebra_oracle():
    t0 = time.monotonic()
    rng = random.Random(1111)
    for name, factory in SET_ALGEBRA_GRAPHS:
        g = factory()
        pts = enumerate_points(g, 4, 2, omega_bound=3)[:40]
        for _ in range(1000):
            xa = [_random_atom(g, rng) for _ in range(rng.randint(1, 3))]
            ya = [_random_atom(g, rng) for _ in range(rng.randint(1, 3))]
            x, y = fg.co_make(g, xa), fg.co_make(g, ya)
            op = rng.randrange(4)
            if op == 0:
                z, want = fg.co_union(g, x, y), lambda a, b: a or b
            elif op == 1:
                z, want = fg.co_intersect(g, x, y), lambda a, b: a and b
            elif op == 2:
                z, want = fg.co_subtract(g, x, y), lambda a, b: a and not b
            else:
                z, want = fg.co_subtract(g, fg.co_union(g, x, y),
                                         fg.co_intersect(g, x, y)), lambda a, b: a != b
            for p in pts:
                in_x = any(fg.point_in_atom(g, p, a) for a in xa)
                in_y = any(fg.point_in_atom(g, p, a) for a in ya)
                assert fg.co_contains_point(g, z, p) == want(in_x, in_y)
    took = time.monotonic() - t0
    assert took < 30.0
    report(11, took, "1000 random set expressions per graph agree with membership")
