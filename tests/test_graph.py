import collections
import gc
import os
import pathlib
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fullgroups as fg
from fullgroups.errors import (AdmissibilityError, GraphError, ParseError, PathError,
                               ToolkitError, UnsupportedConditionError)
from fullgroups.graph import _cycle_vertices

import pairwise_reference as ref

from conftest import (
    make_e2,
    make_e_inf,
    make_e_nr,
    make_ab_graph,
    make_leveled_chain_graph,
    make_leveled_mixed_graph,
    make_no_cover,
    make_one_orbit,
    make_two_vertex_omega,
    random_diagram,
    random_graph,
    random_leveled_graph,
)


def test_validate_minimal_graph():
    g = make_e2()
    assert g.vertices == ("v",)
    assert [f.id for f in g.families] == ["a", "b"]


def test_two_omega_families_rejected():
    with pytest.raises(GraphError):
        fg.Graph(["v"], [fg.EdgeFamily("x", "v", "v", "omega"),
                         fg.EdgeFamily("y", "v", "v", "omega")])


def test_duplicate_ids_rejected():
    with pytest.raises(GraphError):
        fg.Graph(["v"], [fg.EdgeFamily("a", "v", "v"), fg.EdgeFamily("a", "v", "v")])
    with pytest.raises(GraphError):
        fg.Graph(["v", "v"], [])


def test_dangling_vertex_rejected():
    with pytest.raises(GraphError):
        fg.Graph(["v"], [fg.EdgeFamily("a", "v", "w")])


def test_an_unknown_multiplicity_is_refused():
    # every multiplicity but "omega" would act as single yet compare unequal
    with pytest.raises(GraphError, match="multiplicity 'x'"):
        fg.Graph(["v"], [fg.EdgeFamily("e", "v", "v", "x")])


def test_a_ref_that_is_not_a_pair_is_refused():
    g = fg.Graph(["v"], [fg.EdgeFamily("e", "v", "v"), fg.EdgeFamily("f", "v", "v")])
    with pytest.raises(GraphError, match=r"not an \(id, index\) pair"):
        fg.make_path(g, "v", ["f"])
    for bad in (None, 5, ("f",), ("f", 1, 1)):
        with pytest.raises(GraphError, match=r"not an \(id, index\) pair"):
            g.check_ref(bad)
    assert g.check_ref(["f", 1]).id == "f"


def test_omega_normalized_last():
    g = fg.Graph(["v"], [fg.EdgeFamily("o", "v", "v", "omega"), fg.EdgeFamily("a", "v", "v")])
    assert [f.id for f in g.out_families("v")] == ["a", "o"]


def test_one_orbit_graph_validates():
    make_one_orbit()


def test_reaches():
    g2 = make_e2()
    assert fg.reaches(g2, "v", "v")
    g = make_one_orbit()
    assert fg.reaches(g, "v", "w")
    assert not fg.reaches(g, "w", "v")


def test_reaches_reflexive_transitive(rng):
    for _ in range(25):
        g = random_graph(rng)
        for v in g.vertices:
            assert fg.reaches(g, v, v)
        for v in g.vertices:
            for w in g.vertices:
                for u in g.vertices:
                    if fg.reaches(g, v, w) and fg.reaches(g, w, u):
                        assert fg.reaches(g, v, u)


def test_count_paths_capped():
    g2 = make_e2()
    assert fg.count_paths_capped(g2, "v", "v", 2) == ">=2"
    g = make_one_orbit()
    assert fg.count_paths_capped(g, "v", "w", 2) == ">=2"
    acyclic = fg.Graph(["x", "y"], [fg.EdgeFamily("a", "x", "y")])
    assert fg.count_paths_capped(acyclic, "x", "y", 2) == 1
    assert fg.count_paths_capped(acyclic, "y", "x", 2) == 0


def test_count_paths_vs_reaches(rng):
    for _ in range(25):
        g = random_graph(rng)
        for v in g.vertices:
            for w in g.vertices:
                n = fg.count_paths_capped(g, v, w, 2)
                positive = n == ">=2" or (isinstance(n, int) and n >= 1)
                if v != w:
                    assert positive == fg.reaches(g, v, w)
                else:
                    assert positive  # the trivial path always counts


def test_condition_L():
    assert fg.check_condition_L(make_e2()).holds
    single_loop = fg.Graph(["v"], [fg.EdgeFamily("a", "v", "v")])
    verdict = fg.check_condition_L(single_loop)
    assert not verdict.holds
    assert verdict.witness["cycle"] == ["a"]
    assert fg.check_condition_L(make_one_orbit()).holds


def test_condition_K():
    assert fg.check_condition_K(make_e2()).holds
    single_loop = fg.Graph(["v"], [fg.EdgeFamily("a", "v", "v")])
    verdict = fg.check_condition_K(single_loop)
    assert not verdict.holds and verdict.witness == "v"
    assert bool(verdict) is False and bool(fg.check_condition_K(make_e2())) is True
    assert fg.check_condition_K(make_e_nr(2, 2)).holds
    # one-orbit graph: v has a unique return path (the loop)
    assert not fg.check_condition_K(make_one_orbit()).holds


def test_condition_T():
    assert fg.check_condition_T(make_e2()).holds
    tree = fg.Graph(["x", "y"], [fg.EdgeFamily("a", "x", "y")])
    verdict = fg.check_condition_T(tree)
    assert not verdict.holds and verdict.witness == "x"
    # finite ladder truncation: loop at each vertex plus chain edges
    ladder = fg.Graph(
        ["x1", "x2", "x3"],
        [fg.EdgeFamily("l1", "x1", "x1"), fg.EdgeFamily("l2", "x2", "x2"),
         fg.EdgeFamily("l3", "x3", "x3"), fg.EdgeFamily("c1", "x1", "x2"),
         fg.EdgeFamily("c2", "x2", "x3")],
    )
    assert fg.check_condition_T(ladder).holds


def test_condition_W():
    assert fg.check_condition_W(make_e2()).holds
    assert fg.check_condition_W(make_one_orbit()).holds
    with pytest.raises(UnsupportedConditionError):
        fg.check_condition_W(make_leveled_chain_graph())


def test_condition_infinity():
    assert fg.check_condition_infinity(make_e_inf()).holds
    g = fg.Graph(["v", "s"], [fg.EdgeFamily("o", "v", "s", "omega"),
                              fg.EdgeFamily("a", "v", "v")])
    verdict = fg.check_condition_infinity(g)
    assert not verdict.holds and verdict.witness == "v"
    assert fg.check_condition_infinity(make_e2()).holds  # vacuous


def test_degenerate_vertices():
    single_loop = fg.Graph(["v"], [fg.EdgeFamily("a", "v", "v")])
    assert fg.degenerate_vertices(single_loop) == [("v", 1)]
    isolated = fg.Graph(["v"], [])
    assert fg.degenerate_vertices(isolated) == [("v", 6)]
    assert fg.degenerate_vertices(make_e2()) == []
    # type 2: loop at v plus an edge from a source
    g2 = fg.Graph(["s", "v"], [fg.EdgeFamily("a", "v", "v"), fg.EdgeFamily("b", "s", "v"),
                               fg.EdgeFamily("c", "s", "s")])
    # s has a loop, so it is not a source; rebuild without it
    g2 = fg.Graph(["s", "v"], [fg.EdgeFamily("a", "v", "v"), fg.EdgeFamily("b", "s", "v")])
    assert ("v", 2) in fg.degenerate_vertices(g2)
    # type 3: two vertices exchanging their unique in-edges
    g3 = fg.Graph(["v", "w"], [fg.EdgeFamily("a", "v", "w"), fg.EdgeFamily("b", "w", "v")])
    types = dict(fg.degenerate_vertices(g3))
    assert types["v"] == 3 and types["w"] == 3
    # type 4: infinite source
    g4 = fg.Graph(["v", "w"], [fg.EdgeFamily("o", "v", "w", "omega"),
                               fg.EdgeFamily("l", "w", "w")])
    assert ("v", 4) in fg.degenerate_vertices(g4)
    # an omega in-family beside a loop is not type 2, though its source is a source
    g4o = fg.Graph(["s", "v"], [fg.EdgeFamily("l", "v", "v"),
                                fg.EdgeFamily("o", "s", "v", "omega")])
    assert fg.degenerate_vertices(g4o) == [("s", 4)]
    # type 5: sink fed by a single edge from a source
    g5 = fg.Graph(["s", "t"], [fg.EdgeFamily("a", "s", "t")])
    assert ("t", 5) in fg.degenerate_vertices(g5)


def test_minimal():
    assert not fg.check_minimal(make_one_orbit()).holds
    assert fg.check_minimal(make_e2()).holds
    assert fg.check_minimal(make_e_nr(2, 2)).holds


def test_strongly_connected():
    assert fg.check_strongly_connected(make_e_nr(3, 2)).holds
    assert not fg.check_strongly_connected(make_one_orbit()).holds


def test_isolated_point_witnesses():
    sink_graph = fg.Graph(["v", "s"], [fg.EdgeFamily("a", "v", "s"),
                                       fg.EdgeFamily("b", "v", "v")])
    kinds = [w["kind"] for w in fg.isolated_point_witnesses(sink_graph)]
    assert "sink" in kinds
    assert fg.isolated_point_witnesses(make_e2()) == []
    # leveled chain: every vertex out-degree 1 -> semi-tail
    chain = fg.LeveledGraph([], [["c"]], [],
                            [fg.TemplateFamily("n", "c", "c", "next")])
    wit = fg.isolated_point_witnesses(chain)
    assert any(w["kind"] == "semi-tail" for w in wit)
    # the leveled example graph has no semi-tails
    assert not fg.has_semi_tails(make_leveled_chain_graph())


def test_condition_report_shape():
    rep = fg.condition_report(make_one_orbit())
    assert rep["L"]["holds"] is True
    assert rep["cofinal"]["holds"] is False
    assert rep["minimal"]["holds"] is False
    assert rep["has_sinks"] is False
    # v's only in-edge is its loop: the length-1-orbit pattern
    assert rep["degenerate_vertices"] == [["v", 1]]
    lrep = fg.condition_report(make_leveled_chain_graph())
    assert lrep["L"]["holds"] is True
    assert lrep["W"]["holds"] is None


def test_k_implies_l_randomized(rng):
    for _ in range(60):
        g = random_graph(rng)
        if fg.check_condition_K(g).holds:
            assert fg.check_condition_L(g).holds


def test_minimal_implies_t_randomized(rng):
    checked = 0
    for _ in range(200):
        g = random_graph(rng)
        if fg.has_sinks(g) or not fg.check_condition_L(g).holds:
            continue
        if fg.check_minimal(g).holds:
            assert fg.check_condition_T(g).holds
            checked += 1
    assert checked > 5


def test_witness_soundness_randomized(rng):
    """Negative witnesses re-verify by brute-force path enumeration."""
    from conftest import enumerate_paths_upto

    for _ in range(60):
        g = random_graph(rng)
        bound = 2 * len(g.vertices)
        lv = fg.check_condition_L(g)
        if not lv.holds:
            w = lv.witness
            at = w["start"]
            for fid in w["cycle"]:
                fam = g.family(fid)
                assert fam.source == at
                assert g.out_degree(at) == 1
                at = fam.range
            assert at == w["start"]
        kv = fg.check_condition_K(g)
        if not kv.holds:
            v = kv.witness
            returns = [
                p for p in enumerate_paths_upto(g, v, bound)
                if len(p.edges) >= 1 and p.rng == v
                and all(g.ref_range(e) != v for e in p.edges[:-1])
            ]
            assert len(returns) == 1
        cv = fg.check_cofinal(g)
        if not cv.holds:
            v, c = cv.witness
            assert not any(p.rng == c for p in enumerate_paths_upto(g, v, bound))
        tv = fg.check_condition_T(g)
        if not tv.holds:
            # a failing vertex never sends two distinct paths to any target
            # (a reachable cycle would also show up as a duplicate in bound)
            v = tv.witness
            by_target = {}
            for p in enumerate_paths_upto(g, v, bound):
                by_target.setdefault(p.rng, set()).add(p.edges)
            assert all(len(ps) <= 1 for ps in by_target.values())
        iv = fg.check_condition_infinity(g)
        if not iv.holds:
            v = iv.witness
            fam = g.omega_family(v)
            assert fam is not None
            assert not any(p.rng == v for p in enumerate_paths_upto(g, fam.range, bound))


def test_graph_json_roundtrip():
    for g in (make_e2(), make_one_orbit(), make_e_inf(), make_two_vertex_omega(),
              make_no_cover(), make_leveled_chain_graph()):
        assert fg.graph_from_json(fg.graph_to_json(g)) == g


# ---------------------------------------------------------------------------
# Large inputs: no recursion depth limit
# ---------------------------------------------------------------------------


def _ring(n):
    return fg.Graph([f"v{i}" for i in range(n)],
                    [fg.EdgeFamily(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)])


def _path(n):
    return fg.Graph([f"p{i}" for i in range(n)],
                    [fg.EdgeFamily(f"e{i}", f"p{i}", f"p{i + 1}") for i in range(n - 1)])


def test_condition_K_on_long_ring():
    assert fg.check_condition_K(_ring(3000)) == fg.Verdict(False, "v0")


def test_count_paths_capped_on_long_path():
    assert fg.count_paths_capped(_path(3000), "p0", "p2999", 2) == 1


def test_condition_report_on_long_inputs():
    ring = fg.condition_report(_ring(3000))
    assert ring["K"] == {"holds": False, "witness": "v0"}
    assert ring["strongly_connected"]["holds"] is True
    path = fg.condition_report(_path(3000))
    assert path["T"] == {"holds": False, "witness": "p0"}
    assert path["strongly_connected"] == {"holds": False, "witness": ["p1", "p0"]}


# ---------------------------------------------------------------------------
# Differential test: the pairwise definitions as a reference
# ---------------------------------------------------------------------------


def _walk_counts(g, v, steps, stop=None):
    """Walks of length 1..steps from v, per end vertex, capped at 2.

    An omega family counts as two edges; a walk goes no further once it
    reaches ``stop``.
    """
    counts, frontier = {}, {v: 1}
    for _ in range(steps):
        nxt = {}
        for u, k in frontier.items():
            for f in g.out_families(u):
                nxt[f.range] = min(2, nxt.get(f.range, 0) + k * (2 if f.is_omega else 1))
        for u, k in nxt.items():
            counts[u] = min(2, counts.get(u, 0) + k)
        nxt.pop(stop, None)
        frontier = nxt
    return counts


def _on_cycle(g, v):
    return any(fg.reaches(g, f.range, v) for f in g.out_families(v))


def _first_unreached(g, targets):
    for v in g.vertices:
        for t in targets:
            if not fg.reaches(g, v, t):
                return [v, t]
    return None


def _reference_report(g):
    """K, T, infinity, cofinal, minimal and strong connectedness, pair by pair."""
    n = len(g.vertices)

    def cell(witness):
        return {"holds": witness is None, "witness": witness}

    # a first-return path repeats no interior vertex unless it runs through an
    # interior cycle, which gives a second one within 3n steps
    k = next((v for v in g.vertices
              if _walk_counts(g, v, 3 * n, stop=v).get(v, 0) == 1), None)

    def t_holds(v):
        if any(_on_cycle(g, u) for u in g.vertices if fg.reaches(g, v, u)):
            return True
        return any(c >= 2 for c in _walk_counts(g, v, n).values())

    t = next((v for v in g.vertices if not t_holds(v)), None)
    inf = next((v for v in g.vertices if g.omega_family(v) is not None
                and not fg.reaches(g, g.omega_family(v).range, v)), None)
    cycle = [v for v in g.vertices if _on_cycle(g, v)]
    assert set(_cycle_vertices(g)) == set(cycle)
    # the cofinality witness follows the iteration order of _cycle_vertices
    cofinal = _first_unreached(g, _cycle_vertices(g))
    minimal = cofinal or _first_unreached(g, [s for s in g.vertices if g.is_singular(s)])
    return {
        "K": cell(k),
        "T": cell(t),
        "infinity": cell(inf),
        "cofinal": cell(cofinal),
        "minimal": cell(minimal),
        "strongly_connected": cell(_first_unreached(g, g.vertices)),
    }


def test_cofinal_witness_under_fixed_hash_seed():
    """The cofinality witness follows ``_cycle_vertices`` iteration order.

    That order depends on the hash seed and on how the set was filled.
    ('x', 'r3') is what the pairwise checker gave under PYTHONHASHSEED=0.
    """
    code = (
        "import fullgroups as fg\n"
        "vs = ['x'] + [f'r{i}' for i in range(16)]\n"
        "fams = [fg.EdgeFamily(f'e{i}', f'r{i}', f'r{(i + 1) % 16}') for i in range(16)]\n"
        "print(fg.check_cofinal(fg.Graph(vs, fams)).witness)\n"
    )
    src = str(pathlib.Path(fg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "('x', 'r3')\n"


def test_cached_verdicts_do_not_pin_graphs():
    v = "weakref-probe"
    g = fg.Graph([v], [fg.EdgeFamily("a", v, v), fg.EdgeFamily("b", v, v)])
    b = fg.BratteliDiagram(levels=((v,), ("u",)), edges=(((v, "u"),),), repeat=None)
    fg.canonicalize(fg.identity(g))
    fg.require_admissible(g)
    fg.check_condition_K(g)
    b.underlying_graph()
    refs = [weakref.ref(g), weakref.ref(b)]
    del g, b
    gc.collect()
    assert [r() for r in refs] == [None, None]


@st.composite
def small_graphs(draw):
    """Up to 9 vertices with parallel edges, self-loops and omega families."""
    n = draw(st.integers(1, 9))
    vs = [f"v{i}" for i in range(n)]
    vertex = st.sampled_from(vs)
    singles = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n + 2))
    omegas = draw(st.dictionaries(vertex, vertex, max_size=n))
    fams = [fg.EdgeFamily(f"e{i}", s, r) for i, (s, r) in enumerate(singles)]
    fams += [fg.EdgeFamily(f"w{s}", s, r, "omega") for s, r in omegas.items()]
    perm = draw(st.permutations(fams))
    return fg.Graph(vs, perm)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_graphs())
def test_condition_report_matches_pairwise_reference(g):
    report = fg.condition_report(g)
    for name, want in _reference_report(g).items():
        assert report[name] == want, name


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_graphs())
def test_count_paths_capped_matches_walk_counts(g):
    n = len(g.vertices)
    for v in g.vertices:
        walks = _walk_counts(g, v, 3 * n)
        for w in g.vertices:
            want = min(2, walks.get(w, 0) + (v == w))
            assert fg.count_paths_capped(g, v, w, 2) == (">=2" if want == 2 else want)


# ---------------------------------------------------------------------------
# Lookup tables: refusals, and the queries they replaced as a reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("i", [0, -1, 3, 4])
def test_vertex_by_index_refuses_numbers_outside_the_graph(i):
    g = fg.Graph(["u", "w"], [fg.EdgeFamily("uw", "u", "w"), fg.EdgeFamily("wu", "w", "u"),
                              fg.EdgeFamily("h", "u", "u")])
    with pytest.raises(GraphError):
        g.vertex_by_index(i)


@pytest.mark.parametrize("g", [make_two_vertex_omega(), make_leveled_mixed_graph()],
                         ids=["graph", "leveled"])
@pytest.mark.parametrize("name", ["zz", "x@", "x@1x", "x@²", "x@01", "x@٣", "t3", "t04",
                                  "t4@0", "ra"])
def test_unknown_vertices_are_typed_errors(g, name):
    assert not g.has_vertex(name)
    for query in (g.vertex_index, g.out_families, g.out_singles, g.out_degree, g.is_sink,
                  g.is_regular):
        with pytest.raises(GraphError, match="unknown vertex"):
            query(name)
    lab = fg.default_labeling(g)
    for query in (lab.vertex_number, lab.singles_at):
        with pytest.raises(PathError, match="unknown vertex"):
            query(name)
    with pytest.raises(PathError, match="unknown vertex"):
        fg.Labeling(g, edge_orders={name: []})


def _check_against_reference(g, names, fids):
    """Every query on ``names`` and ``fids``, plus the vertices and ids they
    lead to, equals its reference; returns the vertices met."""
    met, fams = [], set(fids)
    for name in names:
        if g.is_finite:
            if not g.has_vertex(name):
                continue
            assert g.out_singles(name) == ref.old_out_singles(g, name)
            assert g.omega_family(name) == ref.old_omega_family(g, name)
        else:
            assert g.resolve_vertex(name) == ref.old_resolve_vertex(g, name)
            if g.resolve_vertex(name) is None:
                continue
        met.append(name)
        assert g.vertex_index(name) == ref.old_vertex_index(g, name)
        assert g.out_families(name) == ref.old_out_families(g, name)
        omega = g.is_finite and ref.old_omega_family(g, name) is not None
        assert g.out_degree(name) == (fg.OMEGA if omega else len(ref.old_out_families(g, name)))
        fams.update(f.id for f in g.out_families(name))
    for fid in sorted(fams):
        if not g.is_finite:
            assert g.resolve_family(fid) == ref.old_resolve_family(g, fid)
            if g.resolve_family(fid) is None:
                continue
        elif fid not in {f.id for f in g.families}:
            continue
        for idx in (1, 2):
            assert g.ref_sort_key((fid, idx)) == ref.old_ref_sort_key(g, (fid, idx))
    return met


def test_graph_queries_match_the_reference_on_random_graphs(rng):
    for _ in range(300):
        g = random_graph(rng, max_vertices=6, max_edges=10, omega_chance=0.3)
        assert _check_against_reference(g, g.vertices, ["x0", "zz"]) == list(g.vertices)


# names and ids that are not instantiated on the graphs below
_ODD_VERTEX_NAMES = ["zz", "", "@0", "w0", "x@", "x@1x", "x@-1", "t{}@0", "t3", "t5", "t6@0",
                     "r@0", "a@1", "xy@0"]
_ODD_FAMILY_IDS = ["zz", "@0", "e0", "f2", "xy@", "xy@a", "s3", "s5", "l{}@0", "ra@0", "xt"]


@pytest.mark.parametrize("g", [make_leveled_chain_graph(), make_leveled_mixed_graph()],
                         ids=["chain", "mixed"])
def test_leveled_queries_match_the_reference(g):
    base = sum(len(l) for l in g.base_levels)
    block = sum(len(l) for l in g.block_levels)
    indices = list(range(1, base + 3 * block + 1)) + [base + 97 * block + 1, 1000]
    names = [g.vertex_by_index(i) for i in indices]
    assert names == [ref.old_vertex_by_index(g, i) for i in indices]
    assert [g.vertex_index(n) for n in names] == indices
    assert _check_against_reference(g, names + _ODD_VERTEX_NAMES, _ODD_FAMILY_IDS) == names


@pytest.mark.parametrize("name", ["w01", "w02", "w٣", "e01", "f03", "x@01", "xy@00", "s04"])
def test_leveled_numbers_have_one_spelling(name):
    """A level or repetition number is written as instantiation writes it."""
    for g in (make_leveled_chain_graph(), make_leveled_mixed_graph()):
        assert g.resolve_vertex(name) is None and g.resolve_family(name) is None


# ---------------------------------------------------------------------------
# One path for both graph classes; names that read back
# ---------------------------------------------------------------------------


def _leaving_cycles(g):
    """The oracle for semi-tails: every cycle of the block's out-degree-1
    map that leaves a level, as a list of ``(block level, position)`` keys.
    A key is on a cycle when a walk from it returns within as many steps
    as the map has keys."""
    if g.is_finite:
        return []
    step = {}
    for r in range(g._period):
        level = g._nbase + r
        for n in g.level_vertex_names(level):
            fams = g.out_families(n)
            if len(fams) == 1:
                tgt_level, tgt_pos = g.resolve_vertex(fams[0].range)
                step[r, g.resolve_vertex(n)[1]] = (
                    ((tgt_level - g._nbase) % g._period, tgt_pos), tgt_level != level)
    cycles = []
    for key in step:
        walk, u = [], key
        while u in step and len(walk) < len(step):
            walk.append(u)
            u = step[u][0]
            if u == key:
                if any(step[k][1] for k in walk) and set(walk) not in map(set, cycles):
                    cycles.append(walk)
                break
    return cycles


def _check_semi_tail_witness(g, w):
    """Each family of the witness is the only one at its source, the walk
    returns to the start's template and some step leaves its level."""
    at, left = w["start"], False
    for fid in w["cycle"]:
        (fam,) = g.out_families(at)
        assert fam.id == fid
        left = left or g.resolve_vertex(fam.range)[0] != g.resolve_vertex(at)[0]
        at = g._template_of(fam.range)
    assert at == w["start"] and left


def _per_class_graphs():
    rnd = random.Random(2024)
    graphs = [random_graph(rnd, max_vertices=6, max_edges=10, omega_chance=0.3)
              for _ in range(200)]
    graphs += [make_leveled_chain_graph(), make_leveled_mixed_graph()]
    graphs += [random_leveled_graph(rnd) for _ in range(200)]
    graphs += [random_diagram(rnd).underlying_graph() for _ in range(100)]
    return graphs


def test_checkers_match_the_per_class_reference():
    """(L), sinks and isolated points over the template levels agree with
    the reference that branches on the graph class: verdict, witness and
    list order.  The reference reads only the first cycle of the block, so
    it misses a semi-tail behind an exitless cycle; there the list may gain
    a trailing semi-tail record, which the all-cycles oracle confirms."""
    seen = collections.Counter()
    for g in _per_class_graphs():
        assert fg.check_condition_L(g) == ref.old_check_condition_L(g)
        assert fg.has_sinks(g) == ref.old_has_sinks(g)
        iso, old = fg.isolated_point_witnesses(g), ref.old_isolated_point_witnesses(g)
        if iso != old:
            assert iso[:-1] == old and iso[-1]["kind"] == "semi-tail"
            assert all(w["kind"] != "semi-tail" for w in old) and _leaving_cycles(g)
            seen["mended"] += 1
        assert fg.has_semi_tails(g) == bool(_leaving_cycles(g))
        seen.update((g.is_finite, w["kind"]) for w in iso)
        seen[g.is_finite, bool(iso)] += 1
    for key in [(True, "sink"), (True, "exitless-cycle"), (True, False), (False, "sink"),
                (False, "exitless-cycle"), (False, "semi-tail"), (False, False), "mended"]:
        assert seen[key], key


@pytest.mark.parametrize("level", [["x", "y"], ["y", "x"]])
def test_exitless_cycle_does_not_hide_a_semi_tail(level):
    """``x`` loops on its level, ``y`` steps to itself a level down: both
    witnesses, whichever vertex the level declares first."""
    g = fg.LeveledGraph([], [level], [], [_T("l", "x", "x", "same"), _T("m", "y", "y", "next")])
    assert fg.has_semi_tails(g) and not fg.check_condition_L(g).holds
    assert fg.isolated_point_witnesses(g) == [
        {"kind": "exitless-cycle", "start": "x@0", "cycle": ["l@0"]},
        {"kind": "semi-tail", "start": "y@0", "cycle": ["m@0"]}]
    with pytest.raises(AdmissibilityError, match="exitless cycle"):
        fg.require_admissible(g)


def test_semi_tails_match_the_all_cycles_oracle():
    rnd = random.Random(17)
    found = 0
    for _ in range(2000):
        g = random_leveled_graph(rnd)
        assert fg.has_semi_tails(g) == bool(_leaving_cycles(g))
        for w in fg.isolated_point_witnesses(g):
            if w["kind"] == "semi-tail":
                _check_semi_tail_witness(g, w)
                found += 1
    assert found > 100


def test_reaches_matches_the_depth_first_search():
    for g in _per_class_graphs()[:200]:
        for v in g.vertices:
            for w in g.vertices:
                assert fg.reaches(g, v, w) == ref.old_reaches(g, v, w)


def test_equality_is_by_class_and_declaration():
    chain = fg.Graph(["w1"], [fg.EdgeFamily("e1", "w1", "w1")])
    leveled = make_leveled_chain_graph()
    assert chain != leveled and leveled != chain
    for make in (make_e2, make_two_vertex_omega, make_leveled_chain_graph,
                 make_leveled_mixed_graph):
        assert make() == make() and hash(make()) == hash(make())
    assert make_leveled_chain_graph() != make_leveled_mixed_graph()
    assert make_e2() != make_e_inf()


_T = fg.TemplateFamily
_LOOP = _T("f", "a", "a", "same")


@pytest.mark.parametrize("base, block, base_fams, block_fams", [
    ([], [["w{}"]], [], [_T("f{}@x", "w{}", "w{}")]),
    ([["a"]], [["c"]], [_LOOP, _T("f", "a", "a", "same"), _T("g", "a", "c")], []),
    ([["a"]], [["c"]], [_LOOP, _LOOP, _T("g", "a", "c")], []),
    ([["a", "b"]], [["c"]], [_T("g", "a", "c"), _T("g", "b", "c")], []),
    ([["x2"]], [["x{}"]], [_T("g", "x2", "x{}")], [_T("h", "x{}", "x{}")]),
    ([["x"]], [["y{}"]], [_T("h2", "x", "y{}")], [_T("h{}", "y{}", "y{}")]),
], ids=["id-does-not-parse-back", "equal-templates", "one-template-twice",
        "one-id-two-sources", "base-name-is-an-instance", "base-id-is-an-instance"])
def test_leveled_names_must_read_back(base, block, base_fams, block_fams):
    with pytest.raises(GraphError, match="collision"):
        fg.LeveledGraph(base, block, base_fams, block_fams)


@pytest.mark.parametrize("bad", ["a:b", "a,b", "a[1]", "a]", "a/b", "a|b", " a", "a\t"])
def test_names_a_path_literal_cannot_spell_are_refused(bad):
    E = fg.EdgeFamily
    with pytest.raises(GraphError, match="path literal"):
        fg.Graph(["v", bad], [E("e", "v", bad), E("f", bad, "v")])
    with pytest.raises(GraphError, match="path literal"):
        fg.Graph(["v"], [E(bad, "v", "v")])
    with pytest.raises(GraphError, match="path literal"):
        fg.LeveledGraph([], [[bad]], [], [_T("e", bad, bad)])
    with pytest.raises(GraphError, match="path literal"):
        fg.LeveledGraph([], [["v"]], [], [_T(bad, "v", "v")])
    with pytest.raises(ParseError):
        fg.bratteli_from_json({"levels": [["v"], [bad]], "edges": [[["v", bad]]]})


def test_an_empty_family_id_is_refused():
    with pytest.raises(GraphError, match="path literal"):
        fg.Graph(["v"], [fg.EdgeFamily("", "v", "v")])


_TWO_BLOCK = ([["a"], ["b"]], [["c"], ["d"]])


@pytest.mark.parametrize("fam, base, level", [
    (_T("g", "a", "b", "same"), True, 0),
    (_T("g", "a", "a"), True, 1),
    (_T("g", "b", "b"), True, 2),
    (_T("g", "c", "d", "same"), False, 2),
    (_T("g", "c", "c"), False, 3),
    (_T("g", "d", "d"), False, 4),
], ids=["base-same", "base-next", "base-into-block", "block-same", "block-next",
        "block-wrap"])
def test_a_range_off_its_level_is_refused_with_one_message(fam, base, level):
    """Base and block families share one check and one message, naming the
    target level counted from the block's first repetition."""
    base_levels, block_levels = _TWO_BLOCK
    fams = ([fam], []) if base else ([], [fam])
    with pytest.raises(GraphError, match=rf"^family 'g' range not on level {level}$"):
        fg.LeveledGraph(base_levels, block_levels, *fams)


def test_the_block_wraps_from_its_last_level():
    g = fg.LeveledGraph(*_TWO_BLOCK, [_T("e", "a", "b"), _T("f", "b", "c")],
                        [_T("g", "c", "d"), _T("h", "d", "c")])
    assert [f.range for f in g.out_families("d@0")] == ["c@1"]


def test_a_braced_base_family_id_is_refused():
    with pytest.raises(GraphError, match="may not contain"):
        fg.LeveledGraph([["a"]], [["c"]], [_T("f{}", "a", "c")], [_T("g", "c", "c")])


@pytest.mark.parametrize("base, block, base_fams, block_fams, name", [
    ([["v1000"]], [["v{}"]], [_T("s", "v1000", "v{}")], [_T("t", "v{}", "v{}")], "v1000"),
    ([["a"]], [["b"]], [_T("e@5", "a", "b")], [_T("e", "b", "b")], "e@5"),
], ids=["base-name-is-a-far-instance", "base-id-is-a-far-instance"])
def test_base_names_are_checked_against_every_repetition(base, block, base_fams, block_fams,
                                                         name):
    """A base name or id the block side reads at any level, not only over the
    first repetitions, is refused."""
    with pytest.raises(GraphError, match=f"^(vertex name|family id) collision at '{name}'$"):
        fg.LeveledGraph(base, block, base_fams, block_fams)


def test_a_base_name_on_another_level_class_is_not_a_collision():
    # x1 and x4 spell the template x{} only at levels where no block level has it
    g = fg.LeveledGraph([["x1"], ["x4"]], [["x{}"], ["y"]],
                        [_T("s", "x1", "x4"), _T("t", "x4", "x{}")],
                        [_T("u", "x{}", "y"), _T("v", "y", "x{}")])
    assert [g.resolve_vertex(n) for n in ("x1", "x4", "x3", "x5")] == [
        (0, 0), (1, 0), (2, 0), (4, 0)]
    assert [g.vertex_by_index(i) for i in range(1, 6)] == ["x1", "x4", "x3", "y@0", "x5"]


def test_an_unknown_where_or_src_level_is_refused():
    # graph_to_json would write what graph_from_json refuses
    with pytest.raises(GraphError, match="where 'up'"):
        _T("e", "w", "w", "up")
    for bad in (True, 1.0, "1"):
        with pytest.raises(GraphError, match="src_level"):
            _T("e", "w", "w", "next", bad)


@pytest.mark.parametrize("where", ["same", "next"])
def test_leveled_json_roundtrip_keeps_where(where):
    g = fg.LeveledGraph([["a"]], [["w"]], [_T("e", "a", "a" if where == "same" else "w", where)],
                        [_T("f", "w", "w", where)])
    assert fg.graph_from_json(fg.graph_to_json(g)) == g


@pytest.mark.parametrize("build", [
    lambda: fg.LeveledGraph(["ab"], [["w"]], [], []),
    lambda: fg.Graph(["a", 5], []),
    lambda: fg.Graph([["a"]], []),
    lambda: fg.Graph(["a"], ["e"]),
    lambda: fg.Graph(["a"], [fg.EdgeFamily(5, "a", "a")]),
    lambda: fg.LeveledGraph([], [["w", 5]], [], []),
    lambda: fg.LeveledGraph([], [["w"]], [], [("e", "w", "w")]),
], ids=["string-level", "number-vertex", "list-vertex", "string-family", "number-id",
        "number-block-vertex", "tuple-template"])
def test_constructors_refuse_wrong_types_with_graph_errors(build):
    with pytest.raises(GraphError):
        build()


# ---------------------------------------------------------------------------
# Leveled queries for names that are not vertices, and integer arguments
# ---------------------------------------------------------------------------


def _small_leveled():
    T = fg.TemplateFamily
    return fg.LeveledGraph([["r"]], [["w"]], [T("s", "r", "w")],
                           [T("e", "w", "w"), T("f", "w", "w")])


def test_leveled_omega_family_refuses_an_unknown_name():
    # as Graph.omega_family does
    with pytest.raises(GraphError, match="^unknown vertex 'nope'$"):
        _small_leveled().omega_family("nope")


def test_level_vertex_names_refuses_a_negative_level():
    # a name for level -1 would be one that has_vertex denies
    lg = _small_leveled()
    assert not lg.has_vertex("w")
    with pytest.raises(GraphError, match="^level -1 is not a nonnegative integer$"):
        lg.level_vertex_names(-1)


@pytest.mark.parametrize("level", [1.5, True, "1", None])
def test_level_vertex_names_refuses_a_level_that_is_not_an_int(level):
    with pytest.raises(GraphError, match="is not a nonnegative integer$"):
        _small_leveled().level_vertex_names(level)


def test_check_ref_refuses_a_bool_index():
    # parse_path cannot read a path that format_path writes as b:w[True]
    g = make_ab_graph()
    with pytest.raises(GraphError, match="bad edge index"):
        fg.make_path(g, "b", [("w", True)])
    assert fg.format_path(g, fg.make_path(g, "b", [("w", 1)])) == "b:w[1]"


@pytest.mark.parametrize("cap", [1.5, True])
def test_count_paths_capped_refuses_a_cap_that_is_not_an_int(cap):
    with pytest.raises(GraphError, match="^cap must be positive$"):
        fg.count_paths_capped(make_ab_graph(), "a", "b", cap)


@pytest.mark.parametrize("bound", [2.5, True])
def test_emit_generators_refuses_an_edge_bound_that_is_not_an_int(bound):
    g = make_ab_graph()
    with pytest.raises(GraphError, match="^edge bound must be at least 1$"):
        fg.emit_generators(g, fg.default_labeling(g), bound)


@pytest.mark.parametrize("j", [1.5, True])
def test_code_word_refuses_an_index_that_is_not_an_int(j):
    with pytest.raises(PathError, match="^code index must be positive$"):
        fg.code_word(j, 3)


@pytest.mark.parametrize("g", [make_ab_graph(), _small_leveled()], ids=["graph", "leveled"])
@pytest.mark.parametrize("i", [1.5, True])
def test_vertex_by_index_refuses_an_index_that_is_not_an_int(g, i):
    with pytest.raises(GraphError):
        g.vertex_by_index(i)


_G = make_ab_graph()
_INTEGER_ARGUMENTS = {
    "check_ref": lambda x: _G.check_ref(("w", x)),
    "make_path": lambda x: fg.make_path(_G, "b", [("w", x)]),
    "count_paths_capped": lambda x: fg.count_paths_capped(_G, "a", "b", x),
    "emit_generators": lambda x: fg.emit_generators(_G, fg.default_labeling(_G), x),
    "vertex_by_index": _G.vertex_by_index,
    "leveled vertex_by_index": _small_leveled().vertex_by_index,
    "level_vertex_names": _small_leveled().level_vertex_names,
    "vertex_by_number": fg.Labeling(_G, ["b", "a"]).vertex_by_number,
    "edge_by_number": lambda x: fg.default_labeling(_G).edge_by_number("b", x),
    "code_word": lambda x: fg.code_word(x, fg.OMEGA),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_INTEGER_ARGUMENTS)),
       st.one_of(st.integers(-3, 50), st.booleans(), st.floats(), st.text(max_size=3)))
def test_integer_arguments_answer_or_refuse_with_toolkit_errors(name, x):
    # an edge bound of at most 50 keeps every emitted image small
    try:
        _INTEGER_ARGUMENTS[name](x)
    except ToolkitError:
        return
    assert type(x) is int, f"{name} accepted {x!r}"


def test_a_leveled_graph_has_one_out_query():
    # every out-family of a leveled graph is single
    assert fg.LeveledGraph.out_singles is fg.LeveledGraph.out_families
