import inspect
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fullgroups as fg
from fullgroups import pathspace
from fullgroups.errors import AtomError, GraphError, ParseError, PathError, ToolkitError

from conftest import (
    algebra_graphs,
    atom_lists,
    enumerate_paths_upto,
    enumerate_points,
    make_e2,
    make_e_inf,
    make_leveled_mixed_graph,
    make_one_orbit,
    make_sink_graph,
    make_two_vertex_omega,
    path,
    random_graph,
)
from pairwise_reference import (
    atom_intersect,
    atom_split,
    old_co_intersect,
    old_co_make,
    old_co_subtract,
    old_parse_point,
    old_replace_point_prefix,
    old_shift_point,
)


def A(g, p, *F):
    return fg.atom(g, p, frozenset(F))


class TestAtoms:
    def test_atom_validation(self, e2):
        from fullgroups.errors import ToolkitError

        with pytest.raises(AtomError):
            fg.atom(e2, fg.trivial_path(e2, "v"), {("a", 1), ("b", 1)})
        with pytest.raises(ToolkitError):
            fg.atom(e2, path(e2, "v", "a"), {("zz", 1)})

    def test_intersect_disjoint_stems(self, e2):
        za = A(e2, path(e2, "v", "a"))
        zb = A(e2, path(e2, "v", "b"))
        assert atom_intersect(e2, za, zb) is None

    def test_intersect_f_union_empty(self, e2):
        x = A(e2, fg.trivial_path(e2, "v"), ("a", 1))
        y = A(e2, fg.trivial_path(e2, "v"), ("b", 1))
        assert atom_intersect(e2, x, y) is None

    def test_intersect_nested(self, e2):
        za = A(e2, path(e2, "v", "a"))
        zab = A(e2, path(e2, "v", "a", "b"))
        assert atom_intersect(e2, za, zab) == zab

    def test_split(self, e2):
        zv = A(e2, fg.trivial_path(e2, "v"))
        parts = atom_split(e2, zv, ("a", 1))
        assert len(parts.atoms) == 2
        # splitting the residual again along b leaves only the two children
        residual = next(a for a in parts.atoms if a.F)
        parts2 = atom_split(e2, residual, ("b", 1))
        assert len(parts2.atoms) == 1
        assert parts2.atoms[0].mu.edges == (("b", 1),)

    def test_split_at_omega_vertex(self):
        g = make_two_vertex_omega()
        zw = A(g, fg.trivial_path(g, "w2"))
        parts = atom_split(g, zw, ("f", 1))
        assert len(parts.atoms) == 2
        assert any(a.F == frozenset({("f", 1)}) for a in parts.atoms)

    def test_split_membership_preserved(self, e2, rng):
        pts = enumerate_points(e2, 3, 2)
        zv = A(e2, fg.trivial_path(e2, "v"))
        for e in (("a", 1), ("b", 1)):
            parts = atom_split(e2, zv, e)
            for p in pts:
                inside = [a for a in parts.atoms if fg.point_in_atom(e2, p, a)]
                assert len(inside) == (1 if fg.point_in_atom(e2, p, zv) else 0)


class TestCompactOpens:
    def test_sibling_merge(self, e2):
        x = fg.co_make(e2, [A(e2, path(e2, "v", "a")), A(e2, path(e2, "v", "b"))])
        assert len(x.atoms) == 1 and x.atoms[0].mu.edges == ()

    def test_duplicate_collapse(self, e2):
        za = A(e2, path(e2, "v", "a"))
        assert fg.co_make(e2, [za, za]).atoms == (za,)

    def test_disjoint_not_merged(self, e2):
        x = fg.co_make(e2, [A(e2, fg.trivial_path(e2, "v"), ("a", 1)),
                            A(e2, path(e2, "v", "a", "b"))])
        assert len(x.atoms) == 2
        assert {a.mu.edges for a in x.atoms} == {(), (("a", 1), ("b", 1))}

    def test_co_equals(self, e2):
        zv = fg.co_make(e2, [A(e2, fg.trivial_path(e2, "v"))])
        zab = fg.co_make(e2, [A(e2, path(e2, "v", "a")), A(e2, path(e2, "v", "b"))])
        assert fg.co_equals(e2, zv, zab)
        assert not fg.co_equals(
            e2,
            fg.co_make(e2, [A(e2, path(e2, "v", "a"))]),
            fg.co_make(e2, [A(e2, path(e2, "v", "b"))]),
        )
        assert fg.co_equals(
            e2,
            fg.co_make(e2, [A(e2, fg.trivial_path(e2, "v"), ("a", 1))]),
            fg.co_make(e2, [A(e2, path(e2, "v", "b"))]),
        )

    def test_normalize_idempotent(self, e2, rng):
        for _ in range(40):
            atoms = _random_atoms(e2, rng)
            once = fg.co_make(e2, atoms)
            assert fg.co_make(e2, list(once.atoms)) == once

    def test_subtract_self_empty(self, e2, rng):
        for _ in range(30):
            x = fg.co_make(e2, _random_atoms(e2, rng))
            assert fg.co_subtract(e2, x, x).is_empty()
        assert fg.co_make(e2, []).is_empty()
        assert not fg.full_space(e2).is_empty()

    def test_equality_is_equivalence(self, e2, rng):
        cos = [fg.co_make(e2, _random_atoms(e2, rng)) for _ in range(12)]
        for x in cos:
            assert fg.co_equals(e2, x, x)
        for x in cos:
            for y in cos:
                if fg.co_equals(e2, x, y):
                    assert fg.co_equals(e2, y, x)


_GRAPHS = algebra_graphs()


@st.composite
def _graph_and_atom_lists(draw):
    g = draw(st.sampled_from(_GRAPHS))
    return g, draw(atom_lists(g)), draw(atom_lists(g)), draw(_long_atom_lists(g))


@st.composite
def _long_atom_lists(draw, g):
    """Longer and deeper atom lists, or lists of repeats only: copies of one
    short list, or atoms drawn with replacement from a few."""
    kind = draw(st.sampled_from(["long", "copies", "drawn"]))
    if kind == "long":
        return draw(atom_lists(g, max_atoms=20, max_depth=4))
    few = draw(atom_lists(g, max_atoms=3))
    if not few:
        return []
    if kind == "copies":
        return few * draw(st.integers(2, 8))
    return draw(st.lists(st.sampled_from(few), max_size=30))


class TestStemTrie:
    """The stem trie gives the pairwise algebra's results atom for atom."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_graph_and_atom_lists())
    def test_matches_pairwise_reference(self, case):
        g, xs, ys, zs = case
        x = fg.co_make(g, xs)
        assert x == old_co_make(g, xs)
        y = fg.co_make(g, ys)
        assert fg.co_make(g, xs + ys) == old_co_make(g, xs + ys)
        assert fg.co_subtract(g, x, y) == old_co_subtract(g, x, y)
        assert fg.co_intersect(g, x, y) == old_co_intersect(g, x, y)
        z = fg.co_make(g, zs)
        assert z == old_co_make(g, zs)
        assert fg.co_subtract(g, z, x) == old_co_subtract(g, z, x)
        assert fg.co_subtract(g, x, z) == old_co_subtract(g, x, z)
        assert fg.co_intersect(g, z, x) == old_co_intersect(g, z, x)

    def test_same_atoms_under_any_hash_seed(self):
        script = (
            "import random, fullgroups as fg\n"
            "from conftest import make_no_cover, make_sink_graph, make_two_vertex_omega\n"
            "from test_pathspace import _random_atoms\n"
            "rng = random.Random(5)\n"
            "for g in (make_no_cover(), make_sink_graph(), make_two_vertex_omega()):\n"
            "    for _ in range(60):\n"
            "        print(fg.co_to_json(g, fg.co_make(g, _random_atoms(g, rng, 8, 3))))\n"
        )
        here = pathlib.Path(__file__).parent
        src = str(pathlib.Path(fg.__file__).resolve().parents[1])
        outs = []
        for seed in ("0", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, str(here)]))
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, timeout=120, env=env, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 180

    def test_disjoint_input_is_not_cut(self, e2):
        rng = random.Random(3)
        parts = [fg.atom(e2, fg.trivial_path(e2, "v"))]
        while len(parts) < 200:
            i = rng.randrange(len(parts))
            a = parts[i]
            edges = [e for e in (("a", 1), ("b", 1)) if e not in a.F]
            parts[i:i + 1] = atom_split(e2, a, rng.choice(edges)).atoms
        rng.shuffle(parts)
        assert fg.co_make(e2, parts) == fg.full_space(e2)
        assert fg.co_make(e2, parts + parts[:1]) == fg.full_space(e2)

    def test_cuts_stay_linear_in_the_trie(self, monkeypatch):
        """The complement of many deep atoms, deep atoms followed by many
        copies of ``Z(v)``, and many atoms at one stem take a number of cuts
        and subtrahends read within twice their atoms and trie stems."""
        work = []
        cut = pathspace._cut
        subs = inspect.signature(cut).bind
        monkeypatch.setattr(pathspace, "_cut", lambda *args: work.append(
            1 + len(subs(*args).arguments["subs"])) or cut(*args))
        rng = random.Random(0)

        def deep(n):
            return [fg.atom(fg.E2, fg.binary_path("".join(rng.choice("ab") for _ in range(12))))
                    for _ in range(n)]

        zv = fg.atom(fg.E2, fg.trivial_path(fg.E2, "v"))
        x = fg.co_make(fg.E2, deep(960))
        ys = deep(300) + [zv] * 300
        g = make_two_vertex_omega()
        v = next(v for v in g.vertices if g.omega_family(v))
        fam = g.omega_family(v).id
        zs = [fg.atom(g, fg.trivial_path(g, v), {(fam, k)}) for k in range(1, 501)]
        cases = [(lambda: fg.co_subtract(fg.E2, fg.full_space(fg.E2), x), [zv, *x.atoms]),
                 (lambda: fg.co_make(fg.E2, ys), ys),
                 (lambda: fg.co_make(g, zs), zs)]
        assert len(x.atoms) > 700
        for run, atoms in cases:
            stems = {(a.mu.start, a.mu.edges[:d]) for a in atoms for d in range(a.depth + 1)}
            work.clear()
            run()
            assert sum(work) <= 2 * (len(stems) + len(atoms))


def _random_atoms(g, rng, n=3, depth=2):
    out = []
    for _ in range(rng.randint(1, n)):
        v = rng.choice(list(g.vertices))
        p = fg.trivial_path(g, v)
        for _ in range(rng.randint(0, depth)):
            fams = g.out_families(p.rng)
            if not fams:
                break
            fam = rng.choice(list(fams))
            p = fg.extend(g, p, (fam.id, 1 if not fam.is_omega else rng.randint(1, 3)))
        F = set()
        if rng.random() < 0.4:
            singles = [(f.id, 1) for f in g.out_singles(p.rng)]
            fam = g.omega_family(p.rng)
            cands = singles + ([(fam.id, j) for j in (1, 2)] if fam else [])
            take = rng.randint(0, len(cands))
            F = set(rng.sample(cands, min(take, len(cands))))
            if g.is_regular(p.rng) and F == set(singles):
                F = set()
        out.append(fg.atom(g, p, F))
    return out


class TestMembershipOracle:
    """Structural set ops agree with pointwise boolean evaluation."""

    @pytest.mark.parametrize("factory", [make_e2, make_one_orbit, make_e_inf])
    def test_ops_vs_membership(self, factory, rng):
        g = factory()
        pts = enumerate_points(g, 3, 2, omega_bound=3)
        for _ in range(120):
            xa, ya = _random_atoms(g, rng), _random_atoms(g, rng)
            x, y = fg.co_make(g, xa), fg.co_make(g, ya)
            for p in pts:
                in_x = any(fg.point_in_atom(g, p, a) for a in xa)
                in_y = any(fg.point_in_atom(g, p, a) for a in ya)
                assert fg.co_contains_point(g, x, p) == in_x
                assert fg.co_contains_point(g, fg.co_intersect(g, x, y), p) == (in_x and in_y)
                assert fg.co_contains_point(g, fg.co_subtract(g, x, y), p) == (in_x and not in_y)
                assert fg.co_contains_point(g, fg.co_union(g, x, y), p) == (in_x or in_y)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1).map(lambda k: random_graph(random.Random(k))).flatmap(
        lambda g: st.tuples(st.just(g), atom_lists(g), atom_lists(g))))
    def test_ops_vs_membership_on_random_graphs(self, case):
        # sinks, omega vertices and graphs without (L)
        g, xa, ya = case
        x, y = fg.co_make(g, xa), fg.co_make(g, ya)
        union, meet, minus = (fg.co_union(g, x, y), fg.co_intersect(g, x, y),
                              fg.co_subtract(g, x, y))
        for p in enumerate_points(g, 3, 1, omega_bound=3):
            in_x = any(fg.point_in_atom(g, p, a) for a in xa)
            in_y = any(fg.point_in_atom(g, p, a) for a in ya)
            assert fg.co_contains_point(g, x, p) == in_x
            assert fg.co_contains_point(g, union, p) == (in_x or in_y)
            assert fg.co_contains_point(g, meet, p) == (in_x and in_y)
            assert fg.co_contains_point(g, minus, p) == (in_x and not in_y)


class TestWitness:
    @pytest.mark.parametrize("factory", [make_e2, make_one_orbit, make_e_inf,
                                         make_two_vertex_omega])
    def test_every_atom_has_a_witness(self, factory, rng):
        g = factory()
        for _ in range(60):
            for a in _random_atoms(g, rng):
                w = fg.witness_point(g, a)
                assert fg.point_in_atom(g, p=w, a=a)

    def test_wandering_leveled_chain_raises(self):
        g = fg.LeveledGraph([], [["x{}"]], [], [fg.TemplateFamily("e{}", "x{}", "x{}")])
        with pytest.raises(PathError):
            fg.witness_point(g, fg.atom(g, fg.trivial_path(g, "x1")))

    def test_leveled_witness_after_every_template(self):
        # the first step, forced one level down, and then all three templates
        # pass before the walk closes its cycle
        g = fg.LeveledGraph([], [["c", "d", "e"]], [], [
            fg.TemplateFamily("cd", "c", "d", "same"), fg.TemplateFamily("cn", "c", "d", "next"),
            fg.TemplateFamily("de", "d", "e", "same"), fg.TemplateFamily("ec", "e", "c", "same")])
        a = fg.atom(g, fg.trivial_path(g, "c@0"), {("cd@0", 1)})
        w = fg.witness_point(g, a)
        assert fg.point_in_atom(g, w, a)
        assert fg.format_point(g, w) == "c@0:cn@0 / (de@1,ec@1,cd@1)"


def test_make_path_refuses_a_ref_that_is_not_a_pair():
    # each ref is checked before it is made a tuple, which a number breaks
    g = make_e2()
    for bad in (5, None):
        with pytest.raises(GraphError, match=rf"^bad edge reference {bad}: not an \(id, index\) pair$"):
            fg.make_path(g, "v", [bad])
    with pytest.raises(GraphError, match="not an"):
        fg.make_path(g, "v", [("a", 1), 5])
    assert fg.make_path(g, "v", [["a", 1]]).edges == (("a", 1),)


def test_a_family_id_that_is_not_a_string_is_refused():
    # on both graph classes, before the id is looked up
    for g, start in ((make_e2(), "v"), (make_leveled_mixed_graph(), "r")):
        for fid in ([1], 5, None):
            with pytest.raises(GraphError, match="the family id is not a string$"):
                fg.make_path(g, start, [(fid, 1)])


class TestPoints:
    def test_minimal_form(self, e2):
        pa = path(e2, "v", "a")
        pab = path(e2, "v", "a", "b")
        # a . (ba)^inf == (ab)^inf
        pt = fg.periodic_point(e2, pa, path(e2, "v", "b", "a"))
        direct = fg.periodic_point(e2, fg.trivial_path(e2, "v"), pab)
        assert pt == direct
        # powers of a cycle reduce to the primitive root
        sq = fg.periodic_point(e2, fg.trivial_path(e2, "v"),
                               path(e2, "v", "a", "b", "a", "b"))
        assert sq == direct

    def test_shift(self, e2):
        abinf = fg.periodic_point(e2, path(e2, "v", "a"), path(e2, "v", "b"))
        binf = fg.periodic_point(e2, fg.trivial_path(e2, "v"), path(e2, "v", "b"))
        assert fg.shift_point(e2, abinf) == binf
        with pytest.raises(PathError):
            g = make_e_inf()
            fg.shift_point(g, fg.finite_point(g, fg.trivial_path(g, "w")))

    def test_tail_equivalence(self, e2):
        ainf = fg.periodic_point(e2, fg.trivial_path(e2, "v"), path(e2, "v", "a"))
        binf = fg.periodic_point(e2, fg.trivial_path(e2, "v"), path(e2, "v", "b"))
        abinf = fg.periodic_point(e2, path(e2, "v", "a"), path(e2, "v", "b"))
        assert fg.tail_equivalent(e2, abinf, binf)
        assert not fg.tail_equivalent(e2, ainf, binf)
        g = make_two_vertex_omega()
        p = fg.finite_point(g, path(g, "w1", "h"))
        q = fg.finite_point(g, fg.trivial_path(g, "w2"))
        r = fg.finite_point(g, fg.trivial_path(g, "w1"))
        assert fg.tail_equivalent(g, p, q)
        assert not fg.tail_equivalent(g, p, r)
        assert not fg.tail_equivalent(g, p, fg.periodic_point(
            g, fg.trivial_path(g, "w2"), path(g, "w2", ("f", 1))))

    def test_point_in_atom_examples(self, e2, one_orbit):
        ainf = fg.periodic_point(e2, fg.trivial_path(e2, "v"), path(e2, "v", "a"))
        assert fg.point_in_atom(e2, ainf, A(e2, path(e2, "v", "a")))
        assert not fg.point_in_atom(e2, ainf, A(e2, fg.trivial_path(e2, "v"), ("a", 1)))
        einf = fg.periodic_point(one_orbit, fg.trivial_path(one_orbit, "v"),
                                 path(one_orbit, "v", "e"))
        assert fg.point_in_atom(one_orbit, einf, A(one_orbit, path(one_orbit, "v", "e", "e")))

    def test_finite_point_needs_singular_range(self, e2):
        with pytest.raises(PathError):
            fg.finite_point(e2, path(e2, "v", "a"))

    def test_finite_point_follows_its_stem(self, monkeypatch):
        # d leaves u, not v; c leads to u, not to the sink s
        g = make_sink_graph()
        with pytest.raises(PathError, match=r"^edge \('d', 1\) does not continue the path at 'v'$"):
            fg.finite_point(g, fg.FinitePath("v", (("d", 1),), "s"))
        with pytest.raises(PathError, match="ends at 'u', not at 's'$"):
            fg.finite_point(g, fg.FinitePath("v", (("c", 1),), "s"))
        # the point reader walks its literal once
        calls = []
        check_ref = g.check_ref
        monkeypatch.setattr(g, "check_ref", lambda ref: calls.append(ref) or check_ref(ref))
        pt = fg.parse_point(g, "v:c,d,b !")
        assert calls == [("c", 1), ("d", 1), ("b", 1)]
        assert pt == fg.finite_point(g, fg.make_path(g, "v", [("c", 1), ("d", 1), ("b", 1)]))

    def test_shift_count_matches_unroll(self, rng):
        from fullgroups.pathspace import point_edge

        g = make_two_vertex_omega()
        for p in enumerate_points(g, 3, 2, omega_bound=2):
            if p.is_finite:
                continue
            q = p
            for i in range(6):
                q = fg.shift_point(g, q)
            for i in range(4):
                assert point_edge(q, i) == point_edge(p, i + 6)


def _outcome(f, *args):
    """The result of ``f(*args)``, or the type and message of its refusal."""
    try:
        return f(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)


def _rewrite_graphs():
    """The conftest graphs with their small points, and random graphs with
    up to 30 of theirs."""
    rnd = random.Random(7)
    out = [(g, enumerate_points(g, 3, 2)) for g in algebra_graphs()]
    for g in (random_graph(rnd) for _ in range(40)):
        pts = enumerate_points(g, 2, 2)
        out.append((g, rnd.sample(pts, min(len(pts), 30))))
    return out


class TestPointRewrite:
    """Shift, prefix replacement and point parsing against the versions
    that did their own case analysis."""

    def test_shift_matches_reference(self):
        shifted = 0
        for g, pts in _rewrite_graphs():
            for p in pts:
                q = p
                for _ in range(len(p.prefix) + 2 * len(p.cycle or ()) + 1):
                    got = _outcome(fg.shift_point, g, q)
                    assert got == _outcome(old_shift_point, g, q)
                    if not isinstance(got, fg.BoundaryPoint):
                        break
                    q = got
                    shifted += 1
        assert shifted > 1000

    def test_replace_matches_reference(self):
        past_prefix = 0
        for g, pts in _rewrite_graphs():
            news = {}
            for v in g.vertices:
                for q in enumerate_paths_upto(g, v, 2):
                    news.setdefault(q.rng, []).append(q)
            for p in pts:
                for k in range(len(p.prefix) + 2 * len(p.cycle or ()) + 1):
                    edges = [pathspace.point_edge(p, i) for i in range(k)]
                    if None in edges:
                        break
                    old = fg.make_path(g, p.prefix.start, edges)
                    for new in news[old.rng]:
                        got = _outcome(pathspace.replace_point_prefix, g, p, old, new)
                        assert got == _outcome(old_replace_point_prefix, g, p, old, new)
                        past_prefix += k > len(p.prefix) and isinstance(got, fg.BoundaryPoint)
        assert past_prefix > 1000

    def test_parse_matches_reference(self):
        refusals = {"does not continue the path": 0,
                    "cycle must be based at the end of the prefix": 0,
                    "finite boundary paths must end at a singular vertex": 0}
        for g, pts in _rewrite_graphs():
            refs = [pathspace.format_ref(g, (f.id, 1)) for f in g.families]
            for p in pts:
                assert fg.parse_point(g, fg.format_point(g, p)) == p
                lits = [fg.format_point(g, p), fg.format_path(g, p.prefix) + " !"]
                lits += [f"{fg.format_path(g, p.prefix)} / ({r})" for r in refs]
                if p.cycle is not None:
                    cyc = ",".join(pathspace.format_ref(g, e) for e in p.cycle.edges)
                    lits += [f"{fg.format_path(g, p.prefix)} / ({cyc},{r})" for r in refs]
                for lit in lits:
                    got = _outcome(fg.parse_point, g, lit)
                    assert got == _outcome(old_parse_point, g, lit)
                    if not isinstance(got, fg.BoundaryPoint):
                        assert got[0] is ParseError
                        for why in refusals:
                            refusals[why] += why in got[1]
        assert min(refusals.values()) > 10, refusals


class TestLiterals:
    def test_path_roundtrip(self):
        g = make_two_vertex_omega()
        for lit in ("w1:", "w1:h", "w1:e[2],e[1],h", "w2:f[3]"):
            p = fg.parse_path(g, lit)
            assert fg.format_path(g, p) == lit

    def test_each_ref_is_checked_once(self, monkeypatch):
        g = make_two_vertex_omega()
        calls = []
        check_ref = g.check_ref
        monkeypatch.setattr(g, "check_ref", lambda ref: calls.append(ref) or check_ref(ref))
        p = fg.parse_path(g, "w1:e[2],e[1],e[2],h")
        assert calls == [("e", 2), ("e", 1), ("h", 1)] and len(p) == 4
        calls.clear()
        pt = fg.parse_point(g, "w1:e[2],h / (f[1],f[3],f[1])")
        assert calls == [("e", 2), ("h", 1), ("f", 1), ("f", 3)]
        assert fg.format_point(g, pt) == "w1:e[2],h / (f[1],f[3],f[1])"

    def test_point_literal_edges(self, e2):
        # the cycle needs both parentheses, and "!" may follow a ref directly
        for bad in ("v: / (a,b", "v: / a,b)"):
            with pytest.raises(ParseError, match="^bad cycle part"):
                fg.parse_point(e2, bad)
        g = make_two_vertex_omega()
        assert fg.parse_point(g, "w1:h!").prefix == fg.parse_path(g, "w1:h")

    def test_a_bad_ref_in_a_literal_is_named(self):
        g = make_two_vertex_omega()
        with pytest.raises(ParseError, match=r"^bad edge reference ' h\[2\]': .*single family"):
            fg.parse_path(g, "w1:e[2], h[2]")
        with pytest.raises(ParseError, match=r"^bad edge reference 'q': .*unknown family"):
            fg.parse_point(g, "w1:e[1] / (e[1],q)")

    def test_point_roundtrip(self):
        g = make_two_vertex_omega()
        for lit in ("w1:h !", "w1: / (e[1],e[2])", "w2:f[2] / (f[1])"):
            p = fg.parse_point(g, lit)
            assert fg.format_point(g, p) == lit

    def test_minimization_on_parse(self, e2):
        p = fg.parse_point(e2, "v:a / (b,a)")
        assert fg.format_point(e2, p) == "v: / (a,b)"

    def test_parse_errors(self, e2):
        for bad in ("v", "v:q", "v:a", "v:a / ()", "v:a / b"):
            with pytest.raises(ParseError):
                fg.parse_point(e2, bad)

    @pytest.mark.parametrize("idx", ["01", "00", "007", "\u0661", "1\u0662"])
    def test_edge_index_is_a_plain_numeral(self, idx):
        g = make_two_vertex_omega()
        lit = f"e[{idx}]"
        with pytest.raises(ParseError, match=f"^bad edge reference {re.escape(repr(lit))}$"):
            pathspace.parse_ref(g, lit)
        with pytest.raises(ParseError, match=f"^bad edge reference {re.escape(repr(lit))}$"):
            fg.parse_path(g, f"w1:{lit}")
        with pytest.raises(ParseError, match=r"^bad edge reference 'e\[0\]': .*bad edge index"):
            pathspace.parse_ref(g, "e[0]")
        assert pathspace.parse_ref(g, "e[10]") == ("e", 10)

    @pytest.mark.parametrize("data", [
        [5], ["v:a"], [{}], [{"F": []}], [{"mu": 3}], [{"mu": "v:a", "F": "b"}],
        [{"mu": "v:a", "F": [1]}],
    ])
    def test_co_json_shape_errors(self, e2, data):
        with pytest.raises(ParseError):
            fg.co_from_json(e2, data)

    def test_co_json_roundtrip(self, e2, rng):
        from fullgroups.pathspace import co_from_json, co_to_json

        for _ in range(20):
            x = fg.co_make(e2, _random_atoms(e2, rng))
            assert co_from_json(e2, co_to_json(e2, x)) == x
