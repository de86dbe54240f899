"""Shared graphs and enumeration helpers for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

import fullgroups as fg
from fullgroups.embed import _tiles
from fullgroups.errors import PathError

from pairwise_reference import atom_split


def make_e2():
    return fg.Graph(["v"], [fg.EdgeFamily("a", "v", "v"), fg.EdgeFamily("b", "v", "v")])


def make_e_nr(n: int, r: int):
    """r vertices w1..wr; n edges w1 -> wr; chain edges f_i: w_{i+1} -> w_i."""
    vertices = [f"w{i}" for i in range(1, r + 1)]
    fams = [fg.EdgeFamily(f"e{i}", "w1", f"w{r}") for i in range(1, n + 1)]
    fams += [fg.EdgeFamily(f"f{i}", f"w{i + 1}", f"w{i}") for i in range(1, r)]
    return fg.Graph(vertices, fams)


def make_one_orbit():
    """Loop e at v, edge f: v -> w, loops g1 g2 at w."""
    return fg.Graph(
        ["v", "w"],
        [
            fg.EdgeFamily("e", "v", "v"),
            fg.EdgeFamily("f", "v", "w"),
            fg.EdgeFamily("g1", "w", "w"),
            fg.EdgeFamily("g2", "w", "w"),
        ],
    )


def make_no_cover():
    """Loop e at v, f: v -> w, loop h at w, i: w -> u, loops g1 g2 at u."""
    return fg.Graph(
        ["v", "w", "u"],
        [
            fg.EdgeFamily("e", "v", "v"),
            fg.EdgeFamily("f", "v", "w"),
            fg.EdgeFamily("h", "w", "w"),
            fg.EdgeFamily("i", "w", "u"),
            fg.EdgeFamily("g1", "u", "u"),
            fg.EdgeFamily("g2", "u", "u"),
        ],
    )


def make_e_inf():
    return fg.Graph(["w"], [fg.EdgeFamily("e", "w", "w", "omega")])


def make_two_vertex_omega():
    """Single h: w1 -> w2 plus omega loop bundles at both vertices."""
    return fg.Graph(
        ["w1", "w2"],
        [
            fg.EdgeFamily("h", "w1", "w2"),
            fg.EdgeFamily("e", "w1", "w1", "omega"),
            fg.EdgeFamily("f", "w2", "w2", "omega"),
        ],
    )


def make_ab_graph():
    """e: a -> b, f: b -> a, a loop h at a and an omega loop bundle w at b."""
    return fg.Graph(
        ["a", "b"],
        [
            fg.EdgeFamily("e", "a", "b"),
            fg.EdgeFamily("f", "b", "a"),
            fg.EdgeFamily("h", "a", "a"),
            fg.EdgeFamily("w", "b", "b", "omega"),
        ],
    )


def make_sink_graph():
    """Loop a at v, b: v -> s (a sink), c: v -> u, d: u -> v, omega loops x at u."""
    return fg.Graph(
        ["v", "s", "u"],
        [
            fg.EdgeFamily("a", "v", "v"),
            fg.EdgeFamily("b", "v", "s"),
            fg.EdgeFamily("c", "v", "u"),
            fg.EdgeFamily("d", "u", "v"),
            fg.EdgeFamily("x", "u", "u", "omega"),
        ],
    )


def algebra_graphs():
    """Finite graphs with loops, exits, omega bundles and a sink."""
    return [make_e2(), make_one_orbit(), make_no_cover(), make_e_inf(),
            make_two_vertex_omega(), make_sink_graph()]


def make_leveled_chain_graph():
    """Infinite chain of vertices w1, w2, ...; loop f at odd vertices."""
    return fg.LeveledGraph(
        base_levels=[],
        block_levels=[["w{}"], ["w{}"]],
        base_families=[],
        block_families=[
            fg.TemplateFamily("e{}", "w{}", "w{}", "next", 0),
            fg.TemplateFamily("f{}", "w{}", "w{}", "same", 0),
            fg.TemplateFamily("e{}", "w{}", "w{}", "next", 1),
        ],
    )


def make_leveled_mixed_graph():
    """Base levels of sizes 1 and 3, a block of a two-vertex level (names
    ``x@k``, ``y@k``) and a ``t{}`` template level, same- and next-level
    families, ``{}`` family ids."""
    T = fg.TemplateFamily
    return fg.LeveledGraph(
        base_levels=[["r"], ["a", "b", "c"]],
        block_levels=[["x", "y"], ["t{}"]],
        base_families=[
            T("ra", "r", "a"), T("rr", "r", "r", "same"), T("rb", "r", "b"),
            T("ab", "a", "b", "same"), T("ax", "a", "x"), T("bx", "b", "x"),
            T("by", "b", "y"), T("ca", "c", "a", "same"), T("cy", "c", "y"),
        ],
        block_families=[
            T("xy", "x", "y", "same"), T("xt", "x", "t{}"), T("yy", "y", "y", "same"),
            T("yt", "y", "t{}"), T("s{}", "t{}", "x"), T("l{}", "t{}", "t{}", "same"),
        ],
    )


def make_gamma2_diagram():
    """|Gamma_1| = 2: two edges v0 -> u, one v0 -> u2; full 2x2 block repeats."""
    return fg.BratteliDiagram(
        levels=(("v0",), ("u", "u2"), ("u", "u2")),
        edges=(
            (("v0", "u"), ("v0", "u"), ("v0", "u2")),
            (("u", "u"), ("u", "u2"), ("u2", "u"), ("u2", "u2")),
        ),
        repeat=(1, 1),
    )


def make_gamma24_diagram():
    """|Gamma_2| = 4! = 24: four paths into a single level-2 vertex."""
    return fg.BratteliDiagram(
        levels=(("v0",), ("x", "y"), ("z",), ("z",)),
        edges=(
            (("v0", "x"), ("v0", "y")),
            (("x", "z"), ("x", "z"), ("y", "z"), ("y", "z")),
            (("z", "z"), ("z", "z")),
        ),
        repeat=(2, 1),
    )


def make_doubling_diagram():
    """Two fibers that double at each level: 2**(N-1) paths into u@N-1 and
    into u2@N-1 at level N."""
    return fg.BratteliDiagram(
        levels=(("v0",), ("u", "u2"), ("u", "u2")),
        edges=((("v0", "u"), ("v0", "u2")),
               (("u", "u"), ("u", "u2"), ("u2", "u"), ("u2", "u2"))),
        repeat=(1, 1),
    )


def path(g, start, *edges):
    """Path helper: single-family ids or (family, index) pairs."""
    refs = [e if isinstance(e, tuple) else (e, 1) for e in edges]
    return fg.make_path(g, start, refs)


def cyc_point(g, prefix, cycle):
    return fg.periodic_point(g, prefix, cycle)


def enumerate_points(g, max_prefix=3, max_cycle=2, omega_bound=2):
    """All finite boundary points and small eventually periodic points."""

    def refs_at(v):
        out = [(f.id, 1) for f in g.out_singles(v)]
        fam = g.omega_family(v)
        if fam:
            out += [(fam.id, j) for j in range(1, omega_bound + 1)]
        return out

    frontier = [fg.trivial_path(g, v) for v in g.vertices]
    all_paths = list(frontier)
    for _ in range(max_prefix + max_cycle):
        frontier = [fg.extend(g, p, r) for p in frontier for r in refs_at(p.rng)]
        all_paths += frontier
    pts = set()
    for p in all_paths:
        if g.is_singular(p.rng) and len(p.edges) <= max_prefix:
            pts.add(fg.finite_point(g, p))
    cycles_at = {}
    for c in all_paths:
        if 1 <= len(c.edges) <= max_cycle and c.start == c.rng:
            cycles_at.setdefault(c.start, []).append(c)
    for p in all_paths:
        if len(p.edges) > max_prefix:
            continue
        for c in cycles_at.get(p.rng, []):
            pts.add(fg.periodic_point(g, p, c))
    return sorted(pts, key=lambda x: (len(x.prefix.edges), str(x)))


def random_graph(rng: random.Random, max_vertices=4, max_edges=6, omega_chance=0.15):
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    fams = []
    omega_used = set()
    for k in range(rng.randint(1, max_edges)):
        src = rng.choice(vertices)
        dst = rng.choice(vertices)
        if rng.random() < omega_chance and src not in omega_used:
            fams.append(fg.EdgeFamily(f"x{k}", src, dst, "omega"))
            omega_used.add(src)
        else:
            fams.append(fg.EdgeFamily(f"x{k}", src, dst))
    return fg.Graph(vertices, fams)


def random_diagram(rnd: random.Random):
    """A valid diagram: repeating with ``from`` 0-2 and period 1-3, or not
    repeating (then with sinks and sources below level 0)."""
    if rnd.random() < 0.25:
        repeat, n_levels = None, rnd.randint(2, 5)
    else:
        repeat = (rnd.randint(0, 2), rnd.randint(1, 3))
        n_levels = sum(repeat) + 1
    levels = [[f"v{lev}_{i}" for i in range(rnd.randint(1, 3))] for lev in range(n_levels)]
    if repeat is not None:
        levels[-1] = levels[repeat[0]]
    edges = []
    for lev in range(1, n_levels):
        srcs, rngs = levels[lev - 1], levels[lev]
        eset = [(s, rnd.choice(rngs)) for s in srcs for _ in range(rnd.randint(1, 2))]
        if repeat is None:
            eset = [e for e in eset if rnd.random() < 0.8] or eset[:1]
        elif lev > repeat[0]:  # recurring levels have no sources
            eset += [(rnd.choice(srcs), r) for r in rngs if r not in {r for _, r in eset}]
        rnd.shuffle(eset)
        edges.append(eset)
    return fg.BratteliDiagram(levels, edges, repeat)


def random_gamma_element(b, N, rnd: random.Random):
    """A random permutation of each fiber at level N, given with its fixed paths."""
    mapping = {}
    for paths in b.fibers(N).values():
        mapping.update(zip(paths, rnd.sample(paths, len(paths))))
    return fg.GammaElement(b, N, mapping)


def random_leveled_graph(rng: random.Random):
    """A leveled graph of 0-2 base and 1-3 block levels of 1-3 vertices, a
    ``{}`` name on some singleton block levels, and 0-2 out-families per
    vertex to the same level or the next: sinks, exitless cycles and
    semi-tails all occur."""
    def level(prefix, lev, block):
        if block and rng.random() < 0.2:
            return [f"{prefix}{lev}t{{}}"]
        return [f"{prefix}{lev}_{i}" for i in range(rng.randint(1, 3))]

    base = [level("b", lev, False) for lev in range(rng.randint(0, 2))]
    block = [level("k", lev, True) for lev in range(rng.randint(1, 3))]
    levels = base + block
    fams = ([], [])
    for lev, names in enumerate(levels):
        in_block = lev >= len(base)
        nxt = levels[lev + 1] if lev + 1 < len(levels) else block[0]
        for v in names:
            for _ in range(rng.choice([0, 1, 1, 1, 2, 2])):
                where = "same" if rng.random() < 0.4 else "next"
                rng_v = rng.choice(names if where == "same" else nxt)
                fid = f"{'pq'[in_block]}{len(fams[in_block])}" + ("_{}" if "{}" in v else "")
                fams[in_block].append(fg.TemplateFamily(fid, v, rng_v, where))
    return fg.LeveledGraph(base, block, *fams)


def enumerate_paths_upto(g, v, length):
    """All finite paths from v of length <= length (singles only, omega by index 1..2)."""
    out = [fg.trivial_path(g, v)]
    frontier = [fg.trivial_path(g, v)]
    for _ in range(length):
        nxt = []
        for p in frontier:
            for fam in g.out_families(p.rng):
                idxs = (1, 2) if fam.is_omega else (1,)
                for i in idxs:
                    nxt.append(fg.extend(g, p, (fam.id, i)))
        out += nxt
        frontier = nxt
    return out


def random_table(g, rng: random.Random, splits: int = 5, omega_bound: int = 3):
    """Random element: a random atom partition of the boundary space plus a
    range-and-exclusion-preserving permutation of its atoms."""
    if not g.is_finite:
        raise PathError("random tables need a finite graph: its boundary must be compact")
    atoms = [fg.atom(g, fg.trivial_path(g, v)) for v in g.vertices]
    for _ in range(splits):
        i = rng.randrange(len(atoms))
        a = atoms[i]
        v = a.mu.rng
        candidates = [(f.id, 1) for f in g.out_singles(v) if (f.id, 1) not in a.F]
        fam = g.omega_family(v)
        if fam is not None:
            top = max([idx for (fid, idx) in a.F if fid == fam.id], default=0)
            candidates += [(fam.id, j) for j in range(1, top + omega_bound + 1)
                           if (fam.id, j) not in a.F]
        if not candidates:
            continue
        e = rng.choice(candidates)
        atoms[i:i + 1] = atom_split(g, a, e).atoms
    groups = {}
    for a in atoms:
        key = (a.mu.rng, tuple(sorted(a.F)))
        groups.setdefault(key, []).append(a)
    pieces = []
    for group in groups.values():
        perm = group[:]
        rng.shuffle(perm)
        for src, tgt in zip(group, perm):
            if src != tgt:
                pieces.append(fg.Piece(tgt.mu, src.F, src.mu))
    return fg.make_table(g, pieces, validate=False)


def code_partition_check(i, depth: int) -> bool:
    """The code words have length at most ``depth`` and tile all binary
    words (with ``a^depth`` added when i is OMEGA)."""
    if i == fg.OMEGA:
        words = [fg.code_word(j, i) for j in range(1, depth + 1)] + ["a" * depth]
    else:
        words = [fg.code_word(j, i) for j in range(1, i + 1)]
    return all(len(w) <= depth for w in words) and _tiles(sorted(words), "")


def _refs_at(g, v, omega_bound=3):
    refs = [(f.id, 1) for f in g.out_singles(v)]
    fam = g.omega_family(v)
    if fam:
        refs += [(fam.id, j) for j in range(1, omega_bound + 1)]
    return refs


@st.composite
def atom_lists(draw, g, max_atoms=8, max_depth=3):
    """Atoms of ``g``: a random list of (often overlapping) atoms, pieces of
    a random partition of the boundary space (disjoint, with whole sibling
    families), or both in one list."""
    atoms = []
    kind = draw(st.sampled_from(["random", "partition", "both"]))
    if kind != "partition":
        for _ in range(draw(st.integers(0, max_atoms))):
            p = fg.trivial_path(g, draw(st.sampled_from(g.vertices)))
            for _ in range(draw(st.integers(0, max_depth))):
                refs = _refs_at(g, p.rng)
                if not refs:
                    break
                p = fg.extend(g, p, draw(st.sampled_from(refs)))
            refs = _refs_at(g, p.rng)
            F = draw(st.sets(st.sampled_from(refs))) if refs else set()
            if g.is_regular(p.rng) and len(F) == len(refs):
                F.discard(draw(st.sampled_from(refs)))
            atoms.append(fg.atom(g, p, F))
    if kind != "random":
        parts = [fg.atom(g, fg.trivial_path(g, v)) for v in g.vertices]
        for _ in range(draw(st.integers(0, 3 * max_atoms))):
            i = draw(st.integers(0, len(parts) - 1))
            a = parts[i]
            refs = [e for e in _refs_at(g, a.mu.rng) if e not in a.F]
            if refs:
                parts[i:i + 1] = atom_split(g, a, draw(st.sampled_from(refs))).atoms
        keep = draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
        atoms += draw(st.permutations([a for a, k in zip(parts, keep) if k]))
    return atoms


@pytest.fixture
def e2():
    return make_e2()


@pytest.fixture
def one_orbit():
    return make_one_orbit()


@pytest.fixture
def e_inf():
    return make_e_inf()


@pytest.fixture
def rng():
    return random.Random(20240817)
