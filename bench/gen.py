"""Seeded input generator for the benchmark, stdlib only.

Everything here produces JSON literals in the toolkit's file formats (graph,
table, compact open, point and arrow literals, Bratteli diagrams and gamma
elements).  It never imports ``fullgroups``: the inputs must not change when
the library's own random helpers change, and the same ``random.Random`` seed
must always give byte-identical literals.

Internally an edge reference is ``(family_id, index)`` with index 1 for a
single edge, a path is ``(start, edges)`` and an atom ``Z(mu \\ F)`` is
``(path, F)`` with ``F`` a frozenset of references.
"""

from __future__ import annotations

import math


def strata(rng, lo, hi, count):
    """``count`` sizes spread evenly over [lo, hi]: one uniform draw inside
    each of ``count`` equal strata, so every seed puts the same amount of
    work at every size."""
    return [round(lo + (hi - lo) * (k + rng.random()) / count) for k in range(count)]


def _g(vertices, *edges):
    return {"vertices": list(vertices),
            "edges": [{"id": i, "src": s, "rng": r, "mult": m} for i, s, r, m in edges]}


# The effective graphs the table workloads run over: E2, the one-orbit graph,
# the two-vertex omega graph and the no-cover graph, written out here.
TABLE_GRAPHS = {
    "E2": _g(["v"], ("a", "v", "v", "1"), ("b", "v", "v", "1")),
    "one_orbit": _g(["v", "w"], ("e", "v", "v", "1"), ("f", "v", "w", "1"),
                    ("g1", "w", "w", "1"), ("g2", "w", "w", "1")),
    "two_vertex_omega": _g(["w1", "w2"], ("h", "w1", "w2", "1"),
                           ("e", "w1", "w1", "omega"), ("f", "w2", "w2", "omega")),
    "no_cover": _g(["v", "w", "u"], ("e", "v", "v", "1"), ("f", "v", "w", "1"),
                   ("h", "w", "w", "1"), ("i", "w", "u", "1"),
                   ("g1", "u", "u", "1"), ("g2", "u", "u", "1")),
}

EINF = _g(["w"], ("e", "w", "w", "omega"))

LEVELED_CHAIN = {
    "kind": "leveled", "base_levels": [], "block_levels": [["w{}"], ["w{}"]],
    "base_edges": [],
    "block_edges": [
        {"id": "e{}", "src": "w{}", "rng": "w{}", "where": "next", "src_level": 0},
        {"id": "f{}", "src": "w{}", "rng": "w{}", "where": "same", "src_level": 0},
        {"id": "e{}", "src": "w{}", "rng": "w{}", "where": "next", "src_level": 1},
    ],
}


class Shape:
    """Out-edge structure of a finite graph JSON literal."""

    def __init__(self, data):
        self.vertices = list(data["vertices"])
        self.singles = {v: [] for v in self.vertices}
        self.omega = {v: None for v in self.vertices}
        self.range_of = {}
        for e in data["edges"]:
            if e.get("mult", "1") == "omega":
                self.omega[e["src"]] = e["id"]
            else:
                self.singles[e["src"]].append(e["id"])
            self.range_of[e["id"]] = e["rng"]
        self.is_omega = {fid for fid in self.omega.values() if fid is not None}

    def regular(self, v) -> bool:
        return self.omega[v] is None and bool(self.singles[v])

    def rng(self, path):
        start, edges = path
        return self.range_of[edges[-1][0]] if edges else start

    def ref(self, ref) -> str:
        fid, idx = ref
        return f"{fid}[{idx}]" if fid in self.is_omega else fid

    def path(self, path) -> str:
        start, edges = path
        return f"{start}:" + ",".join(self.ref(e) for e in edges)

    def split_candidates(self, v, F, omega_extra=3):
        out = [(fid, 1) for fid in self.singles[v] if (fid, 1) not in F]
        fam = self.omega[v]
        if fam is not None:
            top = max([i for f, i in F if f == fam], default=0)
            out += [(fam, j) for j in range(1, top + omega_extra + 1) if (fam, j) not in F]
        return out

    def nonempty(self, v, F) -> bool:
        return not (self.regular(v) and F >= {(f, 1) for f in self.singles[v]})

    def point(self, path, F=frozenset()):
        """Point literal ``path . e . l^inf`` inside Z(path \\ F): e is the
        first allowed edge and l a loop at its range."""
        e = self.split_candidates(self.rng(path), F, omega_extra=1)[0]
        w = self.range_of[e[0]]
        loop = next(((f, 1) for f in self.singles[w] if self.range_of[f] == w), None)
        if loop is None:
            loop = (self.omega[w], 1)
        return f"{self.path((path[0], path[1] + (e,)))} / ({self.ref(loop)})"


def split(shape, atom, e):
    """Z(mu \\ F) = Z(mu \\ F+e) + Z(mu e); an empty residual is dropped."""
    path, F = atom
    child = ((path[0], path[1] + (e,)), frozenset())
    v = shape.rng(path)
    rest = F | {e}
    return ([(path, rest)] if shape.nonempty(v, rest) else []) + [child]


def random_partition(shape, rng, n, roots):
    """Split random atoms of ``roots`` until there are n (or no progress)."""
    atoms = list(roots)
    for _ in range(20 * n):
        if len(atoms) >= n:
            break
        i = rng.randrange(len(atoms))
        path, F = atoms[i]
        e = rng.choice(shape.split_candidates(shape.rng(path), F))
        atoms[i:i + 1] = split(shape, atoms[i], e)
    return atoms


def permute(shape, rng, atoms):
    """Pieces (mu, F, lam) of a random permutation of atoms that share their
    range vertex and exclusion set; at least one piece moves if any group
    has two atoms."""
    groups = {}
    for path, F in atoms:
        groups.setdefault((shape.rng(path), tuple(sorted(F))), []).append((path, F))
    pieces = []
    for key in sorted(groups):
        group = groups[key]
        perm = group[:]
        rng.shuffle(perm)
        if len(group) > 1 and perm == group:
            perm = group[1:] + group[:1]
        pieces += [(tgt[0], src[1], src[0]) for src, tgt in zip(group, perm) if src != tgt]
    return pieces


def root_atoms(shape):
    return [((v, ()), frozenset()) for v in shape.vertices]


def random_element(shape, rng, n, roots=None):
    """A random permutation of a random partition with at least n moved
    pieces: the partition grows until enough of its atoms move."""
    m = n
    while True:
        pieces = permute(shape, rng, random_partition(shape, rng, m, roots or root_atoms(shape)))
        if len(pieces) >= n:
            return pieces
        m += max(1, (n - len(pieces)) // 2)


def refine(shape, pieces, rng):
    """Same homeomorphism, every piece split into its children: all allowed
    edges at a regular vertex, one or two fresh omega edges (plus the
    enlarged exclusion residual) at an omega vertex."""
    out = []
    for mu, F, lam in pieces:
        v = shape.rng(mu)
        if shape.regular(v):
            refs = [(f, 1) for f in shape.singles[v] if (f, 1) not in F]
            out += [((mu[0], mu[1] + (e,)), frozenset(), (lam[0], lam[1] + (e,))) for e in refs]
        else:
            fresh = shape.split_candidates(v, F, omega_extra=2)[:rng.randint(1, 2)]
            out += [((mu[0], mu[1] + (e,)), frozenset(), (lam[0], lam[1] + (e,))) for e in fresh]
            out.append((mu, F | frozenset(fresh), lam))
    return out


def swap_targets(shape, pieces):
    """A different element: two pieces with the same range and F trade their
    codomain stems.  None when no two pieces qualify."""
    seen = {}
    for i, (mu, F, lam) in enumerate(pieces):
        key = (shape.rng(mu), tuple(sorted(F)))
        if key in seen:
            j = seen[key]
            out = list(pieces)
            out[i] = (pieces[j][0], F, lam)
            out[j] = (mu, pieces[j][1], pieces[j][2])
            return out
        seen[key] = i
    return None


def table_json(shape, pieces):
    return {"pieces": [{"mu": shape.path(mu), "F": sorted(shape.ref(e) for e in F),
                        "lambda": shape.path(lam)} for mu, F, lam in pieces]}


def co_json(shape, atoms):
    return [{"mu": shape.path(p), "F": sorted(shape.ref(e) for e in F)} for p, F in atoms]


def paths_upto(shape, length):
    """Every path of at most ``length`` edges, omega edges up to index 2."""
    out = [(v, ()) for v in shape.vertices]
    frontier = list(out)
    for _ in range(length):
        frontier = [(p[0], p[1] + (e,)) for p in frontier
                    for e in shape.split_candidates(shape.rng(p), frozenset(), 2)]
        out += frontier
    return out


def probe_points(shape, depth=2):
    """Finite and eventually periodic point literals near the roots: every
    short path followed by each loop at its end, and finite points at
    singular (omega) vertices."""
    pts = []
    for p in paths_upto(shape, depth):
        v = shape.rng(p)
        if shape.omega[v] is not None:
            pts.append(shape.path(p) + " !")
        for f in shape.singles[v]:
            if shape.range_of[f] == v:
                pts.append(f"{shape.path(p)} / ({f})")
        fam = shape.omega[v]
        if fam is not None and shape.range_of[fam] == v:
            pts.append(f"{shape.path(p)} / ({fam}[2])")
    return pts


def incomparable(p, q) -> bool:
    if p[0] != q[0]:
        return True
    k = min(len(p[1]), len(q[1]))
    return p[1][:k] != q[1][:k]


def random_arrow(shape, rng, lag):
    """(target | lag | source) with source = lam.z and target = mu.z for
    incomparable stems of the same range, |mu| - |lam| = lag; also returns
    the compact open Z(mu) + Z(lam) containing both ends."""
    paths = paths_upto(shape, 4)
    for _ in range(1000):
        lam = rng.choice(paths)
        if len(lam[1]) + lag < 0:
            continue
        same = [p for p in paths if len(p[1]) == len(lam[1]) + lag
                and shape.rng(p) == shape.rng(lam) and incomparable(p, lam)]
        if same:
            mu = rng.choice(same)
            arrow = f"({shape.point(mu)} | {lag} | {shape.point(lam)})"
            return arrow, co_json(shape, [(mu, frozenset()), (lam, frozenset())])
    raise ValueError(f"no arrow with lag {lag}")


# ---------------------------------------------------------------------------
# Finite graph families for the condition checkers
# ---------------------------------------------------------------------------

FAMILIES = ("ring_chords", "ring_loop", "ring_tail_omega")
FAMILY_SIZES = tuple(range(10, 81, 2))


def family_graph(kind, n):
    """Deterministic in (kind, n) so their reports can be recorded once."""
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"r{i}", vs[i], vs[(i + 1) % n], "1") for i in range(n)]
    if kind == "ring_chords":
        edges += [(f"c{i}", vs[i], vs[(7 * i + 3) % n], "1") for i in range(0, n, 3)]
    elif kind == "ring_loop":
        edges.append(("loop", vs[0], vs[0], "1"))
    elif kind == "ring_tail_omega":
        # a ring on the first half with an omega bundle, a tail of sources
        # feeding into it, and an exitless 2-cycle hanging off it
        m = n // 2
        edges = [(f"r{i}", vs[i], vs[(i + 1) % m], "1") for i in range(m)]
        edges += [(f"t{i}", vs[i], vs[i - 1], "1") for i in range(m + 1, n - 2)]
        edges += [("tm", vs[m], vs[0], "1"), ("om", vs[m // 2], vs[0], "omega"),
                  ("x", vs[1], vs[n - 2], "1"), ("y", vs[n - 2], vs[n - 1], "1"),
                  ("z", vs[n - 1], vs[n - 2], "1")]
    else:
        raise ValueError(kind)
    return _g(vs, *edges)


# ---------------------------------------------------------------------------
# Bratteli diagrams
# ---------------------------------------------------------------------------


def random_bratteli(rng):
    """Root r over a recurring level {x, y} (or {x, y, z}) with a random
    block in which every vertex has two out-edges, so there is no semi-tail
    and depth-6 fibers hold tens of paths."""
    names = ["x", "y"] if rng.random() < 0.5 else ["x", "y", "z"]
    first = [["r", v] for v in names]
    while True:
        block = [[s, rng.choice(names)] for s in names for _ in range(2)]
        if {r for _, r in block} == set(names):
            break
    return {"levels": [["r"], names, names], "edges": [first, block],
            "repeat": {"from": 1, "period": 1}}


def bratteli_paths(diagram, N):
    """Source-rooted paths down to level N as literals, by range vertex
    template name.

    Only diagrams shaped like ``random_bratteli`` (repeat from 1, period 1,
    every level-1 vertex fed from r) are handled."""
    first, block = diagram["edges"]
    paths = {}
    for k, (s, r) in enumerate(first, start=1):
        paths.setdefault(r, []).append(f"r:e1_{k}")
    for lev in range(2, N + 1):
        nxt = {}
        rep = lev - 2
        for k, (s, r) in enumerate(block, start=1):
            for p in paths.get(s, []):
                nxt.setdefault(r, []).append(f"{p},e2_{k}@{rep}")
        paths = nxt
    return paths


def fiber_order(diagram, N) -> int:
    """Product of factorials of the fiber sizes, counted independently."""
    first, block = diagram["edges"]
    count = {}
    for _, r in first:
        count[r] = count.get(r, 0) + 1
    for _ in range(2, N + 1):
        nxt = {}
        for s, r in block:
            nxt[r] = nxt.get(r, 0) + count.get(s, 0)
        count = nxt
    return math.prod(math.factorial(c) for c in count.values())


def random_gamma_element(rng, diagram, N):
    images = {}
    for _, ps in sorted(bratteli_paths(diagram, N).items()):
        perm = ps[:]
        rng.shuffle(perm)
        images.update({p: q for p, q in zip(ps, perm) if p != q})
    return {"level": N, "images": dict(sorted(images.items()))}
