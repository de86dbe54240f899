"""Finite paths, boundary points, and exact algebra of compact open sets.

A compact open subset of the boundary path space is kept as a finite disjoint
union of cylinder atoms ``Z(mu \\ F)``: boundary paths extending ``mu`` whose
continuation edge avoids the finite edge set ``F``.  All set operations are
exact; equality is decided by mutual subtraction rather than a canonical
form.

Boundary points are restricted to the computable ones: finite paths ending
at a singular vertex, and eventually periodic infinite paths kept in minimal
form (shortest prefix, primitive cycle).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter

from .errors import AtomError, GraphError, ParseError, PathError
from .graph import EdgeRef, _strings


@dataclass(frozen=True)
class FinitePath:
    start: str
    edges: tuple
    rng: str

    def __len__(self) -> int:
        return len(self.edges)


def make_path(g, start: str, edges=()) -> FinitePath:
    """Build a validated finite path; ``edges`` is a sequence of EdgeRefs."""
    if not g.has_vertex(start):
        raise PathError(f"unknown start vertex {start!r}")
    at = start
    edges = tuple(tuple(e) for e in edges)
    for ref in edges:
        fam = g.check_ref(ref)
        if fam.source != at:
            raise PathError(f"edge {ref!r} does not continue the path at {at!r}")
        at = fam.range
    return FinitePath(start, edges, at)


def trivial_path(g, vertex: str) -> FinitePath:
    return make_path(g, vertex, ())


def concat(g, p: FinitePath, q: FinitePath) -> FinitePath:
    if q.start != p.rng:
        raise PathError("paths do not compose")
    return FinitePath(p.start, p.edges + q.edges, q.rng)


def extend(g, p: FinitePath, ref: EdgeRef) -> FinitePath:
    fam = g.check_ref(ref)
    if fam.source != p.rng:
        raise PathError(f"edge {ref!r} does not start at {p.rng!r}")
    return FinitePath(p.start, p.edges + (tuple(ref),), fam.range)


def is_prefix(p: FinitePath, q: FinitePath) -> bool:
    """True iff p is an initial segment of q (paths share the start vertex)."""
    return p.start == q.start and q.edges[: len(p.edges)] == p.edges


# ---------------------------------------------------------------------------
# Cylinder atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderAtom:
    mu: FinitePath
    F: frozenset

    @property
    def depth(self) -> int:
        return len(self.mu.edges)


def _out_refs(g, vertex: str):
    """All out-edge refs at a regular vertex (finite by definition)."""
    return frozenset((f.id, 1) for f in g.out_singles(vertex))


def _excludes_all(g, v: str, F) -> bool:
    """``Z(mu \\ F)`` is empty for a stem ``mu`` ending at ``v``.  ``F`` holds
    only edges out of ``v``: it excludes all of them when it has as many as
    the out-degree, which is infinite at an omega vertex."""
    return bool(F) and len(F) == g.out_degree(v)


def _atom_or_none(g, mu: FinitePath, F: frozenset) -> CylinderAtom | None:
    """Atom constructor that returns None instead of an empty atom."""
    return None if _excludes_all(g, mu.rng, F) else CylinderAtom(mu, F)


def atom(g, mu: FinitePath, F=frozenset()) -> CylinderAtom:
    """Validated nonempty atom Z(mu \\ F)."""
    F = frozenset(tuple(e) for e in F)
    for ref in F:
        fam = g.check_ref(ref)
        if fam.source != mu.rng:
            raise AtomError(f"excluded edge {ref!r} is not outgoing at {mu.rng!r}")
    if g.is_sink(mu.rng) and F:
        raise AtomError("F must be empty at a sink")
    a = _atom_or_none(g, mu, F)
    if a is None:
        raise AtomError("empty atom: every outgoing edge excluded at a regular vertex")
    return a


def atom_intersect(g, a: CylinderAtom, b: CylinderAtom):
    """Intersection of two atoms: None, one of them, or a merged-F atom."""
    if a.mu == b.mu:
        return _atom_or_none(g, a.mu, a.F | b.F)
    if is_prefix(a.mu, b.mu):
        e = b.mu.edges[len(a.mu.edges)]
        return b if e not in a.F else None
    if is_prefix(b.mu, a.mu):
        e = a.mu.edges[len(b.mu.edges)]
        return a if e not in b.F else None
    return None


def atom_subtract(g, a: CylinderAtom, b: CylinderAtom):
    """a minus b as a disjoint list of atoms."""
    inter = atom_intersect(g, a, b)
    if inter is None:
        return [a]
    if inter == a:
        return []
    if a.mu == b.mu:
        return [CylinderAtom(extend(g, a.mu, e), frozenset()) for e in b.F - a.F]
    # here a.mu < b.mu strictly and b's branch is allowed in a
    k = len(a.mu.edges)
    out = [_atom_or_none(g, a.mu, a.F | {b.mu.edges[k]})]
    for d in range(k + 1, len(b.mu.edges)):
        stem = FinitePath(a.mu.start, b.mu.edges[:d], g.ref_source(b.mu.edges[d]))
        out.append(_atom_or_none(g, stem, frozenset({b.mu.edges[d]})))
    out += (CylinderAtom(extend(g, b.mu, e), frozenset()) for e in b.F)
    return [x for x in out if x is not None]


def atom_split(g, a: CylinderAtom, e: EdgeRef):
    """Z(mu\\F) = Z(mu\\(F+{e})) + Z(mu e) in atom order; an empty residual is dropped."""
    e = tuple(e)
    if g.check_ref(e).source != a.mu.rng:
        raise AtomError(f"edge {e!r} is not outgoing at {a.mu.rng!r}")
    if e in a.F:
        raise AtomError(f"edge {e!r} already excluded")
    parts = (_atom_or_none(g, a.mu, a.F | {e}), CylinderAtom(extend(g, a.mu, e), frozenset()))
    return CompactOpen(tuple(x for x in parts if x is not None))


# ---------------------------------------------------------------------------
# Compact opens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompactOpen:
    atoms: tuple

    def is_empty(self) -> bool:
        return not self.atoms


class _StemIndex:
    """Atoms by stem, in insertion order, for finding the ones that meet an atom.

    The stems form a trie: one root per start vertex, and a node per stem
    holding the positions of the atoms at that stem and the stems one edge
    below it.  An atom meets ``Z(mu \\ F)`` exactly when it sits at a proper
    prefix of ``mu`` and does not exclude the next edge of ``mu``, at ``mu``
    with a nonempty intersection, or below ``mu`` through an edge outside
    ``F``.
    """

    def __init__(self, g, atoms=()):
        self.g = g
        self.atoms = []
        self._roots = {}  # start vertex -> node; a node is (positions, {edge: node})
        for a in atoms:
            self.add(a)

    def add(self, a: CylinderAtom) -> None:
        node = self._roots.get(a.mu.start)
        if node is None:
            node = self._roots[a.mu.start] = ([], {})
        for e in a.mu.edges:
            below = node[1]
            node = below.get(e)
            if node is None:
                node = below[e] = ([], {})
        node[0].append(len(self.atoms))
        self.atoms.append(a)

    def meeting(self, a: CylinderAtom) -> list:
        """Positions of the indexed atoms that meet ``a``, in insertion order."""
        atoms = self.atoms
        hits = []
        node = self._roots.get(a.mu.start)
        for e in a.mu.edges:
            if node is None:
                break
            hits.extend(i for i in node[0] if e not in atoms[i].F)
            node = node[1].get(e)
        if node is not None:
            hits.extend(i for i in node[0] if atom_intersect(self.g, a, atoms[i]) is not None)
            stack = [kid for e, kid in node[1].items() if e not in a.F]
            while stack:
                node = stack.pop()
                hits.extend(node[0])
                stack.extend(node[1].values())
        hits.sort()
        return hits

    def subtract_from(self, a: CylinderAtom) -> list:
        """``a`` minus every indexed atom, as a disjoint list of atoms.

        Only the atoms that meet ``a`` cut it, in insertion order: the parts
        are subsets of ``a``, so the others miss every part.
        """
        parts = [a]
        for i in self.meeting(a):
            parts = [x for p in parts for x in atom_subtract(self.g, p, self.atoms[i])]
        return parts


def co_make(g, atoms) -> CompactOpen:
    """Normalize a list of atoms: disjointify, merge siblings, sort."""
    index = _StemIndex(g)
    for a in atoms:
        for part in index.subtract_from(a):
            index.add(part)
    return _merge_atoms(g, index.atoms)


def _merge_atoms(g, atoms) -> CompactOpen:
    """The sibling-merge rules on a disjoint atom list, in one pass from the
    deepest stem up; the result is ``co_make`` of the atoms.

    At each depth the atoms of one stem merge into their F-intersection
    atom, which absorbs the plain children ``Z(mu e)`` at its stem (each has
    ``e`` excluded, by disjointness), and the plain children of a stem
    without atoms that cover a regular vertex become the plain parent.  The
    rules are confluent on disjoint atoms, so this is the fixpoint that any
    order of applying them reaches.
    """
    levels = {}
    for a in atoms:
        levels.setdefault(a.depth, {}).setdefault(a.mu, []).append(a)
    merged = []
    plain = []  # plain atoms one level below the current depth
    for d in range(max(levels, default=-1), -1, -1):
        kids = {}
        for c in plain:
            kids.setdefault((c.mu.start, c.mu.edges[:-1]), []).append(c)
        plain = []
        for mu, group in levels.get(d, {}).items():
            F = group[0].F.intersection(*(a.F for a in group[1:]))
            absorbed = kids.pop((mu.start, mu.edges), ())
            a = group[0] if len(group) == 1 and not absorbed else CylinderAtom(
                mu, F.difference(c.mu.edges[-1] for c in absorbed))
            (merged if a.F else plain).append(a)
        for (start, edges), sibs in kids.items():
            w = g.ref_source(sibs[0].mu.edges[-1])
            if g.is_regular(w) and len(sibs) == len(g.out_singles(w)):
                plain.append(CylinderAtom(FinitePath(start, edges, w), frozenset()))
            else:
                merged.extend(sibs)
    return CompactOpen(_in_atom_order(g, merged + plain, attrgetter("mu", "F")))


def _in_atom_order(g, items, atom_of) -> tuple:
    """``items`` sorted stably by their atoms ``atom_of(item) = (stem, F)``:
    by the stem's start vertex index, its edges, then F's sorted edges, each
    edge ranked once by ``g.ref_sort_key``.  That key is injective on the
    edges out of one vertex, where two stems from one start first differ and
    where an F's edges leave, so ranks order the items as keys would."""
    atoms = [atom_of(x) for x in items]
    refs, starts = set(), set()
    for stem, F in atoms:
        starts.add(stem.start)
        refs.update(stem.edges, F)
    rank = {e: r for r, e in enumerate(sorted(refs, key=g.ref_sort_key))}.__getitem__
    index = {v: g.vertex_index(v) for v in starts}
    keys = [(index[stem.start], tuple(map(rank, stem.edges)), sorted(map(rank, F)) if F else [])
            for stem, F in atoms]
    return tuple(items[i] for i in sorted(range(len(items)), key=keys.__getitem__))


def co_union(g, x: CompactOpen, y: CompactOpen) -> CompactOpen:
    return co_make(g, list(x.atoms) + list(y.atoms))


def co_intersect(g, x: CompactOpen, y: CompactOpen) -> CompactOpen:
    index = _StemIndex(g, y.atoms)
    return co_make(g, [atom_intersect(g, a, y.atoms[j]) for a in x.atoms for j in index.meeting(a)])


def co_subtract(g, x: CompactOpen, y: CompactOpen) -> CompactOpen:
    index = _StemIndex(g, y.atoms)
    return co_make(g, [part for a in x.atoms for part in index.subtract_from(a)])


def co_equals(g, x: CompactOpen, y: CompactOpen) -> bool:
    """Equal sets: the same atoms, or each one minus the other is empty."""
    return x == y or co_subtract(g, x, y).is_empty() and co_subtract(g, y, x).is_empty()


def full_space(g) -> CompactOpen:
    if not g.is_finite:
        raise PathError("the boundary space of an infinite-vertex graph is not compact")
    return co_make(g, [atom(g, trivial_path(g, v)) for v in g.vertices])


# ---------------------------------------------------------------------------
# Boundary points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPoint:
    """Finite (cycle is None) or eventually periodic boundary path."""

    prefix: FinitePath
    cycle: FinitePath | None

    @property
    def is_finite(self) -> bool:
        return self.cycle is None


def finite_point(g, mu: FinitePath) -> BoundaryPoint:
    if not g.is_singular(mu.rng):
        raise PathError(f"finite boundary paths must end at a singular vertex, not {mu.rng!r}")
    return BoundaryPoint(mu, None)


def _primitive(edges: tuple) -> tuple:
    n = len(edges)
    for d in range(1, n + 1):
        if n % d == 0 and edges == edges[:d] * (n // d):
            return edges[:d]
    return edges


def periodic_point(g, prefix: FinitePath, cycle: FinitePath) -> BoundaryPoint:
    """Eventually periodic point prefix . cycle^inf, stored in minimal form."""
    if not cycle.edges:
        raise PathError("cycle must be nonempty")
    if cycle.start != cycle.rng or cycle.start != prefix.rng:
        raise PathError("cycle must be based at the end of the prefix")
    cyc = _primitive(cycle.edges)
    pre = prefix.edges
    start = prefix.start
    # roll the prefix back while its last edge matches the cycle's last edge
    while pre and pre[-1] == cyc[-1]:
        pre = pre[:-1]
        cyc = (cyc[-1],) + cyc[:-1]
    p = make_path(g, start, pre)
    c = make_path(g, p.rng, cyc)
    return BoundaryPoint(p, c)


def point_edge(p: BoundaryPoint, i: int):
    """The i-th edge (0-based) of the unrolled point, or None past a finite end."""
    k = len(p.prefix.edges)
    if i < k:
        return p.prefix.edges[i]
    if p.cycle is None:
        return None
    c = p.cycle.edges
    return c[(i - k) % len(c)]


def point_starts_with(g, p: BoundaryPoint, stem: FinitePath) -> bool:
    if stem.start != p.prefix.start:
        return False
    for i, e in enumerate(stem.edges):
        if point_edge(p, i) != e:
            return False
    return True


def point_in_atom(g, p: BoundaryPoint, a: CylinderAtom) -> bool:
    if not point_starts_with(g, p, a.mu):
        return False
    nxt = point_edge(p, len(a.mu.edges))
    return nxt is None or nxt not in a.F


def co_contains_point(g, x: CompactOpen, p: BoundaryPoint) -> bool:
    return any(point_in_atom(g, p, a) for a in x.atoms)


def shift_point(g, p: BoundaryPoint) -> BoundaryPoint:
    if p.cycle is None:
        if not p.prefix.edges:
            raise PathError("cannot shift a boundary path of length zero")
        e = p.prefix.edges[0]
        return BoundaryPoint(make_path(g, g.ref_range(e), p.prefix.edges[1:]), None)
    if p.prefix.edges:
        e = p.prefix.edges[0]
        pre = make_path(g, g.ref_range(e), p.prefix.edges[1:])
        return periodic_point(g, pre, p.cycle)
    c = p.cycle.edges
    rotated = c[1:] + c[:1]
    start = g.ref_range(c[0])
    return periodic_point(g, trivial_path(g, start), make_path(g, start, rotated))


def replace_point_prefix(g, p: BoundaryPoint, old: FinitePath, new: FinitePath) -> BoundaryPoint:
    """Rewrite p = old.z into new.z; requires old to prefix p and r(old)=r(new)."""
    if not point_starts_with(g, p, old):
        raise PathError("point does not extend the prefix being replaced")
    if old.rng != new.rng:
        raise PathError("replacement prefix ends at a different vertex")
    k = len(old.edges)
    if p.cycle is None:
        rest = make_path(g, old.rng, p.prefix.edges[k:])
        return BoundaryPoint(concat(g, new, rest), None)
    npre = len(p.prefix.edges)
    if k <= npre:
        rest = make_path(g, old.rng, p.prefix.edges[k:])
        return periodic_point(g, concat(g, new, rest), p.cycle)
    d = (k - npre) % len(p.cycle.edges)
    c = p.cycle.edges
    rotated = c[d:] + c[:d]
    return periodic_point(g, new, make_path(g, new.rng, rotated))


def tail_equivalent(g, p: BoundaryPoint, q: BoundaryPoint) -> bool:
    """Same orbit: finite points need equal range; periodic ones conjugate cycles."""
    if p.is_finite != q.is_finite:
        return False
    if p.is_finite:
        return p.prefix.rng == q.prefix.rng
    c, d = p.cycle.edges, q.cycle.edges
    if len(c) != len(d):
        return False
    return any(d[i:] + d[:i] == c for i in range(len(d)))


def witness_point(g, a: CylinderAtom) -> BoundaryPoint:
    """A representable point inside the atom: extend greedily to a sink,
    an omega-vertex, or a cycle."""
    path = a.mu
    banned = set(a.F)
    seen = {}
    # After the first step each greedy choice depends only on the vertex, on
    # a leveled graph only on its template (level in the base or the block,
    # and position).  Once every vertex or template has been passed, the
    # walk has returned, or it repeats a template a block later and wanders
    # forever.
    steps = sum(map(len, g._template_levels()))
    for _ in range(steps + 2):
        v = path.rng
        if g.is_sink(v) or g.omega_family(v) is not None:
            return finite_point(g, path)
        if v in seen:
            k = seen[v]
            pre = make_path(g, path.start, path.edges[:k])
            cyc = make_path(g, v, path.edges[k:])
            return periodic_point(g, pre, cyc)
        seen[v] = len(path.edges)
        options = [(f.id, 1) for f in g.out_singles(v) if (f.id, 1) not in banned]
        if not options:
            raise AtomError("atom is empty")
        banned = set()
        path = extend(g, path, options[0])
    raise PathError("no representable witness found (wandering-only graph?)")


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------

_REF_RE = re.compile(r"^(?P<fam>[^\[\]]+?)(?:\[(?P<idx>\d+)\])?$")


def format_ref(g, ref: EdgeRef) -> str:
    fid, idx = ref
    fam = g.family(fid)
    return f"{fid}[{idx}]" if fam.is_omega else fid


def parse_ref(g, text: str) -> EdgeRef:
    m = _REF_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad edge reference {text!r}")
    fid = m.group("fam")
    idx = int(m.group("idx")) if m.group("idx") else 1
    ref = (fid, idx)
    try:
        g.check_ref(ref)
    except GraphError as exc:
        raise ParseError(f"bad edge reference {text!r}: {exc}") from exc
    return ref


def format_path(g, p: FinitePath) -> str:
    return f"{p.start}:" + ",".join(format_ref(g, e) for e in p.edges)


def parse_path(g, text: str) -> FinitePath:
    text = text.strip()
    if ":" not in text:
        raise ParseError(f"bad path literal {text!r} (missing ':')")
    start, _, rest = text.partition(":")
    start = start.strip()
    rest = rest.strip()
    refs = [parse_ref(g, tok) for tok in rest.split(",") if tok.strip()] if rest else []
    try:
        return make_path(g, start, refs)
    except PathError as exc:
        raise ParseError(str(exc)) from exc


def format_point(g, p: BoundaryPoint) -> str:
    if p.cycle is None:
        return format_path(g, p.prefix) + " !"
    cyc = ",".join(format_ref(g, e) for e in p.cycle.edges)
    return f"{format_path(g, p.prefix)} / ({cyc})"


def parse_point(g, text: str) -> BoundaryPoint:
    text = text.strip()
    if "/" in text:
        head, _, tail = text.partition("/")
        prefix = parse_path(g, head)
        tail = tail.strip()
        if not (tail.startswith("(") and tail.endswith(")")):
            raise ParseError(f"bad cycle part in point literal {text!r}")
        refs = [parse_ref(g, tok) for tok in tail[1:-1].split(",") if tok.strip()]
        if not refs:
            raise ParseError("empty cycle in point literal")
        try:
            cyc = make_path(g, prefix.rng, refs)
            return periodic_point(g, prefix, cyc)
        except PathError as exc:
            raise ParseError(str(exc)) from exc
    if text.endswith("!"):
        mu = parse_path(g, text[:-1])
        try:
            return finite_point(g, mu)
        except PathError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"bad point literal {text!r} (expected '... !' or '... / (...)')")


def co_to_json(g, x: CompactOpen) -> list:
    return [
        {"mu": format_path(g, a.mu), "F": sorted(format_ref(g, e) for e in a.F)}
        for a in x.atoms
    ]


def co_from_json(g, data) -> CompactOpen:
    if not isinstance(data, list):
        raise ParseError("compact open JSON must be a list")
    atoms = []
    for rec in data:
        if not (isinstance(rec, dict) and isinstance(rec.get("mu"), str)
                and _strings(rec.get("F", []))):
            raise ParseError("an atom record needs a path literal 'mu' "
                             "and a list of edge references 'F'")
        mu = parse_path(g, rec["mu"])
        F = [parse_ref(g, t) for t in rec.get("F", [])]
        try:
            atoms.append(atom(g, mu, F))
        except AtomError as exc:
            raise ParseError(str(exc)) from exc
    return co_make(g, atoms)
