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
from sys import maxsize as _NO_ID  # above every atom id

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
    at, refs = start, []
    for ref in edges:
        fam = g.check_ref(ref)  # before ``tuple``, which a non-pair may break
        if fam.source != at:
            raise PathError(f"edge {tuple(ref)!r} does not continue the path at {at!r}")
        refs.append(tuple(ref))
        at = fam.range
    return FinitePath(start, tuple(refs), at)


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


def _every_branch(g, v: str, edges) -> bool:
    """The distinct ``edges`` out of ``v`` are every branch at ``v``, so
    ``Z(mu \\ edges)`` is empty for a stem ``mu`` ending at ``v``: ``v`` is
    regular (a singular vertex has the stem itself as one more branch) and
    they number its out-degree."""
    return bool(edges) and len(edges) == g.out_degree(v)


def atom(g, mu: FinitePath, F=frozenset()) -> CylinderAtom:
    """Validated nonempty atom Z(mu \\ F)."""
    F = frozenset(tuple(e) for e in F)
    for ref in F:
        fam = g.check_ref(ref)
        if fam.source != mu.rng:
            raise AtomError(f"excluded edge {ref!r} is not outgoing at {mu.rng!r}")
    if g.is_sink(mu.rng) and F:
        raise AtomError("F must be empty at a sink")
    if _every_branch(g, mu.rng, F):
        raise AtomError("empty atom: every outgoing edge excluded at a regular vertex")
    return CylinderAtom(mu, F)


# ---------------------------------------------------------------------------
# Compact opens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompactOpen:
    atoms: tuple

    def is_empty(self) -> bool:
        return not self.atoms


def _stem_trie(*kinds):
    """One trie of up to three kinds of stems, each a list of paths: a root per
    start vertex and a node ``[ids of kind 0, 1, 2, {edge: node}, least id of
    kind 0, 1, 2 at or below]`` per stem prefix, ``_NO_ID`` for none."""
    roots = {}
    for k, stems in enumerate(kinds):
        least = 4 + k
        for i, stem in enumerate(stems):
            node = roots.get(stem.start) or roots.setdefault(
                stem.start, [[], [], [], {}, _NO_ID, _NO_ID, _NO_ID])
            if node[least] > i:
                node[least] = i
            for e in stem.edges:
                below = node[3]
                if e in below:
                    node = below[e]
                    if node[least] > i:
                        node[least] = i
                else:
                    node = below[e] = [[], [], [], {}, _NO_ID, _NO_ID, _NO_ID]
                    node[least] = i
            node[k].append(i)
    return roots


def _parts(g, report, stems, Fs):
    """Cut three kinds of atoms, each kind disjoint, in one walk of one trie.

    Kind ``k`` has stems ``stems[k]`` and exclusion sets ``Fs[k]``.  Each part
    ``Z(edges \\ F)`` goes to ``report(i, j, start, edges, rng, F)``: the meet
    of the kind-0 atom ``i`` and the kind-1 atom ``j``, or what is left of
    ``i`` outside the kind-1 atoms (``j`` None) or of ``j`` outside the kind-2
    atoms (``i`` None).  The walk carries, for each kind, the atom covering
    the stem from above, and ``_cut`` cuts each leftover at every stem it is
    carried to.
    """
    F0, F1, F2 = Fs
    for start, root in _stem_trie(*stems).items():
        stack = [(root, (), None, None, None, None, None)]
        while stack:
            (h0, h1, h2, kids, _, _, _), w, c0, c1, c2, o0, o1 = stack.pop()
            if not (h0 or h1 or o0 is not None or o1 is not None):
                stack.extend((kid, w + (e,), c0, c1, _holder(c2, h2, F2, e), None, None)
                             for e, kid in kids.items() if kid[4] < _NO_ID or kid[5] < _NO_ID)
                continue
            v = g.ref_range(w[-1]) if w else start
            for j in h1 if c0 is not None else ():
                report(c0, j, start, w, v, F1[j])
            for i in h0 if c1 is not None else ():
                report(i, c1, start, w, v, F0[i])
            for i in h0:
                for j in h1:
                    F = F0[i] | F1[j]
                    if not _every_branch(g, v, F):
                        report(i, j, start, w, v, F)
            left = [(0, i, F0[i]) for i in h0 if c1 is None]
            left += [(1, j, F1[j]) for j in h1 if c2 is None]
            left += [(k, i, frozenset()) for k, i in ((0, o0), (1, o1)) if i is not None]
            opens = {}, {}  # per kind: kid edge -> atom whose leftover goes on there
            for k, i, F in left:  # kind 1 cuts kind 0, kind 2 cuts kind 1
                i0, i1 = (None, i) if k else (i, None)
                for x, u, H in _cut(g, w, v, F, Fs[k + 1], (h1, h2)[k], kids, k + 1,
                                    opens[k], i):
                    report(i0, i1, start, x, u, H)
            for e, kid in kids.items():
                k0, k1 = opens[0].get(e), opens[1].get(e)
                if kid[4] < _NO_ID or kid[5] < _NO_ID or k0 is not None or k1 is not None:
                    stack.append((kid, w + (e,), _holder(c0, h0, F0, e), _holder(c1, h1, F1, e),
                                  _holder(c2, h2, F2, e), k0, k1))


def _cut(g, w, v, F, Fs, subs, kids, k, opens, i, limit=_NO_ID):
    """The parts ``(stem, range, F)`` of the leftover ``Z(w \\ F)`` of atom
    ``i`` outside the atoms ``Z(w \\ Fs[j])``, ``j`` in ``subs``, and the
    kind-``k`` atoms with ids below ``limit`` below ``w``; the kids where it
    goes on map to ``i`` in ``opens``.  Subtrahends at ``w`` that meet it
    leave the plain children they all exclude; else it excludes the branches
    with subtrahends below.  Any order of subtraction gives these parts.
    """
    meet = [Fs[j] for j in subs if not _every_branch(g, v, F | Fs[j])]
    least = 4 + k
    if meet:
        parts = []
        for e in meet[0].intersection(*meet[1:]).difference(F):
            kid = kids.get(e)
            if kid is not None and kid[least] < limit:
                opens[e] = i
            else:
                parts.append((w + (e,), g.ref_range(e), frozenset()))
        return parts
    below = [e for e, kid in kids.items() if kid[least] < limit and e not in F]
    opens.update(dict.fromkeys(below, i))
    F = F.union(below)
    return [] if _every_branch(g, v, F) else [(w, v, F)]


def _holder(c, held, Fs, e):
    """The atom covering branch ``e``: ``c`` from above, or the one of the
    ``held`` atoms at the stem that does not exclude ``e``."""
    if c is not None or not held:
        return c
    return next((i for i in held if e not in Fs[i]), None)


def co_make(g, atoms) -> CompactOpen:
    """Normalize a list of atoms: disjointify, merge siblings, sort.

    Each atom keeps what the earlier atoms leave of it; exact repeats go
    first.  That is what the earlier atoms' parts leave: a part of ``a_i``
    misses every atom before ``a_j``, so it meets ``a_j`` where it meets
    ``a_j``'s parts, and the pairwise ``atom_subtract`` of the differential
    reference (``tests/pairwise_reference.py``) cuts it alike whether
    ``a_j``'s stem lies above, at or below its own.  One walk of the stem
    trie carries the least atom covering the stem from above and whether its
    leftover is open there (no other can be); atoms held after it lie inside
    it.  The rest go through ``_cut``, where the earlier atoms at the stem
    ``w`` make up ``Z(w \\ H)``, ``H`` the intersection of their Fs.
    """
    atoms = list(dict.fromkeys(atoms))
    Fs = [a.F for a in atoms]
    parts = []
    for start, root in _stem_trie([a.mu for a in atoms]).items():
        stack = [(root, (), _NO_ID, False)]
        while stack:
            (held, _, _, kids, _, _, _), w, c, is_open = stack.pop()
            v = g.ref_range(w[-1]) if w else start
            opens = {}
            earlier = []  # [H]: the atoms cut at w so far make up Z(w \ H)
            for i, F in [(i, Fs[i]) for i in held if i < c] + [(c, frozenset())] * is_open:
                cut = _cut(g, w, v, F, earlier, range(len(earlier)), kids, 0, opens, i, i)
                parts += (CylinderAtom(FinitePath(start, x, u), H) for x, u, H in cut)
                earlier = [earlier[0] & F] if earlier else [F]
            for e, kid in kids.items():
                cover = min(c, next((i for i in held if e not in Fs[i]), _NO_ID))
                if kid[4] < cover:
                    stack.append((kid, w + (e,), cover, e in opens))
    return _merge_atoms(g, parts)


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
            if _every_branch(g, w, sibs):
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


def _co_parts(g, x: CompactOpen, y: CompactOpen, keep) -> CompactOpen:
    """The parts ``(i, j)`` of ``_parts`` on x's atoms (kind 0) and y's (kind
    1) that ``keep(i, j)`` picks, merged.  x and y must be compact opens as
    the package builds them, disjoint unions of atoms; then so are the parts."""
    parts = []

    def report(i, j, start, edges, rng, F):
        if keep(i, j):
            parts.append(CylinderAtom(FinitePath(start, edges, rng), F))

    _parts(g, report, ([a.mu for a in x.atoms], [a.mu for a in y.atoms], ()),
           ([a.F for a in x.atoms], [a.F for a in y.atoms], ()))
    return _merge_atoms(g, parts)


def co_intersect(g, x: CompactOpen, y: CompactOpen) -> CompactOpen:
    """x and y must be compact opens as the package builds them (``_co_parts``)."""
    return _co_parts(g, x, y, lambda i, j: i is not None and j is not None)


def co_subtract(g, x: CompactOpen, y: CompactOpen) -> CompactOpen:
    """x and y must be compact opens as the package builds them (``_co_parts``)."""
    return _co_parts(g, x, y, lambda i, j: j is None)


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
    """sigma: rewrite e.z into z."""
    e = point_edge(p, 0)
    if e is None:
        raise PathError("cannot shift a boundary path of length zero")
    return replace_point_prefix(g, p, make_path(g, p.prefix.start, (e,)),
                                trivial_path(g, g.ref_range(e)))


def replace_point_prefix(g, p: BoundaryPoint, old: FinitePath, new: FinitePath) -> BoundaryPoint:
    """Rewrite p = old.z into new.z; requires old to prefix p and r(old)=r(new)."""
    if not point_starts_with(g, p, old):
        raise PathError("point does not extend the prefix being replaced")
    if old.rng != new.rng:
        raise PathError("replacement prefix ends at a different vertex")
    k = len(old.edges)
    head = concat(g, new, make_path(g, old.rng, p.prefix.edges[k:]))
    if p.cycle is None:
        return BoundaryPoint(head, None)
    # past the prefix, old also eats the first k - |prefix| cycle edges
    c = p.cycle.edges
    d = max(0, k - len(p.prefix.edges)) % len(c)
    return periodic_point(g, head, make_path(g, head.rng, c[d:] + c[:d]))


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
    try:
        if "/" in text:
            head, _, tail = text.partition("/")
            prefix = parse_path(g, head)
            tail = tail.strip()
            if not (tail.startswith("(") and tail.endswith(")")):
                raise ParseError(f"bad cycle part in point literal {text!r}")
            refs = [parse_ref(g, tok) for tok in tail[1:-1].split(",") if tok.strip()]
            if not refs:
                raise ParseError("empty cycle in point literal")
            return periodic_point(g, prefix, make_path(g, prefix.rng, refs))
        if text.endswith("!"):
            return finite_point(g, parse_path(g, text[:-1]))
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
