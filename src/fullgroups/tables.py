"""Prefix-exchange tables: elements of the topological full group.

A table is a finite list of pieces ``(mu, F, lam)`` acting on the boundary
path space by ``lam.z -> mu.z`` on ``Z(lam \\ F)`` and as the identity
elsewhere.  Validation enforces the bisection invariants: the domain atoms
are pairwise disjoint, the codomain atoms are pairwise disjoint, and both
unions agree.

Germ-level operations (canonical form, equality, support) require the graph
to satisfy the exit condition on cycles; without it the table/homeomorphism
correspondence breaks down and those operations refuse to answer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import ArrowError, AtomError, GermError, ParseError, PathError, TableError
from .graph import _Record, _integer, _setters, _strings
from .pathspace import (
    BoundaryPoint,
    CompactOpen,
    CylinderAtom,
    FinitePath,
    _every_branch,
    _excluded,
    _follow,
    _in_atom_order,
    _merge_atoms,
    _out_refs,
    _parse_path,
    _parts,
    _step,
    co_contains_point,
    co_subtract,
    format_path,
    format_point,
    format_ref,
    is_prefix,
    make_path,
    parse_point,
    parse_ref,
    point_edge,
    point_in_atom,
    replace_point_prefix,
)


class Piece(_Record):
    __slots__ = _fields = ("mu", "F", "lam")

    def __init__(self, mu: FinitePath, F: frozenset, lam: FinitePath):
        _pc_mu(self, mu)
        _pc_F(self, F)
        _pc_lam(self, lam)

    @property
    def lag(self) -> int:
        return len(self.mu.edges) - len(self.lam.edges)

    def inverse(self) -> "Piece":
        return Piece(self.lam, self.F, self.mu)


_pc_mu, _pc_F, _pc_lam = _setters(Piece)


def make_piece(g, mu: FinitePath, F, lam: FinitePath) -> Piece:
    """The piece ``(mu, F, lam)``, its stems followed through ``g`` (``make_path``'s
    walk) to one vertex, where ``Z(mu \\ F)`` is a nonempty atom (``atom``)."""
    _follow(g, mu, {})
    _follow(g, lam, {})
    return _piece(g, mu, F, lam)


def _piece(g, mu: FinitePath, F, lam: FinitePath) -> Piece:
    """``make_piece`` of stems already followed through ``g``."""
    if mu.rng != lam.rng:
        raise TableError(f"piece stems end at different vertices: {mu.rng!r} vs {lam.rng!r}")
    return Piece(mu, _excluded(g, mu.rng, F), lam)


def domain_atom(p: Piece) -> CylinderAtom:
    return CylinderAtom(p.lam, p.F)


def codomain_atom(p: Piece) -> CylinderAtom:
    return CylinderAtom(p.mu, p.F)


@dataclass(frozen=True)
class Table:
    graph: object
    pieces: tuple
    # True only on a table the library validated or built from valid tables
    # (``_marked``); equality, hashing and repr ignore it, and a table built
    # by ``Table(...)`` or ``dataclasses.replace`` starts as unknown.
    _valid: bool = field(init=False, default=False, compare=False, repr=False)

    def __iter__(self):
        return iter(self.pieces)


def _marked(t: Table, valid: bool = True) -> Table:
    """``t``, recorded as a valid table when ``valid``."""
    if valid:
        object.__setattr__(t, "_valid", True)
    return t


def identity(g) -> Table:
    return _marked(Table(g, ()))


def make_table(g, pieces, validate: bool = True) -> Table:
    """The pieces in the order of their domain atoms ``Z(lam \\ F)``: by the
    start of ``lam``, its edges, then F (``pathspace._in_atom_order``).

    With ``validate`` the table must pass ``validate_table`` and is then
    known valid, so ``embed_table`` does not check it again; without it, its
    validity is unknown."""
    norm = [p if isinstance(p, Piece) else make_piece(g, *p) for p in pieces]
    t = Table(g, _in_atom_order(g, norm, attrgetter("lam", "F")))
    if validate:
        validate_table(t)
    return _marked(t, validate)


def validate_table(t: Table) -> None:
    """Bisection invariants: disjoint domains, disjoint codomains, equal unions.

    The pieces' ``lam`` and ``mu`` go into one stem trie as domain and
    codomain atoms.  One walk down it carries, for each side, the least atom
    covering the current stem ``s``.  The branches at ``s`` are its out-edges
    and, at a singular vertex, ``s`` itself; an atom at ``s`` holds those
    outside its F.  Atoms meet when one covers the other's stem or both hold
    a branch, so the walk finds the least overlapping pair ``(i, j)``,
    domains first.  The unions agree when each branch with no stem below is
    covered on both sides or on neither.  Building the trie follows each
    stem's edges: a stem that starts at no vertex, has an edge that does not
    leave the vertex reached, or ends off its ``rng`` is refused.
    """
    g = t.graph
    pieces = t.pieces
    checked, memo = set(), {}
    # Its own trie, without the least ids that ``pathspace._stem_trie`` keeps
    # per node: built through that trie, validation took 57-62 ms against
    # 46-50 ms (best of 15 over the seed-1 benchmark tables).
    # A node is ([domain ids], [codomain ids], {edge: node}, the vertex its
    # stem reaches); each edge is followed once (``_step``), where its node is made.
    roots = {}  # start vertex -> node
    for i, p in enumerate(pieces):
        if p.mu.rng != p.lam.rng:
            raise TableError("piece stems end at different vertices")
        if (p.mu.rng, p.F) not in checked:  # the F checks read only the range and F
            _excluded(g, p.mu.rng, p.F)
            checked.add((p.mu.rng, p.F))
        for side, stem in ((0, p.lam), (1, p.mu)):
            node = roots.get(stem.start)
            if node is None:
                if not g.has_vertex(stem.start):
                    raise TableError(f"piece stem starts at an unknown vertex {stem.start!r}")
                node = roots[stem.start] = ([], [], {}, stem.start)
            for e in stem.edges:
                below = node[2]
                kid = below.get(e)
                if kid is None:
                    try:
                        kid = below[e] = ([], [], {}, _step(g, node[3], e, memo)[2])
                    except PathError:
                        raise TableError(f"piece stem edge {e!r} does not leave {node[3]!r}")
                node = kid
            if node[3] != stem.rng:
                raise TableError(f"piece stem ends at {node[3]!r}, not at {stem.rng!r}")
            node[side].append(i)
    overlaps = []  # (i, j, side) of overlapping atoms, side 0 the domain
    differ = False
    stack = [(node, None, None) for node in roots.values()]
    while stack:
        (dom, cod, kids, v), dc, cc = stack.pop()
        if not dom and not cod:  # no atom here: both covers pass down as they are
            for kid in kids.values():
                stack.append((kid, dc, cc))
            if (dc is None) != (cc is None) and not differ:
                differ = not _every_branch(g, v, kids)
            continue
        excluded = {e for i in dom + cod for e in pieces[i].F}
        for e in excluded:
            d = _cover(dc, [i for i in dom if e not in pieces[i].F], 0, overlaps)
            k = _cover(cc, [i for i in cod if e not in pieces[i].F], 1, overlaps)
            if e in kids:
                stack.append((kids[e], d, k))
            elif (d is None) != (k is None):
                differ = True
        if excluded and _every_branch(g, v, excluded):
            continue  # no branch that every atom here holds
        d, k = _cover(dc, dom, 0, overlaps), _cover(cc, cod, 1, overlaps)
        stack.extend((kid, d, k) for e, kid in kids.items() if e not in excluded)
        if (d is None) != (k is None) and not differ:
            differ = not _every_branch(g, v, excluded.union(kids))
    if overlaps:
        raise TableError(f"overlapping {('domain', 'codomain')[min(overlaps)[2]]} atoms")
    if differ:
        raise TableError("domain union differs from codomain union")


def _cover(c, held, side, overlaps):
    """The least atom covering a branch: ``c`` from above or the least of the
    ``held`` atoms at the stem.  Records the overlapping pairs this shows."""
    if not held:
        return c
    if len(held) > 1:
        overlaps.append((held[0], held[1], side))
    if c is None:
        return held[0]
    overlaps.append((min(c, held[0]), max(c, held[0]), side))
    return min(c, held[0])


def apply(t: Table, p: BoundaryPoint) -> BoundaryPoint:
    """Evaluate the induced homeomorphism at a representable point."""
    g = t.graph
    for piece in t.pieces:
        if point_in_atom(g, p, domain_atom(piece)):
            return replace_point_prefix(g, p, piece.lam, piece.mu)
    return p


def inverse(t: Table) -> Table:
    """The inverse table; known valid when ``t`` is."""
    return _marked(make_table(t.graph, [p.inverse() for p in t.pieces], validate=False), t._valid)


def compose(s: Table, t: Table) -> Table:
    """Table of ``s after t``; both must be valid tables, as ``validate_table``
    checks.  The result is known valid when both inputs are."""
    if s.graph != t.graph:
        raise TableError("tables live over different graphs")
    g = s.graph
    out = []

    def emit(cs, ce, ds, de, v, F):
        out.append(Piece(FinitePath(cs, ce, v), F, FinitePath(ds, de, v)))

    _moved_parts(g, _sides(s), _sides(t), emit)
    return _marked(make_table(g, out, validate=False), s._valid and t._valid)


def _sides(t: Table) -> tuple:
    """The codomain stems, domain stems and exclusion sets of t's pieces."""
    tp = t.pieces
    return [p.mu for p in tp], [p.lam for p in tp], [p.F for p in tp]


def _moved_parts(g, s, t, found) -> None:
    """The parts of ``s after t`` that move, each table given by its
    ``_sides`` ``(cod, dom, F)``: piece ``i`` maps ``Z(dom[i] \\ F[i])`` onto
    ``Z(cod[i] \\ F[i])``.  ``pathspace._parts`` cuts t's codomains (kind 0),
    s's domains (kind 1) and t's domains (kind 2) into their meets and the
    leftovers where s or t is the identity.  Each part that moves goes to
    ``found(cs, ce, ds, de, v, F)``: it maps ``Z(de \\ F)`` from ``ds`` onto
    ``Z(ce \\ F)`` from ``cs``, both stems ending at ``v``."""
    s_cod, s_dom, s_F = s
    t_cod, t_dom, t_F = t

    def emit(i, j, start, w, v, F):
        """The part ``Z(w \\ F)``, ``w`` a stem from ``start``, through t's
        piece ``i`` and s's piece ``j``; None stands for the identity."""
        ds, de = start, w
        if i is not None:
            ds, de = t_dom[i].start, t_dom[i].edges + w[len(t_cod[i].edges):]
        cs, ce = start, w
        if j is not None:
            cs, ce = s_cod[j].start, s_cod[j].edges + w[len(s_dom[j].edges):]
        if de != ce or ds != cs:
            found(cs, ce, ds, de, v, F)

    _parts(g, emit, (t_cod, s_dom, t_dom), (t_F, s_F, t_F))


def commutator(s: Table, t: Table) -> Table:
    return compose(compose(s, t), compose(inverse(s), inverse(t)))


def _require_effective(g) -> None:
    if not g._effective:
        raise GermError("germ calculus requires effectiveness (condition L fails)")


def canonicalize(t: Table) -> Table:
    """Unique minimal table for the homeomorphism (graph must satisfy (L)).

    Identity pieces are dropped and aligned sibling pieces merge upward, in
    one pass from the deepest stem pair ``(mu, lam)`` up.  The pieces at a
    pair and the plain children ``(mu e, lam e)`` carried up to it cover a
    set of branches.  At a regular vertex that set is written in its one
    minimal form: the plain pair if it is every out-edge, the plain child if
    it is one edge, else the pair that excludes the rest.  At an omega vertex
    the piece there absorbs the children it excludes.  A plain result whose
    two stems end in the same edge is carried up one level.  The result is
    known valid when ``t`` is.
    """
    g = t.graph
    _require_effective(g)
    levels = {}
    for p in t.pieces:
        if p.mu != p.lam:
            levels.setdefault(len(p.mu.edges), {}).setdefault((p.mu, p.lam), []).append(p)
    out = []
    carried = {}  # stem pair -> {edge e: plain child (mu e, lam e)}, one level down
    branches = functools.cache(lambda v: _out_refs(g, v) if g.is_regular(v) else None)
    for d in range(max(levels, default=-1), -1, -1):
        below, carried = carried, {}
        for (mu, lam), here in levels.get(d, {}).items():
            kids = below.get((mu, lam), {})
            if here and not here[0].F:  # covers every branch: nothing to merge
                F = frozenset()
            elif (edges := branches(mu.rng)) is not None:
                covered = set(kids).union(*(edges - p.F for p in here))
                if len(covered) == 1 < len(edges):
                    (e,) = covered  # an out-ref of mu.rng: the children need no check
                    u = g.ref_range(e)
                    out.append(Piece(FinitePath(mu.start, mu.edges + (e,), u), frozenset(),
                                     FinitePath(lam.start, lam.edges + (e,), u)))
                    continue
                F = edges - covered
            elif here:
                F = here[0].F.difference(kids)
            else:
                out.extend(kids.values())
                continue
            last = mu.edges[-1:]
            if F or not last or last != lam.edges[-1:]:
                out.append(Piece(mu, F, lam))
                continue
            w = g.ref_source(last[0])
            parent = (FinitePath(mu.start, mu.edges[:-1], w),
                      FinitePath(lam.start, lam.edges[:-1], w))
            carried.setdefault(parent, {})[last[0]] = Piece(mu, F, lam)
            levels.setdefault(d - 1, {}).setdefault(parent, [])
    return _marked(make_table(g, out, validate=False), t._valid)


def is_identity(t: Table) -> bool:
    """Whether the valid table ``t`` is the identity: no piece moves.

    Under (L) a piece with ``mu != lam`` moves a point of its domain, which
    is nonempty in a valid table.  If ``|mu| = |lam|``, the first edge where
    the stems differ moves every point.  Otherwise ``mu z = lam z`` forces
    ``lam = mu c`` (or the reverse) and ``z = c^inf``: a single point, which
    is not open because the cycle ``c`` has an exit."""
    _require_effective(t.graph)
    return all(p.mu == p.lam for p in t.pieces)


class _Moved(Exception):
    """A part of ``s`` after ``t``'s inverse moves: ``germ_equal`` is False."""


def germ_equal(s: Table, t: Table) -> bool:
    """Whether the valid tables ``s`` and ``t`` are one homeomorphism:
    ``is_identity(compose(s, inverse(t)))``, decided in one walk of that
    composition's parts, with t's pieces read inverted, which stops at the
    first part that moves."""
    if s.graph != t.graph:
        raise TableError("tables live over different graphs")
    _require_effective(s.graph)

    def moved(*part):
        raise _Moved

    t_cod, t_dom, t_F = _sides(t)
    try:
        _moved_parts(s.graph, _sides(s), (t_dom, t_cod, t_F), moved)
    except _Moved:
        return False
    return True


def support(t: Table) -> CompactOpen:
    """Union of the canonical domain atoms (the closed support).  ``t`` must be
    valid, as ``validate_table`` checks: then those atoms are disjoint."""
    return _merge_atoms(t.graph, [domain_atom(p) for p in canonicalize(t).pieces])


def table_image(t: Table, x: CompactOpen) -> CompactOpen:
    """Forward image of a compact open under the table's homeomorphism.

    ``t`` must be valid, as ``validate_table`` checks, and ``x`` a compact
    open as the package builds it: then the meets of x with t's domains,
    moved through their pieces, and what is left of x outside those domains
    are disjoint."""
    g, tp = t.graph, t.pieces
    parts = []

    def image(k, i, start, edges, rng, F):
        if k is not None:  # x's part in t's domain i, or outside t's domains (i None)
            if i is not None:
                p = tp[i]
                start, edges = p.mu.start, p.mu.edges + edges[len(p.lam.edges):]
            parts.append(CylinderAtom(FinitePath(start, edges, rng), F))

    _parts(g, image, ([a.mu for a in x.atoms], [p.lam for p in tp], ()),
           ([a.F for a in x.atoms], [p.F for p in tp], ()))
    return _merge_atoms(g, parts)


# ---------------------------------------------------------------------------
# Constructors from partial data
# ---------------------------------------------------------------------------


def involution_hat(g, partial) -> Table:
    """partial + its inverse, identity elsewhere; an involution."""
    pieces = [p if isinstance(p, Piece) else make_piece(g, *p) for p in partial]
    # the inverses' domains are the partial's codomains, so validation
    # refuses a partial whose domain and codomain overlap
    return make_table(g, pieces + [p.inverse() for p in pieces], validate=True)


# ---------------------------------------------------------------------------
# Arrows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arrow:
    """Groupoid arrow (target, lag, source): source maps to target."""

    target: BoundaryPoint
    lag: int
    source: BoundaryPoint


def _shifts(ar: Arrow):
    """Least ``(m, n)`` with ``m - n == lag`` and ``sigma^m(target) == sigma^n(source)``.

    Returns None when there is none.  Finite points need one range and lag
    ``|target| - |source|``; the least shifts keep their longest common edge
    suffix.  Eventually periodic points need conjugate primitive cycles
    ``c`` and ``d = c[r:] + c[:r]``; once both are inside their cycles the
    tails agree exactly when ``lag = |p| - |q| + r`` modulo the cycle length
    (``p``, ``q`` the prefixes), and below that the shifts step down while
    the edges just before still agree.  A finite and a periodic point never
    meet.
    """
    x, k, y = ar.target, ar.lag, ar.source
    p, q = x.prefix.edges, y.prefix.edges
    if x.is_finite != y.is_finite:
        return None
    if x.is_finite:
        if x.prefix.rng != y.prefix.rng or k != len(p) - len(q):
            return None
        common = 0
        while common < min(len(p), len(q)) and p[-1 - common] == q[-1 - common]:
            common += 1
        return len(p) - common, len(q) - common
    c, d = x.cycle.edges, y.cycle.edges
    r = next((r for r in range(len(c)) if c[r:] + c[:r] == d), None)
    if r is None or (k - len(p) + len(q) - r) % len(c):
        return None
    n = max(0, -k, len(q), len(p) - k)
    while n > max(0, -k) and point_edge(x, n - 1 + k) == point_edge(y, n - 1):
        n -= 1
    return n + k, n


def arrow_consistent(g, ar: Arrow) -> bool:
    """Check sigma^m(target) == sigma^n(source) with m - n == lag."""
    return _shifts(ar) is not None


def contains_arrow(t: Table, ar: Arrow) -> bool:
    """True iff the table's bisection contains the arrow (lag included)."""
    g = t.graph
    _require_effective(g)
    for piece in t.pieces:
        if point_in_atom(g, ar.source, domain_atom(piece)):
            image = replace_point_prefix(g, ar.source, piece.lam, piece.mu)
            return image == ar.target and piece.lag == ar.lag
    return ar.source == ar.target and ar.lag == 0


def transposition_for_arrow(ar: Arrow, within: CompactOpen, g) -> Table:
    """An involution whose bisection contains the arrow, supported in ``within``.

    Builds piece (chi, F, ups) from cylinder neighbourhoods of target and
    source that are deep enough to be disjoint and to fit inside ``within``,
    trying the shallowest depth first.
    """
    if ar.source == ar.target:
        raise ArrowError("source equals target: isotropy is not supported here")
    if not (co_contains_point(g, within, ar.source)
            and co_contains_point(g, within, ar.target)):
        raise ArrowError("arrow endpoints must lie inside the given support")
    mn = _shifts(ar)
    if mn is None:
        raise ArrowError("arrow is not consistent with its lag")
    m, n = mn
    for d in range(_last_depth(g, ar, m, n, within) + 1):
        piece = _arrow_piece(g, ar, m, n, d)
        if piece is not None and co_subtract(
                g, CompactOpen((domain_atom(piece), codomain_atom(piece))), within).is_empty():
            return involution_hat(g, [piece])
    raise ArrowError("no separating cylinders of the required lag inside the given support")


def _last_depth(g, ar: Arrow, m: int, n: int, within: CompactOpen) -> int:
    """Deepest depth worth trying for the piece of a consistent arrow.

    Finite points: the stems end with the points.  Periodic points: from
    this depth on, the stems are incomparable (so F is empty and the atoms
    are disjoint) and each one extends the stem of an atom of ``within``
    that holds its point, so the piece always succeeds there.
    """
    x, y = ar.target, ar.source
    if x.is_finite:
        return len(x.prefix.edges) - m
    j = -1  # index of the first differing edge; -1 if the start vertices differ
    if x.prefix.start == y.prefix.start:
        j = 0
        while point_edge(x, j) == point_edge(y, j):
            j += 1

    def inside(pt):
        return 1 + min(len(a.mu.edges) for a in within.atoms if point_in_atom(g, pt, a))

    return max(0, j + 1 - min(m, n), inside(x) - m, inside(y) - n)


def _point_stem(g, p: BoundaryPoint, length: int) -> FinitePath:
    return make_path(g, p.prefix.start, [point_edge(p, i) for i in range(length)])


def _arrow_piece(g, ar: Arrow, m: int, n: int, d: int):
    """The depth-``d`` piece for the arrow, or None.  Its two atoms are
    disjoint: its stems differ, and are incomparable or the shorter one's
    atom excludes the longer one's next edge through F."""
    chi = _point_stem(g, ar.target, m + d)
    ups = _point_stem(g, ar.source, n + d)
    if chi == ups:
        return None
    short, long = sorted((chi, ups), key=len)
    F = {long.edges[len(short)]} if is_prefix(short, long) else set()
    # both endpoints must stay inside their atoms, which are then nonempty
    if point_edge(ar.target, len(chi.edges)) in F or point_edge(ar.source, len(ups.edges)) in F:
        return None
    return _piece(g, chi, F, ups)


# ---------------------------------------------------------------------------
# JSON and literals
# ---------------------------------------------------------------------------


def table_to_json(t: Table) -> dict:
    g = t.graph
    return {
        "pieces": [
            {
                "mu": format_path(g, p.mu),
                "F": sorted(format_ref(g, e) for e in p.F),
                "lambda": format_path(g, p.lam),
            }
            for p in t.pieces
        ]
    }


def table_from_json(g, data) -> Table:
    if not isinstance(data, dict) or not isinstance(data.get("pieces"), list):
        raise ParseError("table JSON must be an object with a 'pieces' list")
    pieces, memo = [], {}
    for rec in data["pieces"]:
        if not (isinstance(rec, dict) and isinstance(rec.get("mu"), str)
                and isinstance(rec.get("lambda"), str) and _strings(rec.get("F", []))):
            raise ParseError("a piece record needs path literals 'mu' and 'lambda' "
                             "and a list of edge references 'F'")
        mu = _parse_path(g, rec["mu"], memo)
        lam = _parse_path(g, rec["lambda"], memo)
        F = [parse_ref(g, x) for x in rec.get("F", [])]
        try:
            pieces.append(_piece(g, mu, F, lam))
        except (AtomError, TableError) as exc:
            raise ParseError(str(exc)) from exc
    return make_table(g, pieces, validate=True)


def format_arrow(g, ar: Arrow) -> str:
    return f"({format_point(g, ar.target)} | {ar.lag} | {format_point(g, ar.source)})"


def parse_arrow(g, text: str) -> Arrow:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"bad arrow literal {text!r}")
    parts = text[1:-1].split("|")
    if len(parts) != 3:
        raise ParseError(f"arrow literal needs three '|'-separated parts: {text!r}")
    target = parse_point(g, parts[0])
    source = parse_point(g, parts[2])
    lag = parts[1].strip()
    if not _integer(lag):
        raise ParseError(f"bad lag in arrow literal: {parts[1]!r}")
    return Arrow(target, int(lag), source)
