"""Bratteli diagrams, their finitary full groups, and the pipeline into V.

A diagram declares finitely many levels.  With a ``repeat`` rule the last
declared level must repeat the block's first level verbatim: it only fixes
the wrap edge pattern, and the block then repeats forever.  The diagram is
a view of its underlying graph, built with it: paths, their vertex names and
their out-edges are the graph's.  Level-N group elements are
range-preserving permutations of the source-rooted paths down to level N;
they convert to prefix-exchange tables over the underlying graph (all lags
zero) and from there into the binary full group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import GraphError, ParseError, PathError
from .graph import Graph, EdgeFamily, LeveledGraph, TemplateFamily, _as_tuple, _cycles, _strings
from .pathspace import FinitePath, _follow, _walk, make_path
from .tables import Piece, Table, _marked, make_table
from .embed import default_labeling, embed_table

# CPython's default limit on int-to-str conversion; the CLI prints the order
# as a JSON number, so a longer one could not be written.
MAX_ORDER_DIGITS = 4300
# the least order that is refused
_LIMIT = 10 ** MAX_ORDER_DIGITS


@dataclass(frozen=True)
class BratteliDiagram:
    levels: tuple          # tuple of vertex-name tuples
    edges: tuple           # edges[n] lists (src, rng) pairs from level n to n+1
    repeat: tuple | None   # (from_level, period) or None

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(
            _as_tuple(l, "a level") for l in _as_tuple(self.levels, "levels")))
        object.__setattr__(self, "edges", tuple(
            tuple(_as_tuple(e, "an edge") for e in _as_tuple(eset, "an edge set"))
            for eset in _as_tuple(self.edges, "edges")))
        self._validate()
        # not fields, so equality and hashing see only the declaration.  The
        # labeling refers to the graph, not to the diagram, so nothing here
        # refers back to the diagram
        g = _underlying(self)
        object.__setattr__(self, "_graph", g)
        object.__setattr__(self, "_sources", frozenset(self.sources()))
        object.__setattr__(self, "_labeling", default_labeling(g))

    def _validate(self) -> None:
        if not self.levels or any(not l for l in self.levels):
            raise GraphError("every level must be nonempty")
        if not all(isinstance(n, str) for l in self.levels for n in l):
            raise GraphError("vertex names must be strings")
        if len(self.edges) != len(self.levels) - 1:
            raise GraphError("need exactly one edge set between consecutive levels")
        if any(len(e) != 2 for eset in self.edges for e in eset):
            raise GraphError("every edge must be a (source, range) pair")
        if self.repeat is not None:
            # type() is int refuses bools and floats, as the JSON reader does
            if not (isinstance(self.repeat, tuple) and len(self.repeat) == 2
                    and all(type(x) is int for x in self.repeat)):
                raise GraphError("a repeat rule must be a (from, period) pair of integers")
            f, p = self.repeat
            if p < 1 or f < 0 or f + p != len(self.levels) - 1:
                raise GraphError(
                    "with a repeat rule the declared levels must be 0..from+period, "
                    "the last one repeating level 'from'"
                )
            if self.levels[f + p] != self.levels[f]:
                raise GraphError("the wrap level must repeat the block's first level")
            unique_upto = f + p
        else:
            unique_upto = len(self.levels)
        names = [n for l in self.levels[:unique_upto] for n in l]
        if len(set(names)) != len(names):
            raise GraphError("vertex names must be unique across levels")
        for n, eset in enumerate(self.edges, start=1):
            srcs = set()
            for s, r in eset:
                if s not in self.levels[n - 1]:
                    raise GraphError(f"edge source {s!r} not on level {n - 1}")
                if r not in self.levels[n]:
                    raise GraphError(f"edge range {r!r} not on level {n}")
                srcs.add(s)
            if self.repeat is not None and srcs != set(self.levels[n - 1]):
                raise GraphError(f"level {n - 1} has a sink inside the declared levels")
        if self.repeat is not None:
            f, p = self.repeat
            # recurring levels must have no sources, so the source set stays finite
            for n in range(f + 1, f + p + 1):
                rngs = {r for _, r in self.edges[n - 1]}
                if rngs != set(self.levels[n]):
                    raise GraphError(
                        f"level {n} has a vertex with no incoming edge; "
                        "repeating blocks must be finitely sourced"
                    )

    # -- the underlying graph ------------------------------------------------

    def underlying_graph(self):
        """Forget the level partition (leveled-infinite when repeating).

        Its names are the diagram's: vertex ``u`` of a block level is
        ``u@k`` at repetition ``k`` (a ``{}`` name gets the level number) and
        the ``k``-th edge of ``E_n`` is ``e{n}_{k}`` (``@rep`` in the block)."""
        return self._graph

    def _check_level(self, N: int) -> None:
        # type() is int refuses bools, floats and strings, as the JSON readers do
        if type(N) is not int or N < 0 or self.repeat is None and N >= len(self.levels):
            raise GraphError(f"level {N} is not declared")

    def sources(self):
        """(level, instantiated name) of every source vertex.  Both graph
        classes number their vertices level by level in declaration order
        (a repeating diagram's block from repetition 0), so the k-th declared
        vertex is the graph's k-th."""
        top = len(self.levels) if self.repeat is None else self.repeat[0] + 1
        out, k = [], 0
        for lev in range(top):
            incoming = {r for _, r in self.edges[lev - 1]} if lev else ()
            for v in self.levels[lev]:
                k += 1
                if v not in incoming:
                    out.append((lev, self._graph.vertex_by_index(k)))
        return out

    # -- paths and the finitary groups ----------------------------------------

    def fibers(self, N: int):
        """Source-rooted paths reaching level N, grouped by their range vertex."""
        self._check_level(N)
        starts = {}
        for lev, name in self.sources():
            starts.setdefault(lev, []).append(make_path(self._graph, name))
        frontier = starts.get(0, [])
        for lev in range(1, N + 1):
            frontier = _step(self._graph, frontier) + starts.get(lev, [])
        fibers = {}
        for p in frontier:
            fibers.setdefault(p.rng, []).append(p)
        return fibers

    def gamma_order(self, N: int) -> int:
        """The product of the factorials of the fiber sizes at level N.

        The sizes are counted on the declared levels, as in ``_below``.  Past
        the block's first level f, with N = f + q * period + r, the counts at
        f go through the q-th power of the block's transfer matrix, taken by
        squaring, and then r more levels.  The factorials are multiplied one
        at a time, and an answer of more than ``MAX_ORDER_DIGITS`` decimal
        digits is refused as soon as the partial product has more; a capped
        size is refused without forming its factorial."""
        self._check_level(N)
        f, p = self.repeat or (N, 1)
        counts = _below(self, dict.fromkeys(self.levels[0], 1), 0, min(N, f))
        if N > f:
            q, r = divmod(N - f, p)
            block = {v: _below(self, {v: 1}, f, f + p) for v in self.levels[f]}
            while q:
                if q % 2:
                    counts = _through(counts, block)
                q //= 2
                block = {v: _through(row, block) for v, row in block.items()}
            counts = _below(self, counts, f, f + r)
        order = 1
        for c in counts.values():
            order = order * math.factorial(c) if c < _CAP else _LIMIT
            if order >= _LIMIT:
                raise GraphError(f"the order at level {N} has more than "
                                 f"{MAX_ORDER_DIGITS} decimal digits")
        return order

    def gamma_elements(self, N: int):
        """Enumerate the range-preserving permutations at level N, lazily.

        The order is that of ``itertools.product`` over the fibers (sorted by
        range vertex) of their ``itertools.permutations``; the permutations
        of a fiber are drawn afresh each time the fiber before it advances.
        """
        fibers = [paths for _, paths in sorted(self.fibers(N).items())]
        perms = [itertools.permutations(paths) for paths in fibers]
        combo = [next(it) for it in perms]
        while True:
            mapping = {}
            for paths, perm in zip(fibers, combo):
                mapping.update(zip(paths, perm))
            yield GammaElement(self, N, mapping)
            for i in reversed(range(len(fibers))):
                combo[i] = next(perms[i], None)
                if combo[i] is not None:
                    break
                perms[i] = itertools.permutations(fibers[i])
                combo[i] = next(perms[i])
            else:
                return


def _underlying(b: BratteliDiagram):
    edges = [(n, f"e{n}_{k}", s, r) for n, eset in enumerate(b.edges, start=1)
             for k, (s, r) in enumerate(eset, start=1)]
    if b.repeat is None:
        return Graph([v for l in b.levels for v in l],
                     [EdgeFamily(fid, s, r) for _, fid, s, r in edges])
    f, p = b.repeat
    base = [TemplateFamily(fid, s, r) for n, fid, s, r in edges if n <= f]
    block = [TemplateFamily(fid, s, r) for n, fid, s, r in edges if n > f]
    return LeveledGraph(b.levels[:f], b.levels[f:f + p], base, block)


# 1558! has 4300 decimal digits and 1559! more.  min(_CAP, .) commutes with
# + and * on counts; a fiber of _CAP paths alone passes the limit, so a
# capped count is refused and the others are exact
_CAP = 1559


def _below(d: BratteliDiagram, counts, k: int, n: int):
    """The capped counts at level n of the paths ``counts`` counts at level
    k: a vertex counts the sum over its in-edges, and a source counts 1."""
    for lev in range(k, n):
        below = {}
        for s, r in d.edges[lev]:
            below[r] = min(_CAP, below.get(r, 0) + counts.get(s, 0))
        counts = {v: below.get(v, 1) for v in d.levels[lev + 1]}
    return counts


def _through(counts, block):
    """The capped counts one block further down: ``counts`` times ``block``."""
    return {w: min(_CAP, sum(c * block[v][w] for v, c in counts.items()))
            for w in counts}


def _out_edges(g, vertices):
    """``(ref, range)`` of each out-edge of each of ``vertices``: one
    ``out_families`` call per distinct vertex, not one per path."""
    return {v: [((fam.id, 1), fam.range) for fam in g.out_families(v)]
            for v in set(vertices)}


def _step(g, paths) -> list:
    """Each of ``paths`` (a list) extended by each out-edge of its range, in
    order: the paths one level down."""
    outs = _out_edges(g, (p.rng for p in paths))
    return [FinitePath(p.start, p.edges + (ref,), r) for p in paths for ref, r in outs[p.rng]]


@dataclass(frozen=True)
class GammaElement:
    """Range-preserving permutation of the depth-N source-rooted paths.

    ``mapping`` holds exactly the paths it moves; every other path is fixed.
    Pairs ``p -> p`` given to the constructor are dropped, so equal
    permutations compare and hash equal however they were built.

    A moved path must be a source path down to level N: it starts at a
    source on level ``N - len(p)``, and its edges, followed through the graph
    (``make_path``'s walk), lead to its ``rng``, which is then on level N.
    Paths with one start and edges lead to one vertex, so they are one path.
    A start has one level, so the moved paths from one start have one length
    and none is a prefix of another: their cylinders are pairwise disjoint,
    which is what makes ``gamma_to_table`` valid by construction."""

    diagram: BratteliDiagram
    level: int
    mapping: object  # dict path -> path; treated as immutable

    def __post_init__(self):
        self.diagram._check_level(self.level)
        m = self.mapping
        if not (isinstance(m, dict) and all(
                isinstance(p, FinitePath) for p in itertools.chain(m, m.values()))):
            raise GraphError("a mapping must be a dict from paths to paths")
        moved = {p: q for p, q in self.mapping.items() if p != q}
        if set(moved.values()) != moved.keys():
            raise GraphError("images do not form a permutation")
        if any(p.rng != q.rng for p, q in moved.items()):
            raise GraphError("permutation must preserve the range vertex")
        b, N, memo = self.diagram, self.level, {}
        for p in moved:
            try:
                _follow(b._graph, p, memo)
                source = (N - len(p.edges), p.start) in b._sources
            except (GraphError, PathError):
                source = False
            if not source:
                raise GraphError(f"not a depth-{N} source path: {p!r}")
        object.__setattr__(self, "mapping", moved)

    def __call__(self, path: FinitePath) -> FinitePath:
        return self.mapping.get(path, path)

    def compose(self, other: "GammaElement") -> "GammaElement":
        if self.level != other.level or self.diagram != other.diagram:
            raise GraphError("elements live at different levels")
        return GammaElement(self.diagram, self.level, {
            p: self(other(p)) for p in itertools.chain(other.mapping, self.mapping)})

    def inverse(self) -> "GammaElement":
        return GammaElement(self.diagram, self.level,
                            {q: p for p, q in self.mapping.items()})

    def is_identity(self) -> bool:
        return not self.mapping

    def order(self) -> int:
        """The lcm of the cycle lengths; every moved path is on a cycle."""
        return math.lcm(*map(len, _cycles(self.mapping)))

    def extend(self) -> "GammaElement":
        """The same element one level deeper (the direct-limit inclusion).
        A path and its image share a range, so their extensions line up."""
        b = self.diagram
        paths = _step(b.underlying_graph(), [*self.mapping, *self.mapping.values()])
        half = len(paths) // 2
        return GammaElement(b, self.level + 1, dict(zip(paths[:half], paths[half:])))

    def __hash__(self):
        return hash((self.diagram, self.level, frozenset(self.mapping.items())))


def gamma_to_table(el: GammaElement) -> Table:
    """Prefix-exchange table of the permutation; identity elsewhere, lags 0.

    It is known valid without ``validate_table``: the element's moved paths
    have pairwise disjoint cylinders, domain and codomain are the same paths,
    each piece's stems share a range, and that range is a vertex."""
    pieces = [Piece(q, frozenset(), p) for p, q in el.mapping.items()]
    return _marked(make_table(el.diagram.underlying_graph(), pieces, validate=False))


def af_to_v(el: GammaElement, lab=None) -> Table:
    """Image of a finitary permutation in the binary full group.

    Without ``lab`` it is the diagram's default labeling, built with the
    diagram, so repeated calls reuse its code words."""
    return embed_table(gamma_to_table(el), el.diagram._labeling if lab is None else lab)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def bratteli_from_json(data) -> BratteliDiagram:
    if not isinstance(data, dict) or "levels" not in data or "edges" not in data:
        raise ParseError("diagram JSON needs 'levels' and 'edges'")
    levels, edges = data["levels"], data["edges"]
    if not (isinstance(levels, list) and all(map(_strings, levels))):
        raise ParseError("diagram 'levels' must be a list of lists of vertex names")
    if not (isinstance(edges, list) and all(
            isinstance(eset, list) and all(_strings(e) and len(e) == 2 for e in eset)
            for eset in edges)):
        raise ParseError("diagram 'edges' must be a list of lists of [source, range] pairs")
    repeat = data.get("repeat")
    if repeat is not None:
        # type() is int refuses bools, floats and numeric strings alike
        if not (isinstance(repeat, dict) and type(repeat.get("from")) is int
                and type(repeat.get("period")) is int):
            raise ParseError("bad repeat rule: needs integers 'from' and 'period'")
        repeat = (repeat["from"], repeat["period"])
    try:
        return BratteliDiagram(tuple(levels), tuple(edges), repeat)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def bratteli_to_json(b: BratteliDiagram) -> dict:
    out = {
        "levels": [list(l) for l in b.levels],
        "edges": [[[s, r] for s, r in e] for e in b.edges],
    }
    if b.repeat is not None:
        out["repeat"] = {"from": b.repeat[0], "period": b.repeat[1]}
    return out


def gamma_element_from_json(b: BratteliDiagram, data) -> GammaElement:
    if not isinstance(data, dict) or "level" not in data:
        raise ParseError("element JSON needs 'level' and 'images'")
    N = data["level"]
    if type(N) is not int:
        raise ParseError(f"bad level: {N!r} is not an integer")
    images = data.get("images", {})
    if not (isinstance(images, dict) and all(
            isinstance(s, str) and isinstance(t, str) for s, t in images.items())):
        raise ParseError("element 'images' must map path literals to path literals")
    b._check_level(N)
    memo = {}  # the walk's, so the paths share one (id, 1) tuple per family id

    def resolve(literal):
        """The depth-N source path that ``format_path`` writes as ``literal``."""
        lit = literal.strip()
        start, colon, rest = lit.partition(":")
        ids = rest.split(",") if rest else ()
        if colon and (N - len(ids), start) in b._sources:
            try:
                return FinitePath(start, *_walk(b._graph, start, [(i, 1) for i in ids], memo))
            except (GraphError, PathError):
                pass
        raise ParseError(f"not a depth-{N} source path: {lit!r}")

    # a key resolves before its value, so the first bad literal is the one named
    mapping = {resolve(src): resolve(tgt) for src, tgt in images.items()}
    try:
        return GammaElement(b, N, mapping)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc
