"""Bratteli diagrams, their finitary full groups, and the pipeline into V.

A diagram declares finitely many levels.  With a ``repeat`` rule the last
declared level must repeat the block's first level verbatim: it only fixes
the wrap edge pattern, and the block then repeats forever.  Level-N group
elements are range-preserving permutations of the source-rooted paths down
to level N; they convert to prefix-exchange tables over the underlying
graph (all lags zero) and from there into the binary full group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import GraphError, ParseError
from .graph import Graph, EdgeFamily, LeveledGraph, TemplateFamily, _strings
from .pathspace import FinitePath, format_path, make_path
from .tables import Piece, Table, make_table
from .embed import default_labeling, embed_table


@dataclass(frozen=True)
class BratteliDiagram:
    levels: tuple          # tuple of vertex-name tuples
    edges: tuple           # edges[n] lists (src, rng) pairs from level n to n+1
    repeat: tuple | None   # (from_level, period) or None

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(tuple(l) for l in self.levels))
        object.__setattr__(
            self, "edges", tuple(tuple((s, r) for s, r in e) for e in self.edges)
        )
        self._validate()
        object.__setattr__(self, "_graph", None)  # see underlying_graph

    def _validate(self) -> None:
        if not self.levels or any(not l for l in self.levels):
            raise GraphError("every level must be nonempty")
        if len(self.edges) != len(self.levels) - 1:
            raise GraphError("need exactly one edge set between consecutive levels")
        if self.repeat is not None:
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

    @property
    def declared_levels(self) -> int:
        return len(self.levels)

    def underlying_graph(self):
        """Forget the level partition (leveled-infinite when repeating).

        Built once into ``_graph``, which ``__post_init__`` creates (see
        ``graph._GraphBase`` for why not ``cached_property``)."""
        if self._graph is None:
            object.__setattr__(self, "_graph", _underlying(self))
        return self._graph

    def _instance(self, level: int, name: str) -> str:
        if self.repeat is None or level < self.repeat[0]:
            return name
        return _leveled_name(self, level, name)

    def edge_list(self, n: int):
        """Instantiated edges of E_n as (src_name, rng_name, EdgeRef)."""
        if self.repeat is None:
            if not 1 <= n <= len(self.edges):
                raise GraphError(f"edge set E_{n} is not declared")
            return [
                (s, r, (f"e{n}_{k}", 1))
                for k, (s, r) in enumerate(self.edges[n - 1], start=1)
            ]
        f, p = self.repeat
        if n <= f:
            return [
                (self._instance(n - 1, s), self._instance(n, r), (f"e{n}_{k}", 1))
                for k, (s, r) in enumerate(self.edges[n - 1], start=1)
            ]
        rel = (n - 1 - f) % p
        rep = (n - 1 - f) // p
        pattern = self.edges[f + rel]
        out = []
        for k, (s, r) in enumerate(pattern, start=1):
            sname = _leveled_name(self, n - 1, s)
            rname = _leveled_name(self, n, r)
            out.append((sname, rname, (f"e{f + rel + 1}_{k}@{rep}", 1)))
        return out

    def vertex_names_at(self, level: int):
        if self.repeat is None:
            if not 0 <= level < len(self.levels):
                raise GraphError(f"level {level} is not declared")
            return tuple(self.levels[level])
        f, p = self.repeat
        if level < f:
            return tuple(self.levels[level])
        rel = (level - f) % p
        return tuple(_leveled_name(self, level, v) for v in self.levels[f + rel])

    def sources(self):
        """(level, instantiated name) of every source vertex."""
        out = [(0, self._instance(0, v)) for v in self.levels[0]]
        top = len(self.levels) if self.repeat is None else self.repeat[0] + 1
        for lev in range(1, top):
            incoming = {r for _, r in self.edges[lev - 1]}
            out.extend(
                (lev, self._instance(lev, v))
                for v in self.levels[lev]
                if v not in incoming
            )
        return out

    # -- paths and the finitary groups ----------------------------------------

    def fibers(self, N: int):
        """Source-rooted paths reaching level N, grouped by their range vertex."""
        if N < 0 or self.repeat is None and N >= len(self.levels):
            raise GraphError(f"level {N} is not declared")
        g = self.underlying_graph()
        by_vertex = {}
        for lev, name in self.sources():
            if lev <= N:
                by_vertex.setdefault(lev, []).append(make_path(g, name))
        paths = []
        frontier = []
        for lev in range(N + 1):
            frontier.extend(by_vertex.get(lev, []))
            if lev == N:
                paths = frontier
                break
            nxt = []
            elist = self.edge_list(lev + 1)
            for p in frontier:
                for s, r, ref in elist:
                    if s == p.rng:
                        nxt.append(FinitePath(p.start, p.edges + (ref,), r))
            frontier = nxt
        fibers = {}
        for p in paths:
            fibers.setdefault(p.rng, []).append(p)
        return fibers

    def gamma_order(self, N: int) -> int:
        return math.prod(math.factorial(len(f)) for f in self.fibers(N).values())

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
    if b.repeat is None:
        vertices = [v for l in b.levels for v in l]
        families = []
        for n, eset in enumerate(b.edges, start=1):
            for k, (s, r) in enumerate(eset, start=1):
                families.append(EdgeFamily(f"e{n}_{k}", s, r))
        return Graph(vertices, families)
    f, p = b.repeat
    base_levels = b.levels[:f]
    block_levels = b.levels[f:f + p]
    base_families = []
    for n in range(1, f + 1):
        for k, (s, r) in enumerate(b.edges[n - 1], start=1):
            base_families.append(TemplateFamily(f"e{n}_{k}", s, r, "next"))
    block_families = []
    for rel in range(p):
        n = f + rel + 1
        for k, (s, r) in enumerate(b.edges[n - 1], start=1):
            block_families.append(TemplateFamily(f"e{n}_{k}", s, r, "next"))
    return LeveledGraph(base_levels, block_levels, base_families, block_families)


def _leveled_name(b: BratteliDiagram, level: int, template: str) -> str:
    f, p = b.repeat
    if level < f:
        return template
    rep = (level - f) // p
    return f"{template}@{rep}"


@dataclass(frozen=True)
class GammaElement:
    """Range-preserving permutation of the depth-N source-rooted paths."""

    diagram: BratteliDiagram
    level: int
    mapping: object  # dict path -> path; treated as immutable

    def __post_init__(self):
        for p, q in self.mapping.items():
            if p.rng != q.rng:
                raise GraphError("permutation must preserve the range vertex")

    def __call__(self, path: FinitePath) -> FinitePath:
        return self.mapping.get(path, path)

    def compose(self, other: "GammaElement") -> "GammaElement":
        if self.level != other.level or self.diagram != other.diagram:
            raise GraphError("elements live at different levels")
        mapping = {p: self(other(p)) for p in other.mapping}
        for p in self.mapping:
            mapping.setdefault(p, self(p))
        return GammaElement(self.diagram, self.level, mapping)

    def inverse(self) -> "GammaElement":
        return GammaElement(self.diagram, self.level,
                            {q: p for p, q in self.mapping.items()})

    def is_identity(self) -> bool:
        return all(p == q for p, q in self.mapping.items())

    def order(self) -> int:
        n = 1
        acc = self
        while not acc.is_identity():
            acc = acc.compose(self)
            n += 1
        return n

    def extend(self) -> "GammaElement":
        """The same element one level deeper (the direct-limit inclusion)."""
        b = self.diagram
        elist = b.edge_list(self.level + 1)
        mapping = {}
        for p, q in self.mapping.items():
            for s, r, ref in elist:
                if s == p.rng:
                    mapping[FinitePath(p.start, p.edges + (ref,), r)] = FinitePath(
                        q.start, q.edges + (ref,), r)
        return GammaElement(b, self.level + 1, mapping)

    def __hash__(self):
        return hash((self.diagram, self.level,
                     tuple(sorted(self.mapping.items(), key=lambda kv: str(kv)))))


def gamma_to_table(el: GammaElement) -> Table:
    """Prefix-exchange table of the permutation; identity elsewhere, lags 0."""
    g = el.diagram.underlying_graph()
    pieces = [Piece(q, frozenset(), p) for p, q in el.mapping.items() if p != q]
    return make_table(g, pieces, validate=True)


def af_to_v(el: GammaElement, lab=None) -> Table:
    """Image of a finitary permutation in the binary full group."""
    g = el.diagram.underlying_graph()
    if lab is None:
        lab = default_labeling(g)
    return embed_table(gamma_to_table(el), lab)


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
    images = data.get("images") or {}
    if not (isinstance(images, dict) and all(isinstance(t, str) for t in images.values())):
        raise ParseError("element 'images' must map path literals to path literals")
    g = b.underlying_graph()
    fibers = b.fibers(N)
    all_paths = {format_path(g, p): p for paths in fibers.values() for p in paths}
    mapping = {p: p for p in all_paths.values()}
    for src_lit, tgt_lit in images.items():
        try:
            src, tgt = all_paths[src_lit.strip()], all_paths[tgt_lit.strip()]
        except KeyError as exc:
            raise ParseError(f"not a depth-{N} source path: {exc}") from exc
        mapping[src] = tgt
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise ParseError("images do not form a permutation")
    try:
        return GammaElement(b, N, mapping)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc
