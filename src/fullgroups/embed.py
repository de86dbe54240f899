"""Embedding of graph full groups into the binary full group (Thompson's V).

The binary graph has one vertex and two loops ``a``, ``b``.  An i-way choice
is encoded by the maximal prefix code ``b, ab, aab, ..., a^{i-2}b, a^{i-1}``
(for ``i`` infinite the last word is dropped and the code covers everything
except ``a^inf``).  Concatenating the code words of a labeled graph's vertex
and edge choices gives a word map ``word_of_path`` and a point map
``point_map`` conjugating the graph's full group into the binary one.

The same code yields generator-level images for the associated algebras:
vertex projections map to diagonal monomials and edge partial isometries to
monomials ``s_alpha s_beta*``; ``ck_check`` verifies the defining relations
symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AdmissibilityError, GraphError, ParseError, PathError
from .graph import OMEGA, EdgeFamily, Graph, _strings
from .pathspace import BoundaryPoint, FinitePath, periodic_point
from .tables import Piece, Table, make_table

E2 = Graph(
    ["v"],
    [EdgeFamily("a", "v", "v"), EdgeFamily("b", "v", "v")],
)


def binary_path(word: str) -> FinitePath:
    """A finite path over the binary graph from a string of a's and b's.

    Both letters are loops at ``v``, so every word is a path there.
    """
    if word.strip("ab"):
        raise PathError(f"not a binary word: {word!r}")
    return FinitePath("v", tuple(zip(word, [1] * len(word))), "v")


def binary_point(prefix: str, cycle: str) -> BoundaryPoint:
    return periodic_point(E2, binary_path(prefix), binary_path(cycle))


# ---------------------------------------------------------------------------
# The prefix code
# ---------------------------------------------------------------------------


def code_word(j: int, i) -> str:
    """The j-th word of the i-way prefix code (i may be OMEGA)."""
    if j < 1:
        raise PathError("code index must be positive")
    if i != OMEGA and j > i:
        raise PathError(f"code index {j} exceeds alphabet size {i}")
    if i == 1:
        return ""
    if j == i:
        return "a" * (j - 1)
    if j == 1:
        return "b"
    return "a" * (j - 1) + "b"


def code_partition_check(i, depth: int) -> bool:
    """The code words are prefix-incomparable and tile all binary words of
    the given depth (all but ``a^depth`` when i is OMEGA)."""
    if i == OMEGA:
        words = [code_word(j, i) for j in range(1, depth + 1)]
    else:
        words = [code_word(j, i) for j in range(1, i + 1)]
    if any(len(w) > depth for w in words):
        return False
    for xi, x in enumerate(words):
        for yi, y in enumerate(words):
            if xi != yi and y.startswith(x):
                return False
    uncovered = []
    for k in range(2 ** depth):
        w = format(k, f"0{depth}b").replace("0", "a").replace("1", "b") if depth else ""
        hits = sum(1 for c in words if w.startswith(c))
        if hits != 1:
            uncovered.append(w)
    if i == OMEGA:
        return uncovered == ["a" * depth]
    return not uncovered


# ---------------------------------------------------------------------------
# Labelings
# ---------------------------------------------------------------------------


class Labeling:
    """Vertex order and per-vertex single-edge order of a graph.

    Defaults to declaration order.  Omega families always label last, their
    edges numbered after the singles.  Leveled graphs are enumerated level by
    level over the naturals and do not admit custom vertex orders.

    A labeling keeps only the orders its caller gave: a vertex order that is
    not the declared one and ``edge_orders``.  Every other number comes from
    the graph: a vertex's index, and ``_edge_slot``, the position of an edge
    family among its source's out-families (singles first, the omega family
    last) and the source's out-degree.  Code words are memoised per edge ref.
    """

    def __init__(self, graph, vertex_order=None, edge_orders=None):
        self.graph = graph
        self.n = graph.vertex_count()
        self.vertex_order = self._numbers = None
        if vertex_order is not None:
            if not graph.is_finite:
                raise PathError("leveled graphs use the level-by-level labeling")
            order = tuple(vertex_order)
            if sorted(order) != sorted(graph.vertices):
                raise PathError("vertex order must be a permutation of the vertices")
            if order != graph.vertices:
                self.vertex_order = order
                self._numbers = {v: i for i, v in enumerate(order, 1)}
        self.edge_orders = {}
        self._reordered = {}    # single family id -> its number in edge_orders
        for v, ids in (edge_orders or {}).items():
            if not graph.has_vertex(v):
                raise _no_such_vertex(v)
            if sorted(ids) != sorted(graph._out_ids(v)):
                raise PathError(f"edge order at {v!r} must permute its single edges")
            self.edge_orders[v] = tuple(ids)
            self._reordered.update((fid, j) for j, fid in enumerate(ids, 1))
        self._words = {}        # edge ref -> code word

    def _key(self):
        return (self.graph, self.vertex_order,
                tuple(sorted(self.edge_orders.items())))

    def __eq__(self, other):
        return isinstance(other, Labeling) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def vertex_number(self, name: str) -> int:
        try:
            if self._numbers is None:
                return self.graph.vertex_index(name)
            return self._numbers[name]
        except (KeyError, GraphError):
            raise _no_such_vertex(name) from None

    def vertex_by_number(self, i: int) -> str:
        if self.vertex_order is None:
            return self.graph.vertex_by_index(i)
        if not 1 <= i <= self.n:
            raise GraphError(f"vertex index {i} not in 1..{self.n}")
        return self.vertex_order[i - 1]

    def singles_at(self, vertex: str):
        singles = self.edge_orders.get(vertex)
        if singles is not None:
            return singles
        try:
            return self.graph._out_ids(vertex)
        except GraphError:
            raise _no_such_vertex(vertex) from None

    def edge_number(self, ref) -> int:
        """The caller's number of a reordered single; else the family's slot
        plus the edge's index, as the omega family is last."""
        fid, idx = ref
        return self._reordered.get(fid) or self.graph._edge_slot(fid)[1] + idx

    def edge_by_number(self, vertex: str, j: int):
        if j < 1:
            raise PathError(f"edge numbers are 1-based, got {j}")
        singles = self.singles_at(vertex)
        if j <= len(singles):
            return (singles[j - 1], 1)
        fam = self.graph.omega_family(vertex)
        if fam is None:
            raise PathError(f"vertex {vertex!r} has no edge #{j}")
        return (fam.id, j - len(singles))


def _no_such_vertex(name) -> PathError:
    """The labeling's error for a name that is not a vertex of its graph."""
    return PathError(f"unknown vertex {name!r}")


def default_labeling(g) -> Labeling:
    return Labeling(g)


def require_admissible(g) -> None:
    """No sinks, condition (L), no semi-tails: the embedding hypotheses."""
    failure = g._admissibility_failure
    if failure is not None:
        raise AdmissibilityError(failure)


# ---------------------------------------------------------------------------
# The word and point maps
# ---------------------------------------------------------------------------


def word_of_vertex(v: str, lab: Labeling) -> str:
    require_admissible(lab.graph)
    return code_word(lab.vertex_number(v), lab.n)


def edge_word(ref, lab: Labeling) -> str:
    word = lab._words.get(ref)
    if word is None:
        degree = lab.graph._edge_slot(ref[0])[2]
        word = lab._words[ref] = code_word(lab.edge_number(ref), degree)
    return word


def word_of_path(mu: FinitePath, lab: Labeling) -> str:
    """Vertex code word of the start followed by the edge code words."""
    require_admissible(lab.graph)
    return word_of_vertex(mu.start, lab) + "".join(edge_word(e, lab) for e in mu.edges)


def word_of_edges(mu: FinitePath, lab: Labeling) -> str:
    """Edge code words only (used for cycle tails)."""
    require_admissible(lab.graph)
    return "".join(edge_word(e, lab) for e in mu.edges)


def point_map(p: BoundaryPoint, lab: Labeling) -> BoundaryPoint:
    """Image of a representable boundary point in the binary path space."""
    require_admissible(lab.graph)
    if p.cycle is None:
        return binary_point(word_of_path(p.prefix, lab), "a")
    cyc = word_of_edges(p.cycle, lab)
    if not cyc:
        raise AdmissibilityError("cycle with no exit encountered in the point map")
    return binary_point(word_of_path(p.prefix, lab), cyc)


def _prefix_f_level(piece_F, lab: Labeling):
    """Largest labeled index in F, plus the indices below it that stay."""
    if not piece_F:
        return 0, []
    numbers = sorted(lab.edge_number(e) for e in piece_F)
    top = numbers[-1]
    kept = [j for j in range(1, top) if j not in set(numbers)]
    return top, kept


def embed_table(t: Table, lab: Labeling) -> Table:
    """Image of a prefix-exchange table in the binary full group.

    A piece with exclusion set F splits into a prefix-exclusion piece
    (appending ``a^l`` for the top excluded index l) plus one piece per kept
    smaller index; each stem then maps through the word map.
    """
    g = t.graph
    require_admissible(g)
    out = []
    for p in t.pieces:
        w = p.mu.rng
        mu_w = word_of_path(p.mu, lab)
        lam_w = word_of_path(p.lam, lab)
        top, kept = _prefix_f_level(p.F, lab)
        # the a^top residual is empty exactly when F reaches a regular
        # vertex's last labeled edge
        if not (g.is_regular(w) and top == g.out_degree(w)):
            out.append(Piece(binary_path(mu_w + "a" * top), frozenset(),
                             binary_path(lam_w + "a" * top)))
        for j in kept:
            ej = lab.edge_by_number(w, j)
            wj = edge_word(ej, lab)
            out.append(Piece(binary_path(mu_w + wj), frozenset(),
                             binary_path(lam_w + wj)))
    out = [p for p in out if p.mu != p.lam]
    return make_table(E2, out, validate=True)


# ---------------------------------------------------------------------------
# Monomials and formal sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """s_alpha s_beta* over the binary alphabet; None stands for zero."""

    alpha: str
    beta: str

    def star(self) -> "Monomial":
        return Monomial(self.beta, self.alpha)

    def is_projection(self) -> bool:
        return self.alpha == self.beta


ONE = Monomial("", "")


def mono_mult(x, y):
    """Product of monomials with the usual contraction; None is absorbing."""
    if x is None or y is None:
        return None
    if y.alpha.startswith(x.beta):
        return Monomial(x.alpha + y.alpha[len(x.beta):], y.beta)
    if x.beta.startswith(y.alpha):
        return Monomial(x.alpha, y.beta + x.beta[len(y.alpha):])
    return None


class FormalSum:
    """Integer combination of monomials kept in collected form."""

    def __init__(self, terms=None):
        self.terms = {}
        for mono, c in (terms or {}).items():
            if c:
                self.terms[mono] = self.terms.get(mono, 0) + c

    @classmethod
    def of(cls, *monos):
        s = cls()
        for m in monos:
            if m is not None:
                s.terms[m] = s.terms.get(m, 0) + 1
        return s

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return FormalSum({m: c for m, c in out.items() if c})

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return FormalSum({m: c for m, c in out.items() if c})

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mult(m1, m2)
                if m is not None:
                    out[m] = out.get(m, 0) + c1 * c2
        return FormalSum({m: c for m, c in out.items() if c})

    def reduced(self) -> "FormalSum":
        """Collect sibling pairs: c(s_xa s_ya*) + c(s_xb s_yb*) -> c(s_x s_y*).

        One pass over the alpha lengths present, longest first: siblings of
        one sign move their smaller coefficient to the parent, one letter
        shorter, whose length comes later; so each term is looked at once.
        The moves keep the value, and in a zero sum the deepest siblings
        carry equal coefficients, so the sum is zero exactly when nothing is
        left.
        """
        levels = {}
        for m, c in self.terms.items():
            levels.setdefault(len(m.alpha), {})[m] = c
        out = {}
        depths = sorted(levels)
        while depths:
            d = depths.pop()
            level = levels.pop(d)
            for m in [m for m in level if m.alpha.endswith("a") and m.beta.endswith("a")]:
                c = level[m]
                sib = Monomial(m.alpha[:-1] + "b", m.beta[:-1] + "b")
                c2 = level.get(sib, 0)
                if not c2 or (c > 0) != (c2 > 0):
                    continue
                step = min(c, c2) if c > 0 else max(c, c2)
                level[m] -= step
                level[sib] -= step
                if d - 1 not in levels:  # below every depth left
                    levels[d - 1] = {}
                    depths.append(d - 1)
                parent = Monomial(m.alpha[:-1], m.beta[:-1])
                levels[d - 1][parent] = levels[d - 1].get(parent, 0) + step
            out.update(level)
        return FormalSum(out)

    def is_zero(self) -> bool:
        return not self.reduced().terms

    def equals(self, other) -> bool:
        return (self - other).is_zero()

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*({m.alpha}|{m.beta})" for m, c in sorted(
            self.terms.items(), key=lambda kv: (kv[0].alpha, kv[0].beta)))


# ---------------------------------------------------------------------------
# Generator emission
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexImage:
    vertex: str
    mono: Monomial


@dataclass(frozen=True)
class EdgeImage:
    name: str        # display name: family id, or id[j] for omega edges
    ref: tuple
    source: str
    range: str
    mono: Monomial


@dataclass(frozen=True)
class GeneratorImage:
    vertices: tuple
    edges: tuple


def emit_generators(g, lab: Labeling, edge_bound: int = 10) -> GeneratorImage:
    """Images of the vertex projections and edge isometries.

    Omega families are truncated at ``edge_bound`` edges; for leveled graphs
    the same bound truncates the vertex enumeration.  A bound below 1 is
    refused.
    """
    require_admissible(g)
    if edge_bound < 1:
        raise GraphError("edge bound must be at least 1")
    count = g.vertex_count() if g.is_finite else edge_bound
    vertex_names = [lab.vertex_by_number(i) for i in range(1, count + 1)]
    vwords = [word_of_vertex(v, lab) for v in vertex_names]
    vimages = [VertexImage(v, Monomial(w, w)) for v, w in zip(vertex_names, vwords)]
    eimages = []
    for v, vword in zip(vertex_names, vwords):
        refs = [(fid, 1) for fid in lab.singles_at(v)]
        fam = g.omega_family(v)
        if fam is not None:
            refs += [(fam.id, j) for j in range(1, edge_bound + 1)]
        for ref in refs:
            fam_obj = g.family(ref[0])
            word = vword + edge_word(ref, lab)
            rword = word_of_vertex(fam_obj.range, lab)
            name = f"{ref[0]}[{ref[1]}]" if fam_obj.is_omega else ref[0]
            eimages.append(EdgeImage(name, ref, v, fam_obj.range, Monomial(word, rword)))
    return GeneratorImage(tuple(vimages), tuple(eimages))


def _mono_text(m: Monomial) -> str:
    if m.alpha == "" and m.beta == "":
        return "1"
    if m.beta == "":
        return f"s({m.alpha})"
    if m.alpha == "":
        return f"s({m.beta})*"
    return f"s({m.alpha}) s({m.beta})*"


def format_generator_image(img: GeneratorImage) -> str:
    lines = [f"p[{v.vertex}] -> {_mono_text(v.mono)}" for v in img.vertices]
    lines += [f"s[{e.name}] -> {_mono_text(e.mono)}" for e in img.edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Relation checking
# ---------------------------------------------------------------------------


def _comparable_pairs(left, right):
    """Sorted index pairs ``(i, j)``, ``i < j``, with ``left[i]`` and
    ``right[j]`` prefix-comparable.

    Both word lists go into one list tagged by side and index, and it is
    sorted.  The words extending ``w`` then follow ``w`` in one contiguous
    block, so each entry scans forward only while its extensions last.
    """
    tagged = sorted([(w, 0, i) for i, w in enumerate(left)]
                    + [(w, 1, j) for j, w in enumerate(right)])
    pairs = []
    for k, (w, side, i) in enumerate(tagged):
        for m in range(k + 1, len(tagged)):
            x, other, j = tagged[m]
            if not x.startswith(w):
                break
            if side != other:
                pair = (i, j) if side == 0 else (j, i)
                if pair[0] < pair[1]:
                    pairs.append(pair)
    return sorted(pairs)


def ck_check(g, img: GeneratorImage):
    """Verify the graph-algebra relations on the emitted images.

    Checks: vertex images are projections, mutually orthogonal, and (finite
    vertex set) sum to the identity; edges satisfy s_e* s_e = p_r(e),
    p_s(e) s_e = s_e, and same-vertex orthogonality; regular vertices satisfy
    the reconstruction identity sum_e s_e s_e* = p_v.  Omega families are
    only sampled up to the emitted bound.

    A product ``p_i p_j`` (``s_i* s_j``) is nonzero exactly when ``beta_i``
    and ``alpha_j`` (the two alphas) are prefix-comparable.  The
    orthogonality checks find those pairs by sorting the words, among which
    the extensions of a word are contiguous.
    """
    failures = []
    vmap = {v.vertex: v.mono for v in img.vertices}

    def fail(msg):
        failures.append(msg)

    for v in img.vertices:
        if not v.mono.is_projection():
            fail(f"p[{v.vertex}] is not a projection")
    vs = img.vertices
    for i, j in _comparable_pairs([v.mono.beta for v in vs], [v.mono.alpha for v in vs]):
        fail(f"p[{vs[i].vertex}] p[{vs[j].vertex}] != 0")
    if g.is_finite and not FormalSum.of(*(v.mono for v in vs)).equals(FormalSum.of(ONE)):
        fail("vertex projections do not sum to 1")
    for e in img.edges:
        if e.range in vmap:
            left = mono_mult(e.mono.star(), e.mono)
            if left != vmap[e.range]:
                fail(f"s[{e.name}]* s[{e.name}] != p[{e.range}]")
        if e.source in vmap:
            if mono_mult(vmap[e.source], e.mono) != e.mono:
                fail(f"p[{e.source}] s[{e.name}] != s[{e.name}]")
    by_source = {}
    for e in img.edges:
        by_source.setdefault(e.source, []).append(e)
    for v, edges in by_source.items():
        alphas = [e.mono.alpha for e in edges]
        for i, j in _comparable_pairs(alphas, alphas):
            fail(f"s[{edges[i].name}]* s[{edges[j].name}] != 0")
        if g.is_finite and g.is_regular(v) and v in vmap:
            ranges = FormalSum.of(*(mono_mult(e.mono, e.mono.star()) for e in edges))
            if not ranges.equals(FormalSum.of(vmap[v])):
                fail(f"sum of ranges at {v} != p[{v}]")
    return (not failures), failures


# ---------------------------------------------------------------------------
# Labeling files
# ---------------------------------------------------------------------------


def labeling_from_json(g, data) -> Labeling:
    if data is None:
        return default_labeling(g)
    if not isinstance(data, dict):
        raise ParseError("labeling file must hold a JSON object")
    vertices, edges = data.get("vertices"), data.get("edges")
    if not (vertices is None or _strings(vertices)):
        raise ParseError("labeling 'vertices' must be a list of vertex names")
    if not (edges is None or isinstance(edges, dict) and all(map(_strings, edges.values()))):
        raise ParseError("labeling 'edges' must map vertex names to lists of edge ids")
    for v in edges or ():
        if not g.has_vertex(v):
            raise ParseError(f"labeling 'edges' names an unknown vertex {v!r}")
    try:
        return Labeling(g, vertices, edges)
    except PathError as exc:
        raise ParseError(str(exc)) from exc
