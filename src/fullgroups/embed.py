"""Embedding of graph full groups into the binary full group (Thompson's V).

The binary graph has one vertex and two loops ``a``, ``b``.  An i-way choice
is encoded by the maximal prefix code ``b, ab, aab, ..., a^{i-2}b, a^{i-1}``
(for ``i`` infinite the last word is dropped and the code covers everything
except ``a^inf``).  Concatenating the code words of a labeled graph's vertex
and edge choices gives a word map ``word_of_path`` and a point map
``point_map`` conjugating the graph's full group into the binary one.

The same code yields generator-level images for the associated algebras:
vertex projections map to diagonal monomials and edge partial isometries to
monomials ``s_alpha s_beta*``.  ``ck_check`` verifies the defining relations
on the words alone: over a prefix code each relation holds exactly when
some words are equal, are not prefix-comparable or tile a cylinder, so it
compares and sorts words and forms no product.

A labeling memoises each edge's and each vertex's code word twice: as a
string, and as a tuple of the two letter refs ``A = ("a", 1)`` and
``B = ("b", 1)``, the edges of the binary graph, shared by every path this
module builds.  ``embed_table`` writes each stem's image as a concatenation
of these tuples, with no string in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import AdmissibilityError, GraphError, ParseError, PathError
from .graph import OMEGA, EdgeFamily, Graph, _Record, _setters, _strings
from .pathspace import BoundaryPoint, FinitePath, periodic_point
from .tables import Piece, Table, _marked, make_table, validate_table

E2 = Graph(
    ["v"],
    [EdgeFamily("a", "v", "v"), EdgeFamily("b", "v", "v")],
)


A, B = ("a", 1), ("b", 1)
_LETTER = {"a": A, "b": B}.__getitem__


def _letters(word: str) -> tuple:
    return tuple(map(_LETTER, word))


def binary_path(word: str) -> FinitePath:
    """A finite path over the binary graph from a string of a's and b's.

    Both letters are loops at ``v``, so every word is a path there.
    """
    if word.strip("ab"):
        raise PathError(f"not a binary word: {word!r}")
    return FinitePath("v", _letters(word), "v")


def binary_point(prefix: str, cycle: str) -> BoundaryPoint:
    return periodic_point(E2, binary_path(prefix), binary_path(cycle))


# ---------------------------------------------------------------------------
# The prefix code
# ---------------------------------------------------------------------------


def code_word(j: int, i) -> str:
    """The j-th word of the i-way prefix code (i may be OMEGA)."""
    if type(j) is not int or j < 1:
        raise PathError("code index must be positive")
    if i != OMEGA and j > i:
        raise PathError(f"code index {j} exceeds alphabet size {i}")
    if i == 1:
        return ""
    if j == i:
        return "a" * (j - 1)
    return "a" * (j - 1) + "b"


def _nested(words) -> bool:
    """Two of the sorted ``words`` are prefix-comparable (or equal): in
    sorted order a word that is a prefix of a later one is one of the next."""
    return any(map(str.startswith, words[1:], words))


def _tiles(words, w: str) -> bool:
    """The cylinders of the sorted binary ``words`` partition ``Z(w)``: the
    first and the last word extend ``w`` (so every word between does), they
    are not ``_nested``, and their Kraft sum is that of ``w``."""
    if not words or not (words[0].startswith(w) and words[-1].startswith(w)):
        return False
    whole = 1 << max(map(len, words))  # 2**-len(x) in units of 2**-top
    return (not _nested(words)
            and sum(map(whole.__rshift__, map(len, words))) == whole >> len(w))


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
    last) and the source's out-degree.  Code words are memoised per edge
    ref, and as letters per edge ref and per vertex.
    """

    def __init__(self, graph, vertex_order=None, edge_orders=None):
        self.graph = graph
        self.n = graph.vertex_count()
        self.vertex_order = self._numbers = None
        if vertex_order is not None:
            if not graph.is_finite:
                raise PathError("leveled graphs use the level-by-level labeling")
            if not _strings(vertex_order):
                raise PathError("a vertex order must be a list of vertex names")
            order = tuple(vertex_order)
            if sorted(order) != sorted(graph.vertices):
                raise PathError("vertex order must be a permutation of the vertices")
            if order != graph.vertices:
                self.vertex_order = order
                self._numbers = {v: i for i, v in enumerate(order, 1)}
        self.edge_orders = {}
        self._reordered = {}    # single family id -> its number in edge_orders
        edge_orders = {} if edge_orders is None else edge_orders
        if not (isinstance(edge_orders, dict)
                and all(isinstance(v, str) and _strings(ids) for v, ids in edge_orders.items())):
            raise PathError("edge orders must map vertex names to lists of edge ids")
        for v, ids in edge_orders.items():
            if not graph.has_vertex(v):
                raise _no_such_vertex(v)
            if sorted(ids) != sorted(f.id for f in graph.out_singles(v)):
                raise PathError(f"edge order at {v!r} must permute its single edges")
            self.edge_orders[v] = tuple(ids)
            self._reordered.update((fid, j) for j, fid in enumerate(ids, 1))
        self._words = {}        # edge ref -> code word
        self._letters = {}      # edge ref -> code word as letters
        self._vertex_letters = {}  # vertex -> its code word as letters

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
        if type(i) is not int or not 1 <= i <= self.n:
            raise GraphError(f"vertex index {i} not in 1..{self.n}")
        return self.vertex_order[i - 1]

    def singles_at(self, vertex: str):
        singles = self.edge_orders.get(vertex)
        if singles is not None:
            return singles
        try:
            return tuple(f.id for f in self.graph.out_singles(vertex))
        except GraphError:
            raise _no_such_vertex(vertex) from None

    def edge_number(self, ref) -> int:
        """The caller's number of a reordered single; else the family's slot
        plus the edge's index, as the omega family is last."""
        return self._edge_number(ref, self.graph._edge_slot(ref[0]))

    def _edge_number(self, ref, slot) -> int:
        """``edge_number(ref)``, given the ``_edge_slot`` of its family."""
        return self._reordered.get(ref[0]) or slot[1] + ref[1]

    def edge_by_number(self, vertex: str, j: int):
        if type(j) is not int or j < 1:
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
        slot = lab.graph._edge_slot(ref[0])
        word = lab._words[ref] = code_word(lab._edge_number(ref, slot), slot[2])
    return word


def word_of_path(mu: FinitePath, lab: Labeling) -> str:
    """Vertex code word of the start followed by the edge code words."""
    return word_of_vertex(mu.start, lab) + "".join(edge_word(e, lab) for e in mu.edges)


def point_map(p: BoundaryPoint, lab: Labeling) -> BoundaryPoint:
    """Image of a representable boundary point in the binary path space."""
    require_admissible(lab.graph)
    cyc = "a" if p.cycle is None else "".join(edge_word(e, lab) for e in p.cycle.edges)
    if not cyc:
        raise AdmissibilityError("cycle with no exit encountered in the point map")
    return binary_point(word_of_path(p.prefix, lab), cyc)


def _path_letters(mu: FinitePath, lab: Labeling) -> tuple:
    """``word_of_path(mu, lab)`` as letters."""
    try:
        head = lab._vertex_letters[mu.start]
        return head + tuple(chain.from_iterable(map(lab._letters.__getitem__, mu.edges)))
    except KeyError:  # a vertex or an edge met for the first time
        lab._vertex_letters[mu.start] = _letters(word_of_vertex(mu.start, lab))
        for e in mu.edges:
            if e not in lab._letters:
                lab._letters[e] = _letters(edge_word(e, lab))
        return _path_letters(mu, lab)


def _tails(g, lab: Labeling, w: str, F) -> list:
    """What a piece at range ``w`` with exclusion set F appends to both its
    stems, as letters, one tail per binary piece: ``a^top`` for the largest
    labeled index ``top`` in F, and the code word of each smaller index not
    in F.  The ``a^top`` residual is empty exactly when F reaches a regular
    vertex's last labeled edge, the only case where ``top`` is the degree."""
    numbers = {lab.edge_number(e) for e in F}
    top = max(numbers, default=0)
    degree = g.out_degree(w)
    tails = [] if top == degree else [(A,) * top]
    tails += [_letters(code_word(j, degree)) for j in range(1, top) if j not in numbers]
    return tails


def embed_table(t: Table, lab: Labeling) -> Table:
    """Image of a prefix-exchange table in the binary full group.

    A piece with exclusion set F splits into a prefix-exclusion piece
    (appending ``a^l`` for the top excluded index l) plus one piece per kept
    smaller index; each stem then maps through the word map.  A piece whose
    stems have one word maps to the identity and is dropped.  ``lab`` must
    label the table's graph.

    ``t`` is validated unless it is known valid (``make_table`` with
    ``validate``, and what the table operations build from valid tables).
    The image is never checked: the word map is an injective prefix code,
    so the image of a valid table is valid, and it is known valid.
    """
    g = t.graph
    if lab.graph != g:
        raise PathError("the labeling is of another graph than the table")
    require_admissible(g)
    if not t._valid:
        validate_table(t)
    out = []
    tails = {}  # (range, F) -> _tails
    empty = frozenset()
    for p in t.pieces:
        mu_w = _path_letters(p.mu, lab)
        lam_w = _path_letters(p.lam, lab)
        if mu_w == lam_w:
            continue
        key = (p.mu.rng, p.F)
        ends = tails.get(key)
        if ends is None:
            ends = tails[key] = _tails(g, lab, *key)
        for tail in ends:
            out.append(Piece(FinitePath("v", mu_w + tail, "v"), empty,
                             FinitePath("v", lam_w + tail, "v")))
    return _marked(make_table(E2, out, validate=False))


# ---------------------------------------------------------------------------
# Generator emission
# ---------------------------------------------------------------------------


class Monomial(_Record):
    """s_alpha s_beta* over the binary alphabet."""

    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha: str, beta: str):
        _mn_alpha(self, alpha)
        _mn_beta(self, beta)

    def is_projection(self) -> bool:
        return self.alpha == self.beta


_mn_alpha, _mn_beta = _setters(Monomial)


class VertexImage(_Record):
    __slots__ = _fields = ("vertex", "mono")

    def __init__(self, vertex: str, mono: Monomial):
        _vi_vertex(self, vertex)
        _vi_mono(self, mono)


_vi_vertex, _vi_mono = _setters(VertexImage)


class EdgeImage(_Record):
    # name is the display name: the family id, or id[j] for omega edges
    __slots__ = _fields = ("name", "ref", "source", "range", "mono")

    def __init__(self, name: str, ref: tuple, source: str, range: str, mono: Monomial):
        _ei_name(self, name)
        _ei_ref(self, ref)
        _ei_source(self, source)
        _ei_range(self, range)
        _ei_mono(self, mono)


_ei_name, _ei_ref, _ei_source, _ei_range, _ei_mono = _setters(EdgeImage)


@dataclass(frozen=True)
class GeneratorImage:
    vertices: tuple
    edges: tuple


def emit_generators(g, lab: Labeling, edge_bound: int = 10) -> GeneratorImage:
    """Images of the vertex projections and edge isometries.

    Omega families are truncated at ``edge_bound`` edges; for leveled graphs
    the same bound truncates the vertex enumeration.  A bound below 1 is
    refused, and so is a labeling of another graph than ``g``.

    The graph's ``_first_vertices`` lists the emitted vertices (all of a
    finite graph's, the first ``edge_bound`` of a leveled graph's) with their
    out-families as ``(id, range, is_omega)`` in slot order; a leveled graph
    names each once, in one walk of its levels, and parses no name back.
    The rows are taken in the labeling's number order, which is index order
    unless a finite graph's labeling reorders its vertices, so vertex ``i``
    maps to ``code_word(i, n)``.  Only a range past the bound is looked up
    by name, for its number.
    """
    if lab.graph != g:
        raise PathError("the labeling is of another graph")
    require_admissible(g)
    if type(edge_bound) is not int or edge_bound < 1:
        raise GraphError("edge bound must be at least 1")
    rows = g._first_vertices(g.vertex_count() if g.is_finite else edge_bound)
    if lab.vertex_order is not None:
        rows.sort(key=lambda row: lab.vertex_number(row[0]))
    words = {v: code_word(i, lab.n) for i, (v, _) in enumerate(rows, 1)}
    vimages, eimages = [], []
    for v, fams in rows:  # fams: singles, then the omega family
        vword = words[v]
        vimages.append(VertexImage(v, Monomial(vword, vword)))
        if v in lab.edge_orders:
            fams = sorted(fams, key=lambda f: lab.edge_number((f[0], 1)))
        for fid, rng, omega in fams:
            rword = words.get(rng)
            if rword is None:  # a leveled vertex past the bound
                rword = code_word(lab.vertex_number(rng), lab.n)
            for j in range(1, edge_bound + 1 if omega else 2):
                ref = (fid, j)
                eimages.append(EdgeImage(f"{fid}[{j}]" if omega else fid, ref, v, rng,
                                         Monomial(vword + edge_word(ref, lab), rword)))
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


def _comparable_pairs(left, right=None):
    """Sorted index pairs ``(i, j)``, ``i < j``, with ``left[i]`` and
    ``right[j]`` prefix-comparable; ``right`` defaults to ``left``.

    The words, tagged by side and index (each once if there is one list),
    are sorted.  The words extending ``w`` then follow ``w`` in one
    contiguous block, so each entry scans forward only while they last.
    """
    tagged = [(w, 0, i) for i, w in enumerate(left)]
    if right is not None:
        tagged += [(w, 1, j) for j, w in enumerate(right)]
    tagged.sort()
    pairs = []
    for k, (w, side, i) in enumerate(tagged):
        for m in range(k + 1, len(tagged)):
            x, other, j = tagged[m]
            if not x.startswith(w):
                break
            if right is None:
                pairs.append((i, j) if i < j else (j, i))
            elif side != other:
                pair = (i, j) if side == 0 else (j, i)
                if pair[0] < pair[1]:
                    pairs.append(pair)
    return sorted(pairs)


def ck_check(g, img: GeneratorImage):
    """Verify the graph-algebra relations on the emitted images.

    Checks: vertex images are projections, mutually orthogonal, and (finite
    vertex set) sum to the identity; edges ``s_e = s_alpha s_beta*`` satisfy
    s_e* s_e = s_beta s_beta* = p_r(e), p_s(e) s_e = s_e, and same-vertex
    orthogonality; on every graph, each emitted regular vertex satisfies
    sum_e s_e s_e* = sum_e s_alpha s_alpha* = p_v.  Omega families are only
    sampled up to the emitted bound.

    No product is formed.  p_s(e) s_e = s_e exactly when p_s(e) is a
    projection s_w s_w* with ``w`` a prefix of alpha.  A product p_i p_j
    (s_i* s_j) is nonzero exactly when beta_i and alpha_j (the two alphas)
    are prefix-comparable, which one pass over the sorted words decides
    (``_nested``); ``_comparable_pairs`` runs only to name the failing pairs,
    and for vertex images that are not all projections.  As s_x s_x* is the
    indicator of Z(x), both sums are tilings (``_tiles``), with every term
    and p_v a projection: of Z("") by the vertex words, of p_v by the alphas.
    """
    failures = []
    fail = failures.append
    vs = img.vertices
    vmap = {v.vertex: v.mono for v in vs}
    for v in vs:
        if not v.mono.is_projection():
            fail(f"p[{v.vertex}] is not a projection")
    projections = not failures  # the only failures yet
    alphas = [v.mono.alpha for v in vs]
    if projections:  # the betas are the alphas
        words = sorted(alphas)
        pairs = _comparable_pairs(alphas) if _nested(words) else ()
    else:
        pairs = _comparable_pairs([v.mono.beta for v in vs], alphas)
    for i, j in pairs:
        fail(f"p[{vs[i].vertex}] p[{vs[j].vertex}] != 0")
    if g.is_finite and not (projections and _tiles(words, "")):
        fail("vertex projections do not sum to 1")
    for e in img.edges:
        r = vmap.get(e.range)  # s_e* s_e = s_beta s_beta*
        if r is not None and not r.alpha == r.beta == e.mono.beta:
            fail(f"s[{e.name}]* s[{e.name}] != p[{e.range}]")
        p = vmap.get(e.source)
        if p is not None and not (p.alpha == p.beta and e.mono.alpha.startswith(p.alpha)):
            fail(f"p[{e.source}] s[{e.name}] != s[{e.name}]")
    by_source = {}
    for e in img.edges:
        by_source.setdefault(e.source, []).append(e)
    for v, edges in by_source.items():
        alphas = [e.mono.alpha for e in edges]
        words = sorted(alphas)
        if _nested(words):
            for i, j in _comparable_pairs(alphas):
                fail(f"s[{edges[i].name}]* s[{edges[j].name}] != 0")
        p = vmap.get(v)
        tiled = p is None or p.is_projection() and _tiles(words, p.alpha)
        if not tiled and g.is_regular(v):
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
