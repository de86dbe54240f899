"""Directed graphs with omega-edge-bundles and the decidable graph conditions.

Two graph flavours are supported.  A ``Graph`` is an ordinary finite directed
graph whose parallel-edge bundles may be infinite (``omega`` families).  A
``LeveledGraph`` has a finite base segment followed by a block of levels that
repeats forever; it models graphs coming from level structures (one vertex
set per level, edges within a level or to the next one) and is the only kind
of infinite graph in scope.

Edges are grouped into *families*: a family is either a single edge or an
omega-bundle of countably many parallel edges sharing one source and one
range.  An individual edge is addressed by an ``EdgeRef`` pair
``(family_id, index)`` with ``index == 1`` for single families.
"""

from __future__ import annotations

import bisect
import itertools
import re
from dataclasses import dataclass
from operator import attrgetter

from .errors import GraphError, ParseError, UnsupportedConditionError

OMEGA = float("inf")

EdgeRef = tuple  # (family_id: str, index: int)

SINGLE = "single"
OMEGA_MULT = "omega"

# a separator of the path and point literals, or whitespace they would strip
_UNSPELLABLE = re.compile(r"[:,\[\]/|]|^\s|\s$")


class _Record:
    """Base of the value classes built in the hot loops (``EdgeFamily``,
    ``FinitePath``, ``CylinderAtom``, ``Piece``, ``Monomial``, ``VertexImage``,
    ``EdgeImage``): an immutable ``__slots__`` record.

    A subclass names its two or more fields in ``_fields`` and sets them in
    ``__init__`` through its slots' setters (``_setters``), since assigning or
    deleting an attribute raises ``AttributeError``.  It compares and hashes
    by the tuple of its fields, ``_key(self)``, as a frozen dataclass does, so
    set orders, and the output that follows them, are the same under every
    hash seed.  ``FinitePath``, hashed more often than it is built, stores its
    hash and writes ``__eq__`` out; the rest hash on demand."""

    __slots__ = ("__weakref__",)  # weak references work, as on a dataclass
    _fields = ()

    def __init_subclass__(cls):
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._key(self)


def _setters(cls) -> tuple:
    """The setters of ``cls``'s own slots, in ``__slots__`` order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class EdgeFamily(_Record):
    __slots__ = _fields = ("id", "source", "range", "multiplicity")

    def __init__(self, id: str, source: str, range: str, multiplicity: str = SINGLE):
        _ef_id(self, id)
        _ef_source(self, source)
        _ef_range(self, range)
        _ef_multiplicity(self, multiplicity)
        if multiplicity not in (SINGLE, OMEGA_MULT):
            raise GraphError(f"family {id!r} has multiplicity {multiplicity!r}, "
                             f"not {SINGLE!r} or {OMEGA_MULT!r}")

    @property
    def is_omega(self) -> bool:
        return self.multiplicity == OMEGA_MULT


_ef_id, _ef_source, _ef_range, _ef_multiplicity = _setters(EdgeFamily)


@dataclass(frozen=True)
class Verdict:
    """Checker outcome; ``witness`` is set exactly when ``holds`` is False."""

    holds: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.holds


class _GraphBase:
    """What ``Graph`` and ``LeveledGraph`` share.

    The vertex and edge-ref queries, equality and hashing are written once,
    over each class's own ``out_degree``, ``omega_family``, ``family``,
    ``_edge_slot`` and ``_key``.  Each class's ``_template_levels`` lists
    vertex names that stand for the whole graph: every vertex of a ``Graph``;
    the base levels and one block repetition of a ``LeveledGraph``, whose
    other levels repeat them.  The whole-graph verdicts other modules ask
    for again and again are kept in the ``_verdicts`` dict each constructor
    makes, so they go away with the graph.  Not ``cached_property``: on
    CPython 3.11 an attribute added to an object after construction slows
    every later attribute read on it."""

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @staticmethod
    def _check_spellable(vertices, family_ids) -> None:
        """Refuse names the literals (``v:e,g[2] / (f)``, arrows split at
        ``|``) cannot read back: they split at these characters and strip
        whitespace.  Instantiation adds only digits and ``@k``."""
        for what, names in (("vertex name", vertices), ("family id", family_ids)):
            for n in names:
                if _UNSPELLABLE.search(n) or not n and what == "family id":
                    raise GraphError(f"{what} {n!r} cannot be written in a path literal")

    @staticmethod
    def _check_types(vertices, families, kind) -> None:
        """Refuse a name or id that is not a string and a family that is not
        a ``kind``, before anything reads them."""
        for n in vertices:
            if not isinstance(n, str):
                raise GraphError(f"vertex name {n!r} is not a string")
        for f in families:
            if not isinstance(f, kind):
                raise GraphError(f"family {f!r} is not of type {kind.__name__}")
            if not all(isinstance(x, str) for x in (f.id, f.source, f.range)):
                raise GraphError(f"family {f!r}: its id and ends must be strings")

    def is_sink(self, name: str) -> bool:
        return not self.out_degree(name)

    def is_singular(self, name: str) -> bool:
        return self.is_sink(name) or self.omega_family(name) is not None

    def is_regular(self, name: str) -> bool:
        return not self.is_singular(name)

    def ref_source(self, ref: EdgeRef) -> str:
        return self.family(ref[0]).source

    def ref_range(self, ref: EdgeRef) -> str:
        return self.family(ref[0]).range

    def ref_sort_key(self, ref: EdgeRef):
        where, pos, _ = self._edge_slot(ref[0])
        return (where, pos, ref[1])

    def check_ref(self, ref: EdgeRef) -> EdgeFamily:
        try:
            fid, idx = ref
        except (TypeError, ValueError):
            raise GraphError(f"bad edge reference {ref!r}: not an (id, index) pair") from None
        fam = self.family(fid)
        # type() is int refuses bools and floats, as for every count and index
        if type(idx) is not int or idx < 1:
            raise GraphError(f"bad edge index in {ref!r}")
        if not fam.is_omega and idx != 1:
            raise GraphError(f"single family {fid!r} has no edge #{idx}")
        return fam

    def _isolated(self):
        """``(isolated_point_witnesses, (L) holds, why the embedding into V
        does not apply or None)``, from one ``_isolated_points`` walk."""
        found = self._verdicts.get("isolated")
        if found is None:
            wits = _isolated_points(self)
            kinds = [w["kind"] for w in wits]
            found = self._verdicts["isolated"] = (
                wits, "exitless-cycle" not in kinds, _FAILURE[kinds[0]] if kinds else None)
        return found

    @property
    def _effective(self) -> bool:
        """Condition (L): the germ calculus needs it."""
        return self._isolated()[1]

    @property
    def _admissibility_failure(self):
        """Why the embedding into V does not apply, or None."""
        return self._isolated()[2]


class Graph(_GraphBase):
    """A finite directed graph with ordered edge families.

    The declaration order of vertices and families is the labeling order used
    everywhere else in the toolkit; per vertex, single families are listed
    before the omega family (construction normalizes this).
    """

    is_finite = True

    def __init__(self, vertices, families):
        self.vertices = _as_tuple(vertices, "vertices")
        families = _as_tuple(families, "families")
        self._check_types(self.vertices, families, EdgeFamily)
        singles = [f for f in families if not f.is_omega]
        omegas = [f for f in families if f.is_omega]
        self.families = tuple(singles + omegas)
        self._verdicts = {}
        self._pos = {v: i for i, v in enumerate(self.vertices)}
        self._validate()
        # Lookup tables, built once: per vertex its out- and in-families (in
        # family order, so singles before the omega family), its singles and
        # its omega family; per family id the family and its ``_edge_slot``.
        out = {v: [] for v in self.vertices}
        inn = {v: [] for v in self.vertices}
        for f in self.families:
            out[f.source].append(f)
            inn[f.range].append(f)
        self._out = {v: tuple(fs) for v, fs in out.items()}
        self._in = {v: tuple(fs) for v, fs in inn.items()}
        self._omega = {v: fs[-1] if fs and fs[-1].is_omega else None
                       for v, fs in self._out.items()}
        self._singles = {v: fs if self._omega[v] is None else fs[:-1]
                         for v, fs in self._out.items()}
        self._degree = {v: len(fs) if self._omega[v] is None else OMEGA
                        for v, fs in self._out.items()}
        self._family_by_id = {f.id: f for f in self.families}
        self._slots = {f.id: (self._pos[v], i, self._degree[v])
                       for v, fs in self._out.items() for i, f in enumerate(fs)}

    def _validate(self) -> None:
        if len(self._pos) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        seen = set()
        omega_owner = set()
        for f in self.families:
            if f.id in seen:
                raise GraphError(f"duplicate family id {f.id!r}")
            seen.add(f.id)
            if f.source not in self._pos or f.range not in self._pos:
                raise GraphError(f"family {f.id!r} references an undeclared vertex")
            if f.is_omega:
                if f.source in omega_owner:
                    raise GraphError(f"two omega-families at vertex {f.source!r}")
                omega_owner.add(f.source)
        self._check_spellable(self.vertices, (f.id for f in self.families))

    def _key(self):
        return self.vertices, self.families

    def _template_levels(self):
        return (self.vertices,)

    def _template_of(self, name: str) -> str:
        return name

    def _block_templates(self):
        return ()

    def __repr__(self):
        return f"Graph(vertices={list(self.vertices)}, families={len(self.families)})"

    @property
    def _condensation(self):
        c = self._verdicts.get("condensation")
        if c is None:
            c = self._verdicts["condensation"] = _Condensation(self)
        return c

    def has_vertex(self, name: str) -> bool:
        return name in self._pos

    def vertex_index(self, name: str) -> int:
        try:
            return self._pos[name] + 1
        except KeyError:
            raise _unknown_vertex(name) from None

    def vertex_by_index(self, i: int) -> str:
        if type(i) is not int or not 1 <= i <= len(self.vertices):
            raise GraphError(f"vertex index {i} not in 1..{len(self.vertices)}")
        return self.vertices[i - 1]

    def vertex_count(self):
        return len(self.vertices)

    def out_families(self, name: str):
        try:
            return self._out[name]
        except KeyError:
            raise _unknown_vertex(name) from None

    def _first_vertices(self, count: int) -> list:
        """The first ``count`` vertices, each with ``(id, range, is_omega)``
        per out-family in slot order."""
        return [(v, [(f.id, f.range, f.is_omega) for f in self._out[v]])
                for v in self.vertices[:count]]

    def in_families(self, name: str):
        try:
            return self._in[name]
        except KeyError:
            raise _unknown_vertex(name) from None

    def out_singles(self, name: str):
        try:
            return self._singles[name]
        except KeyError:
            raise _unknown_vertex(name) from None

    def omega_family(self, name: str):
        try:
            return self._omega[name]
        except KeyError:
            raise _unknown_vertex(name) from None

    def out_degree(self, name: str):
        try:
            return self._degree[name]
        except KeyError:
            raise _unknown_vertex(name) from None

    def family(self, fid: str) -> EdgeFamily:
        try:
            return self._family_by_id[fid]
        except KeyError:
            raise _unknown_family(fid) from None

    def _edge_slot(self, fid: str):
        """``(source position, position among the source's out-families,
        source out-degree)`` of a family id."""
        try:
            return self._slots[fid]
        except KeyError:
            raise _unknown_family(fid) from None


def _unknown_vertex(name) -> GraphError:
    return GraphError(f"unknown vertex {name!r}")


def _unknown_family(fid) -> GraphError:
    return GraphError(f"unknown family id {fid!r}")


def _as_tuple(x, what: str) -> tuple:
    """``x`` as a tuple; a string is refused, not read as its letters, and so
    is a value that is not iterable."""
    if isinstance(x, str):
        raise GraphError(f"{what} must be a list, not the string {x!r}")
    try:
        return tuple(x)
    except TypeError:
        raise GraphError(f"{what} must be a list, not {x!r}") from None


# a number as instantiation writes it, so that each vertex and family has one
# name: ASCII digits, no leading zero
_NUMERAL = r"0|[1-9][0-9]*"
_numeral = re.compile(_NUMERAL).fullmatch
# a signed number as ``str(int)`` writes it, such as an arrow's lag
_integer = re.compile(r"0|-?[1-9][0-9]*").fullmatch


def _number_pattern(template: str):
    """Regex for ``template`` with its ``{}`` filled by a level number."""
    pre, suf = template.split("{}", 1)
    return re.compile(re.escape(pre) + f"({_NUMERAL})" + re.escape(suf))


# ---------------------------------------------------------------------------
# Leveled-infinite graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TemplateFamily:
    """Edge family template of a leveled graph.

    ``where`` is ``"same"`` (range on the source's level) or ``"next"``
    (range on the following level; from the last block level this wraps to
    level 0 of the next block repetition).  ``src_level`` pins the source's
    level (base index, or block-relative index for block families); it may
    be omitted when the source name appears on only one level.
    """

    id: str
    source: str
    range: str
    where: str = "next"
    src_level: int | None = None

    def __post_init__(self):
        if self.where not in ("same", "next"):
            raise GraphError(f"family {self.id!r} has where {self.where!r}, "
                             "not 'same' or 'next'")
        # type() is int refuses bools and floats, as the JSON reader does
        if not (self.src_level is None or type(self.src_level) is int):
            raise GraphError(f"family {self.id!r} has src_level {self.src_level!r}, "
                             "not an integer")


class LeveledGraph(_GraphBase):
    """Infinite graph given by base levels plus a forever-repeating block.

    Block vertex names containing ``{}`` have their first ``{}`` replaced by
    the 1-based global level number (requires a singleton level); other block
    names get an ``@k`` repetition suffix.  Vertices enumerate the naturals
    level by level, which fixes the labeling used for embedding.
    """

    is_finite = False

    def __init__(self, base_levels, block_levels, base_families, block_families):
        self.base_levels, self.block_levels = (
            tuple(_as_tuple(l, "a level") for l in _as_tuple(ls, "levels"))
            for ls in (base_levels, block_levels))
        self.base_families = _as_tuple(base_families, "families")
        self.block_families = _as_tuple(block_families, "families")
        self._verdicts = {}
        self._validate()

    # -- template layout ----------------------------------------------------
    #
    # ``_validate`` builds the lookup tables.  A *canonical level* indexes
    # ``_levels``, the base levels followed by one copy of the block; level
    # ``nbase + m * period + r`` of the graph has canonical level ``nbase + r``.
    #
    # - ``_offsets``: prefix sums of the canonical level sizes;
    # - ``_base_loc`` / ``_block_loc``: base name / plain block stem to its
    #   ``(canonical level, position)``; ``_vertex_patterns``: a regex per
    #   ``{}`` block template with its block level and position 0;
    # - ``_base_fams`` / ``_block_fams``: family id / plain block stem to
    #   ``(source level, template)``; ``_family_patterns`` likewise for ``{}``
    #   ids;
    # - ``_outs[level][pos]``: per out-family of a template vertex, in slot
    #   order, ``(template, step, range position)``: its range is the name at
    #   that position on the source's level (step 0) or on the next (step 1);
    # - ``_slots[level, id]``: a family template's position among its source's
    #   out-families, and that source's out-degree.
    #
    # ``_out_rows`` instantiates a vertex's out-families, the one place that
    # does.  The level walk of ``_first_vertices`` hands it the names of the
    # source's level and the next, each built once, and it picks each range
    # there by its position; ``out_families`` resolves one name and lets it
    # instantiate just the ranges.  Nothing is kept per instantiated name, so
    # memory does not grow with the vertices queried.

    def _canon(self, level: int) -> int:
        if level < self._nbase:
            return level
        return self._nbase + (level - self._nbase) % self._period

    def _level_vertices(self, level: int):
        return self._levels[self._canon(level)]

    def _validate(self) -> None:
        self._check_types(itertools.chain(*self.base_levels, *self.block_levels),
                          self.base_families + self.block_families, TemplateFamily)
        if not self.block_levels or any(not l for l in self.block_levels):
            raise GraphError("leveled graph needs a nonempty repeating block")
        if any(not l for l in self.base_levels):
            raise GraphError("empty base level")
        names = [n for l in self.base_levels for n in l]
        if len(set(names)) != len(names):
            raise GraphError("duplicate base vertex names")
        for n in names:
            if "{}" in n or "@" in n:
                raise GraphError(f"reserved characters in base vertex {n!r}")
        for l in self.block_levels:
            for n in l:
                if "@" in n:
                    raise GraphError(f"reserved character in block vertex {n!r}")
                if "{}" in n and len(l) != 1:
                    raise GraphError("'{}' vertex template requires a singleton level")
        self._check_spellable(itertools.chain(*self.base_levels, *self.block_levels),
                              (f.id for f in self.base_families + self.block_families))
        nbase = self._nbase = len(self.base_levels)
        self._period = len(self.block_levels)
        self._levels = self.base_levels + self.block_levels
        self._offsets = list(itertools.accumulate(map(len, self._levels), initial=0))
        self._block_total = self._offsets[-1] - self._offsets[nbase]
        self._base_loc = {n: (lev, pos) for lev, l in enumerate(self.base_levels)
                          for pos, n in enumerate(l)}
        self._block_loc = {n: (bl, pos) for bl, l in enumerate(self.block_levels)
                           for pos, n in enumerate(l) if "{}" not in n}
        self._vertex_patterns = [(_number_pattern(l[0]), bl, 0)
                                 for bl, l in enumerate(self.block_levels) if "{}" in l[0]]
        outs = [[[] for _ in l] for l in self._levels]
        self._base_fams, self._block_fams, self._family_patterns = {}, {}, []
        for off, levels, fams, by_id, patterns in (
                (0, self.base_levels, self.base_families, self._base_fams, None),
                (nbase, self.block_levels, self.block_families, self._block_fams,
                 self._family_patterns)):
            for f in fams:
                levs = [i for i, l in enumerate(levels)
                        if f.source in l and f.src_level in (None, i)]
                if len(levs) != 1:
                    raise GraphError(f"family {f.id!r}: cannot resolve its source level")
                lev = levs[0]
                if "{}" in f.id and patterns is None:
                    raise GraphError(f"base family id {f.id!r} may not contain '{{}}'")
                step = int(f.where != "same")
                targets = self._level_vertices(off + lev + step)
                if f.range not in targets:
                    raise GraphError(f"family {f.id!r} range not on level {off + lev + step}")
                if "{}" in f.id:
                    patterns.append((_number_pattern(f.id), lev, f))
                else:
                    by_id.setdefault(f.id, (lev, f))
                outs[off + lev][levels[lev].index(f.source)].append(
                    (f, step, targets.index(f.range)))
        self._outs = [[tuple(fs) for fs in l] for l in outs]
        self._slots = {(lev, f.id): (i, len(fs)) for lev, l in enumerate(self._outs)
                       for fs in l for i, (f, _, _) in enumerate(fs)}
        # a base name or id that the block side also reads, at any repetition,
        # would have two meanings
        for n in names:
            if self._resolve(n, {}, self._block_loc, self._vertex_patterns) is not None:
                raise GraphError(f"vertex name collision at {n!r}")
        for f in self.base_families:
            if self._resolve(f.id, {}, self._block_fams, self._family_patterns) is not None:
                raise GraphError(f"family id collision at {f.id!r}")
        # over a few repetitions each instantiated name and id must read back
        # as itself: its level and position, or its level, template and slot
        for lev in range(nbase + 3 * self._period):
            outs = self._outs[self._canon(lev)]
            for pos, name in enumerate(self.level_vertex_names(lev)):
                if self.resolve_vertex(name) != (lev, pos):
                    raise GraphError(f"vertex name collision at {name!r}")
                for i, (t, _, _) in enumerate(outs[pos]):
                    fid = self._instantiate(lev, t.id)
                    back = self.resolve_family(fid)
                    if (back is None or back[0] != lev or back[1] is not t
                            or self._slots[self._canon(lev), t.id][0] != i):
                        raise GraphError(f"family id collision at {fid!r}")

    # -- instantiation ------------------------------------------------------

    def _instantiate(self, level: int, template: str) -> str:
        """Instance at ``level`` of a vertex name, or of a family id whose
        source is on ``level``: the first ``{}`` filled with the 1-based level
        number, as ``_number_pattern`` reads it, else an ``@k`` suffix."""
        if level < self._nbase:
            return template
        if "{}" in template:
            return template.replace("{}", str(level + 1), 1)
        rep = (level - self._nbase) // self._period
        return f"{template}@{rep}"

    def level_vertex_names(self, level: int):
        if type(level) is not int or level < 0:
            raise GraphError(f"level {level!r} is not a nonnegative integer")
        return tuple([self._instantiate(level, t) for t in self._level_vertices(level)])

    def _template_levels(self):
        return tuple(map(self.level_vertex_names, range(self._nbase + self._period)))

    def _template_of(self, name: str) -> str:
        """The vertex of ``_template_levels`` that ``name`` repeats."""
        level, pos = self.resolve_vertex(name)
        return self._instantiate(self._canon(level), self._level_vertices(level)[pos])

    def _block_templates(self):
        return tuple(itertools.chain.from_iterable(self._template_levels()[self._nbase:]))

    def _resolve(self, name: str, base: dict, block: dict, patterns):
        """Parse an instantiated name back to ``(level, payload)``: ``base``
        maps base names, ``block`` plain block stems (to their block level
        and payload) and ``patterns`` holds ``(regex, block level, payload)``
        per ``{}`` template; ``None`` if ``name`` is not an instance."""
        loc = base.get(name)
        if loc is not None:
            return loc
        if "@" in name:
            stem, _, rep_s = name.rpartition("@")
            loc = block.get(stem)
            if loc is not None and _numeral(rep_s):
                return self._nbase + int(rep_s) * self._period + loc[0], loc[1]
            return None
        for pattern, bl, payload in patterns:
            m = pattern.fullmatch(name)
            if m:
                level = int(m.group(1)) - 1
                if level >= self._nbase and (level - self._nbase) % self._period == bl:
                    return level, payload
        return None

    def resolve_vertex(self, name: str):
        """Return ``(level, position)`` for an instantiated vertex name."""
        return self._resolve(name, self._base_loc, self._block_loc, self._vertex_patterns)

    def has_vertex(self, name: str) -> bool:
        return self.resolve_vertex(name) is not None

    def _locate(self, name: str):
        """``(level, position)`` of a vertex name; refused if there is none."""
        loc = self.resolve_vertex(name)
        if loc is None:
            raise _unknown_vertex(name)
        return loc

    def vertex_index(self, name: str) -> int:
        level, pos = self._locate(name)
        if level < self._nbase:
            return self._offsets[level] + pos + 1
        reps, r = divmod(level - self._nbase, self._period)
        return self._offsets[self._nbase + r] + reps * self._block_total + pos + 1

    def vertex_by_index(self, i: int) -> str:
        if type(i) is not int or i < 1:
            raise GraphError("vertex indices are 1-based")
        k, reps = i - 1, 0
        base_total = self._offsets[self._nbase]
        if k >= base_total:
            reps, k = divmod(k - base_total, self._block_total)
            k += base_total
        level = bisect.bisect_right(self._offsets, k) - 1
        template = self._levels[level][k - self._offsets[level]]
        return self._instantiate(level + reps * self._period, template)

    def vertex_count(self):
        return OMEGA

    def _out_rows(self, level: int, pos: int, names=None) -> list:
        """``(id, range, is_omega)`` per out-family of vertex ``pos`` of
        ``level``, in slot order.  A range is read from ``names``, the
        instantiated names of ``level`` and of the level after it, when the
        caller has them, and is instantiated otherwise."""
        return [(self._instantiate(level, t.id),
                 names[step][rpos] if names else self._instantiate(level + step, t.range),
                 False)
                for t, step, rpos in self._outs[self._canon(level)][pos]]

    def _first_vertices(self, count: int) -> list:
        """The first ``count`` vertices in index order, each as ``(name,
        _out_rows)``, from one walk of the levels that names each vertex on
        them, and on the level after the last, once."""
        out = []
        level, here = 0, self.level_vertex_names(0)
        while len(out) < count:
            names = here, self.level_vertex_names(level + 1)
            out += [(v, self._out_rows(level, pos, names))
                    for pos, v in enumerate(here[:count - len(out)])]
            level, here = level + 1, names[1]
        return out

    def out_families(self, name: str):
        level, pos = self._locate(name)
        return tuple([EdgeFamily(fid, name, rng) for fid, rng, _ in self._out_rows(level, pos)])

    out_singles = out_families

    def omega_family(self, name: str):
        if not self.has_vertex(name):
            raise _unknown_vertex(name)
        return None

    def out_degree(self, name: str):
        level, pos = self._locate(name)
        return len(self._outs[self._canon(level)][pos])

    def resolve_family(self, fid: str):
        """Return ``(source_level, template)`` for an instantiated family id."""
        return self._resolve(fid, self._base_fams, self._block_fams, self._family_patterns)

    def _edge_slot(self, fid: str):
        """``(source level, position among the source's out-families, source
        out-degree)`` of an instantiated family id."""
        loc = self.resolve_family(fid)
        if loc is None:
            raise _unknown_family(fid)
        level, t = loc
        return (level,) + self._slots[self._canon(level), t.id]

    def family(self, fid: str) -> EdgeFamily:
        loc = self.resolve_family(fid)
        if loc is None:
            raise _unknown_family(fid)
        level, t = loc
        tgt_level = level if t.where == "same" else level + 1
        return EdgeFamily(fid, self._instantiate(level, t.source),
                          self._instantiate(tgt_level, t.range))

    def _key(self):
        return self.base_levels, self.block_levels, self.base_families, self.block_families

    def __repr__(self):
        return f"LeveledGraph(base={len(self.base_levels)}, block={len(self.block_levels)})"


# ---------------------------------------------------------------------------
# Reachability and path counting (finite graphs)
# ---------------------------------------------------------------------------


def _require_finite(g, what: str):
    if not g.is_finite:
        raise UnsupportedConditionError(f"{what} is only decided for finite graphs")


def reaches(g, v: str, w: str) -> bool:
    """True iff some finite path (possibly trivial) runs from v to w."""
    _require_finite(g, "reachability")
    for name in (v, w):
        if not g.has_vertex(name):
            raise _unknown_vertex(name)
    c = g._condensation
    return bool(c.reach_of(v) & c.bit(w))


class _Condensation:
    """Strongly connected components of a finite graph (Tarjan 1972).

    The search starts from the vertices in declaration order and follows
    families in ``_out`` order.  Component ids count in emission order, which
    is reverse topological: every family leaving component ``c`` ends in a
    component with a smaller id.  Per component id:

    - ``members``: its vertices, in the order the search pops them;
    - ``reach``: a bitset over vertex positions (bit ``i`` is
      ``vertices[i]``) of everything reachable from it, itself included;
    - ``cyclic``: some family has both ends inside it, i.e. it holds a cycle;
    - ``simple``: its internal families, an omega family counting 2, number
      exactly its size, so it is one simple cycle of single edges.

    ``cycle_order`` lists the vertices on cycles in the order the search
    meets them (self-loops when scanned, larger components when emitted).
    """

    def __init__(self, g):
        out = g._out
        self.pos = g._pos
        self.comp = {}
        self.members, self.reach, self.cyclic, self.simple = [], [], [], []
        self.cycle_order = []
        index, low = {}, {}
        onstack = set()
        counter = itertools.count()
        for root in g.vertices:
            if root in index:
                continue
            index[root] = low[root] = next(counter)
            onstack.add(root)
            stack = [root]
            work = [(root, iter(out[root]))]
            while work:
                u, it = work[-1]
                for fam in it:
                    x = fam.range
                    if x == u:
                        self.cycle_order.append(u)
                    if x not in index:
                        index[x] = low[x] = next(counter)
                        onstack.add(x)
                        stack.append(x)
                        work.append((x, iter(out[x])))
                        break
                    if x in onstack:
                        low[u] = min(low[u], index[x])
                else:
                    work.pop()
                    if work:
                        p = work[-1][0]
                        low[p] = min(low[p], low[u])
                    if low[u] == index[u]:
                        members = []
                        while True:
                            x = stack.pop()
                            onstack.discard(x)
                            members.append(x)
                            if x == u:
                                break
                        self._emit(out, members)

    def _emit(self, out, members) -> None:
        cid = len(self.members)
        for x in members:
            self.comp[x] = cid
        bits = internal = 0
        for x in members:
            bits |= 1 << self.pos[x]
            for fam in out[x]:
                c = self.comp[fam.range]
                if c == cid:
                    internal += 2 if fam.is_omega else 1
                else:
                    bits |= self.reach[c]
        if len(members) > 1:
            self.cycle_order.extend(members)
        self.members.append(members)
        self.reach.append(bits)
        self.cyclic.append(internal > 0)
        self.simple.append(internal == len(members))

    def bit(self, v: str) -> int:
        return 1 << self.pos[v]

    def reach_of(self, v: str) -> int:
        return self.reach[self.comp[v]]


def _cycle_vertices(g) -> frozenset:
    """Vertices lying on some cycle (an omega loop family counts).

    Its iteration order picks cofinality witnesses.  That order depends on
    the hash seed and on how the set was filled, so the set is filled in the
    order the search meets the vertices and only then frozen;
    ``frozenset(cycle_order)`` would iterate differently.
    """
    return frozenset(set(g._condensation.cycle_order))


def _unreached_pair(g, targets):
    """First ``(v, t)`` with v not reaching t, or None.

    ``v`` runs over the vertices in declaration order and ``t`` over
    ``targets`` in its iteration order.
    """
    c = g._condensation
    want = 0
    for t in targets:
        want |= c.bit(t)
    for v in g.vertices:
        reach = c.reach_of(v)
        if reach & want != want:
            return next((v, t) for t in targets if not reach & c.bit(t))
    return None


def count_paths_capped(g, v: str, w: str, cap: int):
    """Exact number of v->w paths if below ``cap``, else the string ">=cap".

    Any route through a cycle or an omega-bundle saturates the count.
    """
    _require_finite(g, "path counting")
    if type(cap) is not int or cap < 1:
        raise GraphError("cap must be positive")
    for name in (v, w):
        if not g.has_vertex(name):
            raise _unknown_vertex(name)
    c = g._condensation
    from_v, to_w = c.reach_of(v), c.bit(w)
    # components reachable from v that reach w, in reverse topological order
    relevant = [cid for cid, reach in enumerate(c.reach)
                if reach & to_w and from_v & c.bit(c.members[cid][0])]
    if not relevant:
        return 0
    saturated = f">={cap}"
    if any(c.cyclic[cid] for cid in relevant):
        return saturated
    # the relevant part is a DAG of one-vertex components; successors come first
    counts = {}
    for cid in relevant:
        (u,) = c.members[cid]
        total = 0
        for f in g._out[u]:
            if f.range in counts:
                if f.is_omega:
                    return saturated
                total += counts[f.range]
        counts[u] = 1 if u == w else min(total, cap)
    n = counts[v]
    return saturated if n >= cap else n


# ---------------------------------------------------------------------------
# Graph conditions
# ---------------------------------------------------------------------------


def check_condition_L(g) -> Verdict:
    """Every cycle has an exit; witness is an exitless cycle."""
    w = next((w for w in g._isolated()[0] if w["kind"] == "exitless-cycle"), None)
    return Verdict(w is None, w and {"start": w["start"], "cycle": list(w["cycle"])})


def check_condition_K(g) -> Verdict:
    """Every vertex with a return path has at least two distinct ones.

    A vertex has exactly one first-return path iff its strongly connected
    component is one simple cycle of single edges.  In any other component
    that holds a cycle, a vertex has at least two: go by a shortest path to an
    internal family off the cycle (or a second edge of an omega bundle), then
    by a shortest path back.  Witness: the first such vertex.
    """
    _require_finite(g, "condition (K)")
    c = g._condensation
    for v in g.vertices:
        if c.simple[c.comp[v]]:
            return Verdict(False, v)
    return Verdict(True)


def check_condition_T(g) -> Verdict:
    """Every vertex reaches a cycle or a doubly-reachable vertex.

    It fails exactly at the roots of out-trees: vertices that reach no cycle
    and reach every vertex by one path only.  Going up the component DAG, v
    is such a root iff its component holds no cycle, all its families are
    single, every child is a root, and the children's reachable sets are
    pairwise disjoint.  Witness: the first root.
    """
    _require_finite(g, "condition (T)")
    c = g._condensation
    roots = set()
    for cid, members in enumerate(c.members):
        if c.cyclic[cid]:
            continue
        (v,) = members  # a component without a cycle is one vertex
        seen = 0
        for f in g._out[v]:
            reach = c.reach_of(f.range)
            if f.is_omega or f.range not in roots or seen & reach:
                break
            seen |= reach
        else:
            roots.add(v)
    for v in g.vertices:
        if v in roots:
            return Verdict(False, v)
    return Verdict(True)


def check_condition_W(g) -> Verdict:
    """Vacuously true for finite vertex sets; refused otherwise."""
    if g.is_finite:
        return Verdict(True)
    raise UnsupportedConditionError("condition W undecidable in this presentation")


def check_condition_infinity(g) -> Verdict:
    """Each infinite emitter returns to itself through its omega bundle.

    That is, every omega bundle has both ends in one strongly connected
    component.  Witness: the first infinite emitter whose bundle leaves its
    component.
    """
    _require_finite(g, "condition (infinity)")
    c = g._condensation
    for v in g.vertices:
        fam = g.omega_family(v)
        if fam is not None and not c.reach_of(fam.range) & c.bit(v):
            return Verdict(False, v)
    return Verdict(True)


def degenerate_vertices(g):
    """Classify vertices against the six short-orbit patterns."""
    _require_finite(g, "degenerate vertices")
    result = []
    for v in g.vertices:
        t = _degenerate_type(g, v)
        if t is not None:
            result.append((v, t))
    return result


def _degenerate_type(g, v: str):
    inf = g.in_families(v)
    in_omega = any(f.is_omega for f in inf)
    out_empty = not g.out_families(v)
    out_infinite = g.omega_family(v) is not None

    def is_source(u):
        return not g.in_families(u)

    if not in_omega and len(inf) == 1 and inf[0].source == v:
        return 1
    if not in_omega and len(inf) == 2:
        loops = [f for f in inf if f.source == v]
        others = [f for f in inf if f.source != v]
        if len(loops) == 1 and len(others) == 1 and is_source(others[0].source):
            return 2
    if not in_omega and len(inf) == 1 and inf[0].source != v:
        w = inf[0].source
        winf = g.in_families(w)
        if len(winf) == 1 and not winf[0].is_omega and winf[0].source == v:
            return 3
        if g.is_singular(v) and is_source(w):
            return 5
    if out_infinite and not inf:
        return 4
    if out_empty and not inf:
        return 6
    return None


def check_cofinal(g) -> Verdict:
    """Every vertex reaches every vertex lying on a cycle.

    Equivalently, every component reaches every component that holds a
    cycle.  Witness: ``(v, c)`` with v the first vertex that misses one and
    c the first missed vertex in ``_cycle_vertices`` order.
    """
    _require_finite(g, "cofinality")
    pair = _unreached_pair(g, _cycle_vertices(g))
    return Verdict(pair is None, pair)


def check_minimal(g) -> Verdict:
    """Cofinal and every vertex reaches every singular vertex.

    Equivalently, every component reaches every component that holds a
    cycle, a sink or an infinite emitter.  Witness: the cofinality witness,
    else ``(v, s)`` with s the first singular vertex v misses.
    """
    _require_finite(g, "minimality")
    cof = check_cofinal(g)
    if not cof.holds:
        return cof
    pair = _unreached_pair(g, tuple(s for s in g.vertices if g.is_singular(s)))
    return Verdict(pair is None, pair)


def check_strongly_connected(g) -> Verdict:
    """Every vertex reaches every vertex: at most one component.

    Witness: the first pair ``(v, w)`` in declaration order with v not
    reaching w.
    """
    _require_finite(g, "strong connectedness")
    pair = _unreached_pair(g, g.vertices)
    return Verdict(pair is None, pair)


def _cycles(step: dict):
    """Every cycle of the partial function ``step``, as a vertex list from
    the vertex where the walks from its keys, in order, first meet it."""
    seen = set()
    for u in step:
        on = {}  # vertex -> position on this walk
        while u in step and u not in seen:
            seen.add(u)
            on[u] = len(on)
            u = step[u]
        if u in on:
            walk = list(on)
            yield walk[on[u]:]


def _isolated_points(g):
    """Every sink, the first exitless cycle, then the first semi-tail, from
    one walk of the template levels.

    A template vertex with exactly one single out-family steps to the
    template of its range; the step leaves when the range is off its level.
    The exitless cycle is the first cycle of steps that stay, in
    template-level order.  The semi-tail is the first cycle of the block's
    steps that leaves a level, not necessarily the block's first cycle.  A
    ``Graph`` is one level with no block, so it has no semi-tail."""
    out, step, via, leaves = [], {}, {}, set()
    for level in g._template_levels():
        here = set(level)
        for v in level:
            fams = g.out_families(v)
            if not fams:
                out.append({"kind": "sink", "vertex": v})
            elif len(fams) == 1 and not fams[0].is_omega:
                step[v], via[v] = g._template_of(fams[0].range), fams[0].id
                if fams[0].range not in here:
                    leaves.add(v)
    stay = {v: w for v, w in step.items() if v not in leaves}
    block = {v: step[v] for v in g._block_templates() if v in step}
    exitless = next(_cycles(stay), None)
    semi_tail = next((c for c in _cycles(block) if leaves.intersection(c)), None)
    for kind, cyc in (("exitless-cycle", exitless), ("semi-tail", semi_tail)):
        if cyc is not None:
            out.append({"kind": kind, "start": cyc[0], "cycle": [via[u] for u in cyc]})
    return out


_FAILURE = {"sink": "graph has a sink", "exitless-cycle": "graph has an exitless cycle",
            "semi-tail": "graph has a semi-tail"}


def has_sinks(g) -> bool:
    return any(w["kind"] == "sink" for w in g._isolated()[0])


def has_semi_tails(g) -> bool:
    return any(w["kind"] == "semi-tail" for w in g._isolated()[0])


def isolated_point_witnesses(g):
    """Fresh copies of the records ``_isolated_points`` found."""
    return [{k: list(x) if k == "cycle" else x for k, x in w.items()}
            for w in g._isolated()[0]]


def condition_report(g) -> dict:
    """All condition verdicts as one JSON-ready mapping."""

    def cell(verdict: Verdict):
        w = verdict.witness
        return {"holds": verdict.holds, "witness": list(w) if isinstance(w, tuple) else w}

    report = {"L": cell(check_condition_L(g))}
    if g.is_finite:
        report["K"] = cell(check_condition_K(g))
        report["T"] = cell(check_condition_T(g))
        report["W"] = cell(check_condition_W(g))
        report["infinity"] = cell(check_condition_infinity(g))
        report["cofinal"] = cell(check_cofinal(g))
        report["strongly_connected"] = cell(check_strongly_connected(g))
        report["minimal"] = cell(check_minimal(g))
    else:
        for name in ("K", "T", "infinity", "cofinal", "strongly_connected", "minimal"):
            report[name] = {"holds": None, "note": "not decided for leveled-infinite graphs"}
        report["W"] = {"holds": None, "note": "condition W undecidable in this presentation"}
    report["has_sinks"] = has_sinks(g)
    iso = isolated_point_witnesses(g)
    report["isolated_points"] = iso
    report["has_isolated_points"] = bool(iso)
    if g.is_finite:
        report["degenerate_vertices"] = [[v, t] for v, t in degenerate_vertices(g)]
    return report


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def _template_edges(families):
    return [{"id": f.id, "src": f.source, "rng": f.range, "where": f.where,
             **({"src_level": f.src_level} if f.src_level is not None else {})}
            for f in families]


def graph_to_json(g) -> dict:
    if isinstance(g, Graph):
        return {
            "vertices": list(g.vertices),
            "edges": [
                {
                    "id": f.id,
                    "src": f.source,
                    "rng": f.range,
                    "mult": "omega" if f.is_omega else "1",
                }
                for f in g.families
            ],
        }
    return {
        "kind": "leveled",
        "base_levels": [list(l) for l in g.base_levels],
        "block_levels": [list(l) for l in g.block_levels],
        "base_edges": _template_edges(g.base_families),
        "block_edges": _template_edges(g.block_families),
    }


def _strings(x) -> bool:
    """A list of strings, as JSON gives it, or a tuple of them."""
    return isinstance(x, (list, tuple)) and all(isinstance(s, str) for s in x)


# the accepted values of an edge record's optional fields; type() refuses bools
_EDGE_FIELDS = {"mult": ("1", "omega").__contains__, "where": ("same", "next").__contains__,
                "src_level": lambda x: type(x) is int}


def _edge_records(data, key: str, default=None):
    recs = data.get(key, default)
    if not (isinstance(recs, list) and all(
            isinstance(e, dict) and all(isinstance(e.get(k), str) for k in ("id", "src", "rng"))
            for e in recs)):
        raise ParseError(f"graph JSON: {key!r} must be a list of edge objects "
                         "with string 'id', 'src' and 'rng'")
    for e in recs:
        for k, ok in _EDGE_FIELDS.items():
            if k in e and not ok(e[k]):
                raise ParseError(f"graph JSON: edge {e['id']!r} has a bad {k!r}: {e[k]!r}")
    return recs


def graph_from_json(data: dict):
    if not isinstance(data, dict):
        raise ParseError("graph file must hold a JSON object")
    if data.get("kind") == "leveled":
        base = data.get("base_levels", [])
        block = data.get("block_levels")
        if not all(isinstance(ls, list) and all(map(_strings, ls)) for ls in (base, block)):
            raise ParseError("graph JSON: levels must be lists of lists of vertex names")
        bf, kf = (
            [TemplateFamily(e["id"], e["src"], e["rng"], e.get("where", "next"),
                            e.get("src_level"))
             for e in _edge_records(data, key, [])]
            for key in ("base_edges", "block_edges")
        )
        return LeveledGraph(base, block, bf, kf)
    vertices = data.get("vertices")
    if not _strings(vertices):
        raise ParseError("graph JSON: 'vertices' must be a list of vertex names")
    families = [
        EdgeFamily(e["id"], e["src"], e["rng"],
                   OMEGA_MULT if e.get("mult", "1") == "omega" else SINGLE)
        for e in _edge_records(data, "edges")
    ]
    return Graph(vertices, families)
