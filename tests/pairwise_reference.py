"""Code that faster versions replaced, kept as a reference for the
differential tests: the pairwise compact-open algebra that the stem index
replaced, the restarting canonical form that the one-pass merge replaced,
the graph and labeling queries that the lookup tables replaced, the
all-pairs relation check that the sorted word pass replaced, the
restarting reduction of formal sums that the one-pass reduction replaced,
the per-edge sort keys that the ranked atom order replaced, the
Bratteli fibers and extension that scanned the whole edge set of a level,
named by the diagram, before it read names and out-edges from its
underlying graph, and the checkers for (L), sinks and isolated points with
one branch per graph class, before they read both classes through their
template levels (the semi-tail search among them read only the first cycle
of the block), the reachability search that the condensation replaced,
the table embedding into V that built each stem's
image as a string and parsed it back, before the letter memo, the Bratteli
element reader that built every depth-N path and looked the file's literals
up among their strings, the element order that composed until the identity,
the order count that stepped every level even once the fibers cycle,
the table identity test that built the whole canonical form, the
shift, prefix replacement and point parser with their own case analysis,
before the shift became a prefix replacement, and the code partition
check that compared every pair of code words and counted the code words
over every binary word of its depth.

Disjointification subtracts every earlier part, ``_merge_atoms`` restarts its
fixpoint after each merge, and table validation, composition and images loop
over all pairs of atoms.  ``old_canonicalize`` rebuilds its map of stem pairs
and restarts after every merge of table pieces.  Only the atom-level
constructors and the table constructors come from the package.  The
pairwise atom operations, ``atom_intersect``, ``atom_subtract`` and
``atom_split``, live here: the library's compact-open algebra is
``co_make``, ``co_intersect``, ``co_subtract`` and ``co_equals``, which cut
atoms in one walk of a stem trie.  ``atom_split`` also builds the random
partitions of the test generators in ``conftest.py``.

The ``old_`` graph queries read only a graph's declared fields: vertices and
families of a ``Graph``; levels and family templates of a ``LeveledGraph``.
They rescan them on every call, and a leveled vertex index sums every level
below the vertex.  The ``old_`` labeling queries read the labeling's
``vertex_order`` and ``edge_orders``, the graph through these, and the
package's ``code_word``.

``old_emit_generators`` reads each emitted vertex's word back from its
name and looks up the family of every emitted edge, once per omega edge.
``old_ck_check`` tests the orthogonality relations by multiplying every
pair of vertex images and every pair of edge images at one source, and
builds its formal sums one term at a time.  Those products and sums are
the Leavitt path algebra arithmetic the library no longer has:
``mono_mult`` (monomial products, ``None`` for zero), ``star``, ``ONE`` and
``FormalSum``, whose one-pass ``reduced`` is the oracle for the tiling sums
of ``ck_check``.  ``old_reduced`` restarts its scan of a formal sum's terms
after every merge of two siblings.
"""
import math
import re

from fullgroups.embed import (
    E2,
    EdgeImage,
    GeneratorImage,
    Monomial,
    VertexImage,
    binary_path,
    code_word,
    edge_word,
    require_admissible,
    word_of_path,
    word_of_vertex,
)
from fullgroups.bratteli import MAX_ORDER_DIGITS, GammaElement, _out_edges, _too_long
from fullgroups.errors import AtomError, GraphError, ParseError, PathError, TableError
from fullgroups.graph import OMEGA, EdgeFamily, Verdict
from fullgroups.pathspace import (
    BoundaryPoint,
    CompactOpen,
    CylinderAtom,
    FinitePath,
    _every_branch,
    atom,
    concat,
    extend,
    finite_point,
    format_path,
    is_prefix,
    make_path,
    parse_path,
    parse_ref,
    periodic_point,
    point_starts_with,
    trivial_path,
)
from fullgroups.tables import (
    Piece,
    _require_effective,
    canonicalize,
    codomain_atom,
    domain_atom,
    make_table,
)


def _atom_or_none(g, mu, F):
    """Atom constructor that returns None instead of an empty atom."""
    return None if _every_branch(g, mu.rng, F) else CylinderAtom(mu, F)


def atom_intersect(g, a, b):
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


def atom_subtract(g, a, b):
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


def atom_split(g, a, e):
    """Z(mu\\F) = Z(mu\\(F+{e})) + Z(mu e) in atom order; an empty residual is dropped."""
    e = tuple(e)
    if g.check_ref(e).source != a.mu.rng:
        raise AtomError(f"edge {e!r} is not outgoing at {a.mu.rng!r}")
    if e in a.F:
        raise AtomError(f"edge {e!r} already excluded")
    parts = (_atom_or_none(g, a.mu, a.F | {e}), CylinderAtom(extend(g, a.mu, e), frozenset()))
    return CompactOpen(tuple(x for x in parts if x is not None))


def path_sort_key(g, p):
    return (g.vertex_index(p.start), tuple(g.ref_sort_key(e) for e in p.edges))


def atom_sort_key(g, a):
    """The canonical order of atoms, one ``ref_sort_key`` call per edge."""
    return (path_sort_key(g, a.mu), tuple(sorted(g.ref_sort_key(e) for e in a.F)))


def old_co_make(g, atoms):
    disjoint = []
    for a in atoms:
        parts = [a]
        for r in disjoint:
            parts = [x for p in parts for x in atom_subtract(g, p, r)]
        disjoint.extend(parts)
    merged = old_merge_atoms(g, disjoint)
    return CompactOpen(tuple(sorted(merged, key=lambda a: atom_sort_key(g, a))))


def old_merge_atoms(g, atoms):
    items = set(atoms)
    changed = True
    while changed:
        changed = False
        by_stem = {}
        for a in items:
            by_stem.setdefault(a.mu, []).append(a)
        for stem, group in by_stem.items():
            if len(group) >= 2:
                a, b = group[0], group[1]
                items -= {a, b}
                items.add(CylinderAtom(stem, a.F & b.F))
                changed = True
                break
        if changed:
            continue
        plain = {(a.mu.start, a.mu.edges): a for a in items if not a.F}
        for a in list(items):
            if a.F:
                hit = None
                for e in a.F:
                    child = plain.get((a.mu.start, a.mu.edges + (e,)))
                    if child is not None:
                        hit = (e, child)
                        break
                if hit is not None:
                    e, child = hit
                    items -= {a, child}
                    items.add(CylinderAtom(a.mu, a.F - {e}))
                    changed = True
                    break
            elif a.mu.edges:
                parent_edges = a.mu.edges[:-1]
                w = g.ref_source(a.mu.edges[-1])
                if not g.is_regular(w):
                    continue
                out_refs = frozenset((f.id, 1) for f in g.out_singles(w))
                sibs = [plain.get((a.mu.start, parent_edges + (e,))) for e in out_refs]
                if sibs and all(s is not None for s in sibs):
                    parent = FinitePath(a.mu.start, parent_edges, w)
                    items -= set(sibs)
                    items.add(CylinderAtom(parent, frozenset()))
                    changed = True
                    break
    return items


def old_co_subtract(g, x, y):
    parts = list(x.atoms)
    for b in y.atoms:
        parts = [r for a in parts for r in atom_subtract(g, a, b)]
    return old_co_make(g, parts)


def old_co_intersect(g, x, y):
    out = []
    for a in x.atoms:
        for b in y.atoms:
            i = atom_intersect(g, a, b)
            if i is not None:
                out.append(i)
    return old_co_make(g, out)


def old_co_equals(g, x, y):
    return old_co_subtract(g, x, y).is_empty() and old_co_subtract(g, y, x).is_empty()


def old_validate_table(t):
    g = t.graph
    doms = []
    cods = []
    for p in t.pieces:
        if p.mu.rng != p.lam.rng:
            raise TableError("piece stems end at different vertices")
        atom(g, p.mu, p.F)
        atom(g, p.lam, p.F)
        doms.append(domain_atom(p))
        cods.append(codomain_atom(p))
    for i in range(len(doms)):
        for j in range(i + 1, len(doms)):
            if atom_intersect(g, doms[i], doms[j]) is not None:
                raise TableError("overlapping domain atoms")
            if atom_intersect(g, cods[i], cods[j]) is not None:
                raise TableError("overlapping codomain atoms")
    dom_u = old_co_make(g, doms)
    cod_u = old_co_make(g, cods)
    if not old_co_equals(g, dom_u, cod_u):
        raise TableError("domain union differs from codomain union")


def old_compose(s, t):
    g = s.graph
    out = []
    s_doms = [(pj, domain_atom(pj)) for pj in s.pieces]
    for pi in t.pieces:
        cod = codomain_atom(pi)
        remaining = [cod]
        for pj, dj in s_doms:
            inter = atom_intersect(g, cod, dj)
            if inter is None:
                continue
            rel = inter.mu.edges[len(pi.mu.edges):]
            dom_stem = FinitePath(pi.lam.start, pi.lam.edges + rel, inter.mu.rng)
            rel2 = inter.mu.edges[len(pj.lam.edges):]
            cod_stem = FinitePath(pj.mu.start, pj.mu.edges + rel2, inter.mu.rng)
            out.append(Piece(cod_stem, inter.F, dom_stem))
            remaining = [r for a in remaining for r in atom_subtract(g, a, dj)]
        for left in remaining:
            rel = left.mu.edges[len(pi.mu.edges):]
            dom_stem = FinitePath(pi.lam.start, pi.lam.edges + rel, left.mu.rng)
            out.append(Piece(left.mu, left.F, dom_stem))
    t_doms = [domain_atom(pi) for pi in t.pieces]
    for pj in s.pieces:
        parts = [domain_atom(pj)]
        for da in t_doms:
            parts = [r for a in parts for r in atom_subtract(g, a, da)]
        for part in parts:
            rel = part.mu.edges[len(pj.lam.edges):]
            cod_stem = FinitePath(pj.mu.start, pj.mu.edges + rel, part.mu.rng)
            out.append(Piece(cod_stem, part.F, part.mu))
    out = [p for p in out if p.mu != p.lam]
    return make_table(g, out, validate=False)


def old_table_image(t, x):
    g = t.graph
    doms = [domain_atom(p) for p in t.pieces]
    moved = []
    for p, d in zip(t.pieces, doms):
        for a in x.atoms:
            inter = atom_intersect(g, a, d)
            if inter is None:
                continue
            rel = inter.mu.edges[len(p.lam.edges):]
            moved.append(CylinderAtom(
                FinitePath(p.mu.start, p.mu.edges + rel, inter.mu.rng), inter.F))
    still = list(x.atoms)
    for d in doms:
        still = [r for a in still for r in atom_subtract(t.graph, a, d)]
    return old_co_make(g, moved + still)


def old_canonicalize(t):
    """Unique minimal table for the homeomorphism (graph must satisfy (L)).

    Identity pieces are dropped; aligned sibling pieces are merged upward:
    at a regular vertex the covered branch set is re-expressed as one piece
    (parent, child, or exclusion form), at an omega vertex excluded children
    are absorbed into the exclusion set.
    """
    g = t.graph
    _require_effective(g)
    pieces = set(p for p in t.pieces if p.mu != p.lam)
    changed = True
    while changed:
        changed = False
        parents = {}
        for p in pieces:
            parents.setdefault((p.mu, p.lam), {"direct": [], "children": {}})
            if p.mu.edges and p.lam.edges and not p.F:
                e_m, e_l = p.mu.edges[-1], p.lam.edges[-1]
                if e_m == e_l:
                    mu_p = FinitePath(p.mu.start, p.mu.edges[:-1], g.ref_source(e_m))
                    lam_p = FinitePath(p.lam.start, p.lam.edges[:-1], g.ref_source(e_m))
                    slot = parents.setdefault((mu_p, lam_p), {"direct": [], "children": {}})
                    slot["children"][e_m] = p
        for p in pieces:
            parents[(p.mu, p.lam)]["direct"].append(p)
        for (mu, lam), slot in sorted(parents.items(),
                                      key=lambda kv: -len(kv[0][0].edges)):
            directs, children = slot["direct"], slot["children"]
            if not directs and not children:
                continue
            w = mu.rng
            if g.is_regular(w):
                out_refs = frozenset((f.id, 1) for f in g.out_singles(w))
                covered = set(children)
                for d in directs:
                    covered |= out_refs - d.F
                if not covered:
                    continue
                if covered == out_refs:
                    canon = [Piece(mu, frozenset(), lam)]
                elif len(covered) == 1:
                    (e,) = covered
                    canon = [Piece(extend(g, mu, e), frozenset(), extend(g, lam, e))]
                else:
                    canon = [Piece(mu, out_refs - covered, lam)]
                current = directs + list(children.values())
                if set(canon) != set(current):
                    pieces -= set(current)
                    pieces |= set(canon)
                    changed = True
                    break
            else:
                if not directs:
                    continue
                d = directs[0]
                absorbed = [e for e in d.F if e in children]
                if absorbed:
                    pieces -= {d}
                    pieces -= {children[e] for e in absorbed}
                    pieces.add(Piece(mu, d.F - frozenset(absorbed), lam))
                    changed = True
                    break
    return make_table(g, pieces, validate=False)


# ---------------------------------------------------------------------------
# Graph and labeling queries before the lookup tables
# ---------------------------------------------------------------------------


def _old_out(g, name):
    return [f for f in g.families if f.source == name]


def old_out_singles(g, name):
    return tuple(f for f in _old_out(g, name) if not f.is_omega)


def old_omega_family(g, name):
    for f in _old_out(g, name):
        if f.is_omega:
            return f
    return None


def _old_nbase(g):
    return len(g.base_levels)


def _old_period(g):
    return len(g.block_levels)


def _old_level_vertices(g, level):
    if level < _old_nbase(g):
        return g.base_levels[level]
    return g.block_levels[(level - _old_nbase(g)) % _old_period(g)]


def _old_src_levels(levels, families):
    out = []
    for f in families:
        levs = [i for i, l in enumerate(levels) if f.source in l]
        if f.src_level is not None:
            levs = [l for l in levs if l == f.src_level]
        (lev,) = levs
        out.append(lev)
    return out


def _old_vertex_name(g, level, template):
    if level < _old_nbase(g):
        return template
    if "{}" in template:
        return template.format(level + 1)
    rep = (level - _old_nbase(g)) // _old_period(g)
    return f"{template}@{rep}"


def _old_family_id(g, src_level, template_id):
    if src_level < _old_nbase(g):
        return template_id
    if "{}" in template_id:
        return template_id.format(src_level + 1)
    rep = (src_level - _old_nbase(g)) // _old_period(g)
    return f"{template_id}@{rep}"


def old_resolve_vertex(g, name):
    for i, l in enumerate(g.base_levels):
        if name in l:
            return i, l.index(name)
    if "@" in name:
        stem, _, rep_s = name.rpartition("@")
        if rep_s.isdigit():
            for bl, l in enumerate(g.block_levels):
                if stem in l:
                    if "{}" not in stem:
                        return (_old_nbase(g) + int(rep_s) * _old_period(g) + bl,
                                l.index(stem))
                    break
        return None
    for bl, l in enumerate(g.block_levels):
        t = l[0]
        if "{}" not in t:
            continue
        pre, suf = t.split("{}", 1)
        m = re.fullmatch(re.escape(pre) + r"(\d+)" + re.escape(suf), name)
        if m:
            level = int(m.group(1)) - 1
            if level >= _old_nbase(g) and (level - _old_nbase(g)) % _old_period(g) == bl:
                return level, 0
    return None


def old_vertex_index(g, name):
    if g.is_finite:
        return g.vertices.index(name) + 1
    loc = old_resolve_vertex(g, name)
    if loc is None:
        raise GraphError(f"unknown vertex {name!r}")
    level, pos = loc
    return sum(len(_old_level_vertices(g, l)) for l in range(level)) + pos + 1


def old_vertex_by_index(g, i):
    if i < 1:
        raise GraphError("vertex indices are 1-based")
    level, left = 0, i - 1
    while left >= len(_old_level_vertices(g, level)):
        left -= len(_old_level_vertices(g, level))
        level += 1
    return _old_vertex_name(g, level, _old_level_vertices(g, level)[left])


def _old_templates_from(g, level):
    if level < _old_nbase(g):
        return [f for f, sl in zip(g.base_families, _old_src_levels(g.base_levels, g.base_families))
                if sl == level]
    bl = (level - _old_nbase(g)) % _old_period(g)
    return [f for f, sl in zip(g.block_families, _old_src_levels(g.block_levels, g.block_families))
            if sl == bl]


def old_out_families(g, name):
    if g.is_finite:
        return tuple(_old_out(g, name))
    loc = old_resolve_vertex(g, name)
    if loc is None:
        raise GraphError(f"unknown vertex {name!r}")
    level, pos = loc
    template = _old_level_vertices(g, level)[pos]
    fams = []
    for t in _old_templates_from(g, level):
        if t.source != template:
            continue
        tgt_level = level if t.where == "same" else level + 1
        fams.append(EdgeFamily(_old_family_id(g, level, t.id), name,
                               _old_vertex_name(g, tgt_level, t.range)))
    return tuple(fams)


def old_resolve_family(g, fid):
    for f, sl in zip(g.base_families, _old_src_levels(g.base_levels, g.base_families)):
        if f.id == fid:
            return sl, f
    block_src = _old_src_levels(g.block_levels, g.block_families)
    if "@" in fid:
        stem, _, rep_s = fid.rpartition("@")
        if rep_s.isdigit():
            for f, sl in zip(g.block_families, block_src):
                if f.id == stem and "{}" not in stem:
                    return _old_nbase(g) + int(rep_s) * _old_period(g) + sl, f
        return None
    for f, sl in zip(g.block_families, block_src):
        if "{}" not in f.id:
            continue
        pre, suf = f.id.split("{}", 1)
        m = re.fullmatch(re.escape(pre) + r"(\d+)" + re.escape(suf), fid)
        if m:
            level = int(m.group(1)) - 1
            if level >= _old_nbase(g) and (level - _old_nbase(g)) % _old_period(g) == sl:
                return level, f
    return None


def _old_family(g, fid):
    if g.is_finite:
        return next(f for f in g.families if f.id == fid)
    level, t = old_resolve_family(g, fid)
    tgt_level = level if t.where == "same" else level + 1
    return EdgeFamily(fid, _old_vertex_name(g, level, t.source),
                      _old_vertex_name(g, tgt_level, t.range))


def old_ref_sort_key(g, ref):
    fid, idx = ref
    if g.is_finite:
        fam = _old_family(g, fid)
        pos = _old_out(g, fam.source).index(fam)
        return (g.vertices.index(fam.source), pos, idx)
    level, t = old_resolve_family(g, fid)
    order = [f.id for f in _old_templates_from(g, level) if f.source == t.source]
    return (level, order.index(t.id), idx)


def old_singles_at(lab, vertex):
    if vertex in lab.edge_orders:
        return lab.edge_orders[vertex]
    g = lab.graph
    return tuple(f.id for f in (old_out_singles(g, vertex) if g.is_finite
                                else old_out_families(g, vertex)))


def old_vertex_number(lab, name):
    if lab.vertex_order is not None:
        return lab.vertex_order.index(name) + 1
    return old_vertex_index(lab.graph, name)


def old_edge_number(lab, ref):
    fid, idx = ref
    fam = _old_family(lab.graph, fid)
    singles = old_singles_at(lab, fam.source)
    if fam.is_omega:
        return len(singles) + idx
    return singles.index(fid) + 1


def old_edge_word(lab, ref):
    g = lab.graph
    source = _old_family(g, ref[0]).source
    if g.is_finite and old_omega_family(g, source) is not None:
        k = OMEGA
    else:
        k = len(old_out_families(g, source))
    return code_word(old_edge_number(lab, ref), k)


def old_code_partition_check(i, depth: int) -> bool:
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
# The Leavitt path algebra arithmetic the word tests replaced
# ---------------------------------------------------------------------------


ONE = Monomial("", "")


def star(m):
    """The adjoint ``s_beta s_alpha*`` of ``s_alpha s_beta*``."""
    return Monomial(m.beta, m.alpha)


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


def old_ck_check(g, img):
    """Verify the graph-algebra relations on the emitted images.

    Checks: vertex images are projections, mutually orthogonal, and (finite
    vertex set) sum to the identity; edges satisfy s_e* s_e = p_r(e),
    p_s(e) s_e = s_e, and same-vertex orthogonality; regular vertices satisfy
    the reconstruction identity sum_e s_e s_e* = p_v.  Omega families are
    only sampled up to the emitted bound.
    """
    failures = []
    vmap = {v.vertex: v.mono for v in img.vertices}

    def fail(msg):
        failures.append(msg)

    for v in img.vertices:
        if not v.mono.is_projection():
            fail(f"p[{v.vertex}] is not a projection")
    for i, v1 in enumerate(img.vertices):
        for v2 in img.vertices[i + 1:]:
            if mono_mult(v1.mono, v2.mono) is not None:
                fail(f"p[{v1.vertex}] p[{v2.vertex}] != 0")
    if g.is_finite:
        total = FormalSum()
        for v in img.vertices:
            total = total + FormalSum.of(v.mono)
        if not total.equals(FormalSum.of(ONE)):
            fail("vertex projections do not sum to 1")
    for e in img.edges:
        if e.range in vmap:
            left = mono_mult(star(e.mono), e.mono)
            if left != vmap[e.range]:
                fail(f"s[{e.name}]* s[{e.name}] != p[{e.range}]")
        if e.source in vmap:
            if mono_mult(vmap[e.source], e.mono) != e.mono:
                fail(f"p[{e.source}] s[{e.name}] != s[{e.name}]")
    by_source = {}
    for e in img.edges:
        by_source.setdefault(e.source, []).append(e)
    for v, edges in by_source.items():
        for i, e1 in enumerate(edges):
            for e2 in edges[i + 1:]:
                if mono_mult(star(e1.mono), e2.mono) is not None:
                    fail(f"s[{e1.name}]* s[{e2.name}] != 0")
        if g.is_regular(v) and v in vmap:
            total = FormalSum()
            for e in edges:
                total = total + FormalSum.of(mono_mult(e.mono, star(e.mono)))
            if not total.equals(FormalSum.of(vmap[v])):
                fail(f"sum of ranges at {v} != p[{v}]")
    return (not failures), failures


def old_emit_generators(g, lab, edge_bound=10):
    """The generator images with each vertex's word read back from its name
    and the family of every emitted edge looked up by id."""
    require_admissible(g)
    count = g.vertex_count() if g.is_finite else edge_bound
    vertex_names = [lab.vertex_by_number(i) for i in range(1, count + 1)]
    words = {v: word_of_vertex(v, lab) for v in vertex_names}
    vimages = [VertexImage(v, Monomial(w, w)) for v, w in words.items()]
    eimages = []
    for v, vword in words.items():
        refs = [(fid, 1) for fid in lab.singles_at(v)]
        fam = g.omega_family(v)
        if fam is not None:
            refs += [(fam.id, j) for j in range(1, edge_bound + 1)]
        for ref in refs:
            fam_obj = g.family(ref[0])
            word = vword + edge_word(ref, lab)
            rword = words.get(fam_obj.range)
            if rword is None:
                rword = word_of_vertex(fam_obj.range, lab)
            name = f"{ref[0]}[{ref[1]}]" if fam_obj.is_omega else ref[0]
            eimages.append(EdgeImage(name, ref, v, fam_obj.range, Monomial(word, rword)))
    return GeneratorImage(tuple(vimages), tuple(eimages))


def old_reduced(s):
    terms = {m: c for m, c in s.terms.items() if c}
    changed = True
    while changed:
        changed = False
        for m, c in list(terms.items()):
            if not (m.alpha.endswith("a") and m.beta.endswith("a")):
                continue
            sib = Monomial(m.alpha[:-1] + "b", m.beta[:-1] + "b")
            c2 = terms.get(sib, 0)
            if not c2 or (c > 0) != (c2 > 0):
                continue
            step = min(abs(c), abs(c2)) * (1 if c > 0 else -1)
            parent = Monomial(m.alpha[:-1], m.beta[:-1])
            for key, delta in ((m, -step), (sib, -step), (parent, step)):
                terms[key] = terms.get(key, 0) + delta
                if not terms[key]:
                    del terms[key]
            changed = True
            break
    return FormalSum(terms)


# ---------------------------------------------------------------------------
# Bratteli fibers before the diagram read its underlying graph
# ---------------------------------------------------------------------------


def _old_instance(b, level, name):
    if b.repeat is None or level < b.repeat[0]:
        return name
    return f"{name}@{(level - b.repeat[0]) // b.repeat[1]}"


def _old_edge_list(b, n):
    """Instantiated edges of E_n as (src_name, rng_name, EdgeRef)."""
    if b.repeat is None:
        if not 1 <= n <= len(b.edges):
            raise GraphError(f"edge set E_{n} is not declared")
        return [(s, r, (f"e{n}_{k}", 1)) for k, (s, r) in enumerate(b.edges[n - 1], start=1)]
    f, p = b.repeat
    if n <= f:
        return [(_old_instance(b, n - 1, s), _old_instance(b, n, r), (f"e{n}_{k}", 1))
                for k, (s, r) in enumerate(b.edges[n - 1], start=1)]
    rel, rep = (n - 1 - f) % p, (n - 1 - f) // p
    return [(_old_instance(b, n - 1, s), _old_instance(b, n, r), (f"e{f + rel + 1}_{k}@{rep}", 1))
            for k, (s, r) in enumerate(b.edges[f + rel], start=1)]


def _old_sources(b):
    out = [(0, _old_instance(b, 0, v)) for v in b.levels[0]]
    top = len(b.levels) if b.repeat is None else b.repeat[0] + 1
    for lev in range(1, top):
        incoming = {r for _, r in b.edges[lev - 1]}
        out.extend((lev, _old_instance(b, lev, v)) for v in b.levels[lev] if v not in incoming)
    return out


def old_fibers(b, N):
    if N < 0 or b.repeat is None and N >= len(b.levels):
        raise GraphError(f"level {N} is not declared")
    by_level = {}
    for lev, name in _old_sources(b):
        if lev <= N:
            by_level.setdefault(lev, []).append(FinitePath(name, (), name))
    frontier = []
    for lev in range(N + 1):
        frontier.extend(by_level.get(lev, []))
        if lev == N:
            break
        elist = _old_edge_list(b, lev + 1)
        frontier = [FinitePath(p.start, p.edges + (ref,), r)
                    for p in frontier for s, r, ref in elist if s == p.rng]
    fibers = {}
    for p in frontier:
        fibers.setdefault(p.rng, []).append(p)
    return fibers


def old_extend(el):
    """The mapping of ``el`` one level deeper."""
    elist = _old_edge_list(el.diagram, el.level + 1)
    mapping = {}
    for p, q in el.mapping.items():
        for s, r, ref in elist:
            if s == p.rng:
                mapping[FinitePath(p.start, p.edges + (ref,), r)] = FinitePath(
                    q.start, q.edges + (ref,), r)
    return mapping


# ---------------------------------------------------------------------------
# Bratteli elements read and ordered through every depth-N path
# ---------------------------------------------------------------------------


def old_gamma_element_from_json(b, data):
    """Builds every depth-N path and its literal, then looks the file's
    literals up among them."""
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


def old_gamma_order(b, N):
    """Steps every level down to N, however long the fibers stay the same."""
    if N < 0 or b.repeat is None and N >= len(b.levels):
        raise GraphError(f"level {N} is not declared")
    by_level = {}
    for lev, name in _old_sources(b):
        by_level.setdefault(lev, []).append(name)
    counts = dict.fromkeys(by_level.get(0, ()), 1)
    for lev in range(1, N + 1):
        outs = _out_edges(b.underlying_graph(), counts)
        below = {}
        for v, c in counts.items():
            for _, r in outs[v]:
                below[r] = below.get(r, 0) + c
        for name in by_level.get(lev, ()):
            below[name] = below.get(name, 0) + 1
        counts = below
        if (b.repeat is not None or lev == N) and _too_long(counts):
            break
    else:
        order = math.prod(map(math.factorial, counts.values()))
        if order < 10 ** MAX_ORDER_DIGITS:
            return order
    raise GraphError(f"the order at level {N} has more than "
                     f"{MAX_ORDER_DIGITS} decimal digits")


def old_order(el):
    """Composes ``el`` with itself until the identity: order x moved paths."""
    n = 1
    acc = el
    while not acc.is_identity():
        acc = acc.compose(el)
        n += 1
    return n


# ---------------------------------------------------------------------------
# The identity test through the canonical form
# ---------------------------------------------------------------------------


def old_is_identity(t):
    return not canonicalize(t).pieces


# ---------------------------------------------------------------------------
# Graph checkers with one branch per graph class
# ---------------------------------------------------------------------------


def _functional_cycle(next_map: dict):
    """Find a cycle in a partial functional graph; returns vertex list or None."""
    color = {}
    for start in next_map:
        if start in color:
            continue
        path = []
        u = start
        while u in next_map and color.get(u) is None:
            color[u] = "active"
            path.append(u)
            u = next_map[u]
        if u in next_map and color.get(u) == "active":
            return path[path.index(u):]
        for x in path:
            color[x] = "done"
    return None


# It reads only the first cycle found, so an exitless cycle found first
# hides a semi-tail.
def _semi_tail_witness(g):
    """Cycle in the out-degree-1 level-quotient of the repeating block; a
    finite graph has none."""
    if g.is_finite:
        return None
    p = g._period
    next_map, via = {}, {}
    for r in range(p):
        level = g._nbase + r
        for n in g.level_vertex_names(level):
            fams = g.out_families(n)
            if len(fams) != 1:
                continue
            tgt = fams[0].range
            tgt_level, tgt_pos = g.resolve_vertex(tgt)
            key = (r, g.resolve_vertex(n)[1])
            tkey = ((tgt_level - g._nbase) % p, tgt_pos)
            next_map[key] = (tkey, tgt_level - level)
            via[key] = fams[0].id
    flat = {k: v[0] for k, v in next_map.items()}
    cyc = _functional_cycle(flat)
    if cyc is None:
        return None
    if all(next_map[k][1] == 0 for k in cyc):
        return None  # genuine cycle inside one level: exitless cycle, not a semi-tail
    start = g.level_vertex_names(g._nbase + cyc[0][0])[cyc[0][1]]
    return {"start": start, "cycle": [via[k] for k in cyc]}


def _old_exitless_cycle_finite(g):
    next_map = {}
    via = {}
    for v in g.vertices:
        singles = g.out_singles(v)
        if g.omega_family(v) is None and len(singles) == 1:
            next_map[v] = singles[0].range
            via[v] = singles[0].id
    cyc = _functional_cycle(next_map)
    if cyc is None:
        return None
    return {"start": cyc[0], "cycle": [via[u] for u in cyc]}


def old_check_condition_L(g):
    if g.is_finite:
        w = _old_exitless_cycle_finite(g)
        return Verdict(w is None, w)
    # leveled: cycles live inside single levels; the template repeats, so the
    # base levels plus one block repetition cover all of them
    for level in range(g._nbase + g._period):
        names = g.level_vertex_names(level)
        next_map, via = {}, {}
        for n in names:
            fams = g.out_families(n)
            if len(fams) == 1 and g.resolve_vertex(fams[0].range)[0] == level:
                next_map[n] = fams[0].range
                via[n] = fams[0].id
        cyc = _functional_cycle(next_map)
        if cyc is not None:
            return Verdict(False, {"start": cyc[0], "cycle": [via[u] for u in cyc]})
    return Verdict(True)


def old_reaches(g, v, w):
    """Reachability by its own depth-first search."""
    if v == w:
        return True
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for f in g.out_families(u):
            if f.range == w:
                return True
            if f.range not in seen:
                seen.add(f.range)
                stack.append(f.range)
    return False


def old_has_sinks(g):
    if g.is_finite:
        return any(g.is_sink(v) for v in g.vertices)
    for level in range(g._nbase + g._period):
        for n in g.level_vertex_names(level):
            if not g.out_families(n):
                return True
    return False


def old_isolated_point_witnesses(g):
    out = []
    if g.is_finite:
        for v in g.vertices:
            if g.is_sink(v):
                out.append({"kind": "sink", "vertex": v})
        w = _old_exitless_cycle_finite(g)
        if w is not None:
            out.append({"kind": "exitless-cycle", **w})
        return out
    for level in range(g._nbase + g._period):
        for n in g.level_vertex_names(level):
            if not g.out_families(n):
                out.append({"kind": "sink", "vertex": n})
    lw = old_check_condition_L(g)
    if not lw.holds:
        out.append({"kind": "exitless-cycle", **lw.witness})
    st = _semi_tail_witness(g)
    if st is not None:
        out.append({"kind": "semi-tail", **st})
    return out


# ---------------------------------------------------------------------------
# The table embedding through code-word strings
# ---------------------------------------------------------------------------


def old_embed_table(t, lab):
    """A piece with exclusion set F splits into a prefix-exclusion piece
    (appending ``a^l`` for the top excluded index l) plus one piece per kept
    smaller index; each stem's word is a string, parsed by ``binary_path``."""
    g = t.graph
    require_admissible(g)
    out = []
    for p in t.pieces:
        w = p.mu.rng
        mu_w = word_of_path(p.mu, lab)
        lam_w = word_of_path(p.lam, lab)
        numbers = {lab.edge_number(e) for e in p.F}
        top = max(numbers, default=0)
        # the a^top residual is empty exactly when F reaches a regular
        # vertex's last labeled edge
        if not (g.is_regular(w) and top == g.out_degree(w)):
            out.append(Piece(binary_path(mu_w + "a" * top), frozenset(),
                             binary_path(lam_w + "a" * top)))
        for j in range(1, top):
            if j not in numbers:
                wj = edge_word(lab.edge_by_number(w, j), lab)
                out.append(Piece(binary_path(mu_w + wj), frozenset(),
                                 binary_path(lam_w + wj)))
    out = [p for p in out if p.mu != p.lam]
    return make_table(E2, out, validate=True)


# ---------------------------------------------------------------------------
# Moving boundary points, one case at a time
# ---------------------------------------------------------------------------


def old_shift_point(g, p):
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


def old_replace_point_prefix(g, p, old, new):
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


def old_parse_point(g, text):
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
