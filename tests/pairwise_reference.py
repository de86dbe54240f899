"""The pairwise compact-open algebra that the stem index replaced, and the
restarting canonical form that the one-pass merge replaced, kept as a
reference for the differential tests.

Disjointification subtracts every earlier part, ``_merge_atoms`` restarts its
fixpoint after each merge, and table validation, composition and images loop
over all pairs of atoms.  ``old_canonicalize`` rebuilds its map of stem pairs
and restarts after every merge of table pieces.  Only the atom-level
primitives and the table constructors come from the package.
"""
from fullgroups.errors import TableError
from fullgroups.pathspace import (
    CompactOpen,
    CylinderAtom,
    FinitePath,
    atom,
    atom_intersect,
    atom_sort_key,
    atom_subtract,
    extend,
)
from fullgroups.tables import (
    Piece,
    _require_effective,
    codomain_atom,
    domain_atom,
    make_table,
)


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
