"""Wrong-content sweep over the public constructors and functions.

Stems are drawn near real paths and then spoiled: an edge from the wrong
vertex, an unknown name, a ref of another graph, an omega index on a single
family, a bool or zero index, a start or range off the walk.  Every call must
answer or refuse with a ``ToolkitError`` within a timer, and what is accepted
must be right:
- the ``embed_table`` image of every accepted table passes ``validate_table``;
- an accepted ``GammaElement`` maps to the identity under ``af_to_v`` exactly
  when it is the identity.
"""

import contextlib
import signal

from hypothesis import given, settings
from hypothesis import strategies as st

import fullgroups as fg
from fullgroups.errors import ToolkitError

from conftest import (
    make_e_nr,
    make_gamma2_diagram,
    make_leveled_mixed_graph,
    make_one_orbit,
    make_two_source_diagram,
    make_two_vertex_omega,
)

SECONDS = 5


@contextlib.contextmanager
def _timer():
    def expire(*_):
        raise TimeoutError(f"a call took more than {SECONDS} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _call(f, *args):
    """``f(*args)``, or None if it refuses with a ``ToolkitError``."""
    with _timer():
        try:
            return f(*args)
        except ToolkitError:
            return None


def _vertices(g, count=6):
    return [v for v, _ in g._first_vertices(count)] if not g.is_finite else list(g.vertices)


def _out_refs(g, v):
    return [(f.id, 3 if f.is_omega else 1) for f in g.out_families(v)]


GRAPHS = [make_e_nr(2, 2), make_two_vertex_omega(), make_one_orbit(), make_leveled_mixed_graph()]
NAMES = [_vertices(g) for g in GRAPHS]
REFS = [sorted({ref for v in names for ref in _out_refs(g, v)}) for g, names in zip(GRAPHS, NAMES)]
# spoiled refs of graph k: another graph's, unknown ids, bad indices
BAD_REFS = [
    sorted({r for j, refs in enumerate(REFS) if j != k for r in refs}
           | {("zz", 1)} | {(fid, idx) for fid, _ in refs for idx in (True, 0, 2)})
    for k, refs in enumerate(REFS)
]
BAD_NAMES = ["nowhere", "w1", "x@0", "r", "t3"]


@st.composite
def stems(draw, k):
    """A path of graph ``k`` from a random walk, sometimes spoiled."""
    g, names = GRAPHS[k], NAMES[k]
    start = draw(st.sampled_from(names))
    edges, at = [], start
    for _ in range(draw(st.integers(0, 3))):
        outs = _out_refs(g, at)
        if not outs:
            break
        ref = draw(st.sampled_from(outs))
        edges.append(ref)
        at = g.ref_range(ref)
    how = draw(st.sampled_from(["real", "real", "edge", "start", "rng"]))
    if how == "edge" and edges:
        edges[draw(st.integers(0, len(edges) - 1))] = draw(
            st.sampled_from(REFS[k] + BAD_REFS[k]))
    elif how == "start":
        start = draw(st.sampled_from(names + BAD_NAMES))
    elif how == "rng":
        at = draw(st.sampled_from(names + BAD_NAMES))
    return fg.FinitePath(start, tuple(edges), at)


def _literal(p):
    return f"{p.start}:" + ",".join(fid if idx == 1 else f"{fid}[{idx}]" for fid, idx in p.edges)


def _image_is_valid(t, lab):
    if t is not None and lab is not None:
        image = _call(fg.embed_table, t, lab)
        if image is not None:
            fg.validate_table(image)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_tables_answer_or_refuse_and_embed_validly(data):
    k = data.draw(st.integers(0, len(GRAPHS) - 1))
    g = GRAPHS[k]
    mu, lam, nu = (data.draw(stems(k)) for _ in range(3))
    F = frozenset(data.draw(st.lists(st.sampled_from(REFS[k] + BAD_REFS[k]), max_size=2)))
    lab = _call(fg.default_labeling, g)

    _call(fg.make_path, g, mu.start, mu.edges)
    _call(fg.make_path, g, mu.start, list(map(list, mu.edges)))
    _call(fg.periodic_point, g, mu, lam)
    _call(fg.parse_path, g, _literal(mu))
    _call(fg.parse_point, g, f"{_literal(mu)} / ({_literal(lam).partition(':')[2]})")
    atoms = [a for a in (_call(fg.atom, g, p, F) for p in (mu, lam, nu)) if a is not None]
    _call(fg.co_make, g, atoms)
    _call(fg.make_piece, g, mu, F, lam)
    pieces = [fg.Piece(mu, F, lam), fg.Piece(lam, F, mu), fg.Piece(nu, frozenset(), nu)]
    _image_is_valid(_call(fg.make_table, g, pieces[:2]), lab)
    _image_is_valid(_call(fg.make_table, g, [(p.mu, p.F, p.lam) for p in pieces]), lab)
    _image_is_valid(_call(fg.involution_hat, g, [(mu, F, lam)]), lab)
    unmarked = _call(fg.make_table, g, pieces, False)
    _image_is_valid(unmarked, lab)
    if unmarked is not None:
        _image_is_valid(_call(fg.table_from_json, g, _call(fg.table_to_json, unmarked)), lab)


DIAGRAMS = [make_gamma2_diagram(), make_two_source_diagram()]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_gamma_elements_answer_or_refuse_and_embed_injectively(data):
    b = data.draw(st.sampled_from(DIAGRAMS))
    N = data.draw(st.integers(1, 3))
    fibers = b.fibers(N)
    v = data.draw(st.sampled_from(sorted(fibers)))
    paths = data.draw(st.lists(st.sampled_from(fibers[v]), unique=True))
    everything = [p for ps in fibers.values() for p in ps]
    pool = sorted({e for p in everything for e in p.edges})
    for _ in range(data.draw(st.integers(0, 2))):
        p = data.draw(st.sampled_from(everything))
        start, edges = p.start, list(p.edges)
        how = data.draw(st.sampled_from(["edge", "bool", "start"]))
        i = data.draw(st.integers(0, len(edges) - 1))
        if how == "edge":
            edges[i] = data.draw(st.sampled_from(pool))
        elif how == "bool":
            edges[i] = (edges[i][0], True)
        else:
            start = data.draw(st.sampled_from(["r", "s", "v0", "x@0", "nowhere"]))
        bad = fg.FinitePath(start, tuple(edges), v)
        if bad not in paths:
            paths.append(bad)
    if not paths:
        return
    shift = data.draw(st.integers(0, len(paths) - 1))
    mapping = dict(zip(paths, paths[shift:] + paths[:shift]))
    images = {_literal(p): _literal(q) for p, q in mapping.items()}
    for el in (_call(fg.GammaElement, b, N, mapping),
               _call(fg.gamma_element_from_json, b, {"level": N, "images": images})):
        if el is not None:
            assert fg.is_identity(fg.af_to_v(el)) == el.is_identity()
