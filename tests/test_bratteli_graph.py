"""A Bratteli diagram read as its underlying graph: fibers and extension
against the edge-set scans they replaced, and names the graph reserves."""

import collections
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import fullgroups as fg
from fullgroups.errors import GraphError, ParseError, ToolkitError

from conftest import (
    make_gamma2_diagram, make_gamma24_diagram, random_diagram, random_gamma_element,
)
from pairwise_reference import old_extend, old_fibers

MAX_LEVEL = 5


def _levels(b):
    return range(min(MAX_LEVEL, len(b.levels) - 1) + 1 if b.repeat is None else MAX_LEVEL + 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_fibers_and_extend_match_the_edge_set_scan(seed):
    rnd = random.Random(seed)
    b = random_diagram(rnd)
    for N in _levels(b):
        got, want = b.fibers(N), old_fibers(b, N)
        assert list(got.items()) == list(want.items())
        el = random_gamma_element(b, N, rnd)
        if b.repeat is None and N == len(b.levels) - 1:
            with pytest.raises(GraphError):
                el.extend()
            with pytest.raises(GraphError):
                old_extend(el)
        else:
            assert list(el.extend().mapping.items()) == list(old_extend(el).items())


@pytest.mark.parametrize("b", [make_gamma2_diagram(), make_gamma24_diagram(),
                               random_diagram(random.Random(5))])
def test_one_out_families_call_per_range_vertex_and_level(b, monkeypatch):
    g = b.underlying_graph()
    calls = []
    out_families = g.out_families
    monkeypatch.setattr(g, "out_families", lambda v: calls.append(v) or out_families(v))
    b.fibers(6)
    # vertex names differ from level to level, so a repeat is a second call
    assert calls and max(collections.Counter(calls).values()) == 1
    # rotate every fiber, so each path in a fiber of two or more moves
    el = fg.GammaElement(b, 5, {p: paths[i - 1] for paths in b.fibers(5).values()
                                for i, p in enumerate(paths)})
    calls.clear()
    el.extend()
    assert sorted(calls) == sorted({p.rng for p in el.mapping})
    assert len(el.mapping) > len(calls)


@pytest.mark.parametrize("data, order", [
    ({"levels": [["v"], ["x{}"], ["x{}"]],
      "edges": [[["v", "x{}"]], [["x{}", "x{}"], ["x{}", "x{}"]]],
      "repeat": {"from": 1, "period": 1}}, 2),
    ({"levels": [["x{}"], ["x{}"]], "edges": [[["x{}", "x{}"], ["x{}", "x{}"]]],
      "repeat": {"from": 0, "period": 1}}, 24),  # the source is x1
])
def test_brace_block_names_are_graph_vertices(data, order):
    b = fg.bratteli_from_json(data)
    g = b.underlying_graph()
    for N in range(4):
        assert all(g.has_vertex(r) for r in b.fibers(N))
    assert list(b.fibers(2)) == ["x3"]
    els = list(b.gamma_elements(2))
    assert len(els) == b.gamma_order(2) == order
    for el in els:
        assert fg.is_identity(fg.af_to_v(el)) == el.is_identity()
        assert fg.germ_equal(fg.gamma_to_table(el), fg.gamma_to_table(el.extend()))


@pytest.mark.parametrize("levels, edges", [
    ([["v"], ["x@1"], ["x@1"]], [[["v", "x@1"]], [["x@1", "x@1"]] * 2]),
    ([["v@0"], ["x"], ["x"]], [[["v@0", "x"]], [["x", "x"]] * 2]),
    ([["v{}"], ["x"], ["x"]], [[["v{}", "x"]], [["x", "x"]] * 2]),
    ([["v"], ["x{}", "y"], ["x{}", "y"]],
     [[["v", "x{}"], ["v", "y"]], [["x{}", "y"], ["y", "x{}"]]]),
    ([["x2"], ["x{}"], ["x{}"]], [[["x2", "x{}"]], [["x{}", "x{}"]] * 2]),
], ids=["at-in-block", "at-in-base", "braces-in-base", "braces-in-pair", "name-collision"])
def test_names_the_leveled_graph_reserves_are_parse_errors(levels, edges):
    data = {"levels": levels, "edges": edges, "repeat": {"from": 1, "period": 1}}
    with pytest.raises(ParseError):
        fg.bratteli_from_json(data)
    # a finite underlying graph reserves nothing
    fg.bratteli_from_json({"levels": levels[:2], "edges": edges[:1]})


def _sample_paths(b, levels, rnd, k=10):
    """Up to ``k`` source paths of ``b`` down to each of ``levels``."""
    out = []
    for n in levels:
        paths = [p for ps in b.fibers(n).values() for p in ps]
        out += rnd.sample(paths, min(k, len(paths)))
    return out


def _unknown_paths(paths, rnd, k=20):
    """Paths spelled from the names and refs of ``paths``, names no diagram
    has, and refs with an unknown id or index."""
    names = sorted({v for p in paths for v in (p.start, p.rng)})
    names += ["nowhere", "v0_0@99", "v1_0@-1"]
    refs = sorted({e for p in paths for e in p.edges})
    refs += [("zz", 1), ("e1_1", 2), ("e1_1", 0), ("e2_1@x", 1)]
    return [fg.FinitePath(rnd.choice(names),
                          tuple(rnd.choice(refs) for _ in range(rnd.randint(0, 4))),
                          rnd.choice(names))
            for _ in range(k)]


@st.composite
def wrong_content(draw):
    """A diagram, a level and a mapping of some of the level's movable paths
    and a few wrong ones: paths to other levels, paths of another diagram
    (whose names may be this one's) and paths spelled from unknown names.  A
    repeating diagram may get a huge level.  Most mappings rotate the paths
    that share a range, so they reach the source-path rule."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    b, other = random_diagram(rnd), random_diagram(rnd)
    levels = list(_levels(b))
    N = draw(st.sampled_from(levels))
    wrong = (_sample_paths(b, [n for n in levels if n != N], rnd)
             + _sample_paths(other, _levels(other), rnd))
    wrong += _unknown_paths(wrong, rnd)
    own = [p for ps in b.fibers(N).values() if len(ps) > 1 for p in ps]
    if b.repeat is not None and draw(st.booleans()):
        N += 10 ** draw(st.integers(2, 40))
    paths = draw(st.lists(st.sampled_from(own), min_size=2, max_size=8)) if own else []
    paths += draw(st.lists(st.sampled_from(wrong), max_size=2))
    paths = list(dict.fromkeys(paths))
    if draw(st.integers(0, 3)):
        by_range = {}
        for p in paths:
            by_range.setdefault(p.rng, []).append(p)
        mapping = {p: ps[i - 1] for ps in by_range.values() for i, p in enumerate(ps)}
    else:
        mapping = dict(zip(paths, draw(st.permutations(paths))))
    return b, N, mapping


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wrong_content())
def test_wrong_content_is_answered_or_refused(case):
    b, N, mapping = case
    start = time.perf_counter()
    try:
        el = fg.GammaElement(b, N, mapping)
    except ToolkitError:
        el = None
    if el is not None:
        table = fg.gamma_to_table(el)
        fg.validate_table(table)
        try:
            fg.af_to_v(el)
        except ToolkitError:
            pass
    assert time.perf_counter() - start < 1
