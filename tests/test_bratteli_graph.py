"""A Bratteli diagram read as its underlying graph: fibers and extension
against the edge-set scans they replaced, and names the graph reserves."""

import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

import fullgroups as fg
from fullgroups.errors import GraphError, ParseError

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
