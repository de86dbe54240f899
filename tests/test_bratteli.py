import dataclasses
import gc
import itertools
import math
import random
import re
import time
import tracemalloc
import weakref

import pytest

import fullgroups as fg
from fullgroups import bratteli, pathspace
from fullgroups.bratteli import _CAP, MAX_ORDER_DIGITS
from fullgroups.errors import AdmissibilityError, GraphError, ParseError

from conftest import (
    make_doubling_diagram,
    make_gamma2_diagram,
    make_gamma24_diagram,
    make_two_source_diagram,
    random_diagram,
    random_gamma_element,
)
from pairwise_reference import old_gamma_element_from_json, old_gamma_order, old_order


def brute_force_order(b, N):
    """Count range-preserving permutations by filtering the whole symmetric group."""
    paths = [p for ps in b.fibers(N).values() for p in ps]
    return sum(
        1
        for perm in itertools.permutations(paths)
        if all(p.rng == q.rng for p, q in zip(paths, perm))
    )


class TestDiagram:
    def test_validation(self):
        with pytest.raises(GraphError):
            fg.BratteliDiagram(levels=(("v",),), edges=((("v", "v"),),), repeat=None)
        with pytest.raises(GraphError):  # wrap level must copy the block start
            fg.BratteliDiagram(
                levels=(("v",), ("u",), ("x",)),
                edges=((("v", "u"),), (("u", "x"),)),
                repeat=(1, 1),
            )
        with pytest.raises(GraphError):  # sink inside declared levels
            fg.BratteliDiagram(
                levels=(("v", "s"), ("u",), ("u",)),
                edges=((("v", "u"),), (("u", "u"),)),
                repeat=(1, 1),
            )
        # a source on level 1, the block's first recurring level
        with pytest.raises(GraphError, match="^level 1 has a vertex with no incoming edge; "):
            fg.BratteliDiagram(
                levels=(("r",), ("x", "y"), ("r",)),
                edges=((("r", "x"),), (("x", "r"), ("y", "r"))),
                repeat=(0, 2),
            )

    @pytest.mark.parametrize("levels, edges", [((), ()), ((("a",), ()), ((),))],
                             ids=["no-level", "empty-level"])
    def test_an_empty_level_is_refused(self, levels, edges):
        with pytest.raises(GraphError, match="^every level must be nonempty$"):
            fg.BratteliDiagram(levels, edges, None)

    def test_a_base_name_repeated_in_the_block_is_refused(self):
        # a plain name and its ``@k`` instances do not collide in the
        # underlying graph, so only the diagram's own check refuses this
        with pytest.raises(GraphError, match="^vertex names must be unique across levels$"):
            fg.BratteliDiagram(
                levels=(("r",), ("r",), ("r",)),
                edges=((("r", "r"),), (("r", "r"),)),
                repeat=(1, 1),
            )

    def test_underlying_finite(self):
        b = fg.BratteliDiagram(
            levels=(("v0",), ("u",)),
            edges=((("v0", "u"), ("v0", "u")),),
            repeat=None,
        )
        g = b.underlying_graph()
        assert g.is_finite
        assert set(g.vertices) == {"v0", "u"}
        assert len(g.out_families("v0")) == 2  # parallel arcs stay separate

    def test_underlying_leveled_perfect(self):
        b = make_gamma2_diagram()
        g = b.underlying_graph()
        assert not g.is_finite
        assert fg.isolated_point_witnesses(g) == []

    def test_chain_block_semi_tail(self):
        b = fg.BratteliDiagram(
            levels=(("s",), ("t",), ("t",)),
            edges=((("s", "t"),), (("t", "t"),)),
            repeat=(1, 1),
        )
        wit = fg.isolated_point_witnesses(b.underlying_graph())
        assert any(w["kind"] == "semi-tail" for w in wit)

    def test_json_roundtrip(self):
        for b in (make_gamma2_diagram(), make_gamma24_diagram()):
            assert fg.bratteli_from_json(fg.bratteli_to_json(b)) == b

    @pytest.mark.parametrize("change", [
        {"levels": 5}, {"levels": [["v0"], "u"]}, {"levels": [["v0"], [1]]},
        {"edges": 5}, {"edges": [[["v"]]]}, {"edges": [[["v0", "u", "u2"]]]},
        {"edges": [["v0u"]]}, {"repeat": {"from": 1.7, "period": True}},
        {"repeat": {"from": 1, "period": 1.0}}, {"repeat": {"from": "1", "period": 1}},
        {"repeat": {"from": 1}}, {"repeat": [1, 1]},
    ])
    def test_malformed_shapes_are_parse_errors(self, change):
        data = dict(fg.bratteli_to_json(make_gamma2_diagram()), **change)
        with pytest.raises(ParseError):
            fg.bratteli_from_json(data)

    @pytest.mark.parametrize("edges, repeat, message", [
        ([[("r", "x")], [("x", "x")]], (1,), "a repeat rule must be"),
        ([[("r", "x")], [("x", "x")]], (1.0, 1), "a repeat rule must be"),
        ([[("r", "x")], [("x", "x")]], (True, 1), "a repeat rule must be"),
        ([[("r", "x", "z")], [("x", "x")]], None, "every edge must be"),
        ([[("r", "x")], [("x",)]], (1, 1), "every edge must be"),
        ([[("r", "x")], [("x", "x")]], (2, 0), "with a repeat rule the declared levels"),
        ([[("r", "x")], [("x", "x")]], (-1, 3), "with a repeat rule the declared levels"),
    ])
    def test_malformed_arguments_are_graph_errors(self, edges, repeat, message):
        with pytest.raises(GraphError, match=f"^{message}"):
            fg.BratteliDiagram([["r"], ["x"], ["x"]], edges, repeat)


class TestGammaGroups:
    def test_small_orders(self):
        b = make_gamma2_diagram()
        assert b.gamma_order(1) == 2
        b24 = make_gamma24_diagram()
        assert b24.gamma_order(2) == math.factorial(4)

    def test_compose_refuses_elements_at_different_levels(self):
        b = make_gamma2_diagram()
        with pytest.raises(GraphError, match="^elements live at different levels$"):
            next(b.gamma_elements(1)).compose(next(b.gamma_elements(2)))

    def test_trivial_when_ranges_distinct(self):
        b = fg.BratteliDiagram(
            levels=(("v0",), ("u", "u2"), ("u", "u2")),
            edges=(
                (("v0", "u"), ("v0", "u2")),
                (("u", "u"), ("u", "u2"), ("u2", "u"), ("u2", "u2")),
            ),
            repeat=(1, 1),
        )
        assert b.gamma_order(1) == 1
        els = list(b.gamma_elements(1))
        assert len(els) == 1 and els[0].is_identity()

    def test_brute_force_matches(self):
        for b, N in ((make_gamma2_diagram(), 1), (make_gamma24_diagram(), 2)):
            assert b.gamma_order(N) == brute_force_order(b, N)

    @pytest.mark.parametrize("factory", [make_gamma2_diagram, make_gamma24_diagram])
    def test_negative_level_is_not_declared(self, factory):
        b = factory()
        for call in (b.fibers, b.gamma_order):
            with pytest.raises(GraphError, match=r"^level -1 is not declared$"):
                call(-1)
        with pytest.raises(GraphError, match=r"^level -1 is not declared$"):
            fg.gamma_element_from_json(b, {"level": -1, "images": {}})

    @pytest.mark.parametrize("factory", [make_gamma2_diagram, make_gamma24_diagram,
                                         lambda: random_diagram(random.Random(0))])
    @pytest.mark.parametrize("N", [1.5, 2.0, "2", None, True])
    def test_a_level_that_is_not_an_int_is_not_declared(self, factory, N):
        # gamma_order(1.5) used to answer for level 2 on a repeating diagram
        # and for level 1 on a finite one, and gamma_order(True) for level 1
        b = factory()
        for call in (b.fibers, b.gamma_order, lambda N: next(b.gamma_elements(N))):
            with pytest.raises(GraphError, match=rf"^level {N} is not declared$"):
                call(N)

    def test_deeper_level_order(self):
        b = make_gamma2_diagram()
        # six paths to level 2, three into each block vertex
        assert b.gamma_order(2) == math.factorial(3) * math.factorial(3)
        assert b.gamma_order(2) == brute_force_order(b, 2)

    def test_order_counts_the_fiber_sizes(self, monkeypatch):
        # c has no in-edge: its trivial path is a source path from level 1,
        # and joins a -> b -> d in the fiber of d
        late = fg.BratteliDiagram(levels=(("a",), ("b", "c"), ("d",)),
                                  edges=((("a", "b"),), (("b", "d"), ("c", "d"))),
                                  repeat=None)
        assert late.sources() == [(0, "a"), (1, "c")]
        diagrams = [late] + [random_diagram(random.Random(seed)) for seed in range(40)]
        assert sum(any(lev for lev, _ in b.sources()) for b in diagrams) > 5
        want = {}
        for k, b in enumerate(diagrams):
            for N in range(len(b.levels) if b.repeat is None else 7):
                sizes = [len(paths) for paths in b.fibers(N).values()]
                want[k, N] = math.prod(map(math.factorial, sizes))
        assert want[0, 1] == 1 and want[0, 2] == 2
        monkeypatch.setattr(fg.BratteliDiagram, "fibers", None)  # the paths are not built
        assert {(k, N): diagrams[k].gamma_order(N) for k, N in want} == want

    def test_element_count_matches_order(self):
        b = make_gamma2_diagram()
        assert len(list(b.gamma_elements(1))) == 2
        b24 = make_gamma24_diagram()
        assert len(list(b24.gamma_elements(2))) == 24

    def test_element_order_is_product_of_permutations(self):
        three_fibers = fg.BratteliDiagram(
            levels=(("v0",), ("x", "y", "z")),
            edges=((("v0", "x"),) * 2 + (("v0", "y"),) * 2 + (("v0", "z"),) * 3,),
            repeat=None,
        )
        for b, N in ((make_gamma2_diagram(), 1), (make_gamma2_diagram(), 2),
                     (make_gamma24_diagram(), 2), (three_fibers, 1)):
            fibers = [paths for _, paths in sorted(b.fibers(N).items())]
            want = [  # the paths each permutation moves
                {p: q for paths, perm in zip(fibers, combo) for p, q in zip(paths, perm)
                 if p != q}
                for combo in itertools.product(*(itertools.permutations(ps) for ps in fibers))
            ]
            got = [el.mapping for el in b.gamma_elements(N)]
            assert got == want
            assert len(got) == b.gamma_order(N)

    def test_first_element_does_not_enumerate_the_fiber(self):
        b = fg.BratteliDiagram(levels=(("v0",), ("z",)), edges=((("v0", "z"),) * 9,),
                               repeat=None)
        tracemalloc.start()
        try:
            el = next(b.gamma_elements(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert el.is_identity()
        assert peak < 1_000_000


def _levels(b):
    return range(len(b.levels)) if b.repeat is None else range(7)


class TestBoundedOrder:
    def test_refuses_an_order_past_the_digit_limit(self):
        b = make_doubling_diagram()
        assert b.gamma_order(10) == math.factorial(512) ** 2
        start = time.perf_counter()
        for N in (11, 40):
            with pytest.raises(GraphError, match=rf"^the order at level {N} has more "
                                                 r"than 4300 decimal digits$"):
                b.gamma_order(N)
        assert time.perf_counter() - start < 1

    def test_a_repeating_diagram_is_refused_at_the_first_long_level(self):
        # no sink, so the product never shrinks: level 11 already passes
        b = make_doubling_diagram()
        start = time.perf_counter()
        for N in (100_000, 10**20):
            with pytest.raises(GraphError, match=rf"^the order at level {N} has more "):
                b.gamma_order(N)
        assert time.perf_counter() - start < 1

    def test_small_totals_need_no_estimate(self, monkeypatch):
        assert math.factorial(_CAP - 1) < 10 ** MAX_ORDER_DIGITS <= math.factorial(_CAP)
        diagrams = [make_gamma2_diagram(), make_gamma24_diagram(), make_doubling_diagram()]
        want = {(k, N): b.gamma_order(N) for k, b in enumerate(diagrams) for N in range(3, 7)}
        monkeypatch.setattr(math, "lgamma", None)
        assert {(k, N): diagrams[k].gamma_order(N) for k, N in want} == want

    @pytest.mark.parametrize("k, refused", [(2, False), (3, True), (4, True), (5, True)])
    def test_the_limit_is_exact(self, k, refused):
        # 1558! has 4300 digits, and with k! beside it the product reaches
        # the limit from k = 3
        b = fg.BratteliDiagram(levels=(("v0",), ("x", "y")),
                               edges=((("v0", "x"),) * 1558 + (("v0", "y"),) * k,),
                               repeat=None)
        if refused:
            with pytest.raises(GraphError, match="has more than 4300 decimal digits"):
                b.gamma_order(1)
        else:
            assert b.gamma_order(1) == math.factorial(1558) * 2


def _order_or_error(order, b, N):
    try:
        return order(b, N)
    except GraphError as exc:
        return str(exc)


def _flat_diagram(targets):
    return fg.BratteliDiagram([["v0"], ["u", "w"], ["u", "w"]],
                              [[("v0", t) for t in targets], [("u", "w"), ("w", "u")]],
                              (1, 1))


def _random_cycling_diagram(rnd):
    """A repeating diagram whose block levels are joined by bijections, some
    with an extra edge: where none has one, the fiber sizes stop growing and
    cycle through the block."""
    f, p, k = rnd.randint(0, 2), rnd.randint(1, 3), rnd.randint(1, 3)
    levels = [[f"b{lev}_{i}" for i in range(rnd.randint(1, 3))] for lev in range(f)]
    levels += [[f"v{lev}_{i}" for i in range(k)] for lev in range(f, f + p)]
    levels.append(levels[f])
    edges = []
    for lev in range(1, f + p + 1):
        srcs, rngs = levels[lev - 1], levels[lev]
        if lev > f:
            eset = list(zip(srcs, rnd.sample(rngs, k)))
            if rnd.random() < 0.2:
                eset.append((rnd.choice(srcs), rnd.choice(rngs)))
            edges.append(eset)
        else:
            edges.append([(s, rnd.choice(rngs)) for s in srcs
                          for _ in range(rnd.randint(1, 2))])
    return fg.BratteliDiagram(levels, edges, (f, p))


class TestCyclingFibers:
    @pytest.mark.parametrize("targets, order", [(["u", "w"], 1), (["u", "u"], 2)])
    def test_fibers_that_stop_growing_answer_any_level(self, targets, order):
        b = _flat_diagram(targets)
        start = time.perf_counter()
        assert [b.gamma_order(N) for N in (1, 2, 3, 10**6, 10**20)] == [order] * 5
        assert time.perf_counter() - start < 1

    def test_matches_the_level_by_level_loop(self):
        rnd = random.Random(11)
        diagrams = [_flat_diagram(["u", "w"]), _flat_diagram(["u", "u"])]
        while len(diagrams) < 40:
            b = random_diagram(rnd)
            if b.repeat is not None:
                diagrams.append(b)
        diagrams += [_random_cycling_diagram(rnd) for _ in range(60)]
        for b in diagrams:
            for N in [*range(40), 57, 99, 150]:
                assert (_order_or_error(fg.BratteliDiagram.gamma_order, b, N)
                        == _order_or_error(old_gamma_order, b, N)), (b, N)


def _found_diagram(period=100):
    """Two chains of bijections through a block of ``period`` levels, with
    one extra edge x0 -> y1 per repetition: the y fiber grows linearly."""
    levels = [["r"]] + [[f"x{k}", f"y{k}"] for k in range(period)] + [["x0", "y0"]]
    edges = [[("r", "x0"), ("r", "y0")]]
    for k in range(period):
        nxt = (k + 1) % period
        edges.append([(f"x{k}", f"x{nxt}"), (f"y{k}", f"y{nxt}")]
                     + [("x0", "y1")] * (k == 0))
    return fg.BratteliDiagram(levels, edges, (1, period))


class TestBlockPowers:
    def test_polynomial_growth_is_refused_at_once(self):
        b = _found_diagram()
        start = time.perf_counter()
        with pytest.raises(GraphError, match=r"^the order at level 10{20} has more "):
            b.gamma_order(10**20)
        assert time.perf_counter() - start < 0.1
        assert b.gamma_order(5000) == old_gamma_order(b, 5000) == math.factorial(51)
        assert b.gamma_order(150_001) == math.factorial(1501)

    def test_the_cap_flips_at_its_value(self):
        # the y fiber holds N paths at level N, and x one
        b = fg.BratteliDiagram([["r"], ["x", "y"], ["x", "y"]],
                               [[("r", "x"), ("r", "y")],
                                [("x", "x"), ("y", "y"), ("x", "y")]], (1, 1))
        assert b.gamma_order(1558) == old_gamma_order(b, 1558) == math.factorial(1558)
        for N in (1559, 10**20):
            assert (_order_or_error(fg.BratteliDiagram.gamma_order, b, N)
                    == f"the order at level {N} has more than 4300 decimal digits")
        assert _order_or_error(old_gamma_order, b, 1559) == _order_or_error(
            fg.BratteliDiagram.gamma_order, b, 1559)
        # uncapped, the counts of a doubling fiber would have millions of digits
        start = time.perf_counter()
        with pytest.raises(GraphError, match="has more than 4300 decimal digits"):
            make_doubling_diagram().gamma_order(10**7)
        assert time.perf_counter() - start < 0.1

    def test_a_capped_count_forms_no_factorial(self, monkeypatch):
        factorial = math.factorial

        def below_the_cap(n):
            assert n < _CAP, n
            return factorial(n)

        monkeypatch.setattr(math, "factorial", below_the_cap)
        b = fg.BratteliDiagram([["r"], ["x", "y"], ["x", "y"]],
                               [[("r", "x"), ("r", "y")],
                                [("x", "x"), ("y", "y"), ("x", "y")]], (1, 1))
        assert b.gamma_order(1558) == factorial(1558)
        for N in (1559, 10**20):
            with pytest.raises(GraphError, match=f"^the order at level {N} has more "):
                b.gamma_order(N)

    def test_sources_on_a_base_level_and_on_the_block_start(self):
        # c is a source on base level 1, z one on level f = 2
        b = fg.BratteliDiagram(
            [["a"], ["b", "c"], ["x", "y", "z"], ["u", "w"], ["x", "y", "z"]],
            [[("a", "b"), ("a", "b")], [("b", "x"), ("c", "x"), ("c", "y")],
             [("x", "u"), ("y", "u"), ("z", "w"), ("z", "u")],
             [("u", "x"), ("w", "y"), ("w", "z")]],
            (2, 2))
        assert b.sources() == [(0, "a"), (1, "c"), (2, "z@0")]
        for N in (0, 1, 2, 3, 4, 10, 100, 1000):
            assert (_order_or_error(fg.BratteliDiagram.gamma_order, b, N)
                    == _order_or_error(old_gamma_order, b, N)), N

    def test_counts_only_the_declared_levels(self, monkeypatch):
        rnd = random.Random(5)
        diagrams = [_found_diagram(7), make_doubling_diagram()]
        diagrams += [random_diagram(rnd) for _ in range(20)]
        want = {(k, N): _order_or_error(old_gamma_order, b, N)
                for k, b in enumerate(diagrams)
                for N in (_levels(b) if b.repeat is None else [*range(7), 20, 100])}

        def fail(*args):
            raise AssertionError("gamma_order read the underlying graph")

        monkeypatch.setattr(fg.bratteli, "_out_edges", fail)
        monkeypatch.setattr(fg.BratteliDiagram, "sources", fail)
        for b in diagrams:
            object.__setattr__(b, "_graph", None)
        assert {(k, N): _order_or_error(fg.BratteliDiagram.gamma_order, diagrams[k], N)
                for k, N in want} == want


class TestNormalForm:
    """An element holds exactly the paths it moves, however it was built."""

    def test_identities_built_differently_are_equal(self):
        b = make_gamma2_diagram()
        empty = fg.GammaElement(b, 1, {})
        first = next(b.gamma_elements(1))
        t = next(e for e in b.gamma_elements(1) if not e.is_identity())
        for ident in (first, t.compose(t), t.inverse().compose(t)):
            assert ident == empty and hash(ident) == hash(empty)
            assert ident.mapping == {} and ident.is_identity()
        assert t.compose(t.compose(t)) == t and hash(t.compose(t.compose(t))) == hash(t)

    def test_mapping_holds_moved_paths_only(self):
        for seed in range(20):
            rnd = random.Random(seed)
            b = random_diagram(rnd)
            g = b.underlying_graph()
            for N in _levels(b):
                s, t = random_gamma_element(b, N, rnd), random_gamma_element(b, N, rnd)
                images = {fg.format_path(g, p): fg.format_path(g, p)
                          for paths in b.fibers(N).values() for p in paths}
                images.update({fg.format_path(g, p): fg.format_path(g, q)
                               for p, q in s.mapping.items()})
                read = fg.gamma_element_from_json(b, {"level": N, "images": images})
                els = [s, t, s.compose(t), s.inverse(), read,
                       *itertools.islice(b.gamma_elements(N), 40)]
                if b.repeat is not None:
                    els.append(s.extend())
                for el in els:
                    assert all(p != q for p, q in el.mapping.items())
                assert read == s and hash(read) == hash(s)

    def test_refuses_a_mapping_that_is_not_a_permutation(self):
        b = make_gamma24_diagram()
        (paths,) = b.fibers(2).values()
        p, q, r = paths[:3]
        with pytest.raises(GraphError, match="^images do not form a permutation$"):
            fg.GammaElement(b, 2, {p: q})
        with pytest.raises(GraphError, match="^images do not form a permutation$"):
            fg.GammaElement(b, 2, {p: q, r: r, q: r})
        assert fg.GammaElement(b, 2, {p: q, q: p, r: r}).order() == 2

    def test_order_is_the_lcm_of_the_cycle_lengths(self):
        checked = 0
        for seed in range(60):
            rnd = random.Random(seed)
            b = random_diagram(rnd)
            for N in _levels(b):
                # the reference composes order x moved paths: keep both small
                if sum(map(len, b.fibers(N).values())) <= 30:
                    el = random_gamma_element(b, N, rnd)
                    assert el.order() == old_order(el)
                    checked += el.order() > 2
        assert checked > 20

    def test_order_does_not_compose(self, monkeypatch):
        b = fg.BratteliDiagram(levels=(("v0",), ("z",)), edges=((("v0", "z"),) * 17,),
                               repeat=None)
        paths = b.fibers(1)["z"]
        mapping = {}
        for cycle in (paths[0:2], paths[2:5], paths[5:10], paths[10:17]):
            mapping.update(zip(cycle, cycle[1:] + cycle[:1]))
        el = fg.GammaElement(b, 1, mapping)

        def refuse(*args):
            raise AssertionError("order() composed")

        monkeypatch.setattr(fg.GammaElement, "compose", refuse)
        assert el.order() == 210
        assert fg.GammaElement(b, 1, {}).order() == 1


class TestGammaToTable:
    def test_identity_maps_to_identity(self):
        b = make_gamma2_diagram()
        el = next(e for e in b.gamma_elements(1) if e.is_identity())
        assert fg.gamma_to_table(el).pieces == ()

    def test_transposition(self):
        b = make_gamma2_diagram()
        el = next(e for e in b.gamma_elements(1) if not e.is_identity())
        t = fg.gamma_to_table(el)
        assert len(t.pieces) == 2
        assert all(p.lag == 0 for p in t.pieces)
        assert fg.is_identity(fg.compose(t, t))

    def test_all_lags_zero(self):
        b = make_gamma24_diagram()
        for el in b.gamma_elements(2):
            assert all(p.lag == 0 for p in fg.gamma_to_table(el).pieces)

    def test_extension_compatible(self):
        b = make_gamma2_diagram()
        for el in b.gamma_elements(1):
            ext = el.extend()
            assert ext.level == 2
            assert fg.germ_equal(fg.gamma_to_table(el), fg.gamma_to_table(ext))
            ext2 = ext.extend()
            assert ext2.level == 3
            assert fg.germ_equal(fg.gamma_to_table(el), fg.gamma_to_table(ext2))


def _swap(p, q):
    return {p: q, q: p}


def _short_of_level_2(b):
    """Two level-1 paths into u@0, one edge short of level 2."""
    return _swap(*b.fibers(1)["u@0"])


def _not_from_a_source(b):
    """Two depth-2 paths into u@1 whose start is the level-1 vertex u@0."""
    p, q = b.fibers(2)["u@1"][:2]
    return _swap(fg.FinitePath("u@0", p.edges, p.rng), fg.FinitePath("u@0", q.edges, q.rng))


def _ending_above_level_2(b):
    """Two depth-2 paths whose range is the level-1 vertex u@0."""
    p, q = b.fibers(2)["u@1"][:2]
    return _swap(fg.FinitePath(p.start, p.edges, "u@0"), fg.FinitePath(q.start, q.edges, "u@0"))


def _one_stem_two_ranges(b):
    """v0:e1_1 into u@0 and, with the same start and edges, into u2@0."""
    p, q = b.fibers(1)["u@0"]
    (r,) = b.fibers(1)["u2@0"]
    return {**_swap(p, q), **_swap(fg.FinitePath(p.start, p.edges, r.rng), r)}


def _edges_not_a_tuple(b):
    """Two paths into u@0 whose edges are a number."""
    return _swap(fg.FinitePath("v0", 1, "u@0"), fg.FinitePath("v0", 2, "u@0"))


class TestSourcePaths:
    """A moved path must be a source path down to the element's level, so
    that ``gamma_to_table`` is valid without ``validate_table``."""

    @pytest.mark.parametrize("N, mapping, bad", [
        (2, _short_of_level_2, "FinitePath(start='v0', edges=(('e1_1', 1),), rng='u@0')"),
        (2, _not_from_a_source,
         "FinitePath(start='u@0', edges=(('e1_1', 1), ('e2_1@0', 1)), rng='u@1')"),
        (2, _ending_above_level_2,
         "FinitePath(start='v0', edges=(('e1_1', 1), ('e2_1@0', 1)), rng='u@0')"),
        (1, _one_stem_two_ranges, "FinitePath(start='v0', edges=(('e1_1', 1),), rng='u2@0')"),
        (1, _edges_not_a_tuple, "FinitePath(start='v0', edges=1, rng='u@0')"),
    ], ids=["short", "start", "range", "stem", "edges"])
    def test_a_moved_path_that_is_not_a_source_path_is_refused(self, N, mapping, bad):
        b = make_gamma2_diagram()
        m = mapping(b)
        # each is a range-preserving permutation, which the checks before
        # this rule accept
        assert set(m.values()) == m.keys() and all(p.rng == q.rng for p, q in m.items())
        with pytest.raises(GraphError, match=f"^{re.escape(f'not a depth-{N} source path: {bad}')}$"):
            fg.GammaElement(b, N, m)

    def test_a_path_spelled_from_another_sources_edge_is_refused(self):
        # e1_3 leaves s, not r: unchecked, the swap of r:e1_1 with "r:e1_3"
        # gave both stems one code word, and af_to_v the identity
        b = make_two_source_diagram()
        q = fg.parse_path(b.underlying_graph(), "r:e1_1")
        p = fg.FinitePath("r", (("e1_3", 1),), q.rng)
        with pytest.raises(GraphError, match=f"^{re.escape(f'not a depth-1 source path: {p!r}')}$"):
            fg.GammaElement(b, 1, {p: q, q: p})
        (s,) = [r for r in b.fibers(1)[q.rng] if r.start == "s"]
        assert fg.af_to_v(fg.GammaElement(b, 1, {s: q, q: s})).pieces

    def test_an_element_is_frozen(self):
        el = fg.GammaElement(make_gamma2_diagram(), 1, {})
        with pytest.raises(dataclasses.FrozenInstanceError):
            el.level = 2

    def test_the_fixed_paths_are_not_checked(self):
        b = make_gamma2_diagram()
        p = fg.FinitePath("nowhere", (), "nowhere")
        assert fg.GammaElement(b, 1, {p: p}).is_identity()

    def test_gamma_tables_are_valid_by_construction(self):
        moved = 0
        for seed in range(20):
            rnd = random.Random(seed)
            b = random_diagram(rnd)
            g = b.underlying_graph()
            for N in _levels(b):
                s, t = random_gamma_element(b, N, rnd), random_gamma_element(b, N, rnd)
                els = [s, t, s.compose(t), s.inverse(), *itertools.islice(b.gamma_elements(N), 40)]
                if b.repeat is not None or N < len(b.levels) - 1:
                    els += [s.extend(), s.compose(t).extend()]
                for el in els:
                    table = fg.gamma_to_table(el)
                    assert table._valid
                    fg.validate_table(table)
                    pieces = [fg.Piece(q, frozenset(), p) for p, q in el.mapping.items()]
                    assert table.pieces == fg.make_table(g, pieces, validate=True).pieces
                    moved += len(el.mapping)
        assert moved > 5000


class TestDiagramLabeling:
    """``af_to_v`` without a labeling uses the one its diagram keeps."""

    def test_a_repeated_call_adds_no_code_word(self):
        b = make_doubling_diagram()
        g, lab, N = b.underlying_graph(), b._labeling, 4
        el = random_gamma_element(b, N, random.Random(1))

        def memo():
            return [set(lab._words), set(lab._letters), set(lab._vertex_letters)]

        first = fg.af_to_v(el)
        keys = memo()
        assert fg.af_to_v(el) == first == fg.af_to_v(el, fg.default_labeling(g))
        assert memo() == keys and keys[0] and keys[2]
        # an edge from level n to n + 1 has its source on level n < N
        assert all(g._edge_slot(fid)[0] < N for fid, _ in keys[0] | keys[1])
        assert all(g.resolve_vertex(v)[0] <= N for v in keys[2])

    def test_the_labeling_does_not_pin_the_diagram(self):
        b = make_doubling_diagram()
        fg.af_to_v(random_gamma_element(b, 3, random.Random(1)))
        ref = weakref.ref(b)
        del b
        gc.collect()
        assert ref() is None


class TestAfToV:
    def test_identity(self):
        b = make_gamma2_diagram()
        el = next(e for e in b.gamma_elements(1) if e.is_identity())
        assert fg.af_to_v(el).pieces == ()

    def test_transposition_order_two(self):
        b = make_gamma2_diagram()
        el = next(e for e in b.gamma_elements(1) if not e.is_identity())
        vt = fg.af_to_v(el)
        assert not fg.is_identity(vt)
        assert fg.is_identity(fg.compose(vt, vt))

    def test_homomorphism_random_pairs(self, rng):
        b = make_gamma24_diagram()
        els = list(b.gamma_elements(2))
        for _ in range(12):
            e1, e2 = rng.choice(els), rng.choice(els)
            lhs = fg.af_to_v(e1.compose(e2))
            rhs = fg.compose(fg.af_to_v(e1), fg.af_to_v(e2))
            assert fg.germ_equal(lhs, rhs)

    def test_rejects_semi_tail_diagram(self):
        b = fg.BratteliDiagram(
            levels=(("s",), ("t",), ("t",)),
            edges=((("s", "t"),), (("t", "t"),)),
            repeat=(1, 1),
        )
        el = next(b.gamma_elements(1))
        with pytest.raises(AdmissibilityError):
            fg.af_to_v(el)

    def test_injective_on_nontrivial(self):
        b = make_gamma2_diagram()
        for el in b.gamma_elements(1):
            assert fg.is_identity(fg.af_to_v(el)) == el.is_identity()


class TestElementJson:
    def test_roundtrip_via_images(self):
        b = make_gamma2_diagram()
        g = b.underlying_graph()
        el = next(e for e in b.gamma_elements(1) if not e.is_identity())
        images = {
            fg.format_path(g, p): fg.format_path(g, q)
            for p, q in el.mapping.items()
        }
        el2 = fg.gamma_element_from_json(b, {"level": 1, "images": images})
        assert el2.mapping == el.mapping

    @pytest.mark.parametrize("data", [{"images": {}}, "level", ["level"], None])
    def test_rejects_an_element_without_a_level(self, data):
        with pytest.raises(ParseError, match="^element JSON needs 'level' and 'images'$"):
            fg.gamma_element_from_json(make_gamma2_diagram(), data)

    @pytest.mark.parametrize("level", [1.9, 1.0, True, "1", None])
    def test_rejects_non_integer_level(self, level):
        with pytest.raises(ParseError, match="^bad level"):
            fg.gamma_element_from_json(make_gamma2_diagram(), {"level": level, "images": {}})

    @pytest.mark.parametrize("images", [[], 0, "", False, None])
    def test_rejects_images_that_are_not_an_object(self, images):
        b = fg.BratteliDiagram([["r"], ["x", "y"]], [[("r", "x"), ("r", "y")]], None)
        with pytest.raises(ParseError, match="^element 'images' must map path literals "
                                             "to path literals$"):
            fg.gamma_element_from_json(b, {"level": 1, "images": images})
        assert fg.gamma_element_from_json(b, {"level": 1}).is_identity()

    def test_rejects_literals_that_are_not_strings(self):
        b = make_gamma2_diagram()
        for images in ({1: "v0:e1_1"}, {"v0:e1_1": 1}):
            with pytest.raises(ParseError, match="^element 'images' must map"):
                fg.gamma_element_from_json(b, {"level": 1, "images": images})

    def test_rejects_non_permutation(self):
        b = make_gamma2_diagram()
        g = b.underlying_graph()
        paths = [fg.format_path(g, p) for ps in b.fibers(1).values() for p in ps]
        with pytest.raises(ParseError):
            fg.gamma_element_from_json(
                b, {"level": 1, "images": {paths[0]: paths[1]}})

    def test_reads_no_fiber(self, monkeypatch):
        b = make_gamma24_diagram()
        g = b.underlying_graph()
        want = {N: random_gamma_element(b, N, random.Random(N)) for N in range(5)}
        images = {N: {fg.format_path(g, p): fg.format_path(g, q)
                      for p, q in el.mapping.items()} for N, el in want.items()}
        monkeypatch.setattr(fg.BratteliDiagram, "fibers", None)
        for N, el in want.items():
            assert fg.gamma_element_from_json(b, {"level": N, "images": images[N]}) == el
        assert sum(map(len, images.values())) > 20

    def test_matches_the_dense_reader(self):
        def outcome(reader, b, data):
            try:
                return reader(b, data).mapping
            except (GraphError, ParseError) as exc:
                return type(exc), str(exc)

        seen = set()
        for seed in range(40):
            rnd = random.Random(seed)
            b = random_diagram(rnd)
            g = b.underlying_graph()
            non_sources = sorted(set(g.vertices) - {name for _, name in b.sources()}
                                 if g.is_finite else ())
            for N in range(len(b.levels) + 1 if b.repeat is None else 7):
                if b.repeat is None and N == len(b.levels):  # not declared
                    data = {"level": N, "images": {}}
                    got = outcome(fg.gamma_element_from_json, b, data)
                    assert got == outcome(old_gamma_element_from_json, b, data)
                    assert got == (GraphError, f"level {N} is not declared")
                    continue
                paths = [p for ps in b.fibers(N).values() for p in ps]
                others = [p for n in (N - 1, N + 1) if n >= 0 and (
                    b.repeat is not None or n < len(b.levels))
                          for ps in b.fibers(n).values() for p in ps]
                for _ in range(5):
                    el = random_gamma_element(b, N, rnd)
                    images = {fg.format_path(g, p): fg.format_path(g, q)
                              for p, q in el.mapping.items()}
                    p, q = rnd.choice(paths), rnd.choice(paths)
                    lit = fg.format_path(g, p)
                    kind = rnd.choice(["whole", "fixed", "padded", "inner space", "depth",
                                       "start", "colon", "comma", "id", "one-way",
                                       "range"])
                    seen.add(kind)
                    if kind == "fixed":
                        images[lit] = lit
                    elif kind == "padded":
                        images = {f" {k}\n": f"\t{v} " for k, v in images.items()}
                    elif kind == "inner space":
                        images[lit.replace(":", rnd.choice([" :", ": "]))
                               .replace(",", rnd.choice([" ,", ", "]))] = lit
                    elif kind == "depth" and others:
                        images[fg.format_path(g, rnd.choice(others))] = lit
                    elif kind == "start":
                        other = rnd.choice(non_sources or [p.rng])
                        images[lit] = other + lit[len(p.start):]
                    elif kind == "colon":
                        images[lit.replace(":", "", 1)] = lit
                    elif kind == "comma":
                        images[lit + ","] = lit
                    elif kind == "id":
                        images[lit] = lit + ("," if p.edges else "") + "zz"
                    elif kind == "one-way" and p != q:
                        images = {lit: fg.format_path(g, q)}
                    elif kind == "range":
                        images[lit], images[fg.format_path(g, q)] = (
                            fg.format_path(g, q), lit)
                    data = {"level": N, "images": images}
                    got = outcome(fg.gamma_element_from_json, b, data)
                    assert got == outcome(old_gamma_element_from_json, b, data)
                    seen.add(got[1][:9] if isinstance(got, tuple) else "read")
        assert {"read", "not a dep", "images do", "permutati"} <= seen


class TestOneWalkPerPath:
    """The element reader walks each literal once, and the derived elements
    (``compose``, ``inverse``, ``extend``, ``gamma_elements``) walk nothing."""

    def test_walks(self, monkeypatch):
        b = make_gamma2_diagram()
        walks = []
        for mod in (pathspace, bratteli):
            monkeypatch.setattr(mod, "_walk", lambda *args, walk=mod._walk:
                                walks.append(args[1]) or walk(*args))
        levels = b.gamma_elements(2)
        el = next(itertools.islice(levels, 5, None))
        walks.clear()
        images = {fg.format_path(b.underlying_graph(), p): fg.format_path(b.underlying_graph(), q)
                  for p, q in el.mapping.items()}
        assert fg.gamma_element_from_json(b, {"level": 2, "images": images}) == el
        assert len(walks) == 2 * len(images) > 0
        walks.clear()
        derived = [el.compose(el), el.inverse(), el.extend(), next(levels)]
        assert walks == []
        assert derived == [fg.GammaElement(d.diagram, d.level, d.mapping) for d in derived]


class TestBoundary:
    """Wrong-typed declarations and undeclared levels are ``GraphError``s."""

    @pytest.mark.parametrize("level", [7, 1.5])
    def test_an_element_at_an_undeclared_level_is_refused(self, level):
        b = fg.BratteliDiagram([["r"], ["x", "y"]], [[("r", "x"), ("r", "y")]], None)
        with pytest.raises(GraphError, match=f"^level {level} is not declared$"):
            fg.GammaElement(b, level, {})

    @pytest.mark.parametrize("levels, edges", [
        ([["r"], 5], [[("r", "r")]]),
        ([["r"], ["x"]], [5]),
        ([["r"], ["x"]], [[5]]),
        ([["r"], [["x"]]], [[]]),
        (["r", "xy"], [[("r", "x")]]),
    ], ids=["number-level", "number-edge-set", "number-edge", "list-name", "string-level"])
    def test_wrong_types_are_refused(self, levels, edges):
        with pytest.raises(GraphError):
            fg.BratteliDiagram(levels, edges, None)

    def test_a_mapping_of_numbers_is_refused(self):
        b = fg.BratteliDiagram([["r"], ["x", "y"]], [[("r", "x"), ("r", "y")]], None)
        with pytest.raises(GraphError, match="^a mapping must be a dict from paths to paths$"):
            fg.GammaElement(b, 1, {1: 2, 2: 1})

    def test_a_mapping_that_is_not_a_dict_is_refused(self):
        b = fg.BratteliDiagram([["r"], ["x", "y"]], [[("r", "x"), ("r", "y")]], None)
        with pytest.raises(GraphError, match="^a mapping must be a dict from paths to paths$"):
            fg.GammaElement(b, 1, [1, 2])
