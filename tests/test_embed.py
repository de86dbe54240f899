import functools
import itertools
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fullgroups as fg
from fullgroups import embed
from fullgroups.embed import Monomial, edge_word
from fullgroups.errors import AdmissibilityError, GraphError, PathError, TableError

import pairwise_reference as ref
from pairwise_reference import ONE, FormalSum
from conftest import (
    algebra_graphs,
    code_partition_check,
    enumerate_points,
    make_e2,
    make_e_inf,
    make_e_nr,
    make_gamma2_diagram,
    make_gamma24_diagram,
    make_ab_graph,
    make_leveled_chain_graph,
    make_leveled_mixed_graph,
    make_one_orbit,
    make_two_vertex_omega,
    path,
    random_diagram,
    random_graph,
    random_leveled_graph,
    random_table,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

OM = fg.OMEGA


class TestAlpha:
    def test_base_cases(self):
        assert fg.code_word(1, 1) == ""
        assert fg.code_word(1, 2) == "b"
        assert fg.code_word(2, 2) == "a"
        assert fg.code_word(2, 3) == "ab"
        assert fg.code_word(3, 3) == "aa"
        assert fg.code_word(1, OM) == "b"
        assert fg.code_word(3, OM) == "aab"

    def test_omega_words_end_in_b(self):
        for j in range(1, 20):
            assert fg.code_word(j, OM).endswith("b")

    def test_errors(self):
        with pytest.raises(PathError):
            fg.code_word(4, 3)
        with pytest.raises(PathError):
            fg.code_word(0, 3)

    def test_partitions(self):
        assert code_partition_check(1, 3)
        assert code_partition_check(3, 2)
        assert code_partition_check(3, 5)
        assert code_partition_check(OM, 5)

    def test_partitions_match_the_brute_force_reference(self):
        answers = set()
        for i in [*range(15), OM]:
            for depth in range(15):
                answer = code_partition_check(i, depth)
                assert answer == ref.old_code_partition_check(i, depth), (i, depth)
                answers.add(answer)
        assert answers == {True, False}

    @pytest.mark.parametrize("i", [0, 1, 2, OM])
    def test_a_negative_depth_is_no_partition(self, i):
        assert code_partition_check(i, -1) is False


class TestAdmissibility:
    def test_rejects_sink(self):
        g = fg.Graph(["v", "s"], [fg.EdgeFamily("a", "v", "s"), fg.EdgeFamily("b", "v", "v")])
        with pytest.raises(AdmissibilityError):
            fg.require_admissible(g)

    def test_rejects_exitless_cycle(self):
        g = fg.Graph(["v"], [fg.EdgeFamily("a", "v", "v")])
        with pytest.raises(AdmissibilityError):
            fg.require_admissible(g)

    def test_rejects_semi_tail(self):
        chain = fg.LeveledGraph([], [["c"]], [],
                                [fg.TemplateFamily("n", "c", "c", "next")])
        with pytest.raises(AdmissibilityError):
            fg.require_admissible(chain)

    def test_accepts_test_graphs(self):
        for g in (make_e2(), make_e_inf(), make_one_orbit(), make_two_vertex_omega(),
                  make_e_nr(3, 2), make_leveled_chain_graph()):
            fg.require_admissible(g)


class TestWordMap:
    def test_einf_words(self):
        g = make_e_inf()
        lab = fg.default_labeling(g)
        assert fg.word_of_vertex("w", lab) == ""
        assert fg.word_of_path(path(g, "w", ("e", 3)), lab) == "aab"

    def test_two_vertex_words(self):
        g = make_two_vertex_omega()
        lab = fg.default_labeling(g)
        assert fg.word_of_vertex("w1", lab) == "b"
        assert fg.word_of_vertex("w2", lab) == "a"
        assert fg.word_of_path(path(g, "w1", "h"), lab) == "bb"
        assert fg.word_of_path(path(g, "w1", ("e", 2)), lab) == "baab"
        assert fg.word_of_path(path(g, "w2", ("f", 1)), lab) == "ab"
        assert fg.word_of_path(path(g, "w2", ("f", 2)), lab) == "aab"

    def test_e2_self_coding_swaps_letters(self, e2):
        # code_word(1,2) = b and code_word(2,2) = a: the self-labeling flips letters
        lab = fg.default_labeling(e2)
        assert fg.word_of_path(path(e2, "v", "a", "b"), lab) == "ba"
        assert fg.word_of_path(path(e2, "v", "a"), lab) == "b"

    def test_prefix_monotone(self):
        g = make_two_vertex_omega()
        lab = fg.default_labeling(g)
        from conftest import enumerate_paths_upto

        for v in g.vertices:
            for p in enumerate_paths_upto(g, v, 3):
                w = fg.word_of_path(p, lab)
                for fam in g.out_families(p.rng):
                    q = fg.extend(g, p, (fam.id, 1))
                    assert fg.word_of_path(q, lab).startswith(w)

    def test_cylinder_image(self):
        # the image of Z(mu) is Z(word(mu)), checked at finite depth
        g = make_e_nr(2, 2)
        lab = fg.default_labeling(g)
        pts = enumerate_points(g, 3, 2)
        from conftest import enumerate_paths_upto

        for p in enumerate_paths_upto(g, "w1", 2):
            w = fg.word_of_path(p, lab)
            a = fg.atom(g, p)
            target = fg.atom(fg.E2, fg.binary_path(w))
            for x in pts:
                assert fg.point_in_atom(g, x, a) == fg.point_in_atom(
                    fg.E2, fg.point_map(x, lab), target)


class TestPointMap:
    def test_finite_point_image(self):
        g = make_e_inf()
        lab = fg.default_labeling(g)
        w = fg.finite_point(g, fg.trivial_path(g, "w"))
        img = fg.point_map(w, lab)
        assert img == fg.binary_point("", "a")

    def test_injective_on_samples(self):
        g = make_one_orbit()
        lab = fg.default_labeling(g)
        pts = enumerate_points(g, 3, 2)
        images = [fg.point_map(p, lab) for p in pts]
        for i, x in enumerate(images):
            for y in images[i + 1:]:
                assert x != y

    def test_e2_self_point(self, e2):
        lab = fg.default_labeling(e2)
        binf = fg.periodic_point(e2, fg.trivial_path(e2, "v"), path(e2, "v", "b"))
        img = fg.point_map(binf, lab)
        assert img == fg.binary_point("", "a")


class TestEmbedTable:
    def test_identity(self, e2):
        lab = fg.default_labeling(e2)
        assert fg.embed_table(fg.identity(e2), lab).pieces == ()

    def test_e2_swap_image(self, e2):
        lab = fg.default_labeling(e2)
        swap = fg.make_table(e2, [
            (path(e2, "v", "a"), frozenset(), path(e2, "v", "b")),
            (path(e2, "v", "b"), frozenset(), path(e2, "v", "a")),
        ])
        img = fg.embed_table(swap, lab)
        # letter-swap conjugation maps the swap to itself
        hand = fg.make_table(fg.E2, [
            (fg.binary_path("a"), frozenset(), fg.binary_path("b")),
            (fg.binary_path("b"), frozenset(), fg.binary_path("a")),
        ])
        assert fg.germ_equal(img, hand)

    def test_refuses_a_labeling_of_another_graph(self):
        def loops(ids):
            return fg.Graph(["v"], [fg.EdgeFamily(f, "v", "v") for f in ids])

        g = loops("abc")
        swap = fg.make_table(g, [(path(g, "v", "a"), frozenset(), path(g, "v", "c")),
                                 (path(g, "v", "c"), frozenset(), path(g, "v", "a"))])
        image = fg.embed_table(swap, fg.default_labeling(g))
        assert fg.embed_table(swap, fg.default_labeling(loops("abc"))) == image
        # the loops in reverse order, and a graph without c
        for other in (loops("cba"), loops("ab")):
            with pytest.raises(PathError, match="^the labeling is of another graph than the table$"):
                fg.embed_table(swap, fg.default_labeling(other))

    def test_refuses_a_table_of_unknown_validity_that_is_invalid(self):
        g = fg.Graph(["v"], [fg.EdgeFamily("e", "v", "v"), fg.EdgeFamily("f", "v", "v")])
        lab = fg.default_labeling(g)
        # the identity piece overlaps the exchange; the image would drop it
        overlapping = fg.Table(g, (
            fg.Piece(path(g, "v", "e", "e"), frozenset(), path(g, "v", "e", "f")),
            fg.Piece(path(g, "v", "e", "f"), frozenset(), path(g, "v", "e", "e")),
            fg.Piece(path(g, "v"), frozenset(), path(g, "v"))))
        unbalanced = fg.Table(g, (fg.Piece(path(g, "v", "e"), frozenset(), path(g, "v", "f")),))
        for t, why in ((overlapping, "overlapping domain atoms"),
                       (unbalanced, "domain union differs from codomain union")):
            with pytest.raises(TableError, match=why):
                fg.validate_table(t)
            with pytest.raises(TableError, match=why):
                fg.embed_table(t, lab)

    def test_cover_table_arrow_transported(self, one_orbit):
        g = one_orbit
        lab = fg.default_labeling(g)
        U = fg.make_table(g, [
            (path(g, "v", "e", "e"), frozenset(), path(g, "v", "e")),
            (path(g, "v", "e", "f"), frozenset(), path(g, "w", "g1", "g2")),
            (path(g, "w", "g1"), frozenset(), path(g, "w", "g1", "g1")),
            (path(g, "v", "f"), frozenset(), path(g, "v", "f")),
            (path(g, "w", "g2"), frozenset(), path(g, "w", "g2")),
        ])
        VU = fg.embed_table(U, lab)
        einf = fg.periodic_point(g, fg.trivial_path(g, "v"), path(g, "v", "e"))
        phi_e = fg.point_map(einf, lab)
        lag = len(fg.word_of_path(path(g, "v", "e", "e"), lab)) - len(
            fg.word_of_path(path(g, "v", "e"), lab))
        assert fg.contains_arrow(VU, fg.Arrow(phi_e, lag, phi_e))

    def test_f_set_piece_embeds(self):
        g = make_e_inf()
        lab = fg.default_labeling(g)
        # exchange Z(e1) with Z(w \ {e1,e2}) at the omega vertex
        t = fg.make_table(g, [
            (path(g, "w", ("e", 1)), frozenset(), path(g, "w", ("e", 2))),
            (path(g, "w", ("e", 2)), frozenset(), path(g, "w", ("e", 1))),
        ])
        vt = fg.embed_table(t, lab)
        for p in enumerate_points(g, 2, 2, omega_bound=3):
            assert (fg.point_map(fg.apply(t, p), lab)
                    == fg.apply(vt, fg.point_map(p, lab)))

    @pytest.mark.parametrize("factory", [make_e2, make_one_orbit, make_e_inf,
                                         make_two_vertex_omega])
    def test_conjugation_identity(self, factory, rng):
        g = factory()
        lab = fg.default_labeling(g)
        pts = enumerate_points(g, 3, 2, omega_bound=3)
        for _ in range(10):
            t = random_table(g, rng, splits=4, omega_bound=3)
            vt = fg.embed_table(t, lab)
            for p in pts:
                assert (fg.point_map(fg.apply(t, p), lab)
                        == fg.apply(vt, fg.point_map(p, lab)))

    @pytest.mark.parametrize("factory", [make_e2, make_one_orbit])
    def test_homomorphism(self, factory, rng):
        g = factory()
        lab = fg.default_labeling(g)
        for _ in range(8):
            s = random_table(g, rng, splits=3)
            t = random_table(g, rng, splits=3)
            assert fg.germ_equal(fg.embed_table(fg.compose(s, t), lab),
                                 fg.compose(fg.embed_table(s, lab), fg.embed_table(t, lab)))
            assert fg.germ_equal(fg.embed_table(fg.inverse(s), lab),
                                 fg.inverse(fg.embed_table(s, lab)))

    def test_injective_on_germs(self, rng):
        g = make_one_orbit()
        lab = fg.default_labeling(g)
        for _ in range(20):
            t = random_table(g, rng, splits=3)
            assert fg.is_identity(fg.embed_table(t, lab)) == fg.is_identity(t)

    def test_leveled_graph_table_conjugation(self):
        g = make_leveled_chain_graph()
        lab = fg.default_labeling(g)
        # exchange Z(f1 e1) with Z(f1 f1 e1): both stems end at w2
        a = path(g, "w1", "f1", "e1")
        b = path(g, "w1", "f1", "f1", "e1")
        t = fg.involution_hat(g, [(a, frozenset(), b)])
        vt = fg.embed_table(t, lab)
        f1inf = fg.periodic_point(g, fg.trivial_path(g, "w1"), path(g, "w1", "f1"))
        f3cycle = path(g, "w3", "f3")
        pts = [
            f1inf,
            fg.periodic_point(g, fg.concat(g, a, path(g, "w2", "e2")), f3cycle),
            fg.periodic_point(g, fg.concat(g, b, path(g, "w2", "e2")), f3cycle),
            fg.periodic_point(g, path(g, "w1", "e1", "e2"), f3cycle),
        ]
        for p in pts:
            img = fg.point_map(p, lab)
            # the image of a leveled-graph point is never the all-a tail point
            assert img != fg.binary_point("", "a")
            assert (fg.point_map(fg.apply(t, p), lab)
                    == fg.apply(vt, fg.point_map(p, lab)))


class TestCustomLabeling:
    def test_swapped_edge_order_gives_identity_coding(self, e2):
        # labeling b before a makes word(a) = a and word(b) = b
        lab = fg.Labeling(e2, edge_orders={"v": ["b", "a"]})
        assert fg.word_of_path(path(e2, "v", "a"), lab) == "a"
        assert fg.word_of_path(path(e2, "v", "b"), lab) == "b"
        assert fg.word_of_path(path(e2, "v", "a", "b"), lab) == "ab"
        swap = fg.make_table(e2, [
            (path(e2, "v", "a"), frozenset(), path(e2, "v", "b")),
            (path(e2, "v", "b"), frozenset(), path(e2, "v", "a")),
        ])
        img = fg.embed_table(swap, lab)
        assert {(p.mu.edges, p.lam.edges) for p in img.pieces} == \
            {(p.mu.edges, p.lam.edges) for p in swap.pieces}

    def test_vertex_permutation(self):
        g = make_two_vertex_omega()
        lab = fg.Labeling(g, vertex_order=["w2", "w1"])
        assert fg.word_of_vertex("w2", lab) == "b"
        assert fg.word_of_vertex("w1", lab) == "a"

    def test_rejects_non_permutations(self, e2):
        for order in (["v", "v"], []):
            with pytest.raises(PathError):
                fg.Labeling(e2, vertex_order=order)
        with pytest.raises(PathError):
            fg.Labeling(e2, edge_orders={"v": ["a"]})

    def test_the_declared_order_is_the_default(self):
        g = make_two_vertex_omega()
        lab = fg.Labeling(g, list(g.vertices))
        assert lab == fg.Labeling(g) and hash(lab) == hash(fg.Labeling(g))
        assert lab.vertex_order is None
        assert fg.Labeling(g, ["w2", "w1"]) != fg.Labeling(g)

    def test_a_leveled_graph_refuses_a_vertex_order(self):
        g = make_leveled_chain_graph()
        for order in ([], [g.vertex_by_index(i) for i in (2, 1)]):
            with pytest.raises(PathError, match="level-by-level"):
                fg.Labeling(g, vertex_order=order)

    def test_emitted_images_follow_the_vertex_order(self):
        g = make_two_vertex_omega()
        lab = fg.Labeling(g, ["w2", "w1"])
        img = fg.emit_generators(g, lab, 4)
        assert fg.ck_check(g, img) == (True, [])
        assert img.vertices[0] == embed.VertexImage("w2", Monomial(fg.code_word(1, 2),
                                                                   fg.code_word(1, 2)))
        for i in (0, 3):
            with pytest.raises(GraphError, match=f"vertex index {i} not in 1..2"):
                lab.vertex_by_number(i)

    def test_conjugation_still_holds(self, rng):
        g = make_two_vertex_omega()
        lab = fg.Labeling(g, vertex_order=["w2", "w1"])
        pts = enumerate_points(g, 3, 2, omega_bound=2)
        for _ in range(8):
            t = random_table(g, rng, splits=3, omega_bound=2)
            vt = fg.embed_table(t, lab)
            for p in pts:
                assert (fg.point_map(fg.apply(t, p), lab)
                        == fg.apply(vt, fg.point_map(p, lab)))


    def test_out_of_range_numbers_are_refused(self):
        g = fg.Graph(["u", "w"], [fg.EdgeFamily("uw", "u", "w"), fg.EdgeFamily("wu", "w", "u"),
                                  fg.EdgeFamily("h", "u", "u")])
        lab = fg.default_labeling(g)
        for i in (0, -1, 3):
            with pytest.raises(GraphError):
                lab.vertex_by_number(i)
        for j in (0, -1, 3):
            with pytest.raises(PathError):
                lab.edge_by_number("u", j)
        assert [lab.edge_by_number("u", j) for j in (1, 2)] == [("uw", 1), ("h", 1)]
        chain = fg.default_labeling(make_leveled_chain_graph())
        with pytest.raises(GraphError):
            chain.vertex_by_number(0)
        with pytest.raises(PathError):
            chain.edge_by_number("w1", 0)

    def test_numbers_that_are_not_ints_are_refused(self):
        lab = fg.Labeling(make_ab_graph(), ["b", "a"])
        for i in (1.5, True):
            with pytest.raises(GraphError, match="not in 1..2"):
                lab.vertex_by_number(i)
            with pytest.raises(PathError, match="1-based"):
                lab.edge_by_number("a", i)

    def test_a_string_vertex_order_is_refused(self):
        # not the sequence of its letters
        with pytest.raises(PathError, match="vertex order must be a list"):
            fg.Labeling(make_ab_graph(), "ab")

    def test_a_string_edge_order_is_refused(self):
        # not the sequence of its letters
        with pytest.raises(PathError, match="edge orders must map"):
            fg.Labeling(make_ab_graph(), None, {"a": "eh"})

    def test_a_number_edge_order_is_refused(self):
        with pytest.raises(PathError, match="edge orders must map"):
            fg.Labeling(make_ab_graph(), None, {"a": 5})

    def test_edge_orders_given_as_a_list_are_refused(self):
        with pytest.raises(PathError, match="edge orders must map"):
            fg.Labeling(make_ab_graph(), None, [("a", ["h", "e"])])

    def test_lists_and_tuples_are_orders(self):
        g = make_ab_graph()
        assert fg.Labeling(g, ("b", "a"), {"a": ("h", "e")}) == \
            fg.Labeling(g, ["b", "a"], {"a": ["h", "e"]})


def _check_labeling_against_reference(lab, vertices):
    refs = []
    for v in vertices:
        assert lab.vertex_number(v) == ref.old_vertex_number(lab, v)
        assert lab.singles_at(v) == ref.old_singles_at(lab, v)
        for f in ref.old_out_families(lab.graph, v):
            refs += [(f.id, j) for j in ((1, 2, 3) if f.is_omega else (1,))]
    for r in refs:
        assert lab.edge_number(r) == ref.old_edge_number(lab, r)
        assert edge_word(r, lab) == ref.old_edge_word(lab, r)


class TestLabelingTables:
    def test_random_labelings_match_the_reference(self, rng):
        for _ in range(300):
            g = random_graph(rng, max_vertices=6, max_edges=10, omega_chance=0.3)
            order = list(g.vertices)
            rng.shuffle(order)
            edges = {}
            for v in rng.sample(g.vertices, rng.randint(0, len(g.vertices))):
                edges[v] = [f.id for f in g.out_singles(v)]
                rng.shuffle(edges[v])
            for lab in (fg.default_labeling(g), fg.Labeling(g, order, edges)):
                _check_labeling_against_reference(lab, g.vertices)

    def test_emitted_images_match_the_reference(self, rng):
        emitted = 0
        for _ in range(300):
            g = random_graph(rng, max_vertices=6, max_edges=10, omega_chance=0.3)
            if not _admissible(g):
                continue
            order = rng.sample(g.vertices, len(g.vertices))
            edges = {v: rng.sample(ids, len(ids)) for v in g.vertices
                     if (ids := [f.id for f in g.out_singles(v)]) and rng.random() < 0.5}
            for lab in (fg.default_labeling(g), fg.Labeling(g, order, edges)):
                for bound in (1, 3):
                    assert fg.emit_generators(g, lab, bound) == ref.old_emit_generators(g, lab, bound)
            emitted += 1
        for g in (make_leveled_chain_graph(), make_leveled_mixed_graph()):
            names = [g.vertex_by_index(i) for i in range(1, 12)]
            edges = {v: list(reversed(ids)) for v in names
                     if len(ids := [f.id for f in g.out_singles(v)]) > 1}
            for lab in (fg.default_labeling(g), fg.Labeling(g, edge_orders=edges)):
                for bound in (1, 4, 11):
                    assert fg.emit_generators(g, lab, bound) == ref.old_emit_generators(g, lab, bound)
        assert emitted > 30

    def test_leveled_walk_images_match_the_reference(self):
        # base levels, {} and @ names, same and next families; bounds at the
        # first vertex, at the end of the base, just past it and inside a level
        rnd, graphs, met = random.Random(29), 0, set()
        for _ in range(600):
            g = random_leveled_graph(rnd)
            if g._admissibility_failure is not None:
                continue
            graphs += 1
            sizes = [len(g.level_vertex_names(lev)) for lev in range(8)]
            base = sum(map(len, g.base_levels))
            bounds = {1, base + 1} | ({base} if base else set())
            wide = next((lev for lev, n in enumerate(sizes) if n > 1), None)
            if wide is not None:
                bounds.add(sum(sizes[:wide]) + 1)  # stops after the level's first vertex
            names = [g.vertex_by_index(i) for i in range(1, max(bounds) + 1)]
            edges = {v: list(reversed(ids)) for v in names
                     if len(ids := [f.id for f in g.out_singles(v)]) > 1}
            met.update(k for k, x in (("base", base), ("wide", wide is not None),
                                      ("reordered", edges),
                                      ("{}", any("{}" in l[0] for l in g.block_levels)),
                                      ("same", any(f.where == "same" for f in
                                                   g.base_families + g.block_families)))
                       if x)
            for lab in (fg.default_labeling(g), fg.Labeling(g, edge_orders=edges)):
                for bound in sorted(bounds):
                    assert fg.emit_generators(g, lab, bound) == ref.old_emit_generators(g, lab, bound)
        assert graphs > 50 and met == {"base", "wide", "reordered", "{}", "same"}

    @pytest.mark.parametrize("g", [make_leveled_chain_graph(), make_leveled_mixed_graph()],
                             ids=["chain", "mixed"])
    def test_leveled_labelings_match_the_reference(self, g):
        names = [g.vertex_by_index(i) for i in range(1, 40)]
        reordered = {v: list(reversed(lab_ids)) for v in names[3:9:2]
                     if (lab_ids := [f.id for f in g.out_singles(v)])}
        assert len(reordered) == 3
        for lab in (fg.default_labeling(g), fg.Labeling(g, edge_orders=reordered)):
            _check_labeling_against_reference(lab, names)

    def test_diagram_labelings_match_the_reference(self):
        rnd, kinds = random.Random(23), set()
        for _ in range(60):
            g = random_diagram(rnd).underlying_graph()
            kinds.add(g.is_finite)
            names = (list(g.vertices) if g.is_finite
                     else [g.vertex_by_index(i) for i in range(1, 30)])
            picked = rnd.sample(names, min(3, len(names)))
            reordered = {v: list(reversed(ids)) for v in picked
                         if len(ids := [f.id for f in g.out_singles(v)]) > 1}
            labs = [fg.default_labeling(g), fg.Labeling(g, edge_orders=reordered)]
            if g.is_finite:
                labs.append(fg.Labeling(g, rnd.sample(names, len(names)), reordered))
            for lab in labs:
                _check_labeling_against_reference(lab, names)
        assert kinds == {True, False}

    def test_unknown_family_ids_are_graph_errors(self):
        for g in (make_two_vertex_omega(), make_leveled_chain_graph()):
            for query in (g.family, lambda fid: g.ref_sort_key((fid, 1))):
                with pytest.raises(GraphError, match="unknown family"):
                    query("zz")
            lab = fg.default_labeling(g)
            with pytest.raises(GraphError, match="unknown family"):
                lab.edge_number(("zz", 1))
            with pytest.raises(GraphError, match="unknown family"):
                edge_word(("zz", 1), lab)


def _count_structure_calls(monkeypatch, g):
    """Count ``out_singles`` and ``out_families`` calls on this one graph."""
    calls = []
    for name in ("out_singles", "out_families"):
        method = getattr(g, name)

        def counted(*args, _method=method, _name=name):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(g, name, counted)
    return calls


@pytest.mark.parametrize("g", [make_two_vertex_omega(), make_leveled_mixed_graph()],
                         ids=["graph", "leveled"])
def test_default_labeling_reads_no_structure(monkeypatch, g):
    calls = _count_structure_calls(monkeypatch, g)
    fg.default_labeling(g)
    assert calls == []


def _moved_gamma24_table():
    el = next(e for e in make_gamma24_diagram().gamma_elements(3) if not e.is_identity())
    return fg.gamma_to_table(el)


@pytest.mark.parametrize("table", [
    lambda: random_table(make_two_vertex_omega(), random.Random(19), splits=8, omega_bound=3),
    _moved_gamma24_table,
], ids=["two_vertex_omega", "gamma24_level3"])
def test_embed_table_reads_the_labeling_tables_only(monkeypatch, table):
    t = table()
    g = t.graph
    fg.require_admissible(g)  # the one-time verdict reads the out-families
    lab = fg.default_labeling(g)
    if g.is_finite:  # exclusion sets take embed_table through its tails
        assert any(p.F for p in t.pieces)
    calls = _count_structure_calls(monkeypatch, g)
    image = fg.embed_table(t, lab)
    assert image.pieces and calls == []


def _admissible(g):
    try:
        fg.require_admissible(g)
    except AdmissibilityError:
        return False
    return True


_EMBEDDABLE = [g for g in algebra_graphs() if _admissible(g)]


@functools.cache
def _points(g):
    return enumerate_points(g, 2, 2, omega_bound=2)


@st.composite
def custom_labelings(draw):
    g = draw(st.sampled_from(_EMBEDDABLE))
    edges = {}
    for v in g.vertices:
        if draw(st.booleans()):
            edges[v] = draw(st.permutations([f.id for f in g.out_singles(v)]))
    return fg.Labeling(g, draw(st.permutations(g.vertices)), edges)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(custom_labelings(), st.randoms(use_true_random=False))
def test_embedding_is_an_equivariant_homomorphism_under_custom_labelings(lab, rnd):
    g = lab.graph
    s = random_table(g, rnd, splits=3, omega_bound=2)
    t = random_table(g, rnd, splits=3, omega_bound=2)
    vs = fg.embed_table(s, lab)
    assert fg.germ_equal(fg.embed_table(fg.compose(s, t), lab),
                         fg.compose(vs, fg.embed_table(t, lab)))
    for p in _points(g):
        assert fg.point_map(fg.apply(s, p), lab) == fg.apply(vs, fg.point_map(p, lab))


def _admissible_random_graph(seed):
    """The first admissible ``random_graph`` of a seeded stream."""
    rnd = random.Random(seed)
    while True:
        g = random_graph(rnd)
        if _admissible(g):
            return g


_embeddable_graphs = st.one_of(st.sampled_from(_EMBEDDABLE),
                               st.integers(0, 2**32 - 1).map(_admissible_random_graph))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_embeddable_graphs, st.randoms(use_true_random=False))
def test_embedding_is_a_homomorphism_on_random_graphs(g, rnd):
    lab = fg.default_labeling(g)
    s, t = (random_table(g, rnd, splits=rnd.randint(0, 6), omega_bound=2) for _ in "st")
    vs = fg.embed_table(s, lab)
    assert fg.germ_equal(fg.embed_table(fg.compose(s, t), lab),
                         fg.compose(vs, fg.embed_table(t, lab)))
    assert fg.germ_equal(fg.embed_table(fg.inverse(s), lab), fg.inverse(vs))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_embeddable_graphs, st.randoms(use_true_random=False))
def test_embedding_conjugates_the_action_on_random_graphs(g, rnd):
    lab = fg.default_labeling(g)
    t = random_table(g, rnd, splits=rnd.randint(0, 6), omega_bound=2)
    vt = fg.embed_table(t, lab)
    for p in _points(g):
        assert fg.point_map(fg.apply(t, p), lab) == fg.apply(vt, fg.point_map(p, lab))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(custom_labelings(), _embeddable_graphs.map(fg.default_labeling)),
       st.randoms(use_true_random=False))
def test_embed_table_matches_the_string_reference(lab, rnd):
    g = lab.graph
    s, t = (random_table(g, rnd, splits=rnd.randint(0, 8), omega_bound=3) for _ in "st")
    for x in (s, fg.compose(s, t), fg.commutator(s, t)):
        assert fg.embed_table(x, lab) == ref.old_embed_table(x, lab)


def test_embed_gamma_tables_match_the_string_reference():
    diagrams = [make_gamma2_diagram(), make_gamma24_diagram()]
    diagrams += [random_diagram(random.Random(seed)) for seed in range(30)]
    compared = 0
    for k, b in enumerate(diagrams):
        g = b.underlying_graph()
        if not _admissible(g):
            continue
        lab = fg.default_labeling(g)
        rnd = random.Random(k)
        for N in range(1, 4 if b.repeat else len(b.levels)):
            mapping = {}
            for paths in b.fibers(N).values():
                images = paths[:]
                rnd.shuffle(images)
                mapping.update(zip(paths, images))
            t = fg.gamma_to_table(fg.GammaElement(b, N, mapping))
            assert fg.embed_table(t, lab) == ref.old_embed_table(t, lab)
            compared += bool(t.pieces)
    assert compared > 20


class TestMonomials:
    def test_mult_examples(self):
        assert ref.mono_mult(Monomial("a", "ab"), Monomial("abb", "b")) == Monomial("ab", "b")
        assert ref.mono_mult(Monomial("a", "b"), Monomial("a", "b")) is None
        m = Monomial("ab", "ba")
        assert ref.mono_mult(ONE, m) == m
        assert ref.mono_mult(m, ONE) == m

    def test_contraction_right(self):
        # (s_a s_b*)(s_bc s_d*) = s_ac s_d*
        assert ref.mono_mult(Monomial("a", "b"), Monomial("bb", "a")) == Monomial("ab", "a")
        # (s_a s_bc*)(s_b s_d*) = s_a (s_d s_c)* = s_a s_dc*
        assert ref.mono_mult(Monomial("a", "ba"), Monomial("b", "")) == Monomial("a", "a")

    def test_formal_sum_reduction(self):
        two = FormalSum.of(Monomial("a", "a")) + FormalSum.of(Monomial("b", "b"))
        assert two.equals(FormalSum.of(ONE))
        assert not FormalSum.of(Monomial("a", "a")).equals(FormalSum.of(ONE))
        assert (two - two).is_zero()

    def test_formal_sum_product(self):
        x = FormalSum({Monomial("a", "b"): 2, Monomial("ab", ""): -1, Monomial("", "ba"): 3})
        y = FormalSum({Monomial("b", "a"): 1, Monomial("a", "ab"): 4, Monomial("bb", "b"): -2})
        total = FormalSum()
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                m = ref.mono_mult(m1, m2)
                term = FormalSum({m1: c1}) * FormalSum({m2: c2})
                assert term.terms == ({} if m is None else {m: c1 * c2})
                total = total + term
        assert (x * y).terms == total.terms and total.terms
        ranges = FormalSum.of(Monomial("a", "a"), Monomial("b", "b"))
        assert (ranges * x).equals(x) and (ranges * x).terms != x.terms

    def test_two_vertex_image_relations(self):
        # the bridge image is a partial isometry from the w2 projection
        bridge = Monomial("bb", "a")
        assert ref.mono_mult(ref.star(bridge), bridge) == Monomial("a", "a")
        # vertex projections sum to the identity
        total = FormalSum.of(Monomial("b", "b")) + FormalSum.of(Monomial("a", "a"))
        assert total.equals(FormalSum.of(ONE))


@st.composite
def _formal_sums(draw):
    """Terms ``T`` and a refinement ``R`` of them (a term ``(x|y)`` split into
    ``(xa|ya) + (xb|yb)`` again and again), each a dict in shuffled order;
    ``T - R`` is zero.  Sometimes one more term is added to ``T``."""
    words = st.text("ab", max_size=3)
    items = [(Monomial(x, y), c) for x, y, c in draw(st.lists(
        st.tuples(words, words, st.integers(-3, 3).filter(bool)), max_size=6))]
    refined = list(items)
    for _ in range(draw(st.integers(0, 12))):
        if not refined:
            break
        m, c = refined.pop(draw(st.integers(0, len(refined) - 1)))
        refined += [(Monomial(m.alpha + x, m.beta + x), c) for x in "ab"]
    extra = draw(st.booleans())
    if extra:
        items.append((Monomial(draw(words), draw(words)), draw(st.sampled_from([-1, 1]))))

    def collected(pairs):
        terms = {}
        for m, c in draw(st.permutations(pairs)):
            terms[m] = terms.get(m, 0) + c
        return FormalSum(terms)

    return collected(items), collected(refined), extra


class TestFormalSumReduction:
    """The one-pass reduction against the restarting one."""

    def test_mixed_signs(self):
        m = {w: Monomial(w, w) for w in ("aa", "ab", "aaa", "aab")}
        first = FormalSum({m["aa"]: -1, m["ab"]: -1, m["aaa"]: 1, m["aab"]: 1})
        last = FormalSum({m["aaa"]: 1, m["aab"]: 1, m["aa"]: -1, m["ab"]: -1})
        for s in (first, last):
            assert not s.is_zero() and ref.old_reduced(s).terms
            assert s.reduced().terms == {m["ab"]: -1}
        assert first.equals(last) and last.equals(first)
        assert str(ref.old_reduced(first)) == "-1*(a|a) + 1*(aa|aa)"

    @pytest.mark.parametrize("alpha, beta", [("a", "b"), ("b", "a")])
    def test_only_aligned_siblings_merge(self, alpha, beta):
        # s_a s_b* + s_b s_b* is not 1: (a|b) and (b|b) are not siblings
        s = FormalSum.of(Monomial(alpha, beta), Monomial("b", "b"))
        assert not s.equals(FormalSum.of(ONE))
        assert ref.old_reduced(s - FormalSum.of(ONE)).terms

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_formal_sums())
    def test_matches_restarting_reduction(self, case):
        terms, refined, extra = case
        assert terms.equals(refined) == (not ref.old_reduced(terms - refined).terms)
        assert terms.equals(refined) or extra

    @pytest.mark.parametrize("plus, minus", [
        # the words of length 10, the b-ending ones first, minus 1: a scan
        # that restarts after each merge passes those 512 again each time
        (sorted((format(k, "010b").replace("0", "a").replace("1", "b") for k in range(1024)),
                key=lambda w: w.endswith("a")), [""]),
        # one sibling pair 3000 letters deep: a pass over every length below
        # the longest steps through 3000 of them
        (["a" * 3000, "a" * 2999 + "b"], ["a" * 2999]),
    ], ids=["restart", "depth"])
    def test_work_is_linear(self, plus, minus):
        total = (FormalSum.of(*(Monomial(w, w) for w in plus))
                 - FormalSum.of(*(Monomial(w, w) for w in minus)))
        n = len(total.terms)
        events = []

        def record(frame, event, arg):
            events.append(event)
            return record

        outer = sys.gettrace()
        sys.settrace(record)
        try:
            zero = total.is_zero()
        finally:
            sys.settrace(outer)
        assert zero
        assert len(events) <= 100 * n  # calls, lines and returns traced


class TestEmit:
    def test_the_walk_keeps_no_per_name_state(self):
        # memory must not grow with the vertices asked for; the first call
        # fills the graph's fixed verdict cache
        g = make_leveled_mixed_graph()
        lab = fg.default_labeling(g)
        fg.emit_generators(g, lab, 1)

        def sizes():
            return {k: len(x) if hasattr(x, "__len__") else x for k, x in vars(g).items()}

        before = sizes()
        assert len(fg.emit_generators(g, lab, 3000).vertices) == 3000
        assert sizes() == before

    def test_einf_golden(self):
        g = make_e_inf()
        txt = fg.format_generator_image(
            fg.emit_generators(g, fg.default_labeling(g), 10))
        assert txt == (GOLDEN / "emit_einf.txt").read_text()

    def test_two_vertex_golden(self):
        g = make_two_vertex_omega()
        txt = fg.format_generator_image(
            fg.emit_generators(g, fg.default_labeling(g), 10))
        assert txt == (GOLDEN / "emit_two_vertex.txt").read_text()

    def test_leveled_golden(self):
        g = make_leveled_chain_graph()
        txt = fg.format_generator_image(
            fg.emit_generators(g, fg.default_labeling(g), 6))
        assert txt == (GOLDEN / "emit_leveled_f.txt").read_text()

    def test_refuses_a_labeling_of_another_graph(self):
        # g2 is g1 without k: its labeling would give h the code word of a
        # two-way choice at w and leave s[k] out
        fams = [("e", "v", "w"), ("f", "w", "v"), ("g", "v", "v"), ("h", "w", "w"),
                ("k", "w", "v")]
        g1, g2 = (fg.Graph(["v", "w"], [fg.EdgeFamily(*f) for f in fs])
                  for fs in (fams, fams[:-1]))
        by_name = {e.name: e.mono for e in
                   fg.emit_generators(g1, fg.default_labeling(g1), 5).edges}
        assert by_name["h"] == Monomial("aab", "a") and "k" in by_name
        with pytest.raises(PathError, match="^the labeling is of another graph$"):
            fg.emit_generators(g1, fg.default_labeling(g2), 5)

    def test_lists_edges_in_label_order(self):
        # vertex i of a custom order maps to the i-th code word, and each
        # vertex lists its singles in the caller's order, the omega edges last
        g = fg.Graph(["u", "w"], [fg.EdgeFamily("uw", "u", "w"), fg.EdgeFamily("h", "u", "u"),
                                  fg.EdgeFamily("x", "u", "u", "omega"),
                                  fg.EdgeFamily("wu", "w", "u"), fg.EdgeFamily("k", "w", "w")])
        lab = fg.Labeling(g, ["w", "u"], {"u": ["h", "uw"], "w": ["k", "wu"]})
        img = fg.emit_generators(g, lab, 2)
        assert [(v.vertex, v.mono.alpha) for v in img.vertices] == [("w", "b"), ("u", "a")]
        assert [(e.name, e.mono.alpha) for e in img.edges] == [
            ("k", "bb"), ("wu", "ba"), ("h", "ab"), ("uw", "aab"), ("x[1]", "aaab"),
            ("x[2]", "aaaab")]
        assert fg.ck_check(g, img) == (True, [])

    def test_spot_values(self):
        g = make_two_vertex_omega()
        img = fg.emit_generators(g, fg.default_labeling(g), 2)
        by_name = {e.name: e.mono for e in img.edges}
        assert by_name["h"] == Monomial("bb", "a")
        assert by_name["e[1]"] == Monomial("bab", "b")
        assert by_name["f[1]"] == Monomial("ab", "a")
        assert dict((v.vertex, v.mono) for v in img.vertices) == {
            "w1": Monomial("b", "b"), "w2": Monomial("a", "a")}

    def test_default_bound_is_ten(self):
        # the CLI's --bound default is its own; this pins the library's
        g = make_two_vertex_omega()
        lab = fg.default_labeling(g)
        img = fg.emit_generators(g, lab)
        assert img == fg.emit_generators(g, lab, 10)
        assert [e.name for e in img.edges if e.ref[0] == "e"][-1] == "e[10]"


_CK_FACTORIES = [make_e2, make_two_vertex_omega, lambda: make_e_nr(2, 2),
                 lambda: make_e_nr(3, 2), make_e_inf, make_leveled_chain_graph]


def _words(img):
    return [w for x in (*img.vertices, *img.edges) for w in (x.mono.alpha, x.mono.beta)]


def _with_words(img, words):
    """``img`` with the words of its monomials replaced, in ``_words`` order."""
    monos = [Monomial(*words[2 * k:2 * k + 2]) for k in range(len(words) // 2)]
    nv = len(img.vertices)
    return fg.GeneratorImage(
        tuple(embed.VertexImage(x.vertex, m) for x, m in zip(img.vertices, monos[:nv])),
        tuple(embed.EdgeImage(x.name, x.ref, x.source, x.range, m)
              for x, m in zip(img.edges, monos[nv:])))


@st.composite
def _scrambled_images(draw):
    """An emitted image whose words were swapped, duplicated or truncated,
    so that equal words and nested prefix chains occur."""
    g = draw(st.sampled_from(_CK_FACTORIES))()
    img = fg.emit_generators(g, fg.default_labeling(g), draw(st.integers(1, 6)))
    words = _words(img)
    slot = st.integers(0, len(words) - 1)
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(slot), draw(slot)
        kind = draw(st.sampled_from(["swap", "duplicate", "truncate"]))
        if kind == "swap":
            words[i], words[j] = words[j], words[i]
        elif kind == "duplicate":
            words[j] = words[i]
        else:
            words[i] = words[i][:draw(st.integers(0, len(words[i])))]
    return g, _with_words(img, words)


def _spy_pair_search(monkeypatch):
    """The argument tuples of every ``_comparable_pairs`` call from here on."""
    calls = []
    search = embed._comparable_pairs
    monkeypatch.setattr(embed, "_comparable_pairs",
                        lambda *words: calls.append(words) or search(*words))
    return calls


def _binary_words(n):
    return ["".join(w) for k in range(n + 1) for w in itertools.product("ab", repeat=k)]


def test_source_relation_in_closed_form():
    # p s = s exactly when p is a projection s_w s_w* and w is a prefix of
    # the alpha of s, over every pair of monomials of words up to length 3
    monos = [Monomial(x, y) for x in _binary_words(3) for y in _binary_words(3)]
    held = 0
    for p in monos:
        for s in monos:
            closed = p.alpha == p.beta and s.alpha.startswith(p.alpha)
            assert closed == (ref.mono_mult(p, s) == s)
            held += closed
    assert len(monos) == 225 and 0 < held < 225 * 225


class TestCkCheck:
    @pytest.mark.parametrize("factory", _CK_FACTORIES)
    def test_passes(self, factory):
        g = factory()
        img = fg.emit_generators(g, fg.default_labeling(g), 6)
        ok, failures = fg.ck_check(g, img)
        assert ok, failures

    def test_single_letter_mutations_fail(self):
        # every vertex regular: every flip violates some checked relation
        for factory in (make_e2, lambda: make_e_nr(2, 2), lambda: make_e_nr(3, 2)):
            g = factory()
            img = fg.emit_generators(g, fg.default_labeling(g), 3)
            for mutated, _ in mutations(img):
                ok, _fails = fg.ck_check(g, mutated)
                assert not ok

    def test_mutations_fail_except_sampling_boundary(self):
        # omega relations are sampled: flipping the trailing letter of the
        # LAST emitted edge of a bundle only collides with unsampled edges
        g = make_two_vertex_omega()
        bound = 3
        img = fg.emit_generators(g, fg.default_labeling(g), bound)
        escaped = []
        for mutated, tag in mutations(img):
            ok, _fails = fg.ck_check(g, mutated)
            if ok:
                escaped.append(tag)
        last = {(f"e[{bound}]", "alpha"), (f"f[{bound}]", "alpha")}
        assert set(escaped) <= last
        for name, side in escaped:
            # the escape is exactly the trailing-letter flip
            assert side == "alpha"

    @pytest.mark.parametrize("bound", [2, 3, 5, 8])
    @pytest.mark.parametrize("factory", _CK_FACTORIES)
    def test_matches_pairwise_reference_on_mutations(self, factory, bound):
        g = factory()
        img = fg.emit_generators(g, fg.default_labeling(g), bound)
        for case in [img, *(mutated for mutated, _ in mutations(img))]:
            assert fg.ck_check(g, case) == ref.old_ck_check(g, case)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_scrambled_images())
    def test_matches_pairwise_reference_on_scrambled_words(self, case):
        g, img = case
        assert fg.ck_check(g, img) == ref.old_ck_check(g, img)

    @pytest.mark.parametrize("factory, bound", [(make_two_vertex_omega, 400),
                                                (make_leveled_chain_graph, 200)])
    def test_valid_images_search_no_pairs(self, factory, bound, monkeypatch):
        # a valid image has no two comparable words to name, and the
        # adjacent-word test says so without the pair search
        g = factory()
        img = fg.emit_generators(g, fg.default_labeling(g), bound)
        calls = _spy_pair_search(monkeypatch)
        assert fg.ck_check(g, img) == (True, [])
        assert calls == []

    @pytest.mark.parametrize("factory", _CK_FACTORIES)
    def test_pair_search_runs_only_on_prefix_pairs(self, factory, monkeypatch):
        # on a mutation, a list of same-source alphas (or of vertex words,
        # all projections) is searched for pairs only when two of its words
        # are comparable, and the orthogonality failures are the reference's
        g = factory()
        img = fg.emit_generators(g, fg.default_labeling(g), 5)
        search = embed._comparable_pairs
        calls = _spy_pair_search(monkeypatch)
        named = 0
        for case, _ in mutations(img):
            calls.clear()
            failures = fg.ck_check(g, case)[1]
            orthogonality = [f for f in failures if f.endswith(" != 0")]
            assert orthogonality == [f for f in ref.old_ck_check(g, case)[1]
                                     if f.endswith(" != 0")]
            assert all(search(*words) for words in calls if len(words) == 1)
            if all(v.mono.is_projection() for v in case.vertices):
                assert all(len(words) == 1 for words in calls)
            assert bool(calls) >= bool(orthogonality)
            named += bool(orthogonality)
        assert named

    @pytest.mark.parametrize("factory", _CK_FACTORIES)
    def test_fallbacks_match_pairwise_reference(self, factory, monkeypatch):
        # vertex images that are not projections are paired beta against
        # alpha; a repeated word sends its list to the pair search
        g = factory()
        img = fg.emit_generators(g, fg.default_labeling(g), 4)
        words, nv = _words(img), len(img.vertices)
        cases = []
        for k in range(nv):
            alpha = words[2 * k]
            for beta in (alpha + "a", alpha[:-1], words[(2 * k + 2) % (2 * nv)]):
                cases.append({2 * k + 1: beta})
            for m in range(len(words)):
                cases.append({2 * k: words[m], 2 * k + 1: words[m]})
        for k, e in enumerate(img.edges):
            for m, other in enumerate(img.edges):
                if m != k and other.source == e.source:
                    cases.append({2 * (nv + k): words[2 * (nv + m)]})
        calls = _spy_pair_search(monkeypatch)
        for change in cases:
            case = _with_words(img, [change.get(i, w) for i, w in enumerate(words)])
            assert fg.ck_check(g, case) == ref.old_ck_check(g, case)
        assert {len(words) for words in calls} == {1, 2}

    def test_pair_search_scans_only_extensions(self):
        # a word compares only with the words that extend it and the one
        # after them, so the prefix tests stay linear in the image size
        scans = []

        class Word(str):
            def startswith(self, prefix):
                scans.append(1)
                return str.startswith(self, prefix)

        g = make_two_vertex_omega()
        img = fg.emit_generators(g, fg.default_labeling(g), 400)
        img = _with_words(img, [Word(w) for w in _words(img)])
        assert fg.ck_check(g, img) == (True, [])
        assert len(scans) <= 8 * (len(img.vertices) + len(img.edges))

    def test_leveled_images_pass(self):
        # the range sums run on leveled graphs too; count the emitted regular
        # vertices whose sum was checked
        rnd = random.Random(0)
        graphs = [random_leveled_graph(rnd) for _ in range(3000)]
        diagrams = [random_diagram(random.Random(seed)) for seed in range(200)]
        graphs += [b.underlying_graph() for b in diagrams if b.repeat is not None]
        graphs = [g for g in graphs if g._admissibility_failure is None]
        assert len(graphs) == 390 + 111
        summed = 0
        for g in graphs:
            for bound in (1, 3, 8):
                img = fg.emit_generators(g, fg.default_labeling(g), bound)
                assert fg.ck_check(g, img) == (True, [])
                summed += sum(map(g.is_regular, {e.source for e in img.edges}))
        assert summed > 1000
        g = make_leveled_chain_graph()
        lab = fg.default_labeling(g)
        for bound in range(1, 201):
            assert fg.ck_check(g, fg.emit_generators(g, lab, bound)) == (True, [])

    def test_leveled_range_sums_are_checked(self):
        g = make_leveled_chain_graph()
        img = fg.emit_generators(g, fg.default_labeling(g), 6)
        k, e = next((k, e) for k, e in enumerate(img.edges) if g.is_regular(e.source))
        words = _words(img)
        at = 2 * (len(img.vertices) + k)
        words[at] = words[at][:-1]
        ok, failures = fg.ck_check(g, _with_words(img, words))
        assert not ok
        assert f"sum of ranges at {e.source} != p[{e.source}]" in failures


def _tiling_case(rnd):
    """A list of binary words and a word ``w``: a complete prefix code below
    ``w`` with one word dropped, repeated, truncated or flipped, or kept
    whole, or random words."""
    def word(n):
        return "".join(rnd.choice("ab") for _ in range(rnd.randint(0, n)))

    w = word(3)
    if rnd.random() < 0.2:
        return [word(5) for _ in range(rnd.randint(0, 6))], w
    words = [w]
    for _ in range(rnd.randint(0, 6)):
        x = words.pop(rnd.randrange(len(words)))
        words += [x + "a", x + "b"]
    rnd.shuffle(words)
    k = rnd.randrange(len(words))
    x = words[k]
    kind = rnd.choice(["drop", "repeat", "truncate", "flip", "whole"])
    if kind == "drop":
        del words[k]
    elif kind == "repeat":
        words.insert(rnd.randint(0, len(words)), x)
    elif kind == "truncate":
        words[k] = x[:rnd.randint(0, len(x))]
    elif kind == "flip" and x:
        j = rnd.randrange(len(x))
        words[k] = x[:j] + "ba"["ab".index(x[j])] + x[j + 1:]
    return words, w


class TestTilingSums:
    """Both sums ``ck_check`` decides as tilings, against ``FormalSum.equals``."""

    def test_range_sums(self):
        g, rnd, answers = make_e2(), random.Random(5), []
        for _ in range(3000):
            words, w = _tiling_case(rnd)
            if not words:  # no edges: no sum at v
                continue
            # a target that is not a projection one time in five
            target = Monomial(w, w if rnd.random() < 0.8 else w + rnd.choice(["a", "b"]))
            edges = tuple(embed.EdgeImage(f"e{k}", ("a", 1), "v", "-", Monomial(x, ""))
                          for k, x in enumerate(words))
            img = fg.GeneratorImage((embed.VertexImage("v", target),), edges)
            ranges = FormalSum.of(*(Monomial(x, x) for x in words))
            answer = ranges.equals(FormalSum.of(target))
            assert ("sum of ranges at v != p[v]" not in fg.ck_check(g, img)[1]) == answer
            answers.append(answer)
        assert 300 < answers.count(True) < 2500

    def test_vertex_sums(self):
        g, rnd, answers = make_e2(), random.Random(6), []
        for _ in range(3000):
            monos = [Monomial(x, x) for x in _tiling_case(rnd)[0]]
            if monos and rnd.random() < 0.2:
                x = monos.pop(rnd.randrange(len(monos))).alpha
                monos.append(Monomial(x, x[:-1] + "ba"[x.endswith("b")]))
            img = fg.GeneratorImage(tuple(embed.VertexImage(f"u{k}", m)
                                          for k, m in enumerate(monos)), ())
            answer = FormalSum.of(*monos).equals(FormalSum.of(ONE))
            failures = fg.ck_check(g, img)[1]
            assert ("vertex projections do not sum to 1" not in failures) == answer
            answers.append(answer)
        assert 100 < answers.count(True) < 2500


def mutations(img):
    """Every single-letter flip in every emitted word, tagged by location."""
    from fullgroups.embed import EdgeImage, VertexImage

    flip = {"a": "b", "b": "a"}
    for vi, v in enumerate(img.vertices):
        for side in ("alpha", "beta"):
            word = getattr(v.mono, side)
            for i in range(len(word)):
                new_word = word[:i] + flip[word[i]] + word[i + 1:]
                mono = Monomial(**{"alpha": v.mono.alpha, "beta": v.mono.beta,
                                   side: new_word})
                vs = list(img.vertices)
                vs[vi] = VertexImage(v.vertex, mono)
                yield fg.GeneratorImage(tuple(vs), img.edges), (f"p[{v.vertex}]", side)
    for ei, e in enumerate(img.edges):
        for side in ("alpha", "beta"):
            word = getattr(e.mono, side)
            for i in range(len(word)):
                new_word = word[:i] + flip[word[i]] + word[i + 1:]
                mono = Monomial(**{"alpha": e.mono.alpha, "beta": e.mono.beta,
                                   side: new_word})
                es = list(img.edges)
                es[ei] = EdgeImage(e.name, e.ref, e.source, e.range, mono)
                yield fg.GeneratorImage(img.vertices, tuple(es)), (e.name, side)
