"""The value classes: immutable records compared and hashed by their fields.

Each class compares equal only to an instance of the same class with equal
fields, hashes as the tuple of its fields (so set orders stay those of the
frozen dataclasses the records replaced), refuses assignment and deletion,
and takes its fields as positional or keyword arguments.  The seven classes
built in the hot loops are ``__slots__`` records; the others, ``Table``
included, are still dataclasses, and the contract holds for both kinds.
"""
import copy
import dataclasses
import pickle
import re
import types
import weakref

import pytest

import fullgroups as fg
from fullgroups import embed
from fullgroups.errors import GraphError

from conftest import make_gamma2_diagram, make_e2, path

E2 = make_e2()
MU = path(E2, "v", "a")
LAM = path(E2, "v", "b", "a")
F = frozenset({("b", 1)})
POINT = fg.periodic_point(E2, MU, path(E2, "v", "a"))
MONO = fg.Monomial("ab", "b")
VERTEX = embed.VertexImage("v", fg.Monomial("", ""))
EDGE = embed.EdgeImage("a", ("a", 1), "v", "v", MONO)
DIAGRAM = make_gamma2_diagram()
LEVELED = (("v0",), ("u", "u2"), ("u", "u2"))
(P, Q), (R,) = DIAGRAM.fibers(1)["u@0"], DIAGRAM.fibers(1)["u2@0"]


# (class, field names, field values); the values are what the constructor
# stores, so ``cls(*values)`` has exactly these fields
CASES = [
    (fg.EdgeFamily, ("id", "source", "range", "multiplicity"), ("e", "v", "w", "omega")),
    (fg.Verdict, ("holds", "witness"), (False, ("v", 2))),
    (fg.TemplateFamily, ("id", "source", "range", "where", "src_level"),
     ("f{}", "v{}", "w", "same", 0)),
    (fg.FinitePath, ("start", "edges", "rng"), ("v", (("a", 1), ("b", 1)), "v")),
    (fg.CylinderAtom, ("mu", "F"), (MU, F)),
    (fg.CompactOpen, ("atoms",), ((fg.CylinderAtom(MU, F),),)),
    (fg.BoundaryPoint, ("prefix", "cycle"), (MU, LAM)),
    (fg.Piece, ("mu", "F", "lam"), (MU, F, LAM)),
    (fg.Arrow, ("target", "lag", "source"), (POINT, 1, POINT)),
    (fg.Monomial, ("alpha", "beta"), ("ab", "b")),
    (embed.VertexImage, ("vertex", "mono"), ("v", MONO)),
    (embed.EdgeImage, ("name", "ref", "source", "range", "mono"),
     ("e[2]", ("e", 2), "v", "w", MONO)),
    (fg.GeneratorImage, ("vertices", "edges"), ((VERTEX,), (EDGE,))),
    (fg.BratteliDiagram, ("levels", "edges", "repeat"),
     (DIAGRAM.levels, DIAGRAM.edges, DIAGRAM.repeat)),
    (fg.GammaElement, ("diagram", "level", "mapping"), (DIAGRAM, 1, {P: Q, Q: P})),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
RECORDS = {fg.EdgeFamily, fg.FinitePath, fg.CylinderAtom, fg.Piece, fg.Monomial,
           embed.VertexImage, embed.EdgeImage}


def _hash_key(cls, values):
    if cls is fg.GammaElement:  # its own hash: the mapping as a frozenset
        d, level, mapping = values
        return d, level, frozenset(mapping.items())
    return values


@pytest.mark.parametrize("cls, fields, values", CASES, ids=IDS)
class TestContract:
    def test_equal_only_to_the_same_class_with_equal_fields(self, cls, fields, values):
        x = cls(*values)
        assert x == cls(*values) and not x != cls(*values)
        assert x != values and values != x
        assert x != types.SimpleNamespace(**dict(zip(fields, values)))
        lookalike = type("Lookalike", (cls,), {"__slots__": ()})
        assert x != lookalike(*values) and lookalike(*values) != x
        assert x.__eq__(values) is NotImplemented

    def test_hash_is_the_hash_of_the_field_tuple(self, cls, fields, values):
        assert hash(cls(*values)) == hash(_hash_key(cls, values))

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, values):
        x = cls(*values)
        for name in (*fields, "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert hasattr(x, "__dict__") is (cls not in RECORDS)
        assert tuple(getattr(x, f) for f in fields) == values

    def test_keyword_construction_and_repr(self, cls, fields, values):
        x = cls(**dict(zip(fields, values)))
        assert x == cls(*values)
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(x) == f"{cls.__qualname__}({shown})"

    def test_copies_weak_references_and_pickles(self, cls, fields, values):
        x = cls(*values)
        assert copy.copy(x) == x and copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x
        assert weakref.ref(x)() is x

    def test_a_record_or_a_dataclass(self, cls, fields, values):
        assert dataclasses.is_dataclass(cls) is (cls not in RECORDS)


def test_table_is_a_dataclass():
    t = fg.identity(E2)
    assert dataclasses.is_dataclass(t)
    assert dataclasses.replace(t, pieces=()) == t


def test_the_old_reprs():
    assert repr(fg.EdgeFamily("a", "v", "w")) == (
        "EdgeFamily(id='a', source='v', range='w', multiplicity='single')")
    assert repr(fg.Monomial("ab", "b")) == "Monomial(alpha='ab', beta='b')"
    assert repr(fg.FinitePath("v", (("a", 1),), "v")) == (
        "FinitePath(start='v', edges=(('a', 1),), rng='v')")
    assert repr(fg.Verdict(True)) == "Verdict(holds=True, witness=None)"


def test_defaults():
    assert fg.EdgeFamily("a", "v", "w").multiplicity == "single"
    assert fg.Verdict(True).witness is None
    t = fg.TemplateFamily("f", "v", "w")
    assert (t.where, t.src_level) == ("next", None)


def test_unhashable_fields_fail_at_hash_not_at_construction():
    # the record that stores its hash builds as the dataclasses do
    for x in (fg.FinitePath("v", [("a", 1)], "v"), fg.CylinderAtom(MU, {("a", 1)}),
              fg.Piece(MU, set(), LAM), fg.EdgeFamily(["e"], "v", "w"),
              fg.Verdict(False, {"start": "v"})):
        with pytest.raises(TypeError):
            hash(x)
    with pytest.raises(GraphError, match="its id and ends must be strings"):
        fg.Graph(["v"], [fg.EdgeFamily(["e"], "v", "v")])


def test_equal_fields_of_other_types_compare_as_tuples():
    # 1 == 1.0 and hash(1) == hash(1.0): equal, one hash, as the field tuples
    a, b = fg.Arrow(POINT, 1, POINT), fg.Arrow(POINT, 1.0, POINT)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("build, message", [
    (lambda: fg.EdgeFamily("e", "v", "w", "many"),
     "family 'e' has multiplicity 'many', not 'single' or 'omega'"),
    (lambda: fg.TemplateFamily("f", "v", "w", "up"),
     "family 'f' has where 'up', not 'same' or 'next'"),
    (lambda: fg.TemplateFamily("f", "v", "w", "same", True),
     "family 'f' has src_level True, not an integer"),
    (lambda: fg.BratteliDiagram(5, (), None), "levels must be a list, not 5"),
    (lambda: fg.BratteliDiagram(((),), (), None), "every level must be nonempty"),
    (lambda: fg.BratteliDiagram((("a",), ("b",)), (), None),
     "need exactly one edge set between consecutive levels"),
    (lambda: fg.BratteliDiagram((("a",), ("b",)), ((("a", "c"),),), None),
     "edge range 'c' not on level 1"),
    (lambda: fg.BratteliDiagram((("a",), ("b",)), ((("x", "b"),),), None),
     "edge source 'x' not on level 0"),
    (lambda: fg.BratteliDiagram((("v", "s"), ("u",), ("u",)), ((("v", "u"),), (("u", "u"),)),
                                (1, 1)),
     "level 0 has a sink inside the declared levels"),
    (lambda: fg.BratteliDiagram(LEVELED, DIAGRAM.edges, (1, 1.0)),
     "a repeat rule must be a (from, period) pair of integers"),
    (lambda: fg.BratteliDiagram(LEVELED, DIAGRAM.edges, (0, 1)),
     "with a repeat rule the declared levels must be 0..from+period, "
     "the last one repeating level 'from'"),
    (lambda: fg.GammaElement(DIAGRAM, -1, {}), "level -1 is not declared"),
    (lambda: fg.GammaElement(DIAGRAM, 1, []), "a mapping must be a dict from paths to paths"),
    (lambda: fg.GammaElement(DIAGRAM, 1, {P: Q}), "images do not form a permutation"),
    (lambda: fg.GammaElement(DIAGRAM, 1, {P: R, R: P}),
     "permutation must preserve the range vertex"),
])
def test_validation_messages(build, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        build()


def test_gamma_element_keeps_its_normalisation():
    x = fg.GammaElement(DIAGRAM, 1, {P: Q, Q: P, R: R})
    assert x.mapping == {P: Q, Q: P} and x == fg.GammaElement(DIAGRAM, 1, {Q: P, P: Q})
    assert hash(x) == hash((DIAGRAM, 1, frozenset({P: Q, Q: P}.items())))


def test_bratteli_diagram_keeps_its_normalisation():
    b = fg.BratteliDiagram([list(level) for level in LEVELED],
                           [[list(e) for e in eset] for eset in DIAGRAM.edges], (1, 1))
    assert b.levels == LEVELED and b.edges == DIAGRAM.edges and b == DIAGRAM
    assert b.underlying_graph() is b._graph == DIAGRAM.underlying_graph()
