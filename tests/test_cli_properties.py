"""The CLI on mutated valid files: every command returns 0, 1 or 2, raises
nothing, writes at most one line on stderr, and finishes within a timer."""

import contextlib
import copy
import io
import json
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

import fullgroups as fg
from fullgroups.cli import main

from conftest import (
    make_e2,
    make_e_inf,
    make_gamma2_diagram,
    make_gamma24_diagram,
    make_leveled_chain_graph,
    make_one_orbit,
    make_two_vertex_omega,
)

SECONDS = 2  # per run: a hang fails its example instead of stalling the suite


def _graph_files(g, seed):
    rnd = random.Random(seed)
    tables = [fg.table_to_json(fg.random_table(g, rnd, splits=4, omega_bound=2))
              for _ in "st"]
    v = g.vertices[0]
    loop = next(f for f in g.out_families(v) if f.range == v)
    point = fg.periodic_point(g, fg.trivial_path(g, v), fg.make_path(g, v, [(loop.id, 1)]))
    return {"graph": fg.graph_to_json(g), "table": tables[0], "table2": tables[1],
            "labeling": {"edges": {v: [f.id for f in reversed(g.out_singles(v))]}},
            "point": fg.format_point(g, point)}


def _diagram_files(b, level):
    g = b.underlying_graph()
    paths = max(b.fibers(level).values(), key=len)
    images = {fg.format_path(g, p): fg.format_path(g, q)
              for p, q in zip(paths, paths[1:] + paths[:1])}
    return {"diagram": fg.bratteli_to_json(b), "element": {"level": level, "images": images}}


_GRAPHS = [_graph_files(g, k) for k, g in enumerate(
    (make_e2(), make_e_inf(), make_two_vertex_omega(), make_one_orbit()))]
_LEVELED = {"graph": fg.graph_to_json(make_leveled_chain_graph())}
_DIAGRAMS = [_diagram_files(make_gamma2_diagram(), 2), _diagram_files(make_gamma24_diagram(), 3)]

# argv templates: a name in braces is a file, or the point literal
_COMMANDS = [
    (["analyze", "{graph}"], "graph"),
    (["validate", "{graph}"], "graph"),
    (["validate", "{table}", "--kind", "table", "--graph", "{graph}"], "table"),
    (["compose", "{table}", "{table2}", "--graph", "{graph}"], "table"),
    (["invert", "{table}", "--graph", "{graph}"], "table"),
    (["support", "{table}", "--graph", "{graph}"], "table"),
    (["germ-eq", "{table}", "{table2}", "--graph", "{graph}"], "table"),
    (["embed", "{table}", "--graph", "{graph}", "--labeling", "{labeling}"], "table"),
    (["apply", "{table}", "--graph", "{graph}", "--point", "{point}"], "table"),
    (["emit", "{graph}", "--labeling", "{labeling}", "--bound", "{bound}"], "table"),
    (["ck-check", "{graph}", "--bound", "{bound}"], "graph"),
    (["validate", "{diagram}", "--kind", "bratteli"], "diagram"),
    (["bratteli-order", "{diagram}", "--level", "{level}"], "diagram"),
    (["bratteli-embed", "{diagram}", "--element", "{element}"], "diagram"),
]

_JUNK = st.sampled_from([None, True, 5, -1, 1.5, "x", "", [], {}, ["x"], {"x": 1}])
_SUFFIX = st.sampled_from([",x", "@1", "[3]"])


def _spots(doc):
    """``(container, key)`` of every value inside ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _spots(value)


@st.composite
def _mutated(draw, doc):
    """``doc`` with a value dropped, replaced by one of a wrong type or a
    huge integer, or a name or key given an extra edge, repeat or index."""
    if isinstance(doc, str):  # the point literal
        return doc + draw(_SUFFIX)
    doc = copy.deepcopy(doc)
    spots = list(_spots(doc))
    if not spots:
        return draw(_JUNK)
    box, key = draw(st.sampled_from(spots))
    op = draw(st.sampled_from(["drop", "type", "name", "key", "huge"]))
    if op == "drop":
        del box[key]
    elif op == "name" and isinstance(box[key], str):
        box[key] += draw(_SUFFIX)
    elif op == "key" and isinstance(box, dict):
        box[key + draw(_SUFFIX)] = box.pop(key)
    elif op == "huge":
        box[key] = draw(st.sampled_from([10**30, -10**30, 2**63]))
    else:
        box[key] = draw(_JUNK)
    return doc


@st.composite
def _runs(draw):
    template, kind = draw(st.sampled_from(_COMMANDS))
    pool = {"graph": _GRAPHS + [_LEVELED], "table": _GRAPHS, "diagram": _DIAGRAMS}[kind]
    files = dict(draw(st.sampled_from(pool)))
    used = [n for n in files if f"{{{n}}}" in template]
    if "element" in used and draw(st.booleans()):
        files["element"] = dict(files["element"],
                                level=draw(st.sampled_from([10**6, 2**63, 10**30])))
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(used))
        files[name] = draw(_mutated(files[name]))
    files["bound"] = draw(st.integers(-1, 6))
    files["level"] = draw(st.integers(-2, 64) | st.sampled_from([10**6, 2**63, 10**30]))
    return template, files


def _call(argv):
    def hang(signum, frame):
        raise AssertionError(f"{argv} ran for more than {SECONDS} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-properties")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the timer needs SIGALRM")
def test_no_traceback_on_mutated_files(workdir):
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(_runs())
    def check(run):
        template, files = run
        argv = []
        for arg in template:
            name = arg[1:-1] if arg.startswith("{") else None
            if name in ("point", "bound", "level"):
                arg = str(files[name])
            elif name is not None:
                arg = str(workdir / f"{name}.json")
                (workdir / f"{name}.json").write_text(json.dumps(files[name]))
            argv.append(arg)
        code, out, err = _call(argv)
        assert code in (0, 1, 2)
        if code:
            assert out == ""
            (line,) = err.splitlines()
            assert json.loads(line)["error"]["code"]
        else:
            assert err == ""

    check()
