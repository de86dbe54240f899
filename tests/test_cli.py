import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import fullgroups as fg
from fullgroups.cli import main

from conftest import (
    make_doubling_diagram,
    make_e2,
    make_e_inf,
    make_gamma2_diagram,
    make_leveled_chain_graph,
    make_one_orbit,
    make_two_vertex_omega,
    random_table,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    out = {
        "e2": write("e2.graph", fg.graph_to_json(make_e2())),
        "einf": write("einf.graph", fg.graph_to_json(make_e_inf())),
        "one_orbit": write("oo.graph", fg.graph_to_json(make_one_orbit())),
        "two_vertex": write("tv.graph", fg.graph_to_json(make_two_vertex_omega())),
        "leveled": write("lev.graph", fg.graph_to_json(make_leveled_chain_graph())),
        "gamma2": write("g2.bratteli", fg.bratteli_to_json(make_gamma2_diagram())),
        "swap": write("swap.table", {"pieces": [
            {"mu": "v:a", "F": [], "lambda": "v:b"},
            {"mu": "v:b", "F": [], "lambda": "v:a"},
        ]}),
        "baker": write("baker.table", {"pieces": [
            {"mu": "v:a,a", "F": [], "lambda": "v:a"},
            {"mu": "v:a,b", "F": [], "lambda": "v:b,a"},
            {"mu": "v:b", "F": [], "lambda": "v:b,b"},
        ]}),
        "dir": tmp_path,
    }
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_cli(argv):
    """Run the CLI as a subprocess; returns (exit code, stdout, stderr)."""
    src = str(pathlib.Path(fg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "fullgroups.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    return proc.returncode, proc.stdout, proc.stderr


class TestAnalyze:
    def test_one_orbit_report(self, files, capsys):
        code, out, err = run(capsys, "analyze", files["one_orbit"])
        assert code == 0
        rep = json.loads(out)
        assert rep["L"]["holds"] is True
        assert rep["cofinal"]["holds"] is False
        assert rep["minimal"]["holds"] is False

    def test_leveled(self, files, capsys):
        code, out, _ = run(capsys, "analyze", files["leveled"])
        assert code == 0
        assert json.loads(out)["L"]["holds"] is True

    @pytest.mark.parametrize("name", ["w{}{}", "w{}{", "w{}}", "w{0}{}"])
    def test_leveled_name_with_more_braces(self, files, tmp_path, name):
        """Only the first ``{}`` of a template takes the level number."""
        text = pathlib.Path(files["leveled"]).read_text().replace('"w{}"', json.dumps(name))
        assert json.dumps(name) in text
        bad = tmp_path / "braces.graph"
        bad.write_text(text)
        code, out, err = _run_cli(["analyze", str(bad)])
        assert (code, err) == (0, "")
        assert json.loads(out)["L"]["holds"] is True
        g = fg.graph_from_json(json.loads(text))
        for i in range(1, 13):
            v = g.vertex_by_index(i)
            assert g.vertex_index(v) == i
            for fam in g.out_families(v):
                assert g.family(fam.id) == fam

    @pytest.mark.parametrize("graph", [
        {"kind": "leveled", "block_levels": [["w{}"]],
         "block_edges": [{"id": "f{}@x", "src": "w{}", "rng": "w{}"}]},
        {"vertices": ["v", "a:b"], "edges": [{"id": "x,y", "src": "v", "rng": "a:b"}]},
        {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "rng": "v"},
                                      {"id": "f[1]", "src": "v", "rng": "v"}]},
    ], ids=["leveled-id-not-read-back", "literal-separators", "brackets-in-id"])
    def test_names_that_do_not_read_back_are_refused(self, tmp_path, capsys, graph):
        """Every instantiated name must parse back, and every name must be
        writable in a path literal."""
        bad = tmp_path / "bad.graph"
        bad.write_text(json.dumps(graph))
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["code"] == "bad-graph"


class TestValidate:
    def test_graph(self, files, capsys):
        assert run(capsys, "validate", files["e2"])[0] == 0

    def test_table(self, files, capsys):
        code, out, _ = run(capsys, "validate", files["swap"], "--kind", "table",
                           "--graph", files["e2"])
        assert code == 0

    def test_bratteli(self, files, capsys):
        assert run(capsys, "validate", files["gamma2"], "--kind", "bratteli")[0] == 0

    def test_bratteli_with_a_reserved_name(self, tmp_path, capsys):
        """A block name the underlying leveled graph refuses is refused on
        parsing, not by the first command that builds the graph."""
        bad = tmp_path / "at.bratteli"
        bad.write_text(json.dumps({"levels": [["v"], ["x@1"], ["x@1"]],
                                   "edges": [[["v", "x@1"]], [["x@1", "x@1"]] * 2],
                                   "repeat": {"from": 1, "period": 1}}))
        code, out, err = run(capsys, "validate", str(bad), "--kind", "bratteli")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "code": "parse-error", "message": "reserved character in block vertex 'x@1'"}

    @pytest.mark.parametrize("kind, data, message", [
        ("bratteli", {"levels": [["r"], ["x", "y"], ["x", "y"]],
                      "edges": [[["r", "x"], ["r", "y"]], [["x", "x"], ["y", "y"]]],
                      "repeat": {"from": 0, "period": 1}},
         "with a repeat rule the declared levels must be 0..from+period, "
         "the last one repeating level 'from'"),
        ("bratteli", {"levels": [["r"], ["x"]], "edges": [[["x", "x"]]]},
         "edge source 'x' not on level 0"),
        ("bratteli", {"levels": [["r"], ["x"]], "edges": [[["r", "x", "x"]]]},
         "diagram 'edges' must be a list of lists of [source, range] pairs"),
        ("graph", {"kind": "leveled", "base_levels": [], "block_levels": ["w"],
                   "base_edges": [], "block_edges": []},
         "graph JSON: levels must be lists of lists of vertex names"),
    ])
    def test_reader_refusal_messages(self, tmp_path, capsys, kind, data, message):
        """The whole stderr line of a file the readers refuse: a weaker
        reader check would still refuse, but with another message."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", str(bad), "--kind", kind)
        assert (code, out) == (2, "")
        assert err == json.dumps({"error": {"code": "parse-error", "message": message}}) + "\n"

    def test_table_is_validated_once(self, files, capsys, monkeypatch):
        calls = []
        check = fg.tables.validate_table
        monkeypatch.setattr(fg.tables, "validate_table",
                            lambda t: calls.append(t) or check(t))
        code, out, _ = run(capsys, "validate", files["swap"], "--kind", "table",
                           "--graph", files["e2"])
        assert (code, json.loads(out)) == (0, {"ok": True})
        assert len(calls) == 1

    def test_bad_table_is_domain_error(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.table"
        bad.write_text(json.dumps({"pieces": [
            {"mu": "v:a", "F": [], "lambda": "v:b"}]}))
        code, out, err = run(capsys, "validate", str(bad), "--kind", "table",
                             "--graph", files["e2"])
        assert code == 1
        assert json.loads(err)["error"]["code"] == "bad-table"


class TestTableCommands:
    def test_compose_swap_swap_is_identity(self, files, capsys):
        code, out, _ = run(capsys, "compose", files["swap"], files["swap"],
                           "--graph", files["e2"])
        assert code == 0
        assert json.loads(out) == {"pieces": []}

    def test_invert_roundtrip(self, files, capsys):
        code, out, _ = run(capsys, "invert", files["baker"], "--graph", files["e2"])
        assert code == 0
        pieces = json.loads(out)["pieces"]
        assert {"mu": "v:a", "F": [], "lambda": "v:a,a"} in pieces

    def test_apply(self, files, capsys):
        code, out, _ = run(capsys, "apply", files["baker"], "--graph", files["e2"],
                           "--point", "v:a / (b)")
        assert code == 0
        assert json.loads(out) == {"point": "v:a,a / (b)"}

    def test_apply_text_format(self, files, capsys):
        code, out, _ = run(capsys, "apply", files["baker"], "--graph", files["e2"],
                           "--point", "v:a / (b)", "--format", "text")
        assert code == 0
        assert out == "v:a,a / (b)\n"

    def test_apply_json_format(self, files, capsys):
        code, out, _ = run(capsys, "apply", files["baker"], "--graph", files["e2"],
                           "--point", "v:a / (b)", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"point": "v:a,a / (b)"}

    def test_embed_with_labeling_file(self, files, capsys, tmp_path):
        labfile = tmp_path / "lab.json"
        labfile.write_text(json.dumps({"edges": {"v": ["b", "a"]}}))
        code, out, _ = run(capsys, "embed", files["swap"], "--graph", files["e2"],
                           "--labeling", str(labfile))
        assert code == 0
        pieces = json.loads(out)["pieces"]
        assert {"mu": "v:a", "F": [], "lambda": "v:b"} in pieces

    def test_support(self, files, capsys):
        code, out, _ = run(capsys, "support", files["swap"], "--graph", files["e2"])
        assert code == 0
        assert json.loads(out) == [{"mu": "v:", "F": []}]

    def test_germ_eq(self, files, capsys):
        code, out, _ = run(capsys, "germ-eq", files["swap"], files["baker"],
                           "--graph", files["e2"])
        assert code == 0
        assert json.loads(out) == {"equal": False}

    def test_embed(self, files, capsys):
        code, out, _ = run(capsys, "embed", files["swap"], "--graph", files["e2"])
        assert code == 0
        assert len(json.loads(out)["pieces"]) == 2


class TestEmit:
    def test_einf_golden(self, files, capsys):
        code, out, _ = run(capsys, "emit", files["einf"], "--bound", "10")
        assert code == 0
        assert out == (GOLDEN / "emit_einf.txt").read_text()

    def test_two_vertex_golden(self, files, capsys):
        code, out, _ = run(capsys, "emit", files["two_vertex"], "--bound", "10")
        assert code == 0
        assert out == (GOLDEN / "emit_two_vertex.txt").read_text()

    def test_leveled_golden(self, files, capsys):
        code, out, _ = run(capsys, "emit", files["leveled"], "--bound", "6")
        assert code == 0
        assert out == (GOLDEN / "emit_leveled_f.txt").read_text()

    def test_both_formats(self, files, capsys):
        argv = ["emit", files["einf"], "--bound", "10", "--format"]
        code, out, _ = run(capsys, *argv, "text")
        assert code == 0
        assert out == (GOLDEN / "emit_einf.txt").read_text()
        code, out, _ = run(capsys, *argv, "json")
        assert code == 0
        assert set(json.loads(out)) == {"vertices", "edges"}

    def test_vertex_labeling(self, files, capsys, tmp_path):
        labfile = tmp_path / "lab.json"
        labfile.write_text(json.dumps({"vertices": ["w2", "w1"]}))
        argv = [files["two_vertex"], "--bound", "3", "--labeling", str(labfile)]
        code, out, _ = run(capsys, "emit", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["vertices"] == {"w2": ["b", "b"], "w1": ["a", "a"]}
        code, out, _ = run(capsys, "ck-check", *argv)
        assert code == 0
        assert json.loads(out) == {"ok": True, "failures": []}

    def test_emit_to_file_deterministic(self, files, capsys, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        assert run(capsys, "emit", files["two_vertex"], "--out", str(out1))[0] == 0
        assert run(capsys, "emit", files["two_vertex"], "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_emit_rejects_inadmissible(self, files, capsys, tmp_path):
        bad = tmp_path / "sink.graph"
        bad.write_text(json.dumps({"vertices": ["v", "s"], "edges": [
            {"id": "a", "src": "v", "rng": "s", "mult": "1"},
            {"id": "b", "src": "v", "rng": "v", "mult": "1"}]}))
        code, _, err = run(capsys, "emit", str(bad))
        assert code == 1
        assert json.loads(err)["error"]["code"] == "not-admissible"


class TestCkCheck:
    def test_einf(self, files, capsys):
        code, out, _ = run(capsys, "ck-check", files["einf"], "--bound", "5")
        assert code == 0
        assert json.loads(out) == {"ok": True, "failures": []}

    @pytest.mark.parametrize("command", ["emit", "ck-check"])
    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_one_is_refused(self, files, command, bound):
        code, out, err = _run_cli([command, files["leveled"], "--bound", bound])
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == {"code": "bad-graph",
                                             "message": "edge bound must be at least 1"}


class TestBratteli:
    def test_order(self, files, capsys):
        code, out, _ = run(capsys, "bratteli-order", files["gamma2"], "--level", "1")
        assert code == 0
        assert json.loads(out) == {"order": 2}

    def test_embed_element(self, files, capsys, tmp_path):
        b = make_gamma2_diagram()
        g = b.underlying_graph()
        el = next(e for e in b.gamma_elements(1) if not e.is_identity())
        images = {fg.format_path(g, p): fg.format_path(g, q)
                  for p, q in el.mapping.items() if p != q}
        elfile = tmp_path / "el.json"
        elfile.write_text(json.dumps({"level": 1, "images": images}))
        code, out, _ = run(capsys, "bratteli-embed", files["gamma2"],
                           "--element", str(elfile))
        assert code == 0
        vt = fg.table_from_json(fg.E2, json.loads(out))
        assert not fg.is_identity(vt)
        assert fg.is_identity(fg.compose(vt, vt))

    @pytest.mark.parametrize("images", [[], 0, "", False, None])
    def test_embed_refuses_images_that_are_not_an_object(self, files, capsys, tmp_path,
                                                         images):
        elfile = tmp_path / "el.json"
        elfile.write_text(json.dumps({"level": 1, "images": images}))
        code, out, err = run(capsys, "bratteli-embed", files["gamma2"],
                             "--element", str(elfile))
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == {
            "code": "parse-error",
            "message": "element 'images' must map path literals to path literals"}

    def test_brace_block_name(self, capsys, tmp_path):
        """A ``{}`` block vertex is named by its level number in paths."""
        diagram = tmp_path / "braces.bratteli"
        diagram.write_text(json.dumps({
            "levels": [["v"], ["x{}"], ["x{}"]],
            "edges": [[["v", "x{}"]], [["x{}", "x{}"], ["x{}", "x{}"]]],
            "repeat": {"from": 1, "period": 1}}))
        code, out, _ = run(capsys, "bratteli-order", str(diagram), "--level", "2")
        assert (code, json.loads(out)) == (0, {"order": 2})
        elfile = tmp_path / "swap.json"
        elfile.write_text(json.dumps({"level": 2, "images": {
            "v:e1_1,e2_1@0": "v:e1_1,e2_2@0", "v:e1_1,e2_2@0": "v:e1_1,e2_1@0"}}))
        code, out, err = run(capsys, "bratteli-embed", str(diagram), "--element", str(elfile))
        assert (code, err) == (0, "")
        vt = fg.table_from_json(fg.E2, json.loads(out))
        assert not fg.is_identity(vt) and fg.is_identity(fg.compose(vt, vt))


class TestBratteliBounds:
    def test_order_past_the_digit_limit_is_refused(self, tmp_path):
        diagram = tmp_path / "doubling.bratteli"
        diagram.write_text(json.dumps(fg.bratteli_to_json(make_doubling_diagram())))
        code, out, err = _run_cli(["bratteli-order", str(diagram), "--level", "11"])
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == {
            "code": "bad-graph",
            "message": "the order at level 11 has more than 4300 decimal digits"}
        code, out, err = _run_cli(["bratteli-order", str(diagram), "--level", "10"])
        assert (code, err) == (0, "")
        # two fibers of 2**9 paths each
        assert out == '{\n  "order": ' + str(math.factorial(512) ** 2) + "\n}\n"

    @pytest.mark.parametrize("level", ["100000", "100000000000000000000"])
    def test_deep_order_is_refused_at_once(self, tmp_path, level):
        diagram = tmp_path / "doubling.bratteli"
        diagram.write_text(json.dumps(fg.bratteli_to_json(make_doubling_diagram())))
        start = time.perf_counter()
        code, out, err = _run_cli(["bratteli-order", str(diagram), "--level", level])
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["message"] == (
            f"the order at level {level} has more than 4300 decimal digits")

    @pytest.mark.parametrize("targets, order", [(["u", "w"], 1), (["u", "u"], 2)])
    def test_deep_order_of_fibers_that_stop_growing(self, tmp_path, targets, order):
        """The fibers settle into a cycle of the block, which is skipped whole."""
        diagram = tmp_path / "flat.bratteli"
        diagram.write_text(json.dumps({
            "levels": [["v0"], ["u", "w"], ["u", "w"]],
            "edges": [[["v0", t] for t in targets], [["u", "w"], ["w", "u"]]],
            "repeat": {"from": 1, "period": 1}}))
        start = time.perf_counter()
        code, out, err = _run_cli(["bratteli-order", str(diagram),
                                   "--level", "100000000000000000000"])
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert json.loads(out) == {"order": order}

    @pytest.mark.parametrize("moved", [False, True], ids=["identity", "two-cycle"])
    def test_embed_deep_element_without_building_the_fibers(self, tmp_path, moved):
        diagram = tmp_path / "doubling.bratteli"
        diagram.write_text(json.dumps(fg.bratteli_to_json(make_doubling_diagram())))
        # two of the 2**39 level-40 paths into u@39
        tail = ",".join(f"e2_1@{k}" for k in range(1, 39))
        p, q = f"v0:e1_1,e2_1@0,{tail}", f"v0:e1_2,e2_3@0,{tail}"
        element = tmp_path / "el.json"
        element.write_text(json.dumps({"level": 40, "images": {p: q, q: p} if moved else {}}))
        start = time.perf_counter()
        code, out, err = _run_cli(["bratteli-embed", str(diagram), "--element", str(element)])
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        vt = fg.table_from_json(fg.E2, json.loads(out))
        assert fg.is_identity(vt) != moved
        assert fg.is_identity(fg.compose(vt, vt))


class TestHashSeed:
    def test_same_output_under_any_hash_seed(self, files, tmp_path):
        """Table products, germ equality, embeddings, supports and the golden
        emits print the same bytes whatever the hash seed; ``analyze`` is
        left out, its cofinality witness is not yet free of it."""
        rng = random.Random(3)
        argvs = [["emit", files["einf"], "--bound", "10"],
                 ["emit", files["two_vertex"], "--bound", "10"],
                 ["emit", files["leveled"], "--bound", "6"]]
        for name in ("e2", "one_orbit", "two_vertex", "einf"):
            g = fg.graph_from_json(json.loads(pathlib.Path(files[name]).read_text()))
            tables = []
            for k in range(3):
                t = tmp_path / f"{name}{k}.table"
                t.write_text(json.dumps(fg.table_to_json(
                    random_table(g, rng, splits=12, omega_bound=3))))
                tables.append(str(t))
            graph = ["--graph", files[name]]
            argvs += [["compose", tables[0], tables[1], *graph],
                      ["compose", tables[1], tables[2], *graph],
                      ["germ-eq", tables[0], tables[1], *graph],
                      ["germ-eq", tables[2], tables[2], *graph],
                      *(["embed", t, *graph] for t in tables),
                      *(["support", t, *graph] for t in tables)]
        script = ("import json, sys\n"
                  "from fullgroups.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    if main(argv):\n"
                  "        sys.exit(f'failed: {argv}')\n")
        src = str(pathlib.Path(fg.__file__).resolve().parents[1])
        outs = []
        for seed in ("0", "1", "2"):
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                                  capture_output=True, text=True, timeout=120, check=True,
                                  env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src))
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2]
        assert outs[0].startswith((GOLDEN / "emit_einf.txt").read_text())
        assert outs[0].count('"pieces"') == 4 * 5


class TestErrorsAndRoundtrips:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert json.loads(err)["error"]["code"] == "parse-error"

    def test_a_table_with_an_empty_atom_is_a_parse_error(self, files, capsys):
        bad = files["dir"] / "empty.table"
        bad.write_text(json.dumps({"pieces": [{"mu": "v:", "F": ["a", "b"], "lambda": "v:"}]}))
        code, out, err = run(capsys, "validate", str(bad), "--kind", "table",
                             "--graph", files["e2"])
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert json.loads(err)["error"]["code"] == "parse-error"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent.graph")
        assert code == 2

    def test_unreadable_path_is_parse_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "analyze", str(tmp_path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["code"] == "parse-error"

    @pytest.mark.parametrize("kind, payload", [
        ("element", {"level": "x", "images": {}}),
        ("element", {"level": 1.9, "images": {}}),
        ("element", {"level": True, "images": {}}),
        ("element", {"level": "1", "images": {}}),
        ("element", {"level": 1, "images": ["v0:e1_1"]}),
        ("graph", {"vertices": 5, "edges": []}),
        *(("graph", {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "rng": "v",
                                                   "mult": m}]}) for m in ("Omega", 2)),
        *(("graph", {"kind": "leveled", "block_levels": [["w{}"]], "block_edges": [
            {"id": "e{}", "src": "w{}", "rng": "w{}", k: x}]})
          for k, x in (("where", "sideways"), ("where", 5), ("src_level", True),
                       ("src_level", "1"))),
        ("table", {"pieces": 5}),
        ("table", {"pieces": [{"mu": 5, "F": [], "lambda": "v:a"}]}),
        ("bratteli", {"levels": 5, "edges": []}),
        ("bratteli", {"levels": [["v"], ["u"]], "edges": [[["v"]]]}),
        ("bratteli", dict(fg.bratteli_to_json(make_gamma2_diagram()),
                          repeat={"from": 1.7, "period": True})),
        ("bratteli", dict(fg.bratteli_to_json(make_gamma2_diagram()),
                          repeat={"from": "1", "period": 1})),
        ("labeling", {"vertices": 5}),
        ("labeling", {"edges": ["a"]}),
        ("labeling", {"edges": {"zz": ["a", "b"]}}),
        ("labeling", {"vertices": []}),
    ], ids=["element-level", "element-float-level", "element-bool-level",
            "element-string-level", "element-images", "graph-vertices", "graph-mult-case",
            "graph-mult-int", "graph-where-word", "graph-where-int", "graph-bool-src-level",
            "graph-string-src-level", "table-pieces",
            "piece-mu", "bratteli-levels", "bratteli-edge-pair", "bratteli-float-repeat",
            "bratteli-string-repeat", "labeling-vertices", "labeling-edges",
            "labeling-unknown-vertex", "labeling-empty-vertices"])
    def test_malformed_shape_is_parse_error(self, files, tmp_path, kind, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        argv = {"element": ["bratteli-embed", files["gamma2"], "--element", str(bad)],
                "graph": ["analyze", str(bad)],
                "table": ["invert", str(bad), "--graph", files["e2"]],
                "bratteli": ["bratteli-order", str(bad), "--level", "1"],
                "labeling": ["emit", files["e2"], "--labeling", str(bad)]}[kind]
        code, out, err = _run_cli(argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["code"] == "parse-error"

    @pytest.mark.parametrize("content, message", [
        (b'\xff\xfe{"vertices": []}', "not UTF-8 text (byte 0)"),
        (b"[" * 100000, "JSON nested too deeply"),
        (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
    ], ids=["not-utf8", "deep-unclosed", "deep-closed"])
    @pytest.mark.parametrize("role", ["graph", "table"])
    def test_unreadable_json_is_parse_error(self, files, tmp_path, content, message, role):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = {"graph": ["analyze", str(bad)],
                "table": ["invert", str(bad), "--graph", files["e2"]]}[role]
        code, out, err = _run_cli(argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == {"code": "parse-error",
                                             "message": f"{bad}: {message}"}

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_parse_error(self, files, target):
        out = {"missing-dir": str(files["dir"] / "no-such-dir" / "x.json"),
               "directory": str(files["dir"])}[target]
        code, stdout, err = _run_cli(["compose", files["swap"], files["swap"],
                                      "--graph", files["e2"], "--out", out])
        assert code == 2
        assert stdout == ""
        assert "Traceback" not in err
        (line,) = err.splitlines()
        message = json.loads(line)["error"]["message"]
        assert message.startswith(f"cannot write {out}: ")

    @pytest.mark.parametrize("argv, message", [
        (["compose", "t.json"], "the following arguments are required: table2, --graph"),
        (["emit", "g.json", "--bound", "abc"], "argument --bound: invalid int value: 'abc'"),
        (["bratteli-order", "d.json", "--level", "x"],
         "argument --level: invalid int value: 'x'"),
        (["no-such-command"], "argument command: invalid choice: 'no-such-command'"),
        (["compose", "s.json", "t.json", "--graph", "g.json", "--format", "text"],
         "unrecognized arguments: --format text"),
    ], ids=["missing-argument", "bad-bound", "bad-level", "unknown-command",
            "format-not-read"])
    def test_usage_error_is_one_json_line(self, argv, message):
        code, out, err = _run_cli(argv)
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert error["code"] == "parse-error"
        assert error["message"].startswith(message)

    @pytest.mark.parametrize("argv", [["-h"], ["compose", "-h"]], ids=["top", "command"])
    def test_help_goes_to_stdout(self, argv):
        code, out, err = _run_cli(argv)
        assert code == 0
        assert out.startswith("usage: fullgroups")
        assert err == ""

    @pytest.mark.parametrize("value", ["+1", "01", "1_0", " 1", "١"],
                             ids=["plus", "leading-zero", "underscore", "space", "arabic-indic"])
    @pytest.mark.parametrize("command, option", [
        ("emit", "--bound"), ("ck-check", "--bound"), ("bratteli-order", "--level"),
    ], ids=["emit", "ck-check", "bratteli-order"])
    def test_an_integer_option_has_one_spelling(self, files, capsys, command, option, value):
        # int() reads each of these as 1 (or 10); str(int) writes none of them
        graph = files["gamma2" if option == "--level" else "leveled"]
        code, out, err = run(capsys, command, graph, option, value)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == {
            "code": "parse-error", "message": f"argument {option}: invalid int value: {value!r}"}

    def test_negative_level_is_refused(self, files):
        code, out, err = _run_cli(["bratteli-order", files["gamma2"], "--level", "-1"])
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["message"] == "level -1 is not declared"

    def test_outputs_reparse(self, files, capsys):
        code, out, _ = run(capsys, "compose", files["baker"], files["baker"],
                           "--graph", files["e2"])
        assert code == 0
        t = fg.table_from_json(make_e2(), json.loads(out))
        assert len(t.pieces) == 4

    def test_determinism(self, files, capsys):
        a = run(capsys, "analyze", files["one_orbit"])[1]
        b = run(capsys, "analyze", files["one_orbit"])[1]
        assert a == b
