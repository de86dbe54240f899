"""The public surface of ``fullgroups`` and the README's library sketch."""
import pathlib
import re
import types

import fullgroups as fg

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "Arrow", "BoundaryPoint", "BratteliDiagram", "CompactOpen", "CylinderAtom", "E2",
    "EdgeFamily", "FinitePath", "GammaElement", "GeneratorImage", "Graph", "Labeling",
    "LeveledGraph", "Monomial", "OMEGA", "Piece", "Table", "TemplateFamily", "Verdict",
    "af_to_v", "apply", "arrow_consistent", "atom", "binary_path", "binary_point",
    "bratteli_from_json", "bratteli_to_json", "canonicalize", "check_cofinal",
    "check_condition_K", "check_condition_L", "check_condition_T", "check_condition_W",
    "check_condition_infinity", "check_minimal", "check_strongly_connected", "ck_check",
    "co_contains_point", "co_equals", "co_from_json", "co_intersect", "co_make",
    "co_subtract", "co_to_json", "co_union", "code_word", "commutator", "compose", "concat",
    "condition_report", "contains_arrow", "count_paths_capped", "default_labeling",
    "degenerate_vertices", "embed_table", "emit_generators", "extend", "finite_point",
    "format_arrow", "format_generator_image", "format_path", "format_point", "full_space",
    "gamma_element_from_json", "gamma_to_table", "germ_equal", "graph_from_json",
    "graph_to_json", "has_semi_tails", "has_sinks", "identity", "inverse", "involution_hat",
    "is_identity", "isolated_point_witnesses", "make_path", "make_piece", "make_table",
    "parse_arrow", "parse_path", "parse_point", "periodic_point", "point_in_atom",
    "point_map", "reaches", "require_admissible", "shift_point", "support",
    "table_from_json", "table_image", "table_to_json", "tail_equivalent",
    "transposition_for_arrow", "trivial_path", "validate_table", "witness_point",
    "word_of_path", "word_of_vertex",
]


def test_public_names():
    """Any change to the exported names shows in this list."""
    names = sorted(n for n in dir(fg)
                   if not n.startswith("_") and not isinstance(getattr(fg, n), types.ModuleType))
    assert names == PUBLIC_NAMES


def test_readme_library_sketch_runs(capsys):
    sketch = README.read_text().split("\n## Library sketch\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", sketch, re.S | re.M).group(1)
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    assert fg.is_identity(fg.compose(ns["swap"], ns["swap"]))
    assert capsys.readouterr().out == fg.format_generator_image(
        fg.emit_generators(ns["g"], ns["lab"])) + "\n"
