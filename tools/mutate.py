"""Mutation testing of one module of the toolkit, stdlib only.

    python3 tools/mutate.py src/fullgroups/tables.py --seed 1 --count 30 \\
        --tests tests/test_tables.py tests/test_acceptance.py
    python3 tools/mutate.py src/fullgroups/graph.py --seed 1 --count 40 \\
        --within _Record --within EdgeFamily --tests tests/test_values.py

Each mutant makes one change to the module's syntax tree and is written back
with ``ast.unparse``:
- a comparison swapped: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``in``/``not in``, ``is``/``is not``;
- ``+``/``-`` and ``*``/``//``;
- an integer constant plus 1, ``True``/``False``;
- ``and``/``or``.

The sites are sampled with ``--seed``; ``--count`` bounds how many run.
``--within`` keeps the sites inside the named top-level functions or
classes.  Each mutant runs the ``--tests`` files with ``pytest -x`` in a
temporary copy of the repository; the working tree is never written.  The
module is first run unparsed but unmutated, and must pass; that run is
timed, and each mutant may take ``TIMEOUT_FACTOR`` times as long, but at
least ``MIN_TIMEOUT`` seconds.  One JSON line per mutant goes to stdout: the
site, the change, and ``killed`` (a test failed), ``timeout`` (past its time,
counted as killed) or ``survived``.  The last line on stderr is
killed/total.

A survivor is either equivalent (no input tells the two programs apart) or
shows a missing test: run it against all of tier-1 before deciding.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
# a mutant that loops forever is stopped after this many times the unmutated
# run, and never before MIN_TIMEOUT seconds
TIMEOUT_FACTOR = 5
MIN_TIMEOUT = 60.0

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}


def _sites(tree: ast.Module, within) -> list:
    """Every mutable site, in walk order: ``(node, slot, change)``.
    A comparison has one slot per operator; other nodes have slot 0."""
    tops = [n for n in tree.body if not within or getattr(n, "name", None) in within]
    out = []
    for top in tops:
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and isinstance(node.value, (bool, int)):
                if isinstance(node.value, bool):
                    change = f"{node.value} -> {not node.value}"
                else:
                    change = f"{node.value} -> {node.value + 1}"
                out.append((node, 0, change))
            elif isinstance(node, ast.Compare):
                out += [(node, k, f"{type(op).__name__} -> {_SWAPS[type(op)].__name__}")
                        for k, op in enumerate(node.ops)]
            elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in _SWAPS:
                out.append((node, 0, f"{type(node.op).__name__} -> "
                                     f"{_SWAPS[type(node.op)].__name__}"))
    return out


def _mutant(source: str, index: int, within) -> str:
    """The module with site ``index`` of ``_sites`` changed."""
    tree = ast.parse(source)
    node, slot, _ = _sites(tree, within)[index]
    if isinstance(node, ast.Constant):
        node.value = not node.value if isinstance(node.value, bool) else node.value + 1
    elif isinstance(node, ast.Compare):
        node.ops[slot] = _SWAPS[type(node.ops[slot])]()
    else:
        node.op = _SWAPS[type(node.op)]()
    return ast.unparse(tree)


def _run_tests(copy: pathlib.Path, tests, timeout) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="path of the module, e.g. src/fullgroups/tables.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True, help="at most this many mutants")
    ap.add_argument("--within", action="append", default=[],
                    help="keep sites inside this top-level function or class (repeatable)")
    ap.add_argument("--tests", nargs="+", required=True, help="test files to run")
    args = ap.parse_args(argv)

    module = pathlib.Path(args.module).resolve().relative_to(ROOT)
    source = (ROOT / module).read_text()
    sites = _sites(ast.parse(source), args.within)
    if not sites:
        print("no site to mutate: check the --within names", file=sys.stderr)
        return 2
    chosen = sorted(random.Random(args.seed).sample(range(len(sites)),
                                                    min(args.count, len(sites))))
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
        target = copy / module
        target.write_text(ast.unparse(ast.parse(source)))
        start = time.perf_counter()
        if _run_tests(copy, args.tests, None) != "survived":
            print("the unmutated module fails its tests; nothing to measure", file=sys.stderr)
            return 2
        timeout = max(MIN_TIMEOUT, TIMEOUT_FACTOR * (time.perf_counter() - start))
        killed = 0
        for index in chosen:
            node, _, change = sites[index]
            target.write_text(_mutant(source, index, args.within))
            start = time.perf_counter()
            outcome = _run_tests(copy, args.tests, timeout)
            killed += outcome != "survived"
            print(json.dumps({"module": str(module), "site": index, "line": node.lineno,
                              "col": node.col_offset, "change": change,
                              "code": ast.get_source_segment(source, node),
                              "outcome": outcome,
                              "seconds": round(time.perf_counter() - start, 1)}), flush=True)
    print(f"killed {killed}/{len(chosen)} of {len(sites)} sites", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
