"""Command-line front end over the file formats.

Exit codes: 0 success, 1 domain error, 2 parse error.  All structured output
is JSON with sorted keys so identical inputs give byte-identical results;
generator emission uses the fixed text grammar from the embed module.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bratteli as br
from . import embed as em
from . import graph as gr
from . import pathspace as ps
from . import tables as tb
from .errors import ParseError, ToolkitError


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc


def _load_graph(path: str):
    return gr.graph_from_json(_load_json(path))


def _load_table(path: str, g):
    return tb.table_from_json(g, _load_json(path))


def _load_labeling(path, g):
    return em.labeling_from_json(g, None if path is None else _load_json(path))


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _cmd_analyze(args):
    g = _load_graph(args.graph_file)
    _emit_json(args, gr.condition_report(g))


def _cmd_validate(args):
    kind = args.kind
    if kind == "graph":
        _load_graph(args.file)  # graph_from_json validates on construction
    elif kind == "table":
        if not args.graph:
            raise ParseError("validating a table needs --graph")
        _load_table(args.file, _load_graph(args.graph))  # table_from_json validates
    elif kind == "bratteli":
        br.bratteli_from_json(_load_json(args.file))
    _emit_json(args, {"ok": True})


def _cmd_compose(args):
    g = _load_graph(args.graph)
    s = _load_table(args.table1, g)
    t = _load_table(args.table2, g)
    _emit_json(args, tb.table_to_json(tb.compose(s, t)))


def _cmd_invert(args):
    g = _load_graph(args.graph)
    t = _load_table(args.table, g)
    _emit_json(args, tb.table_to_json(tb.inverse(t)))


def _cmd_apply(args):
    g = _load_graph(args.graph)
    t = _load_table(args.table, g)
    p = ps.parse_point(g, args.point)
    q = tb.apply(t, p)
    if args.format == "text":
        _emit(args, ps.format_point(g, q) + "\n")
    else:
        _emit_json(args, {"point": ps.format_point(g, q)})


def _cmd_support(args):
    g = _load_graph(args.graph)
    t = _load_table(args.table, g)
    _emit_json(args, ps.co_to_json(g, tb.support(t)))


def _cmd_germ_eq(args):
    g = _load_graph(args.graph)
    s = _load_table(args.table1, g)
    t = _load_table(args.table2, g)
    _emit_json(args, {"equal": tb.germ_equal(s, t)})


def _cmd_embed(args):
    g = _load_graph(args.graph)
    t = _load_table(args.table, g)
    lab = _load_labeling(args.labeling, g)
    _emit_json(args, tb.table_to_json(em.embed_table(t, lab)))


def _cmd_emit(args):
    g = _load_graph(args.graph_file)
    lab = _load_labeling(args.labeling, g)
    img = em.emit_generators(g, lab, args.bound)
    if args.format == "json":
        _emit_json(args, {
            "vertices": {v.vertex: [v.mono.alpha, v.mono.beta] for v in img.vertices},
            "edges": {e.name: [e.mono.alpha, e.mono.beta] for e in img.edges},
        })
    else:
        _emit(args, em.format_generator_image(img))


def _cmd_ck_check(args):
    g = _load_graph(args.graph_file)
    lab = _load_labeling(args.labeling, g)
    img = em.emit_generators(g, lab, args.bound)
    ok, failures = em.ck_check(g, img)
    _emit_json(args, {"ok": ok, "failures": failures})


def _cmd_bratteli_order(args):
    b = br.bratteli_from_json(_load_json(args.bratteli_file))
    _emit_json(args, {"order": b.gamma_order(args.level)})


def _cmd_bratteli_embed(args):
    b = br.bratteli_from_json(_load_json(args.bratteli_file))
    el = br.gamma_element_from_json(b, _load_json(args.element))
    _emit_json(args, tb.table_to_json(br.af_to_v(el)))


def _int_arg(text: str) -> int:
    """An integer option, in the one form ``str(int)`` writes; the library
    refuses a value out of its range."""
    if not gr._integer(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ``ParseError``, which ``main`` reports."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="fullgroups",
        description="Exact toolkit for topological full groups of graph groupoids.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None)
        return p

    p = add("analyze", _cmd_analyze)
    p.add_argument("graph_file")

    p = add("validate", _cmd_validate)
    p.add_argument("file")
    p.add_argument("--kind", choices=("graph", "table", "bratteli"), default="graph")
    p.add_argument("--graph", default=None)

    p = add("compose", _cmd_compose)
    p.add_argument("table1")
    p.add_argument("table2")
    p.add_argument("--graph", required=True)

    p = add("invert", _cmd_invert)
    p.add_argument("table")
    p.add_argument("--graph", required=True)

    p = add("apply", _cmd_apply)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("table")
    p.add_argument("--graph", required=True)
    p.add_argument("--point", required=True)

    p = add("support", _cmd_support)
    p.add_argument("table")
    p.add_argument("--graph", required=True)

    p = add("germ-eq", _cmd_germ_eq)
    p.add_argument("table1")
    p.add_argument("table2")
    p.add_argument("--graph", required=True)

    p = add("embed", _cmd_embed)
    p.add_argument("table")
    p.add_argument("--graph", required=True)
    p.add_argument("--labeling", default=None)

    p = add("emit", _cmd_emit)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("graph_file")
    p.add_argument("--labeling", default=None)
    p.add_argument("--bound", type=_int_arg, default=10)

    p = add("ck-check", _cmd_ck_check)
    p.add_argument("graph_file")
    p.add_argument("--labeling", default=None)
    p.add_argument("--bound", type=_int_arg, default=10)

    p = add("bratteli-order", _cmd_bratteli_order)
    p.add_argument("bratteli_file")
    p.add_argument("--level", type=_int_arg, required=True)

    p = add("bratteli-embed", _cmd_bratteli_embed)
    p.add_argument("bratteli_file")
    p.add_argument("--element", required=True)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.fn(args)
        return 0
    except ToolkitError as exc:
        sys.stderr.write(json.dumps(
            {"error": {"code": exc.code, "message": str(exc)}}, sort_keys=True) + "\n")
        return 2 if isinstance(exc, ParseError) else 1


if __name__ == "__main__":
    sys.exit(main())
