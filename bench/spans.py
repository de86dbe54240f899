"""In-memory span tracing of the toolkit's public functions.

``Tracer.install`` replaces every module binding of the listed functions
(the defining module, every ``fullgroups`` module that imported the name,
and the package namespace) with a wrapper that records one span per call:
function, parent span, start, end and the exact piece/atom/vertex counts
going in and out.  Nested public calls therefore become child spans.
``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time


def _n(x):
    return len(x.pieces) if hasattr(x, "pieces") else len(x.atoms)


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _vertices(g):
    return g.vertex_count() if g.is_finite else 0


# function -> (size in, size out or None); sizes are pieces for tables,
# atoms for compact opens, vertices for graph checkers, the bound for
# generator emission, generator images for the relation check, the level
# for fibers and moved-or-fixed paths for gamma elements.
SPANS = {
    "tables": {
        "compose": (lambda a, k: _n(a[0]) + _n(a[1]), _n),
        "validate_table": (lambda a, k: _n(a[0]), None),
        "canonicalize": (lambda a, k: _n(a[0]), _n),
        "germ_equal": (lambda a, k: _n(a[0]) + _n(a[1]), None),
        "support": (lambda a, k: _n(a[0]), _n),
        "transposition_for_arrow": (lambda a, k: _n(a[1]), _n),
        "contains_arrow": (lambda a, k: _n(a[0]), None),
        "table_from_json": (lambda a, k: len(a[1]["pieces"]), _n),
    },
    "pathspace": {
        "co_make": (lambda a, k: len(a[1]), _n),
        "co_subtract": (lambda a, k: _n(a[1]) + _n(a[2]), _n),
        "co_intersect": (lambda a, k: _n(a[1]) + _n(a[2]), _n),
        "co_equals": (lambda a, k: _n(a[1]) + _n(a[2]), None),
    },
    "graph": {
        "condition_report": (lambda a, k: _vertices(a[0]), None),
        "check_condition_L": (lambda a, k: _vertices(a[0]), None),
        "check_condition_K": (lambda a, k: _vertices(a[0]), None),
        "check_condition_T": (lambda a, k: _vertices(a[0]), None),
        "check_cofinal": (lambda a, k: _vertices(a[0]), None),
        "check_minimal": (lambda a, k: _vertices(a[0]), None),
        "check_strongly_connected": (lambda a, k: _vertices(a[0]), None),
        "graph_from_json": (lambda a, k: len(a[0].get("vertices", ())), None),
    },
    "embed": {
        "embed_table": (lambda a, k: _n(a[0]), _n),
        "emit_generators": (lambda a, k: _arg(a, k, 2, "edge_bound", 10),
                            lambda img: len(img.vertices) + len(img.edges)),
        "ck_check": (lambda a, k: len(a[1].vertices) + len(a[1].edges), None),
    },
    "bratteli": {
        "fibers": (lambda a, k: a[1], lambda f: sum(len(p) for p in f.values())),
        "gamma_to_table": (lambda a, k: len(a[0].mapping), _n),
        "af_to_v": (lambda a, k: len(a[0].mapping), _n),
    },
}

# Functions whose per-call time gets a log-log scaling fit.
SCALED = ("tables.compose", "tables.validate_table", "tables.canonicalize",
          "tables.germ_equal", "pathspace.co_make", "embed.embed_table",
          "graph.condition_report", "embed.emit_generators", "embed.ck_check",
          "bratteli.af_to_v")


class Tracer:
    """Span recorder; records only while ``on`` is set."""

    def __init__(self):
        self.on = False
        self.job = ""       # label of the job being run; spans of one job share it
        self.spans = []     # [name, parent, start, end, size_in, size_out, job]
        self._stack = []
        self._saved = []    # (owner, attribute, original)

    def install(self):
        for mod_name, funcs in SPANS.items():
            mod = sys.modules[f"fullgroups.{mod_name}"]
            for fname, sizes in funcs.items():
                if fname == "fibers":  # a method, bound on the class
                    orig = mod.BratteliDiagram.__dict__[fname]
                    owners = [(mod.BratteliDiagram, fname)]
                else:
                    orig = getattr(mod, fname)
                    owners = [(m, attr) for name, m in list(sys.modules.items())
                              if name == "fullgroups" or name.startswith("fullgroups.")
                              for attr, val in vars(m).items() if val is orig]
                wrapper = self._wrap(orig, f"{mod_name}.{fname}", sizes)
                for owner, attr in owners:
                    self._saved.append((owner, attr, orig))
                    setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def _wrap(self, fn, key, sizes):
        size_in, size_out = sizes
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if key == "pathspace.co_make" and not isinstance(args[1], (list, tuple)):
                args = (args[0], list(args[1])) + args[2:]
            rec = [key, stack[-1] if stack else -1, 0.0, 0.0, size_in(args, kwargs), None,
                   self.job]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if size_out is not None:
                rec[5] = size_out(out)
            return out

        return wrapper


# Per-layer metrics measured outside the spans.
EXTRA_METRICS = [("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main_ms", "ms"),
                 ("setup.import_s", "s"), ("setup.inputs_s", "s"),
                 ("trace.overhead_frac", "ratio")]


def span_metrics():
    """(name, unit) of every per-function metric, in report order."""
    out = []
    for mod_name, funcs in SPANS.items():
        for fname, (_, size_out) in funcs.items():
            key = f"{mod_name}.{fname}"
            out += [(f"{key}.calls", "count"), (f"{key}.self_s", "s")]
            if size_out is not None:
                out.append((f"{key}.out_per_in", "ratio"))
            if key in SCALED:
                out.append((f"{key}.exponent", "log/log"))
    return out


def layer_metrics():
    return span_metrics() + EXTRA_METRICS


def function_metrics(stats):
    """Values of ``span_metrics``; a function never called reports 0."""
    out = {}
    for name, _ in span_metrics():
        key, stat = name.rsplit(".", 1)
        s = stats.get(key)
        if s is None:
            out[name] = 0
        elif stat == "out_per_in":
            out[name] = s["out"] / s["in"] if s["in"] else 0.0
        elif stat == "exponent":
            out[name] = exponent(s["samples"])
        else:
            out[name] = s[stat]
    return out


def summarize(spans):
    """Per function: calls, self time, total in/out sizes and (job, size,
    time) samples.  Also returns how many spans have children whose
    durations add up to more than their own (a tracer fault; must be zero)."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats = {}
    bad = 0
    for i, (name, parent, t0, t1, nin, nout, job) in enumerate(spans):
        dur = t1 - t0
        if child[i] > dur + 1e-9:
            bad += 1
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "in": 0, "out": 0,
                                    "samples": []})
        s["calls"] += 1
        s["self_s"] += dur - child[i]
        s["in"] += nin
        s["out"] += nout or 0
        s["samples"].append((job, nin, dur))
    return stats, bad


def exponent(samples):
    """Least-squares slope of log(time) against log(size), fitted within
    each job group (graph, family, command) so that groups of different
    constant cost do not bend it; 0 without two sizes in some group."""
    groups = {}
    for job, n, t in samples:
        if n > 0 and t > 0:
            groups.setdefault(job, []).append((math.log(n), math.log(t)))
    sxx = sxy = 0.0
    for pts in groups.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx > 0 else 0.0


def scaling_table(samples):
    """Per job group: [(size, mean seconds per call)] and its exponent."""
    by = {}
    for job, n, t in samples:
        by.setdefault(job, {}).setdefault(n, []).append(t)
    return {job: ([(n, statistics.fmean(ts)) for n, ts in sorted(sizes.items())],
                  exponent([(job, n, t) for n, ts in sizes.items() for t in ts]))
            for job, sizes in sorted(by.items())}
