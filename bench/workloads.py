"""The four workloads: job specs from the seed, constructors, timed calls and
answer checks.

A *spec* is pure JSON-ready data made by ``gen`` from the seed.  ``build``
turns it into a ``Job`` through the toolkit's public constructors (this is
set-up time).  ``Job.run`` is the timed unit of work; ``Job.check`` takes
its result and returns ``None`` or a failure message, and runs outside the
timed interval.  Sizes come from fixed strata with the seed choosing the
content inside each one, so every seed spreads the same amount of work over
the same size range.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import gen
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


def pin_hash_seed():
    """Re-execute this script under PYTHONHASHSEED=0 unless already there.

    The toolkit iterates over sets of strings in places (for one, the
    cofinality witness in condition reports), so its work and some report
    bytes depend on the hash seed; one fixed seed makes runs repeat."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))


class Job:
    """``label`` names the job's kind and input family (graph, ring family,
    CLI command); the scaling fits group calls by it."""

    def __init__(self, kind, size, run, check, group=""):
        self.kind, self.size, self.run, self.check = kind, size, run, check
        self.label = f"{kind}:{group}" if group else kind


class Builder:
    """Builds each graph literal once, as a caller of the library would."""

    def __init__(self, fg):
        self.fg = fg
        self._graphs = {}

    def graph(self, data):
        key = json.dumps(data, sort_keys=True)
        if key not in self._graphs:
            self._graphs[key] = self.fg.graph_from_json(data)
        return self._graphs[key]


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

PRODUCT_JOBS = 56          # input pieces 6..72, the four graphs in turn


def products_specs(rng):
    names = list(gen.TABLE_GRAPHS)
    specs = []
    for k, n in enumerate(gen.strata(rng, 6, 72, PRODUCT_JOBS)):
        gname = names[k % len(names)]
        shape = gen.Shape(gen.TABLE_GRAPHS[gname])
        s = gen.random_element(shape, rng, n)
        t = gen.random_element(shape, rng, n)
        pts = rng.sample(gen.probe_points(shape), 12)
        pts += [shape.point(lam, F) for _, F, lam in rng.sample(s + t, 12)]
        specs.append({"kind": "product", "graph": gname, "size": n,
                      "s": gen.table_json(shape, s), "t": gen.table_json(shape, t),
                      "points": pts})
    return specs


def build_product(b, spec):
    fg = b.fg
    g = b.graph(gen.TABLE_GRAPHS[spec["graph"]])
    lab = fg.default_labeling(g)
    s = fg.table_from_json(g, spec["s"])
    t = fg.table_from_json(g, spec["t"])
    pts = [fg.parse_point(g, p) for p in spec["points"]]

    def run():
        c = fg.compose(s, t)
        fg.validate_table(c)
        return c, fg.support(c), fg.embed_table(c, lab)

    def check(result):
        c, sup, e = result
        for p in pts:
            q = fg.apply(c, p)
            if q != fg.apply(s, fg.apply(t, p)):
                return f"compose disagrees with s(t(p)) at {fg.format_point(g, p)}"
            if q != p and not fg.co_contains_point(g, sup, p):
                return f"moved point {fg.format_point(g, p)} outside the support"
            if fg.point_map(q, lab) != fg.apply(e, fg.point_map(p, lab)):
                return f"embedding is not equivariant at {fg.format_point(g, p)}"
        return None

    return Job("product", spec["size"], run, check, spec["graph"])


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

GERM_JOBS = 24             # original pieces 10..90, refined copies about twice that
COMM_JOBS = 24             # pieces of the two factors together, 16..96
ARROW_JOBS = 16
LAGS = (-2, -1, 0, 1, 2)


def identities_specs(rng):
    names = list(gen.TABLE_GRAPHS)
    shapes = {name: gen.Shape(gen.TABLE_GRAPHS[name]) for name in names}
    specs = []
    for k, n in enumerate(gen.strata(rng, 10, 90, GERM_JOBS)):
        gname = names[k % len(names)]
        shape = shapes[gname]
        while True:
            s = gen.random_element(shape, rng, n)
            other = gen.swap_targets(shape, s)
            if other is not None:
                break
        r = gen.refine(shape, s, rng)
        specs.append({"kind": "germ", "graph": gname, "size": len(r),
                      "original": gen.table_json(shape, s),
                      "refined": gen.table_json(shape, r),
                      "other": gen.table_json(shape, other)})
    for k, n in enumerate(gen.strata(rng, 16, 96, COMM_JOBS)):
        gname = names[k % len(names)]
        shape = shapes[gname]
        v = shape.vertices[0]
        e1, e2 = shape.split_candidates(v, frozenset())[:2]
        a = gen.random_element(shape, rng, n // 2, [((v, (e1,)), frozenset())])
        c = gen.random_element(shape, rng, n // 2, [((v, (e2,)), frozenset())])
        specs.append({"kind": "commutator", "graph": gname, "size": len(a) + len(c),
                      "a": gen.table_json(shape, a), "b": gen.table_json(shape, c)})
    for k in range(ARROW_JOBS):
        gname = names[k % len(names)]
        arrows = [gen.random_arrow(shapes[gname], rng, lag) for lag in LAGS]
        specs.append({"kind": "arrow", "graph": gname, "size": len(arrows),
                      "arrows": [{"arrow": a, "within": wi} for a, wi in arrows]})
    return specs


def build_identity(b, spec):
    fg = b.fg
    g = b.graph(gen.TABLE_GRAPHS[spec["graph"]])
    kind = spec["kind"]
    if kind == "germ":
        orig = fg.table_from_json(g, spec["original"])
        refined = fg.table_from_json(g, spec["refined"])
        other = fg.table_from_json(g, spec["other"])

        def run():
            return (fg.germ_equal(refined, orig), fg.germ_equal(other, orig),
                    fg.canonicalize(refined))

        def check(result):
            same, differ, canon = result
            if same is not True or differ is not False:
                return f"germ_equal gave {same}/{differ}, expected True/False"
            if canon != fg.canonicalize(orig):
                return "canonical form of the refined copy differs"
            return None

        return Job(kind, spec["size"], run, check, spec["graph"])
    if kind == "commutator":
        x = fg.table_from_json(g, spec["a"])
        y = fg.table_from_json(g, spec["b"])

        def run():
            return fg.is_identity(fg.commutator(x, y)), fg.is_identity(x)

        def check(result):
            if result != (True, False):
                return f"is_identity gave {result}, expected (True, False)"
            return None

        return Job(kind, spec["size"], run, check, spec["graph"])
    cases = []
    for rec in spec["arrows"]:
        ar = fg.parse_arrow(g, rec["arrow"])
        lags = [fg.Arrow(ar.target, ar.lag + d, ar.source) for d in (-1, 0, 1)]
        cases.append((ar, fg.co_from_json(g, rec["within"]), lags))

    def run():
        out = []
        for ar, within, lags in cases:
            t = fg.transposition_for_arrow(ar, within, g)
            out.append((t, [fg.contains_arrow(t, a) for a in lags]))
        return out

    def check(result):
        for (ar, _, _), (t, hits) in zip(cases, result):
            if hits != [False, True, False]:
                return f"contains_arrow at lags -1/0/+1 gave {hits} for {fg.format_arrow(g, ar)}"
            if not fg.is_identity(fg.compose(t, t)):
                return f"transposition for {fg.format_arrow(g, ar)} is not an involution"
        return None

    return Job(kind, spec["size"], run, check, spec["graph"])


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

CONDITION_JOBS = 12        # vertices 10..72, the three ring families in turn
EMIT_JOBS = 24             # bound 25..200, leveled chain and two-vertex graph in turn
DIAGRAMS = 8               # each at levels 3..6, widths 2 and 3 in turn
LEVELS = (3, 4, 5, 6)
REPORTS = os.path.join(HERE, "expected_reports.json")


def report_digest(report) -> str:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def graphs_specs(rng):
    specs = []
    for k, n in enumerate(gen.strata(rng, 5, 36, CONDITION_JOBS)):
        fam = gen.FAMILIES[k % len(gen.FAMILIES)]
        specs.append({"kind": "condition", "family": fam, "size": 2 * n,
                      "graph": gen.family_graph(fam, 2 * n)})
    for k, bound in enumerate(gen.strata(rng, 25, 200, EMIT_JOBS)):
        specs.append({"kind": "emit", "graph": ("leveled_chain", "two_vertex_omega")[k % 2],
                      "size": bound})
    for k in range(DIAGRAMS):
        while True:
            d = gen.random_bratteli(rng)
            if len(d["levels"][1]) == 2 + k % 2:
                break
        for N in LEVELS:
            specs.append({"kind": "bratteli", "size": N, "diagram": d,
                          "element": gen.random_gamma_element(rng, d, N)})
    return specs


def emit_graph(name):
    return gen.LEVELED_CHAIN if name == "leveled_chain" else gen.TABLE_GRAPHS[name]


def build_graph_job(b, spec, reports):
    fg = b.fg
    kind = spec["kind"]
    if kind == "condition":
        g = b.graph(spec["graph"])
        expected = reports[spec["family"]][str(spec["size"])]

        def run():
            return fg.condition_report(g)

        def check(report):
            want = oracle.verdicts(spec["graph"])
            got = {k: report[k]["holds"] for k in want}
            if got != want:
                return f"verdicts {got} differ from the SCC oracle {want}"
            if report_digest(report) != expected:
                return "report bytes differ from the recorded report"
            return None

        return Job(kind, spec["size"], run, check, spec["family"])
    if kind == "emit":
        g = b.graph(emit_graph(spec["graph"]))
        lab = fg.default_labeling(g)
        bound = spec["size"]

        def run():
            img = fg.emit_generators(g, lab, bound)
            return img, fg.ck_check(g, img)

        def check(result):
            ok, failures = result[1]
            if not ok:
                return f"ck_check failed: {failures[:3]}"
            return None

        return Job(kind, bound, run, check, spec["graph"])
    d = fg.bratteli_from_json(spec["diagram"])
    el = fg.gamma_element_from_json(d, spec["element"])
    N = spec["size"]
    order = gen.fiber_order(spec["diagram"], N)
    moved = bool(spec["element"]["images"])

    def run():
        return d.gamma_order(N), fg.af_to_v(el)

    def check(result):
        got, image = result
        if got != order:
            return f"gamma_order {got}, expected {order}"
        if bool(image.pieces) != moved:
            return "V-image triviality disagrees with the permutation"
        return None

    return Job(kind, N, run, check)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

GOLDEN_EMITS = (("einf", 10, "emit_einf.txt"), ("two_vertex_omega", 10, "emit_two_vertex.txt"),
                ("leveled_chain", 6, "emit_leveled_f.txt"))


def cli_specs(rng):
    """Each spec: argv with {file} placeholders, and the files' JSON."""
    specs = []
    graphs = list(gen.TABLE_GRAPHS)
    for i in range(4):
        fam = gen.FAMILIES[i % 3]
        n = 10 + 2 * rng.randrange(6)
        specs.append({"files": {"g": gen.family_graph(fam, n)},
                      "argv": ["analyze", "{g}"]})
    for i in range(4):
        gname = graphs[i]
        shape = gen.Shape(gen.TABLE_GRAPHS[gname])
        s = gen.random_element(shape, rng, 6 + rng.randrange(8))
        t = gen.random_element(shape, rng, 6 + rng.randrange(8))
        specs.append({"argv": ["compose", "{s}", "{t}", "--graph", "{g}"],
                      "files": {"g": gen.TABLE_GRAPHS[gname], "s": gen.table_json(shape, s),
                                "t": gen.table_json(shape, t)}})
        r = gen.refine(shape, s, rng)
        other = gen.swap_targets(shape, r) if i % 2 else r
        specs.append({"argv": ["germ-eq", "{s}", "{t}", "--graph", "{g}"],
                      "files": {"g": gen.TABLE_GRAPHS[gname], "s": gen.table_json(shape, s),
                                "t": gen.table_json(shape, other or r)}})
        specs.append({"argv": ["embed", "{t}", "--graph", "{g}"],
                      "files": {"g": gen.TABLE_GRAPHS[gname], "t": gen.table_json(shape, t)}})
    for gname, bound, _ in GOLDEN_EMITS:
        data = gen.EINF if gname == "einf" else emit_graph(gname)
        specs.append({"argv": ["emit", "{g}", "--bound", str(bound)],
                      "files": {"g": data}})
    specs.append({"files": {"g": emit_graph(rng.choice(["leveled_chain",
                                                                       "two_vertex_omega"]))},
                  "argv": ["emit", "{g}", "--bound", str(5 + rng.randrange(20))]})
    for _ in range(4):
        d = gen.random_bratteli(rng)
        N = 2 + rng.randrange(3)
        specs.append({"files": {"b": d},
                      "argv": ["bratteli-order", "{b}", "--level", str(N)]})
        specs.append({"argv": ["bratteli-embed", "{b}", "--element", "{e}"],
                      "files": {"b": d, "e": gen.random_gamma_element(rng, d, N)}})
    return specs


def write_cli_files(specs, workdir):
    """Write each spec's files; returns the argv lists with real paths."""
    os.makedirs(workdir, exist_ok=True)
    argvs = []
    for i, spec in enumerate(specs):
        paths = {}
        for key, data in spec["files"].items():
            paths[key] = os.path.join(workdir, f"job{i}_{key}.json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        argvs.append([a.format(**paths) for a in spec["argv"]])
    return argvs


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def expected_cli_output(fg, argv):
    """What the CLI must print, from the same library calls in-process."""
    cmd = argv[0]
    if cmd == "analyze":
        return _dump(fg.condition_report(fg.graph_from_json(_load(argv[1]))))
    if cmd in ("compose", "germ-eq"):
        g = fg.graph_from_json(_load(argv[4]))
        s, t = fg.table_from_json(g, _load(argv[1])), fg.table_from_json(g, _load(argv[2]))
        if cmd == "compose":
            return _dump(fg.table_to_json(fg.compose(s, t)))
        return _dump({"equal": fg.germ_equal(s, t)})
    if cmd == "embed":
        g = fg.graph_from_json(_load(argv[3]))
        t = fg.table_from_json(g, _load(argv[1]))
        return _dump(fg.table_to_json(fg.embed_table(t, fg.default_labeling(g))))
    if cmd == "emit":
        g = fg.graph_from_json(_load(argv[1]))
        return fg.format_generator_image(
            fg.emit_generators(g, fg.default_labeling(g), int(argv[3])))
    d = fg.bratteli_from_json(_load(argv[1]))
    if cmd == "bratteli-order":
        return _dump({"order": d.gamma_order(int(argv[3]))})
    return _dump(fg.table_to_json(fg.af_to_v(fg.gamma_element_from_json(d, _load(argv[3])))))


def load_goldens(root):
    out = {}
    for gname, bound, fname in GOLDEN_EMITS:
        data = gen.EINF if gname == "einf" else emit_graph(gname)
        with open(os.path.join(root, "tests", "golden", fname), encoding="utf-8") as fh:
            out[(json.dumps(data, sort_keys=True), bound)] = fh.read()
    return out


class CliRunner:
    """Runs one CLI command at a time as a child process and keeps the
    largest peak RSS of these children (from wait4, so no other child
    process counts)."""

    def __init__(self, root, workdir):
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.workdir = workdir
        self.peak_kb = 0

    def run(self, argv):
        """Returns (exit code, stdout text)."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        with open(out_path, "wb") as out:
            proc = subprocess.Popen([sys.executable, "-m", "fullgroups.cli", *argv],
                                    stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as fh:
            return proc.returncode, fh.read()

    def probe(self, code):
        """Wall seconds of ``python -c code`` (interpreter start, imports)."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.workdir,
                       check=True)
        return time.perf_counter() - t0


def run_in_process(cli, argv):
    """The same command through ``cli.main`` in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def build_cli_job(fg, argv, run_command, goldens):
    """``run_command(argv)`` returns (exit code, stdout text)."""
    golden = None
    if argv[0] == "emit":
        golden = goldens.get((json.dumps(_load(argv[1]), sort_keys=True), int(argv[3])))

    def check(result):
        code, text = result
        if code != 0:
            return f"{argv[0]} exited with {code}"
        if text != expected_cli_output(fg, argv):
            return f"{argv[0]} stdout differs from the library's output"
        if golden is not None and text != golden:
            return "emit output differs from the golden file"
        return None

    return Job("cli", 1, lambda: run_command(argv), check, argv[0])


SPECS = {"products": products_specs, "identities": identities_specs,
         "graphs": graphs_specs, "cli": cli_specs}


def specs_for(workload, seed):
    return SPECS[workload](random.Random(f"{workload}:{seed}"))
