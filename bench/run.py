"""Benchmark of the fullgroups toolkit, run from the repository root:

    python3 bench/run.py --workload products --seed 1 --seconds 20 --trace 0

Workloads: products, identities, graphs, cli (see BENCHMARK.json for why);
``--workload all`` runs the four one after the other.
The inputs are generated from --seed by ``gen.py``; the toolkit only sees
them through its public constructors.  One process, jobs run one after the
other, at most one CLI child at a time.

--trace 0 is a closed loop over the workload's jobs (shuffled, whole cycles)
for --seconds, and reports the end-to-end metrics:
  jobs_per_s   jobs completed per second of job time
  job_p50_ms   median job latency
  job_p90_ms   90th percentile job latency (at least 100 jobs per run)
  peak_rss_mb  peak resident memory of this process (cli: of a CLI child)
  setup_s      median of three set-ups (this one and two child processes):
               import, building the inputs through the public
               constructors, warm-up
Job and set-up times are scaled to the speed at which ``reference_loop``
takes REF_MS, which cancels the drift of a shared machine; the unscaled
figures are printed too.  failed_frac (jobs that raised or failed their
answer check, over jobs attempted) is printed and carried by the result's
``failed``/``attempted``.

--trace 1 alternates untraced and traced passes over one fixed cycle of the
same jobs (constructors included) and reports the per-layer metrics from the
spans of the first traced pass; the spans are written to bench/out/.

The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("products", "identities", "graphs", "cli")
MIN_JOBS = 100
SETUP_CHILDREN = 2
PROBES = 5
REF_MS = 1.0        # duration of the reference loop at the speed times are scaled to


def reference_loop():
    """Fixed pure-Python work with the toolkit's kind of inner loop (tuple
    keys, dict updates, integer arithmetic); its duration tracks how fast
    this shared machine runs Python right now."""
    d, s = {}, 0
    for i in range(2700):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i
        s += len(d) * 3 % 7
    return s


class Speedometer:
    """Reference-loop timings taken between jobs.  ``scale(i)`` converts a
    wall time measured right after probe i into reference time: wall time
    times REF_MS over the median of the probes around it."""

    def __init__(self):
        self.samples = []

    def probe(self):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def scale(self, i, window=2):
        return REF_MS / 1e3 / statistics.median(self.samples[max(0, i - window):i + window + 2])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all four one after the other")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time and exit")
    return p.parse_args(argv)


class Context:
    """Everything a run builds once: the library, the jobs, the CLI runner."""

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.specs = wl.specs_for(workload, seed)
        self.runner = None
        self.argvs = None
        self.goldens = None

    def setup(self):
        """Import, build, warm up; returns (import_s, inputs_s) in wall
        seconds and the factor that scales them to reference time."""
        speed = Speedometer()
        for _ in range(PROBES):
            speed.probe()
        t0 = time.perf_counter()
        sys.path.insert(0, SRC)
        import fullgroups
        import fullgroups.cli
        self.fg, self.cli = fullgroups, fullgroups.cli
        t1 = time.perf_counter()
        if self.workload == "cli":
            self.argvs = wl.write_cli_files(self.specs, self.workdir)
            self.goldens = wl.load_goldens(ROOT)
            self.runner = wl.CliRunner(ROOT, self.workdir)
        self.jobs = self.build()
        self.warm_up()
        t2 = time.perf_counter()
        for _ in range(PROBES):
            speed.probe()
        return t1 - t0, t2 - t1, REF_MS / 1e3 / statistics.median(speed.samples)

    def build(self, inproc=False):
        if self.workload == "cli":
            if inproc:
                run = functools.partial(wl.run_in_process, self.cli)
            else:
                run = self.runner.run
            return [wl.build_cli_job(self.fg, argv, run, self.goldens) for argv in self.argvs]
        b = wl.Builder(self.fg)
        build = {"products": wl.build_product, "identities": wl.build_identity}
        if self.workload == "graphs":
            with open(wl.REPORTS, encoding="utf-8") as fh:
                reports = json.load(fh)
            return [wl.build_graph_job(b, s, reports) for s in self.specs]
        return [build[self.workload](b, s) for s in self.specs]

    def warm_up(self):
        """Run the first job of each kind and input graph once, so that
        lazily filled caches are full before anything is timed."""
        seen = set()
        for spec, job in zip(self.specs, self.jobs):
            key = "cli" if self.workload == "cli" else (job.kind, json.dumps(
                spec.get("family") or spec.get("graph") or spec.get("diagram"), sort_keys=True))
            if key not in seen:
                seen.add(key)
                job.run()


def run_job(job):
    """(wall seconds, result, error); a raise is an error, never fatal."""
    t0 = time.perf_counter()
    try:
        result, err = job.run(), None
    except Exception as exc:
        result, err = None, f"raised {exc!r}"
    return time.perf_counter() - t0, result, err


def check_job(job, result, err, failures):
    """Answer check, after the clock has stopped.  Repeats of a job are
    compared with its first, fully checked result."""
    if err is None:
        if not hasattr(job, "verified"):
            err = job.check(result)
            if err is None:
                job.verified = result
        elif result != job.verified:
            err = "result differs from the first, checked run"
    if err is not None:
        failures.append(f"{job.kind} size={job.size}: {err}")


def timed_phase(ctx, seconds):
    """Whole shuffled cycles over the jobs until ``seconds`` have passed and
    at least MIN_JOBS ran; a reference probe precedes every job.  Returns
    (wall times, reference-scaled times, failures)."""
    order = list(range(len(ctx.jobs)))
    rng = random.Random(f"order:{ctx.workload}:{ctx.seed}")
    speed = Speedometer()
    times, failures = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < MIN_JOBS:
        rng.shuffle(order)
        for i in order:
            speed.probe()
            dt, result, err = run_job(ctx.jobs[i])
            check_job(ctx.jobs[i], result, err, failures)
            times.append(dt)
    speed.probe()
    return times, [t * speed.scale(k) for k, t in enumerate(times)], failures


def setup_child(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def summary(times, failures):
    return {"jobs_per_s": (len(times) - len(failures)) / sum(times),
            "job_p50_ms": 1e3 * statistics.median(times),
            "job_p90_ms": 1e3 * statistics.quantiles(times, n=10)[8]}


def end_to_end(ctx, args, setup_s):
    raw, times, failures = timed_phase(ctx, args.seconds)
    if ctx.workload == "cli":
        peak_kb = ctx.runner.peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [setup_s] + [setup_child(ctx.workload, ctx.seed) for _ in range(SETUP_CHILDREN)]
    n = len(times)
    metrics = summary(times, failures)
    metrics.update({"peak_rss_mb": peak_kb / 1024, "setup_s": statistics.median(setups)})
    units = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}
    print(f"# {ctx.workload} seed={ctx.seed}: {n} jobs ({len(ctx.jobs)} distinct); "
          f"times scaled to a {REF_MS} ms reference loop; set-ups {[round(s, 4) for s in setups]}")
    unscaled = summary(raw, failures)
    print("# unscaled wall: " + ", ".join(f"{k} = {v:.6g}" for k, v in unscaled.items()))
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}" + (f"  (n={n})" if k.startswith("job_") else ""))
    print(f"failed_frac = {len(failures) / n:.6g} 1  ({len(failures)}/{n})")
    return n, failures, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def cli_probes(ctx):
    """Interpreter start and import cost of the CLI from child processes
    (every workload's set-up pays the import too); on the cli workload
    also each command's subprocess time."""
    runner = ctx.runner or wl.CliRunner(ROOT, ctx.workdir)
    interp = statistics.median(runner.probe("pass") for _ in range(PROBES))
    imp = statistics.median(runner.probe("import fullgroups.cli") for _ in range(PROBES))
    per_cmd = {}
    for argv in ctx.argvs or ():
        t0 = time.perf_counter()
        runner.run(argv)
        per_cmd.setdefault(argv[0], []).append(time.perf_counter() - t0)
    for cmd, ts in sorted(per_cmd.items()):
        print(f"# cli {cmd}: {1e3 * statistics.fmean(ts):.1f} ms per subprocess")
    return 1e3 * interp, 1e3 * (imp - interp)


def traced(ctx, args, import_s, inputs_s):
    """Alternate untraced and traced passes over one cycle of jobs (inputs
    rebuilt in each pass, so the constructors are traced too)."""
    tracer = spans.Tracer()
    walls = {False: [], True: []}
    failures = []
    first = None
    main_s = []
    start = time.perf_counter()
    while not walls[True] or time.perf_counter() - start < args.seconds:
        for on in (False, True):
            if on:
                tracer.spans.clear()
                tracer.install()
            tracer.on = on
            t0 = time.perf_counter()
            tracer.job = "build"
            jobs = ctx.build(inproc=True)
            runs = []
            for job in jobs:
                tracer.job = job.label
                runs.append(run_job(job))
            walls[on].append(time.perf_counter() - t0)
            tracer.on = False
            tracer.uninstall()
            for job, (_, result, err) in zip(jobs, runs):
                check_job(job, result, err, failures)
            if not on:
                main_s.append(statistics.fmean(dt for dt, _, _ in runs))
        if first is None:
            first = list(tracer.spans)
    stats, bad = spans.summarize(first)
    metrics = spans.function_metrics(stats)
    interp_ms, import_ms = cli_probes(ctx)
    main_ms = 1e3 * statistics.median(main_s) if ctx.workload == "cli" else 0.0
    metrics.update({"cli.interpreter_ms": interp_ms, "cli.import_ms": import_ms,
                    "cli.main_ms": main_ms})
    overheads = [t / u - 1 for u, t in zip(walls[False], walls[True])]
    metrics.update({"setup.import_s": import_s, "setup.inputs_s": inputs_s,
                    "trace.overhead_frac": statistics.median(overheads)})
    for key in spans.SCALED:
        if key in stats:
            for job, (rows, slope) in spans.scaling_table(stats[key]["samples"]).items():
                if len(rows) > 1:
                    table = " ".join(f"{n}:{1e3 * t:.2f}" for n, t in rows)
                    print(f"# scale {key} [{job}] exponent={slope:.2f} size:ms {table}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{ctx.workload}-{ctx.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "parent", "start", "end", "size_in", "size_out", "job"],
                   "spans": first, "passes": walls}, fh)
    units = dict(spans.layer_metrics())
    print(f"# {ctx.workload} seed={ctx.seed}: {len(walls[True])} traced passes of "
          f"{len(ctx.jobs)} jobs, {len(first)} spans -> {os.path.relpath(path, ROOT)}")
    if bad:
        failures.append(f"{bad} spans whose children outlast them")
    attempted = sum(len(walls[on]) for on in walls) * len(ctx.jobs)
    return attempted, failures, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_all(args):
    """Each workload in its own child process, one after the other; the
    result line joins theirs, metric names prefixed by the workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()
        print("\n".join(out[:-1]))
        res = json.loads(out[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fullgroups", "__init__.py")):
        sys.stderr.write(f"error: no toolkit sources under {SRC}\n")
        return 2
    wl.pin_hash_seed()
    if args.workload == "all":
        return run_all(args)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        ctx = Context(args.workload, args.seed, workdir)
        import_s, inputs_s, scale = ctx.setup()
        setup_s = (import_s + inputs_s) * scale
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            attempted, failures, metrics = traced(ctx, args, import_s, inputs_s)
        else:
            attempted, failures, metrics = end_to_end(ctx, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures[:10]:
        sys.stderr.write(f"FAILED {f}\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
