"""Self-tests of the benchmark (not of the toolkit), run from the repository
root:

    python3 bench/selftest.py

They check that the generator is deterministic, that every answer check
rejects a corrupted answer, that BENCHMARK.json and layer_map.json agree with
the code, and that the benchmark refuses to run without the toolkit sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import fullgroups as fg  # noqa: E402
import fullgroups.cli  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def first_job(workload, kind, seed=3):
    spec = next(s for s in wl.specs_for(workload, seed) if s["kind"] == kind)
    b = wl.Builder(fg)
    if workload == "products":
        return wl.build_product(b, spec)
    if workload == "identities":
        return wl.build_identity(b, spec)
    with open(wl.REPORTS, encoding="utf-8") as fh:
        return wl.build_graph_job(b, spec, json.load(fh))


class Determinism(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in run.WORKLOADS:
            a = json.dumps(wl.specs_for(w, 5), sort_keys=True)
            self.assertEqual(a, json.dumps(wl.specs_for(w, 5), sort_keys=True), w)
            self.assertNotEqual(a, json.dumps(wl.specs_for(w, 6), sort_keys=True), w)

    def test_one_size_per_stratum(self):
        for seed in range(5):
            sizes = gen.strata(random.Random(seed), 6, 72, 12)
            for k, n in enumerate(sizes):
                self.assertLessEqual(6 + 5.5 * k - 0.5, n)
                self.assertLessEqual(n, 6 + 5.5 * (k + 1) + 0.5)


class OracleSensitivity(unittest.TestCase):
    def assertRejects(self, job, result):
        self.assertIsNotNone(job.check(result))

    def test_products(self):
        job = first_job("products", "product")
        c, sup, e = job.run()
        self.assertIsNone(job.check((c, sup, e)))
        p, q = c.pieces[0], c.pieces[1]
        swapped = dataclasses.replace(c, pieces=(
            fg.Piece(q.mu, p.F, p.lam), fg.Piece(p.mu, q.F, q.lam)) + c.pieces[2:])
        self.assertRejects(job, (swapped, sup, e))
        self.assertRejects(job, (c, fg.CompactOpen(()), e))
        self.assertRejects(job, (c, sup, fg.identity(e.graph)))

    def test_identities(self):
        job = first_job("identities", "germ")
        same, differ, canon = job.run()
        self.assertIsNone(job.check((same, differ, canon)))
        self.assertRejects(job, (same, True, canon))
        self.assertRejects(job, (same, differ, fg.identity(canon.graph)))
        job = first_job("identities", "commutator")
        self.assertIsNone(job.check(job.run()))
        self.assertRejects(job, (False, False))
        job = first_job("identities", "arrow")
        result = job.run()
        self.assertIsNone(job.check(result))
        t, _ = result[0]
        self.assertRejects(job, [(t, [False, True, True])] + result[1:])

    def test_graphs(self):
        job = first_job("graphs", "condition")
        report = job.run()
        self.assertIsNone(job.check(report))
        flipped = json.loads(json.dumps(report))
        flipped["L"]["holds"] = not flipped["L"]["holds"]
        self.assertRejects(job, flipped)
        renamed = json.loads(json.dumps(report))
        renamed["has_sinks"] = not renamed["has_sinks"]
        self.assertRejects(job, renamed)
        job = first_job("graphs", "bratteli")
        order, image = job.run()
        self.assertIsNone(job.check((order, image)))
        self.assertRejects(job, (order + 1, image))

    def test_cli(self):
        spec = next(s for s in wl.specs_for("cli", 3) if s["argv"][0] == "compose")
        os.makedirs(run.OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=run.OUT)
        try:
            (argv,) = wl.write_cli_files([spec], workdir)
            run_cmd = lambda a: wl.run_in_process(fullgroups.cli, a)  # noqa: E731
            job = wl.build_cli_job(fg, argv, run_cmd, {})
            code, text = job.run()
            self.assertIsNone(job.check((code, text)))
            self.assertRejects(job, (code, text.replace("\n", " ", 1)))
            self.assertRejects(job, (1, text))
        finally:
            shutil.rmtree(workdir)

    def test_scc_oracle(self):
        for fam in gen.FAMILIES:
            data = gen.family_graph(fam, 12)
            report = fg.condition_report(fg.graph_from_json(data))
            self.assertEqual(oracle.verdicts(data), {k: report[k]["holds"]
                                                     for k in oracle.verdicts(data)})
        # an exitless cycle breaks (L); a one-way bridge breaks cofinality
        data = {"vertices": ["a", "b", "c"],
                "edges": [{"id": "x", "src": "a", "rng": "b"}, {"id": "y", "src": "b", "rng": "a"},
                          {"id": "z", "src": "c", "rng": "a"}, {"id": "l", "src": "c", "rng": "c"}]}
        self.assertEqual(oracle.verdicts(data), {"L": False, "cofinal": False, "minimal": False,
                                                 "strongly_connected": False})


class Descriptions(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.bench = json.load(fh)
        with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
            self.layer_map = json.load(fh)

    def test_benchmark_json_matches_code(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in b["workloads"]], list(run.WORKLOADS))
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(w["why"] and "\n" not in w["why"] and len(w["why"]) <= 200)
        self.assertEqual([(m["name"], m["unit"]) for m in b["per_layer"]],
                         spans.layer_metrics())
        e2e = {m["name"]: m for m in b["end_to_end"]}
        self.assertEqual(set(e2e), {"jobs_per_s", "job_p50_ms", "job_p90_ms",
                                    "peak_rss_mb", "setup_s"})
        self.assertEqual(max(m["bound"] for m in e2e.values()), e2e["setup_s"]["bound"])

    def test_layer_map_names_known_metrics(self):
        layer = {m["name"] for m in self.bench["per_layer"]}
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        workloads = set(run.WORKLOADS)
        covered = set()
        for rule in self.layer_map["predictions"]:
            for name in rule.get("layer", []):
                self.assertTrue(name in layer or any(m.startswith(name + ".") for m in layer), name)
            for side in ("moves", "no_change"):
                for w, metrics in rule.get(side, {}).items():
                    self.assertIn(w, workloads)
                    self.assertLessEqual(set(metrics), e2e)
                    covered.add(w)
        self.assertEqual(covered, workloads)


class Refusal(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        os.makedirs(run.OUT, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.OUT)
        try:
            shutil.copytree(HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            out = subprocess.run([sys.executable, "bench/run.py", "--workload", "products",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    wl.pin_hash_seed()
    unittest.main()
