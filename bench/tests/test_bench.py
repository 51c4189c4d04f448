"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench/tests

They check that the decision digest repeats at one seed and changes with
the seed, that a wrong answer is counted as a failed op, that op
latencies are scaled by the short reference passes around them, that tracing
counts repeat and leave the library as it found it, and that the
benchmark imports nothing outside the standard library.
"""

from __future__ import annotations

import ast
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from harness import run_loop  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_MODULES = {p.stem for p in BENCH.glob("*.py")}


def prefix_run(name, seed, tm=None):
    """Run a workload's digest prefix once; return (digest hex, stats)."""
    tm = tm or run.load_tropmat()
    workload = run.make_workload(tm, name, seed)
    digest = hashlib.sha256()
    stats = run_loop(workload, iter(workload.prefix), 0.0, digest)
    return digest.hexdigest(), stats


class DigestTest(unittest.TestCase):
    def test_digest_repeats_at_one_seed_and_moves_with_the_seed(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, stats = prefix_run(name, 7)
                again, _ = prefix_run(name, 7)
                other, _ = prefix_run(name, 8)
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)
                self.assertEqual(stats.unexpected, [])


class WrongAnswerTest(unittest.TestCase):
    def test_stubbed_wrong_answers_count_as_failed_ops(self):
        stubs = {
            "relate-oracle": "solves_right",
            "construct-verify": "regular_witness",
            "ideal-pool": "ideal_contains",
        }
        for name, attr in stubs.items():
            with self.subTest(workload=name):
                tm = run.load_tropmat()
                right = getattr(tm, attr)
                if attr == "regular_witness":
                    setattr(tm, attr, lambda a: tm.TropMatrix.zero(2) if not a.is_zero else right(a))
                else:
                    setattr(tm, attr, lambda *args: not right(*args))
                _, stats = prefix_run(name, 7, tm)
                self.assertGreater(stats.failed, 0)
                self.assertEqual(len(stats.unexpected), stats.failed)

    def test_known_cli_defects_count_as_failed_but_expected(self):
        _, stats = prefix_run("cli-cold", 7)
        cases = json.loads((BENCH / "cli_cases.json").read_text())["cases"]
        known = [c for c in cases if "known_defect" in c]
        self.assertEqual(stats.failed, len(known))
        self.assertEqual(stats.unexpected, [])


class OpLatencyTest(unittest.TestCase):
    def test_op_latency_is_divided_by_the_short_passes_around_it(self):
        workload = run.make_workload(run.load_tropmat(), "relate-oracle", 3)
        passes = []

        def op_ref():
            passes.append(1)
            return 1e6

        stats = run_loop(workload, iter(workload.prefix), 0.0, ref=lambda: 1e6, op_ref=op_ref)
        self.assertEqual(stats.attempted, workload.prefix_ops)
        self.assertGreater(len(passes), len(stats.chunk_rates))
        for q in (0.5, 0.99):
            scaled = stats.latency_quantile(q)
            self.assertAlmostEqual(scaled / (stats.latency_ns.quantile(q) / 1e6), 1.0, delta=0.01)


class TracingTest(unittest.TestCase):
    def traced_counts(self, tm, name):
        workload = run.make_workload(tm, name, 3)
        tracer = Tracer(tm, workload.prefix_ops)
        tracer.install()
        try:
            run_loop(workload, iter(workload.prefix), 0.0, on_op=tracer.begin_op)
            tracer.end_ops()
        finally:
            tracer.uninstall()
        return dict(tracer.calls), len(tracer.proj_inputs), tracer.spans

    def test_counts_repeat_and_originals_come_back(self):
        tm = run.load_tropmat()
        before = (tm.related, tm.green.proj_column_space, tm.TropMatrix.__matmul__)
        calls, unique, spans = self.traced_counts(tm, "relate-oracle")
        again, unique_again, _ = self.traced_counts(tm, "relate-oracle")
        self.assertEqual(calls, again)
        self.assertEqual(unique, unique_again)
        self.assertGreater(calls["geometry.proj_column_space"], 0)
        self.assertGreater(calls["matrix.TropMatrix.__matmul__"], 0)
        self.assertTrue(all(start <= end for _, start, end, _, _ in spans))
        self.assertEqual(before, (tm.related, tm.green.proj_column_space, tm.TropMatrix.__matmul__))


class StdlibOnlyTest(unittest.TestCase):
    def test_imports_are_stdlib_tropmat_or_the_benchmark(self):
        for path in BENCH.glob("*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for mod in names:
                    top = mod.split(".")[0]
                    self.assertTrue(
                        top in sys.stdlib_module_names or top in BENCH_MODULES or top == "tropmat",
                        f"{path.name} imports {mod}",
                    )

    def test_loaded_modules_without_site_packages(self):
        # -S keeps site-packages (and pytest-benchmark in it) off the path.
        probe = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import run; run.load_tropmat(); "
            "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe, str(BENCH)], capture_output=True, text=True, check=True
        )
        for mod in json.loads(out.stdout):
            self.assertTrue(
                mod in sys.stdlib_module_names or mod in BENCH_MODULES or mod in ("tropmat", "__main__"),
                mod,
            )


class ContractTest(unittest.TestCase):
    def test_one_short_run_prints_every_end_to_end_metric(self):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "relate-oracle", "--seed", "1", "--seconds", "1"],
            capture_output=True, text=True, check=True, cwd=run.ROOT, timeout=180,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "relate-oracle", "--seed", "1", "--seconds", "1"],
                capture_output=True, text=True, cwd=tmp, timeout=180,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("{", out.stdout)


if __name__ == "__main__":
    unittest.main()
