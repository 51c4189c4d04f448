"""Per-layer timings taken in the traced run, outside the traced loop.

- µs per call of the functions the ROADMAP baseline lists, re-measured on
  the workload's own corpus;
- each verification suite's rate at a fixed sample count, in samples per
  reference pass;
- the CLI's start-up costs, from fresh interpreter processes.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter_ns

from harness import ref_pass
from workloads import main_in_process, start_pass, tokens

MICRO_NS = 50_000_000  # one timing repeat of one function
MICRO_REPEATS = 3
VERIFY_SAMPLES = 200
SPAWNS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tropmat.cli; "
    "print(time.perf_counter() - t)"
)


def _us_per_call(fn, arg_list) -> float:
    """Median over repeats of the mean µs per call, cycling through arg_list."""
    reps = []
    for _ in range(MICRO_REPEATS):
        calls = 0
        t0 = perf_counter_ns()
        while True:
            for args in arg_list:
                fn(*args)
            calls += len(arg_list)
            t1 = perf_counter_ns()
            if t1 - t0 >= MICRO_NS:
                break
        reps.append((t1 - t0) / calls / 1e3)
    return statistics.median(reps)


def micro_timings(tm, workload) -> dict:
    mats = workload.matrices()[:64]
    pairs = list(zip(mats, mats[1:] + mats[:1]))
    scalars = [e for a in mats for row in a.rows for e in row]
    descs = workload.descriptors()[:64]
    spaces = [tm.proj_column_space(a) for a in mats]
    cases = {
        "semiring.scalar_mul_us": (lambda x, y: x * y, list(zip(scalars, scalars[1:] + scalars[:1]))),
        "matrix.matmul_us": (lambda a, b: a @ b, pairs),
        "matrix.left_residual_us": (lambda a, b: tm.left_residual(b, a), pairs),
        "matrix.solves_right_us": (lambda a, b: tm.solves_right(b, a), pairs),
        "matrix.parse_matrix_us": (tm.parse_matrix, [(tokens(a),) for a in mats]),
        "geometry.proj_column_space_us": (tm.proj_column_space, [(a,) for a in mats]),
        "green.related_J_us": (lambda a, b: tm.related(tm.GreenRelation.J, a, b), pairs),
        "green.leq_R_us": (tm.leq_R, pairs),
        "green.j_factorization_us": (
            tm.j_factorization,
            [(a, b) if tm.leq_J(a, b) else (b, a) for a, b in pairs],
        ),
        "structure.regular_witness_us": (tm.regular_witness, [(a,) for a in mats]),
        "structure.idempotent_in_H_us": (lambda s: tm.idempotent_in_H(s, s.negated()), [(s,) for s in spaces]),
        "ideals.ideal_contains_us": (
            tm.ideal_contains,
            [(descs[i % len(descs)], a) for i, a in enumerate(mats)],
        ),
        "ideals.ideal_compare_us": (tm.ideal_compare, list(zip(descs, descs[1:] + descs[:1]))),
        "cli.main_us": (lambda argv: main_in_process(tm, argv), [(argv,) for argv in workload.cold_argvs(16)]),
    }
    return {name: _us_per_call(fn, args) for name, (fn, args) in cases.items()}


def verify_rates(tm, seed: int) -> tuple[dict, int, int]:
    """Samples per reference pass for every suite, plus the total failed
    and total samples across suites."""
    out = {}
    failed = samples = 0
    for name in sorted(tm.verify.SUITES):
        before = ref_pass()
        t0 = perf_counter_ns()
        result = tm.verify.run_suite(name, VERIFY_SAMPLES, seed)
        elapsed = perf_counter_ns() - t0
        ref_ns = (before + ref_pass()) / 2
        out[f"verify.{name}.samples_per_ref"] = result.samples * ref_ns / elapsed
        failed += result.failed
        samples += result.samples
    return out, failed, samples


def cli_startup(root, env) -> dict:
    """Median wall ms of a bare interpreter start, and median in-child ms of
    ``import tropmat.cli`` in a fresh interpreter."""
    starts, imports = [], []
    for _ in range(SPAWNS):
        starts.append(start_pass(root, env) / 1e6)
    for _ in range(SPAWNS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=root, env=env, check=True, timeout=60, capture_output=True, text=True,
        )
        imports.append(float(proc.stdout) * 1e3)
    return {"cli.interp_start_ms": statistics.median(starts), "cli.import_ms": statistics.median(imports)}
