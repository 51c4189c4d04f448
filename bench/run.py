"""Benchmark of tropmat's public API: one workload per invocation.

    python3 bench/run.py --workload relate-oracle --seed 1 --seconds 12 --trace 0

Runs from the root of a checkout and imports tropmat from its ``src``.  It
sets up (fresh import plus corpus) several times and keeps the median,
then drives the workload as a closed loop with one client, checks every
op by an independent route, and prints a SHA-256 digest of the first
decisions.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the ``end_to_end`` ones of
BENCHMARK.json.  With ``--trace 1`` they are the ``per_layer`` ones, from a
separate traced run (see tracing.py and perlayer.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from harness import op_ref_pass, peak_rss_mb, ref_pass, run_loop  # noqa: E402
import perlayer  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, CliCold, cold_call, main_in_process, start_pass  # noqa: E402

SETUP_REPEATS = 7
# Calibrated times are reported on a nominal host: one on which a reference
# loop pass takes REF_NOMINAL_NS and a bare interpreter start takes
# START_NOMINAL_MS.  Multiply by (measured pass / nominal pass) to get back
# to this host's wall time; both passes are reported beside the results.
REF_NOMINAL_NS = 1_500_000
START_NOMINAL_MS = 60.0
# In-process workloads spend the second half of a run timing fresh CLI
# processes that ask their kind of question, COLD_ARGVS commands in turn.
COLD_ARGVS = 12
# About two fresh processes per bare-start reference pass.
COLD_CHUNK_NS = 250_000_000
# The traced run spends this share of --seconds on an untraced pass, then
# replays the same ops traced.
TRACE_SHARE = 1 / 3
SPAN_DIR = BENCH / "out"


def load_tropmat():
    """Import tropmat afresh from this checkout's src."""
    for name in [m for m in sys.modules if m == "tropmat" or m.startswith("tropmat.")]:
        del sys.modules[name]
    tm = importlib.import_module("tropmat")
    importlib.import_module("tropmat.cli")
    if Path(tm.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"tropmat imported from {tm.__file__}, not from {SRC}")
    return tm


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def make_workload(tm, name, seed):
    """The workload's in-process op stream; for cli-cold that is
    ``cli.main`` over the fixed command mix."""
    if name == CliCold.name:
        return CliCold(tm, seed, lambda argv: main_in_process(tm, argv))
    return WORKLOADS[name](tm, seed)


def setup(name, seed):
    """Set up SETUP_REPEATS times; return the last tropmat and workload with
    the median set-up seconds and the median corpus-generation seconds,
    both calibrated to the nominal host by reference passes around each."""
    totals, corpus = [], []
    for _ in range(SETUP_REPEATS):
        r0 = ref_pass()
        t0 = perf_counter()
        tm = load_tropmat()
        t1 = perf_counter()
        workload = make_workload(tm, name, seed)
        t2 = perf_counter()
        scale = REF_NOMINAL_NS / ((r0 + ref_pass()) / 2)
        totals.append((t2 - t0) * scale)
        corpus.append((t2 - t1) * scale)
    return tm, workload, statistics.median(totals), statistics.median(corpus)


def cold_cases(tm, workload) -> list:
    """CLI cases asking the workload's kind of question.  For cli-cold they
    are its fixed mix; otherwise each expects what ``cli.main`` prints for
    the same argv in this process."""
    if isinstance(workload, CliCold):
        return workload.cases
    cases = []
    for argv in workload.cold_argvs(COLD_ARGVS):
        stdout, code = main_in_process(tm, argv)
        cases.append({"argv": argv, "stdout": json.loads(stdout)} if code == 0 else {"argv": argv, "error": True})
    return cases


def end_to_end(name, seed, seconds):
    """Half the run on in-process ops, half on fresh CLI processes asking
    the same kind of question.  A fresh process is timed against a bare
    interpreter start rather than the in-process reference loop."""
    tm, workload, setup_s, _ = setup(name, seed)
    digest = hashlib.sha256()
    env = child_env()
    gc.collect()
    stats = run_loop(workload, workload.inputs(), seconds / 2, digest, op_ref=op_ref_pass)
    calls = CliCold(tm, seed, lambda argv: cold_call(argv, ROOT, env), cold_cases(tm, workload))
    cold = run_loop(
        calls, calls.inputs(), seconds / 2, digest, ref=lambda: start_pass(ROOT, env), chunk_ns=COLD_CHUNK_NS
    )
    attempted = stats.attempted + cold.attempted
    failed = stats.failed + cold.failed
    metrics = {
        "setup_s": setup_s,
        "ops_per_ref": stats.ops_per_ref,
        "op_p50_ref": stats.latency_quantile(0.50),
        "op_p99_ref": stats.latency_quantile(0.99),
        "cold_p50_ms": cold.latency_quantile(0.50) * START_NOMINAL_MS,
        "cold_p90_ms": cold.latency_quantile(0.90) * START_NOMINAL_MS,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(
        f"host ref_pass_us={stats.ref_us:.1f} ops_per_s_raw={stats.ops_per_s_raw:.2f} "
        f"chunks={len(stats.chunk_rates)} straddled={len(stats.straddled)} "
        f"cold_calls={cold.attempted} cold_straddled={len(cold.straddled)} "
        f"start_pass_ms={cold.ref_us / 1e3:.1f} cold_p50_wall_ms={cold.latency_ns.quantile(0.5) / 1e6:.1f}"
    )
    return digest, workload, attempted, failed, stats.unexpected + cold.unexpected, metrics


def per_layer(name, seed, seconds):
    tm, workload, _, corpus_s = setup(name, seed)
    digest = hashlib.sha256()
    gc.collect()
    plain = run_loop(workload, workload.inputs(), seconds * TRACE_SHARE, digest)

    # The same inputs again, traced.
    replay = make_workload(tm, name, seed)
    tracer = Tracer(tm, replay.prefix_ops)
    tracer.install()
    try:
        inputs = list(itertools.islice(replay.inputs(), plain.attempted))
        gc.collect()
        traced = run_loop(replay, iter(inputs), float("inf"), on_op=tracer.begin_op)
        tracer.end_ops()
    finally:
        tracer.uninstall()
    tracer.write_spans(SPAN_DIR / f"spans-{name}-seed{seed}.jsonl")

    ops = traced.attempted
    counted = min(ops, replay.prefix_ops)
    calls = tracer.calls
    proj_calls = calls["geometry.proj_column_space"]
    metrics = {
        "semiring.scalars_per_op": sum(
            n for k, n in calls.items() if k.startswith("semiring.") and k.endswith(".__init__")
        ) / counted,
        "matrix.matmul_per_op": calls["matrix.TropMatrix.__matmul__"] / counted,
        "matrix.residuals_per_op": calls["matrix.left_residual"] / counted,
        "geometry.proj_spaces_per_op": proj_calls / counted,
        "geometry.proj_space_unique_frac": len(tracer.proj_inputs) / proj_calls if proj_calls else 0.0,
        "sampling.corpus_s": corpus_s,
        "host.ref_loop_us": plain.ref_us,
        "host.ops_per_s_raw": plain.ops_per_s_raw,
        "trace.overhead_frac": plain.ops_per_ref / traced.ops_per_ref - 1,
    }
    for layer in ("matrix", "geometry", "green", "structure", "ideals"):
        metrics[f"{layer}.self_us_per_op"] = tracer.self_ns[layer] / ops / 1e3
    for layer in LAYERS:
        metrics[f"{layer}.errors_per_op"] = tracer.errors[layer] / ops
    metrics.update(perlayer.micro_timings(tm, workload))
    rates, suite_failed, suite_samples = perlayer.verify_rates(tm, seed)
    metrics.update(rates)
    metrics["verify.errors_per_op"] = suite_failed / suite_samples
    metrics.update(perlayer.cli_startup(ROOT, child_env()))

    unexpected = plain.unexpected + traced.unexpected
    if suite_failed:
        unexpected.append(f"{suite_failed} verification suite samples failed")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed + suite_failed
    return digest, workload, attempted, failed, unexpected, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        load_tropmat()
    except ImportError as exc:
        print(f"cannot import tropmat from {SRC}: {exc}", file=sys.stderr)
        return 2

    run = per_layer if args.trace else end_to_end
    digest, workload, attempted, failed, unexpected, metrics = run(args.workload, args.seed, args.seconds)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise AssertionError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")

    for problem in unexpected[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        f"digest {args.workload} seed={args.seed} trace={args.trace} "
        f"first_ops={workload.prefix_ops} sha256={digest.hexdigest()}"
    )
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
