"""Run every workload and print every metric by name, with its unit.

    python3 bench/report.py                      # end-to-end metrics, seed 1
    python3 bench/report.py --trace              # per-layer metrics instead
    python3 bench/report.py --seeds 1,2,3 --write-baseline

Each workload runs in a fresh process (``run.py``).  Besides the metrics
it prints ``failed_frac`` (failed / attempted ops) and the decision
digest.  With several seeds it prints the median and quartiles of each
metric and its spread, (q3 - q1) / median; ``--write-baseline`` stores
them, with the host and Python, in the ``baseline`` section of
bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"


def run_once(workload, seed, seconds, trace) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.startswith(("digest", "host"))]


def summarize(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "runs": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads(BASELINE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=str(baseline["default_seed"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="the traced per-layer run instead")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    mode = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[mode]} | {"failed_frac": "frac"}

    summary = {}
    for w in spec["workloads"]:
        name = w["name"]
        values = {metric: [] for metric in units}
        for seed in seeds:
            result, notes = run_once(name, seed, args.seconds, args.trace)
            for note in notes:
                print(f"{name}: {note}")
            for metric, v in result["metrics"].items():
                values[metric].append(v["value"])
            values["failed_frac"].append(result["failed"] / result["attempted"])
            if not result["correct"]:
                print(f"{name}: seed {seed}: INCORRECT", file=sys.stderr)
        print(f"== {name} ({mode}, seeds {args.seeds})")
        for metric, vals in values.items():
            s = summary.setdefault(name, {})[metric] = summarize(vals)
            extra = ""
            if "q1" in s:
                spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
                extra = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread:.1%}"
            print(f"  {metric:<40} {s['median']:>14.6g} {units[metric]}{extra}")

    if args.write_baseline:
        section = baseline.setdefault("baseline", {})
        section["host"] = (
            f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.platform()}, "
            f"Python {platform.python_version()}"
        )
        section[mode] = {"seeds": seeds, "run_seconds": args.seconds, "workloads": summary}
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
