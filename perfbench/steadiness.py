"""Run the benchmark over several seeds and report how steady each metric is.

For every workload and end-to-end metric this prints the median over the
runs and the spread -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- both for
the gated values and, for timings, raw and at reference speed, which is the
evidence for the gate rule in ``run.py``::

    python3 perfbench/steadiness.py --workloads airfoil-tiny,airfoil-large \\
        --seeds 1-10 --seconds 45 --save perfbench/evidence/set-a.json

Runs execute one after another; a run that fails or prints an incorrect
result stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args()

    summary: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            started = time.time()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            wall = time.time() - started
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            details = json.loads(
                (ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text()
            )
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                return 1
            runs.append({"seed": seed, "wall_s": wall, "details": details})
            print(f"{workload} seed {seed}: {wall:.1f} s", flush=True)

        metrics = sorted(runs[0]["details"]["end_to_end"])
        table = {}
        for metric in metrics:
            row = {}
            for kind in ("end_to_end", "end_to_end_raw", "end_to_end_corrected"):
                values = [r["details"][kind].get(metric) for r in runs]
                if None in values:
                    continue
                row[kind] = {
                    "median": statistics.median(values),
                    "spread": spread(values),
                    "values": values,
                }
            table[metric] = row
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "host": runs[0]["details"]["host"],
            "metrics": table,
        }
        print(f"\n{workload}: {'metric':<18} {'median':>10} {'gated':>7} {'raw':>7} {'corr':>7}")
        for metric, row in table.items():
            gated = row["end_to_end"]
            raw = row.get("end_to_end_raw", {}).get("spread", float("nan"))
            corr = row.get("end_to_end_corrected", {}).get("spread", float("nan"))
            print(
                f"  {metric:<26} {gated['median']:10.4g} {gated['spread']:7.3f} "
                f"{raw:7.3f} {corr:7.3f}"
            )
        print(flush=True)
    if args.save is not None:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
