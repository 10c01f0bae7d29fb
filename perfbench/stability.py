"""Run-to-run stability check for the benchmark.

    python3 perfbench/stability.py --seeds 1-10 [--out results.json]

Runs perfbench/run.py once per (workload, seed) with tracing off and prints,
for every end-to-end metric, the spread between the first and third
quartiles of the runs as a share of their median next to the metric's
bound.  It also runs the traced pass twice on the first seed of each
workload and asserts that every exact counter (unit count, B or ratio)
repeats exactly.  Exits 1 when a spread exceeds its bound or a counter
differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "B", "ratio")


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write all results to this JSON file")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    ok = True
    report: dict = {"seeds": seeds, "run_seconds": spec["run_seconds"]}
    for workload in names:
        results = [run(spec, workload, s, 0) for s in seeds]
        meta = json.loads((ROOT / ".perfbench_runs" / f"{workload}-seed{seeds[-1]}"
                           / "result-trace0.json").read_text())["metadata"]
        summary = report[workload] = {"metadata": meta, "metrics": {}, "runs": results}
        print(f"{workload}: {len(seeds)} seeds, failed "
              f"{[r['failed'] for r in results]} of {[r['attempted'] for r in results]}, "
              f"correct {all(r['correct'] for r in results)}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q = summary["metrics"][m["name"]] = quartiles(values)
            s = q["spread"]
            flag = "" if s <= m["bound"] / 3 else (
                "  ABOVE BOUND/3" if s <= m["bound"] else "  ABOVE BOUND")
            ok = ok and s <= m["bound"]
            print(f"  {m['name']:14s} median {q['median']:.6g} {m['unit']:5s} "
                  f"spread {100 * s:5.1f} % (bound {100 * m['bound']:.0f} %){flag}")
        first, second = (run(spec, workload, seeds[0], 1) for _ in range(2))
        exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
        diff = [n for n in exact if first["metrics"][n] != second["metrics"][n]]
        print(f"  exact counters: {len(exact) - len(diff)}/{len(exact)} repeat exactly"
              + (f"; DIFFER: {diff}" if diff else ""))
        ok = ok and not diff
        summary["trace"] = first["metrics"]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
