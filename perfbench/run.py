"""graphnorms benchmark: one workload as a closed loop with one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload check-refute --seed 1 --seconds 35 --trace 0

Workloads: check-refute, moduli-scan, density-eval (see
perfbench/README.md).  Every job calls ``graphnorms.cli.main(argv)``
in-process on files generated from the seed, and every output is checked.
With ``--trace 0`` the last stdout line reports the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it reports the per-layer
metrics of one untraced and one traced pass over round 0 of the job list.
Inputs, results and spans go to .perfbench_runs/ in the repository root.
"""

from __future__ import annotations

import os

# One thread everywhere; must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_STARTS = 11  # spread evenly over the timed loop
TAIL_BEYOND = 10

# A fresh interpreter that imports the package and runs one CLI job.
CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import graphnorms; "
    "from graphnorms import cli; sys.exit(cli.main(sys.argv[2:]))"
)


@dataclass
class Outcome:
    index: int  # the job's place in the job list
    label: str
    seconds: float
    kind: str | None  # None, or workloads.EXIT / workloads.OUTPUT
    error: str | None
    work: int
    stdouts: list


class Runner:
    """Runs jobs through the CLI module in-process and checks their outputs."""

    def __init__(self, cli, workload: str, check):
        self.cli = cli
        self.workload = workload
        self.check = check

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)  # looked up per call, so tracing sees it
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a raising job is recorded as failed, not fatal
            rc = "raised " + traceback.format_exc().strip().splitlines()[-1]
        return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0

    def run(self, job) -> Outcome:
        if "cert" in job.files:  # a file left by an earlier run of the job must not pass its check
            job.files["cert"].unlink(missing_ok=True)
        calls = [self.call(job.argv)]
        if self.workload == "check-refute" and calls[0][0] in (0, 3):
            try:
                certs = json.loads(calls[0][1])["certificates"]
            except (ValueError, KeyError, TypeError):
                certs = []
            for i, cert in enumerate(certs):
                path = job.files["cert"]
                if i:
                    path = Path(f"{job.files['extra']}{i}.json")
                    path.write_text(json.dumps(cert, indent=2) + "\n")
                calls.append(self.call(["validate", str(path)]))
        seconds = sum(c[3] for c in calls)
        stdouts = [c[1] for c in calls]
        if isinstance(calls[0][0], str):
            return Outcome(job.index, job.label, seconds, workloads.EXIT, calls[0][0], 0, stdouts)
        try:
            kind, error, work = self.check(job, [c[:3] for c in calls])
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            kind, error, work = workloads.OUTPUT, f"unreadable output: {exc!r}", 0
        return Outcome(job.index, job.label, seconds, kind, error, work, stdouts)


def setup_time(job, reference: Outcome, failures: list, start: int) -> float:
    """Wall time of fresh interpreter -> import graphnorms -> first CLI call."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *job.argv],
                          capture_output=True, text=True, cwd=ROOT, timeout=150)
    seconds = time.perf_counter() - t0
    if proc.stdout != reference.stdouts[0]:
        failures.append((f"setup start {start}", f"setup start: {job.label}", workloads.OUTPUT,
                         "stdout differs from the in-process run"))
    return seconds


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    j = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[j], 100.0 * (j + 1) / len(ordered), len(ordered) - j - 1


def metadata() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def round_rates(jobs, outcomes) -> tuple[list[float], list[float]]:
    """Jobs and work units per second of job time, one value per complete round.

    A round is one relabeling of every host (of every host and part count on
    density-eval).
    The loop runs the list in order, so outcome k belongs to pass
    k // len(jobs) and to the round of job k % len(jobs).
    """
    size = Counter(job.round for job in jobs)
    groups: dict = {}
    for k, o in enumerate(outcomes):
        groups.setdefault((k // len(jobs), jobs[k % len(jobs)].round), []).append(o)
    done = [g for (_, r), g in groups.items() if len(g) == size[r]]
    busy = [sum(o.seconds for o in g) for g in done]
    return ([len(g) / b for g, b in zip(done, busy)],
            [sum(o.work for o in g) / b for g, b in zip(done, busy)])


def record_failures(outcomes, failures) -> None:
    failures.extend((f"job {o.index}", o.label, o.kind, o.error) for o in outcomes if o.error)


def measure(runner, jobs, seconds: float, failures: list) -> tuple[dict, dict]:
    reference = runner.run(jobs[0])  # warm-up: caches fill before timing
    record_failures([reference], failures)
    # Set-up starts are spread over the timed loop, between jobs, so that
    # their median sees the same machine as the jobs do.  At least one job
    # runs between two starts, so a short run still times jobs.  The loop
    # ends no earlier than one whole pass over the job list, so every run of
    # a seed checks the same jobs and its `failed` count repeats exactly.
    outcomes, setups = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while (now := time.perf_counter()) < deadline or len(outcomes) < len(jobs):
        if (len(setups) < SETUP_STARTS and len(setups) <= len(outcomes)
                and now >= start + len(setups) * seconds / SETUP_STARTS):
            setups.append(setup_time(jobs[0], reference, failures, len(setups)))
        else:
            outcomes.append(runner.run(jobs[len(outcomes) % len(jobs)]))
    while len(setups) < SETUP_STARTS:
        setups.append(setup_time(jobs[0], reference, failures, len(setups)))
    record_failures(outcomes, failures)
    rerun = runner.run(jobs[0])
    if rerun.stdouts != reference.stdouts:
        failures.append(("rerun", f"rerun: {jobs[0].label}", workloads.OUTPUT,
                         "stdout not byte-identical to the first run"))
    times = [o.seconds for o in outcomes]
    tail_s, pct, beyond = tail(times)
    # Rates are medians over rounds, so that a round with a seed-dependent
    # slow job (K4,4's full search takes 1.5-4 s) moves them no more than
    # any other round.
    job_rates, work_rates = round_rates(jobs, outcomes)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": statistics.median(job_rates),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": statistics.median(work_rates),
    }
    info = {"jobs": len(jobs), "passes": round(len(times) / len(jobs), 2), "tail_percentile": pct,
            "tail_beyond": beyond, "setup_times": setups, "attempted": len(jobs) + len(setups) + 1,
            "samples": {"setup_s": f"{len(setups)} starts", "peak_rss_mib": "1 process",
                        "jobs_per_s": f"{len(job_rates)} rounds", "work_per_s": f"{len(work_rates)} rounds",
                        "job_p50_s": f"{len(times)} jobs", "job_tail_s": f"{len(times)} jobs"}}
    return metrics, info


def trace(runner, jobs, graphnorms, failures: list, spans_path: Path) -> tuple[dict, dict]:
    import tracer as tracing

    jobs = [job for job in jobs if job.round == 0]
    record_failures([runner.run(jobs[0])], failures)  # warm-up
    plain = [runner.run(job) for job in jobs]
    record_failures(plain, failures)
    components = graphnorms.graphs.components
    elimination_plan = sys.modules["graphnorms.density"].elimination_plan
    rec = tracing.Tracer()
    rec.install(graphnorms)
    try:
        traced = []
        for i, job in enumerate(jobs):
            rec.current_job = i
            traced.append(runner.run(job))
    finally:
        rec.uninstall()
    record_failures(traced, failures)
    metrics = rec.metrics(components, elimination_plan)
    metrics["cli.stdout_bytes"] = sum(len(s.encode()) for o in traced for s in o.stdouts)
    rec.save(spans_path)
    plain_rate = len(plain) / sum(o.seconds for o in plain)
    traced_rate = len(traced) / sum(o.seconds for o in traced)
    info = {"jobs": len(jobs), "untraced_jobs_per_s": plain_rate, "traced_jobs_per_s": traced_rate,
            "tracing_overhead": plain_rate / traced_rate - 1.0, "spans": len(rec.start),
            "passes": 2, "attempted": len(jobs), "samples": {}}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "graphnorms" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no graphnorms sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphnorms
    import graphnorms.cli

    if Path(graphnorms.__file__).resolve().parent != SRC / "graphnorms":
        print(f"error: imported graphnorms from {graphnorms.__file__}, not {SRC}", file=sys.stderr)
        return 2
    rundir = RUNS / f"{args.workload}-seed{args.seed}"
    jobs = workloads.generate(args.workload, args.seed, rundir / "inputs")
    runner = Runner(graphnorms.cli, args.workload, workloads.CHECKS[args.workload])
    failures: list = []
    if args.trace:
        values, info = trace(runner, jobs, graphnorms, failures, rundir / "spans.npz")
        wanted = spec["per_layer"]
    else:
        values, info = measure(runner, jobs, args.seconds, failures)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    # A check is one job of the list (however often the loop ran it), one
    # set-up start or the rerun; it failed if any of its runs failed.
    attempted, failed = info["attempted"], len({key for key, *_ in failures})
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{info['passes']} pass(es) of {info['jobs']} jobs, {attempted} attempted")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(values.items()):
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        samples = f" ({info['samples'][name]})" if name in info["samples"] else ""
        print(f"  {name} = {value!r} {unit}{samples}")
    if args.trace:
        print(f"  tracing overhead: {info['traced_jobs_per_s']:.4g} traced vs "
              f"{info['untraced_jobs_per_s']:.4g} untraced jobs/s "
              f"({100 * info['tracing_overhead']:+.1f} %), {info['spans']} spans")
    else:
        print(f"  job_tail_s is p{info['tail_percentile']:.1f} with {info['tail_beyond']} jobs beyond it")
    print(f"  failed_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    for (label, kind, reason), count in Counter(tuple(f[1:]) for f in failures).items():
        print(f"  FAILED {count}x ({kind}) {label}: {reason}")
    meta = metadata()
    print("  " + " ".join(f"{k}={v}" for k, v in meta.items()))
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "metadata": meta, "info": info, "values": values,
              "failures": failures, "metrics": metrics}
    (rundir / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    # A failure signalled by the program (exception, wrong exit code) counts
    # in `failed`; a wrong output behind expected exit codes also makes the
    # run incorrect.
    correct = all(kind != workloads.OUTPUT for _, _, kind, _ in failures)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
