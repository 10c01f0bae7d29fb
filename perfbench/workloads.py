"""Workload definitions: host graphs, input generation, per-job checks and oracles.

Every input derives from the workload seed: vertex relabelings, the
``--seed`` passed to the program, and kernel files.  The program only ever
sees the generated files.  Each workload is a list of jobs run as a closed
loop with one client; a job is the sequence of CLI calls for one input and
is checked as a whole.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

BUDGET = 1000  # the CLI's default --budget; check jobs pass no --budget
EPS_GRID = (0.25, 0.5, 0.75)
N_GRID = (16, 32, 64, 128)
RANGE_TOL = 1e-9  # rounding slack on the moduli value ranges
DENSITY_RTOL = 1e-9  # t(H,W) agreement, relative to t(H,|W|)
PRINT_RTOL = 1e-11  # slack for the CLI's 12 significant digits

REFUTED = "refuted"


# ---------------------------------------------------------------------------
# Host graphs, written out independently of the program under test
# ---------------------------------------------------------------------------

def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def complete(n):
    return n, list(combinations(range(n), 2))


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def hypercube3():
    return 8, [(a, b) for a, b in combinations(range(8), 2) if bin(a ^ b).count("1") == 1]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + spokes + inner


def union(*graphs):
    n, edges = 0, []
    for gn, ge in graphs:
        edges += [(u + n, v + n) for u, v in ge]
        n += gn
    return n, edges


HOSTS = {
    "C4": cycle(4), "C5": cycle(5), "C6": cycle(6), "C8": cycle(8), "C12": cycle(12),
    "K3": complete(3), "K4": complete(4), "K5": complete(5),
    "K1,3": complete_bipartite(1, 3), "K2,3": complete_bipartite(2, 3),
    "K3,3": complete_bipartite(3, 3), "K3,4": complete_bipartite(3, 4),
    "K4,4": complete_bipartite(4, 4), "Q3": hypercube3(), "P4": path(4), "Petersen": petersen(),
    "C4+C4": union(cycle(4), cycle(4)), "C6+C6": union(cycle(6), cycle(6)),
    "C4+C4+C4": union(cycle(4), cycle(4), cycle(4)), "K4+K3": union(complete(4), complete(3)),
    "C4+C6": union(cycle(4), cycle(6)), "C6+C4+C4": union(cycle(6), cycle(4), cycle(4)),
    "C6+K3+K3": union(cycle(6), complete(3), complete(3)),
    "P4+K1,3": union(path(4), complete_bipartite(1, 3)),
}

# check-refute: hosts provably not (weakly / semi-) norming.  The trial at
# which the search stops depends on --seed, so each pass runs every host
# with many derived seeds.  Every run makes at least one whole pass, so a
# pass must fit well within a run: 15 rounds take about 20 s on 2 cores.  Two hosts run in round 0 only, because each job
# takes about a second: P4+K1,3, whose search often runs the whole budget,
# and K4,4, which is weakly norming (Hatami, Israel J. Math. 2010), so its
# verdict must not be "refuted"; its full 1000-trial search also raises
# OverflowError on some seeds.
REFUTE_HOSTS = [
    ("weak", h) for h in ("K3", "K4", "K5", "P4", "Petersen", "K4+K3", "C4+C6", "C6+C4+C4", "C6+K3+K3")
] + [("semi", h) for h in ("K2,3", "K3,3", "Q3", "K3,4")]
NORMING = {"K4,4"}
REFUTE_ROUNDS = 15
REFUTE_JOBS = [
    (r, *job) for r in range(REFUTE_ROUNDS)
    for job in REFUTE_HOSTS + ([("weak", "P4+K1,3"), ("weak", "K4,4")] if r == 0 else [])
]
# moduli-scan: each round relabels every host.  Under 30 % of labelings the
# engine materializes a parts^3 array for K2,3 (16 MB at 128 parts); with
# two K2,3 jobs per round, nearly every run shows it in peak memory.  Ten
# rounds, one whole pass, take about 25 s on 2 cores.
MODULI_ROUNDS = 10
MODULI_JOBS = [
    (r, kind, h) for r in range(MODULI_ROUNDS)
    for h in ("C4", "C6", "K2,3") for kind in ("smoothness", "convexity")
]
# density-eval: a sweep over part counts, so that job times cover their
# range without gaps and the median job moves smoothly with the machine
# rather than jumping between two job sizes.  Width-3 hosts whose
# elimination materializes a parts^4 array stop at 64 parts: Q3 always
# does, and K3,3 does under 90 % of vertex labelings, so at 128 parts
# either needs 2.1 GB.  The cost of a width-3 job depends on its labeling,
# so each run holds four rounds, each with fresh labelings and kernels.
DENSITY_ROUNDS = 4
DENSITY_JOBS = [
    (r, h, n) for r in range(DENSITY_ROUNDS)
    for h, n in [(h, n) for n in (32, 48, 64, 96, 128) for h in ("C5", "C6", "K2,3", "C4+C6", "K4")]
    + [(h, n) for n in (32, 48, 64) for h in ("K3,3", "Q3")]
]


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

@dataclass
class Job:
    """One unit of the closed loop: its label, files and the checks it needs."""

    label: str
    mode: str  # weak | semi | smoothness | convexity | density
    seed: int
    argv: list[str]
    round: int = 0  # the traced pass runs round 0 only
    index: int = 0  # place in the job list; failures are counted per job
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def _relabel(host: str, rng: random.Random):
    n, edges = HOSTS[host]
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(perm[u], perm[v]) for u, v in edges]


def _write_graph(path: Path, n: int, edges) -> None:
    lines = [f"vertices {n}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


def _random_kernel(parts: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random positive measures and signed symmetric values in [-0.5, 1)."""
    measures = rng.uniform(0.5, 1.5, parts)
    measures /= measures.sum()
    upper = np.triu(rng.uniform(-0.5, 1.0, (parts, parts)))
    values = upper + np.triu(upper, 1).T
    return measures, values


def generate(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write every input file of one workload under a fresh workdir; return its jobs."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = random.Random(f"{workload}/{seed}")
    jobs: list[Job] = []

    def graph_file(tag: str, host: str):
        n, edges = _relabel(host, rng)
        path = workdir / f"{tag}.txt"
        _write_graph(path, n, edges)
        return path, n, edges

    if workload == "check-refute":
        for i, (r, mode, host) in enumerate(REFUTE_JOBS):
            gpath, n, edges = graph_file(f"g{i}", host)
            s = rng.randrange(1000)
            cert = workdir / f"cert{i}.json"
            jobs.append(Job(f"{mode} {host} seed={s}", mode, s,
                            ["check", str(gpath), "--mode", mode, "--seed", str(s),
                             "--certificate-out", str(cert)], r,
                            files={"cert": cert, "extra": workdir / f"cert{i}-"},
                            expect={"n": n, "edges": edges, "norming": host in NORMING}))
    elif workload == "moduli-scan":
        for i, (r, kind, host) in enumerate(MODULI_JOBS):
            gpath, n, edges = graph_file(f"g{i}", host)
            s = rng.randrange(1000)
            argv = ["moduli", str(gpath), "--kind", kind,
                    "--eps-grid", ",".join(map(str, EPS_GRID)),
                    "--n-grid", ",".join(map(str, N_GRID)), "--seeds", str(s)]
            label = "v%d:%s" % (n, ";".join(f"{u}-{v}" for u, v in sorted(
                (min(e), max(e)) for e in edges)))
            jobs.append(Job(f"{kind} {host} seed={s}", kind, s, argv, r,
                            expect={"label": label}))
    elif workload == "density-eval":
        nrng = np.random.default_rng(rng.randrange(2**63))
        for i, (r, host, parts) in enumerate(DENSITY_JOBS):
            gpath, n, edges = graph_file(f"g{i}", host)
            measures, values = _random_kernel(parts, nrng)
            kpath = workdir / f"k{i}.json"
            kpath.write_text(json.dumps({"measures": measures.tolist(), "values": values.tolist()}))
            # Closed forms are computed on the JSON round trip the program reads.
            obj = json.loads(kpath.read_text())
            mu, w = np.array(obj["measures"]), np.array(obj["values"])
            jobs.append(Job(f"{host}@{parts} kernel={i}", "density", 0,
                            ["density", str(gpath), str(kpath)], r,
                            expect={"t": oracle(host, mu, w), "t_abs": oracle(host, mu, np.abs(w)),
                                    "m": len(edges), "ops": contraction_ops(host, parts)}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, job in enumerate(jobs):
        job.index = i
    return jobs


# ---------------------------------------------------------------------------
# Closed-form densities (independent of the program's elimination engine)
# ---------------------------------------------------------------------------

def t_cycle(k, mu, w):
    """tr((D^1/2 W D^1/2)^k)."""
    d = np.sqrt(mu)
    a = d[:, None] * w * d[None, :]
    return float(np.trace(np.linalg.matrix_power(a, k)))


def t_k2b(b, mu, w):
    """mu^T (M o^b) mu with M = W diag(mu) W."""
    m = (w * mu[None, :]) @ w
    return float(mu @ (m**b) @ mu)


def t_k4(mu, w):
    """Sum over the pair (a, b) of x_ab^T W x_ab, x_ab = mu o W_a o W_b."""
    n = len(mu)
    x = w[:, None, :] * w[None, :, :] * mu[None, None, :]
    inner = ((x.reshape(n * n, n) @ w) * x.reshape(n * n, n)).sum(axis=1).reshape(n, n)
    return float(mu @ (w * inner) @ mu)


def t_k33(mu, w):
    """Sum over a1, a2, a3 of mu-weights times (sum_b mu_b W_a1b W_a2b W_a3b)^3."""
    n = len(mu)
    z = w[:, None, :] * w[None, :, :] * mu[None, None, :]
    s = (z.reshape(n * n, n) @ w.T).reshape(n, n, n)
    weight = mu[:, None, None] * mu[None, :, None] * mu[None, None, :]
    return float((weight * s**3).sum())


def t_q3(mu, w):
    """Q3 is bipartite 4+4; each odd vertex sees three of the four even ones.

    With F(x, y, z) = sum_w mu_w W_xw W_yw W_zw the density is
    sum over even parts (a, b, c, d) of F(b,c,d) F(a,c,d) F(a,b,d) F(a,b,c).
    """
    f = np.einsum("w,xw,yw,zw->xyz", mu, w, w, w)
    g = np.einsum("b,c,d,bcd->bcd", mu, mu, mu, f)
    total = 0.0
    for a in range(len(mu)):
        fa = f[a]
        total += mu[a] * np.einsum("bcd,cd,bd,bc->", g, fa, fa, fa)
    return float(total)


def oracle(host: str, mu: np.ndarray, w: np.ndarray) -> float:
    """t(host, W) in closed form; disjoint unions by the product rule."""
    if "+" in host:
        return math.prod(oracle(part, mu, w) for part in host.split("+"))
    if host[0] == "C":
        return t_cycle(int(host[1:]), mu, w)
    if host.startswith("K2,"):
        return t_k2b(int(host[3:]), mu, w)
    return {"K4": t_k4, "K3,3": t_k33, "Q3": t_q3}[host](mu, w)


WIDTH = {"C5": 2, "C6": 2, "C4": 2, "K2,3": 2, "K4": 3, "K3,3": 3, "Q3": 3}


def contraction_ops(host: str, parts: int) -> int:
    """Sum over components of parts^(width+1): the work of one t(H,W)."""
    return sum(parts ** (WIDTH[c] + 1) for c in host.split("+"))


# ---------------------------------------------------------------------------
# Per-job checks.  Each returns (None, work units) or (kind, message, work
# units).  EXIT: a call raised or returned the wrong exit code, so the
# program itself signalled the failure.  OUTPUT: every exit code was as
# expected but an output is wrong, which makes the run incorrect.
# ---------------------------------------------------------------------------

EXIT = "exit"
OUTPUT = "output"


def _trials(verdict: dict) -> int:
    for c in verdict["checks"]:
        if c["name"] == "holder-search":
            ev = c["evidence"]
            if ev.startswith("found at trial "):
                return int(ev.split()[3]) + 1
            return int(verdict["trials"])
    return 0


def _verdict_errors(job: Job, verdict: dict) -> str | None:
    e = job.expect
    edges = sorted([min(u, v), max(u, v)] for u, v in e["edges"])
    if verdict["graph"] != {"vertices": e["n"], "edges": edges}:
        return "verdict graph differs from the input graph"
    if (verdict["mode"], verdict["seed"], verdict["trials"]) != (job.mode, job.seed, BUDGET):
        return "verdict mode, seed or trials differ from the request"
    return None


def check_refute(job: Job, calls) -> tuple[str | None, str | None, int]:
    rc, out = calls[0][0], calls[0][1]
    if rc not in (0, 3):
        return EXIT, f"check exit code {rc}", 0
    verdict = json.loads(out)
    trials = _trials(verdict)
    err = _verdict_errors(job, verdict)
    if err:
        return OUTPUT, err, trials
    refuted = verdict["overall"] == REFUTED
    if refuted and job.expect["norming"]:
        return OUTPUT, "proven weakly norming host refuted", trials
    if (rc == 3) != refuted:
        return EXIT, f"exit code {rc} with verdict {verdict['overall']!r}", trials
    certs = verdict["certificates"]
    if refuted and not certs:
        return OUTPUT, "refuted without a certificate", trials
    if certs and not job.files["cert"].is_file():
        return OUTPUT, "--certificate-out file not written", trials
    if certs and json.loads(job.files["cert"].read_text()) != certs[0]:
        return OUTPUT, "--certificate-out file differs from the first verdict certificate", trials
    if len(calls) != 1 + len(certs):
        return OUTPUT, "not every certificate was validated", trials
    for (vrc, vout, _), cert in zip(calls[1:], certs):
        if vrc != 0 or "valid = yes" not in vout.splitlines():
            detail = vout.strip().splitlines()[-1] if vout.strip() else f"exit {vrc}"
            return EXIT, f"{cert['kind']} certificate rejected by validate: {detail}", trials
    return None, None, trials


def check_moduli(job: Job, calls) -> tuple[str | None, str | None, int]:
    rc, out = calls[0][0], calls[0][1]
    if rc != 0:
        return EXIT, f"moduli exit code {rc}", 0
    lines = out.splitlines()
    if not lines or lines[0] != "graph,kind,epsilon,n,seed,value":
        return OUTPUT, "bad CSV header", 0
    rows = [ln.split(",") for ln in lines[1:]]
    expected = [(eps, n) for eps in EPS_GRID for n in N_GRID]
    if len(rows) != len(expected):
        return OUTPUT, f"{len(rows)} CSV rows, expected {len(expected)}", len(rows)
    kind = {"smoothness": "smoothness-lower-bound", "convexity": "convexity-upper-bound"}[job.mode]
    for row, (eps, n) in zip(rows, expected):
        label, rkind, reps, rn, rseed, rvalue = row
        if (label, rkind, float(reps), int(rn), int(rseed)) != (job.expect["label"], kind, eps, n, job.seed):
            return OUTPUT, f"unexpected CSV row {','.join(row)}", len(rows)
        value = float(rvalue)
        top = eps if job.mode == "smoothness" else 1.0
        if not (math.isfinite(value) and -RANGE_TOL <= value <= top + RANGE_TOL):
            return OUTPUT, f"{job.mode} value {value!r} outside [0, {top}] at eps={eps} n={n}", len(rows)
    return None, None, len(rows)


def check_density(job: Job, calls) -> tuple[str | None, str | None, int]:
    rc, out = calls[0][0], calls[0][1]
    e = job.expect
    if rc != 0:
        return EXIT, f"density exit code {rc}", e["ops"]
    fields = dict(ln.split(" = ", 1) for ln in out.splitlines())
    t, nh, nrh = (float(fields[k]) for k in ("t(H,W)", "norm_H(W)", "norm_rH(W)"))
    delta = DENSITY_RTOL * e["t_abs"]
    if abs(t - e["t"]) > delta:
        return OUTPUT, f"t(H,W) = {t!r}, closed form {e['t']!r}", e["ops"]
    lo = max(abs(e["t"]) - delta, 0.0) ** (1 / e["m"])
    hi = (abs(e["t"]) + delta) ** (1 / e["m"])
    if not lo * (1 - PRINT_RTOL) <= nh <= hi * (1 + PRINT_RTOL):
        return OUTPUT, f"norm_H(W) = {nh!r}, expected |t|^(1/e) in [{lo!r}, {hi!r}]", e["ops"]
    rh = e["t_abs"] ** (1 / e["m"])
    if abs(nrh - rh) > (DENSITY_RTOL / e["m"] + PRINT_RTOL) * rh:
        return OUTPUT, f"norm_rH(W) = {nrh!r}, expected t(H,|W|)^(1/e) = {rh!r}", e["ops"]
    return None, None, e["ops"]


CHECKS = {
    "check-refute": check_refute,
    "moduli-scan": check_moduli,
    "density-eval": check_density,
}
