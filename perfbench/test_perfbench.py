"""Tests for the benchmark's own arithmetic: closed-form density oracles,
span self times and the tracing wrappers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import graphnorms  # noqa: E402
from graphnorms import Graph, StepKernel, density_bruteforce  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ORACLE_HOSTS = ["C4", "C5", "C6", "K2,3", "K4", "K3,3", "Q3", "C4+C6"]


def host_graph(name: str) -> Graph:
    n, edges = workloads.HOSTS[name]
    return Graph.from_edges(edges, vertex_count=n)


@pytest.mark.parametrize("host", ORACLE_HOSTS)
@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_oracle_matches_bruteforce(host, parts):
    rng = np.random.default_rng([parts, len(host)])
    mu, w = workloads._random_kernel(parts, rng)
    for values in (w, np.abs(w)):
        expected = density_bruteforce(host_graph(host), StepKernel(mu, values))
        got = workloads.oracle(host, mu, values)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_contraction_ops_uses_component_widths():
    assert workloads.contraction_ops("C4+C6", 10) == 2 * 10**3
    assert workloads.contraction_ops("K3,3", 10) == 10**4


def test_self_time_subtracts_children_only():
    # root [0, 10] has children A [1, 4] and B [5, 9]; B has child C [6, 7].
    # A and C share a name, so their self times add up.
    names = np.array([0, 1, 2, 1])
    parents = np.array([-1, 0, 0, 2])
    starts = np.array([0.0, 1.0, 5.0, 6.0])
    ends = np.array([10.0, 4.0, 9.0, 7.0])
    selfs = tracer.per_name_self_time(names, parents, starts, ends, 3)
    assert selfs.tolist() == [3.0, 4.0, 3.0]


def test_tracer_catches_inner_calls_and_uninstalls(tmp_path):
    from graphnorms import cli

    norming = sys.modules["graphnorms.norming"]
    original = norming.density_many
    graph = tmp_path / "c4.txt"
    graph.write_text("0 1\n1 2\n2 3\n0 3\n")
    rec = tracer.Tracer()
    rec.install(graphnorms)
    try:
        assert norming.density_many is not original
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", str(graph), "--budget", "5"]) == 0
    finally:
        rec.uninstall()
    assert norming.density_many is original
    m = rec.metrics(graphnorms.graphs.components, sys.modules["graphnorms.density"].elimination_plan)
    assert m["cli.main.calls"] == 1
    assert m["norming.holder_search.calls"] == 1
    assert m["norming.holder_search.trials"] == m["norming.holder_check.calls"] == 5
    assert m["density.density_many.calls"] == m["density.decorated_density.calls"] == 5
    assert m["seeding.derive_seed.calls"] > 0
    assert m["graphs.enumerate_subgraphs.yielded"] == 2**4 - 1
    assert m["density.ops_computed"] > 0
    # Self times partition the root span.
    a = rec.arrays()
    root = a["parent"] == -1
    total = float((a["end"] - a["start"])[root].sum())
    assert sum(m[f"{mod}.self_s"] for mod in tracer.MODULES) == pytest.approx(total, rel=1e-9)
