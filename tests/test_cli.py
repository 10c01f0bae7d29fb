"""Command-line surface: output formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphnorms
from graphnorms import (
    constant_kernel,
    disjoint_union,
    half_square_kernel,
    kernel_to_json,
    special_kernel,
)
from graphnorms.cli import main
from conftest import graph_text

GOLDEN = Path(__file__).parent / "golden"


def write_graph(tmp_path, g, name="graph.txt"):
    p = tmp_path / name
    p.write_text(graph_text(g))
    return str(p)


def write_kernel(tmp_path, w, name="kernel.json"):
    p = tmp_path / name
    p.write_text(json.dumps(kernel_to_json(w)))
    return str(p)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_constant_half(tmp_path, capsys, c4):
    code = main(["density", write_graph(tmp_path, c4), write_kernel(tmp_path, constant_kernel(0.5))])
    out = capsys.readouterr().out
    assert code == 0
    assert "t(H,W) = 0.0625" in out
    assert "elimination_width = 2" in out


def test_density_half_square_star(tmp_path, capsys, k12):
    code = main(["density", write_graph(tmp_path, k12), write_kernel(tmp_path, half_square_kernel())])
    out = capsys.readouterr().out
    assert code == 0
    assert "t(H,W) = 0.125" in out


def test_density_special_kernel(tmp_path, capsys, c4):
    code = main(["density", write_graph(tmp_path, c4), write_kernel(tmp_path, special_kernel(1.0, (1.0, 1.0)))])
    out = capsys.readouterr().out
    assert code == 0
    assert "t(H,W) = 2\n" in out


def test_density_twelve_significant_digits(tmp_path, capsys, c4):
    code = main(["density", write_graph(tmp_path, c4), write_kernel(tmp_path, constant_kernel(1 / 3))])
    out = capsys.readouterr().out
    assert code == 0
    assert "t(H,W) = 0.0123456790123" in out


def test_density_missing_file(tmp_path, capsys, c4):
    code = main(["density", str(tmp_path / "absent.txt"), write_kernel(tmp_path, constant_kernel(0.5))])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_density_bad_kernel_json(tmp_path, capsys, c4):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["density", write_graph(tmp_path, c4), str(bad)])
    assert code == 2


def test_density_kernel_value_beyond_float_range(tmp_path, capsys, c4):
    kernel = tmp_path / "huge.json"
    kernel.write_text(json.dumps({"measures": [0.5, 0.5], "values": [[10**400, 0], [0, 1]]}))
    code = main(["density", write_graph(tmp_path, c4), str(kernel)])
    captured = capsys.readouterr()
    assert code == 2
    assert "bad kernel JSON" in captured.err
    assert captured.out == ""


def test_density_ignores_isolated_vertices(tmp_path, capsys, c4):
    graph = tmp_path / "sparse.txt"
    graph.write_text("vertices 100000\n" + "".join(f"{u} {v}\n" for u, v in c4.sorted_edges))
    kernel = write_kernel(tmp_path, half_square_kernel())
    assert main(["density", str(graph), kernel]) == 0
    sparse = capsys.readouterr().out
    assert main(["density", write_graph(tmp_path, c4), kernel]) == 0
    assert sparse == capsys.readouterr().out
    assert "elimination_width = 2" in sparse


def test_density_bad_graph(tmp_path, capsys):
    p = tmp_path / "loop.txt"
    p.write_text("0 0\n")
    code = main(["density", str(p), write_kernel(tmp_path, constant_kernel(0.5))])
    assert code == 2
    assert "self-loop" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_c4_consistent(tmp_path, capsys, c4):
    code = main(["check", write_graph(tmp_path, c4), "--budget", "200", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    verdict = json.loads(out)
    assert verdict["overall"] == "consistent-with-weakly-norming"


def test_check_mixed_cycles_refuted(tmp_path, capsys, c4, c6):
    cert_path = tmp_path / "cert.json"
    code = main(
        [
            "check",
            write_graph(tmp_path, disjoint_union(c4, c6)),
            "--budget",
            "50",
            "--certificate-out",
            str(cert_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 3
    verdict = json.loads(out)
    assert verdict["overall"] == "refuted"
    kinds = [c["kind"] for c in verdict["certificates"]]
    assert "edge-count-mismatch" in kinds
    assert cert_path.exists()


def test_check_two_stars_consistent(tmp_path, capsys, k12):
    code = main(["check", write_graph(tmp_path, disjoint_union(k12, k12)), "--budget", "200"])
    out = capsys.readouterr().out
    assert code == 0
    verdict = json.loads(out)
    structural = {c["name"]: c["status"] for c in verdict["checks"]}
    assert structural["component-isomorphism"] == "pass"
    assert structural["component-average-degree"] == "pass"


def test_check_edgeless_graph(tmp_path, capsys):
    p = tmp_path / "edgeless.txt"
    p.write_text("vertices 3\n")
    code = main(["check", str(p)])
    assert code == 2


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------

def test_moduli_csv(tmp_path, capsys, c4):
    code = main(
        [
            "moduli",
            write_graph(tmp_path, c4),
            "--kind",
            "convexity",
            "--eps-grid",
            "0.5",
            "--n-grid",
            "16,32",
            "--seeds",
            "0,1,2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph,kind,epsilon,n,seed,value"
    assert len(lines) == 7


def test_moduli_json_with_witnesses(tmp_path, capsys, c4):
    code = main(
        [
            "moduli",
            write_graph(tmp_path, c4),
            "--kind",
            "smoothness",
            "--eps-grid",
            "0.5",
            "--n-grid",
            "16",
            "--seeds",
            "0",
            "--format",
            "json",
            "--witnesses",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    assert "witnesses" in records[0]
    assert len(records[0]["witnesses"]) == 2


def test_moduli_eps_out_of_range(tmp_path, capsys, c4):
    code = main(["moduli", write_graph(tmp_path, c4), "--kind", "smoothness", "--eps-grid", "1.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "(0, 1)" in err


@pytest.mark.parametrize("n_grid", ["0", "16,-2"])
def test_moduli_block_count_below_one(tmp_path, capsys, c4, n_grid):
    code = main(["moduli", write_graph(tmp_path, c4), "--kind", "convexity", "--n-grid", n_grid, "--seeds", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "at least 1" in captured.err
    assert captured.out == ""


_PEAK_SCRIPT = """
import sys, tracemalloc
from graphnorms.cli import main
tracemalloc.start()
code = main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _run_capped(argv):
    """Run main(argv) in a child under a 1 GiB address-space cap, so a
    missing guard fails there with a MemoryError instead of exhausting the
    machine; returns the child, its exit code and its traced peak."""
    src = str(Path(graphnorms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT, *argv],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space, timeout=120,
    )
    assert proc.stdout, proc.stderr  # a child that raised prints no exit code
    code, peak = map(int, proc.stdout.splitlines()[-1].split())
    return proc, code, peak


def test_moduli_huge_block_count_rejected_before_allocating(tmp_path, c4):
    # One 20000-part sample is a 2.98 GiB array.
    argv = ["moduli", write_graph(tmp_path, c4), "--kind", "convexity", "--n-grid", "16,20000", "--seeds", "0"]
    proc, code, peak = _run_capped(argv)
    assert code == 2
    assert "kernel values, over the" in proc.stderr
    assert peak < 2**20


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _fresh_certificate(tmp_path, capsys, c4, c6):
    cert_path = tmp_path / "cert.json"
    main(
        [
            "check",
            write_graph(tmp_path, disjoint_union(c4, c6)),
            "--budget",
            "10",
            "--certificate-out",
            str(cert_path),
        ]
    )
    capsys.readouterr()
    return cert_path


def test_validate_fresh_certificate(tmp_path, capsys, c4, c6):
    cert_path = _fresh_certificate(tmp_path, capsys, c4, c6)
    code = main(["validate", str(cert_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "valid = yes" in out


def test_validate_perturbed_certificate(tmp_path, capsys, c4, c6):
    cert_path = _fresh_certificate(tmp_path, capsys, c4, c6)
    doc = json.loads(cert_path.read_text())
    doc["decoration"]["kernels"][0]["values"][0][0] *= 1.1
    cert_path.write_text(json.dumps(doc))
    code = main(["validate", str(cert_path)])
    out = capsys.readouterr().out
    assert code == 3
    assert "valid = no" in out


def test_validate_malformed_json(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{]")
    code = main(["validate", str(p)])
    assert code == 2


def test_validate_wrong_schema(tmp_path, capsys):
    p = tmp_path / "scheme.json"
    p.write_text(json.dumps({"kind": "holder-violation"}))
    code = main(["validate", str(p)])
    assert code == 2


def test_validate_kernel_value_beyond_float_range(tmp_path, capsys, c4, c6):
    cert_path = _fresh_certificate(tmp_path, capsys, c4, c6)
    doc = json.loads(cert_path.read_text())
    doc["decoration"]["kernels"][0]["values"][0][0] = 10**400
    cert_path.write_text(json.dumps(doc))
    code = main(["validate", str(cert_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "bad kernel JSON" in captured.err
    assert captured.out == ""


def _equality_domination_certificate(tmp_path):
    # t(C4, 1/2) = 1/16 = t(C4 + C6, 1/2)^(4/10): an equality, which float
    # rounding of the right side turns into a violation of about 1e-17.
    doc = json.loads((GOLDEN / "cert-c4c6-domination.json").read_text())
    doc["kernel"] = {"measures": [1.0], "values": [[0.5]]}
    doc["lhs"] = doc["rhs"] = 0.0625
    path = tmp_path / "equality.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("margin", ["0", "-0.5", "1e-10", "nan", "inf"])
def test_validate_rejects_margin_below_check_tolerance(tmp_path, capsys, margin):
    code = main(["validate", _equality_domination_certificate(tmp_path), f"--margin={margin}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "margin" in captured.err
    assert captured.out == ""


def test_validate_nonisomorphism_certificate_with_isolated_host_vertex(tmp_path, capsys):
    doc = json.loads((GOLDEN / "cert-p4k13-weak-0.json").read_text())
    doc["graph"]["vertices"] += 1
    path = tmp_path / "isolated.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "valid = yes" in out


def test_validate_rejects_an_isolated_vertex_as_a_component(tmp_path, capsys):
    # Isolated vertices do not count as components: K2 plus a vertex is not
    # refuted by the pair (K1, K2).
    doc = {
        "kind": "component-nonisomorphism",
        "mode": "weak",
        "graph": {"vertices": 3, "edges": [[0, 1]]},
        "lhs": None,
        "rhs": None,
        "pair": [{"vertices": 1, "edges": []}, {"vertices": 2, "edges": [[0, 1]]}],
        "note": "forged",
    }
    path = tmp_path / "k1k2.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 3
    assert "not components of the host" in out


def test_validate_isomorphism_search_on_a_pair_of_large_graphs(tmp_path, capsys):
    # One edge among 1100 vertices in each graph of the pair: the search
    # places more vertices than Python's default recursion limit of 1000.
    doc = json.loads((GOLDEN / "cert-p4k13-weak-0.json").read_text())
    doc["pair"] = [{"vertices": 1100, "edges": [[0, 1]]}, {"vertices": 1100, "edges": [[1, 5]]}]
    path = tmp_path / "large-pair.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "stored components are isomorphic after all" in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "name,edit,code,detail",
    [
        # the host of C4 in C4+C6 declares 10^8 vertices
        ("cert-c4c6-domination.json", {"graph": {"vertices": 10**8}}, 0, "violation reproduced"),
        # a pair of 10^8-vertex graphs with one edge each
        (
            "cert-p4k13-weak-0.json",
            {"pair": [{"vertices": 10**8, "edges": [[0, 1]]}, {"vertices": 10**8, "edges": [[1, 5]]}]},
            3,
            "stored components are isomorphic after all",
        ),
    ],
)
def test_validate_isolated_vertices_cost_nothing(tmp_path, name, edit, code, detail):
    doc = json.loads((GOLDEN / name).read_text())
    for key, value in edit.items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    proc, exit_code, peak = _run_capped(["validate", str(path)])
    assert exit_code == code
    assert f"detail = {detail}" in proc.stdout
    assert peak < 2**20


@pytest.mark.parametrize(
    "field,value",
    [
        ("lhs", "oops"), ("rhs", [1.0]), ("lhs", True), ("rhs", False), ("mode", "strong"), ("mode", None),
        ("kind", ["holder-violation"]), ("kind", {"holder-violation": 1}),
    ],
)
def test_validate_rejects_bad_field_types(tmp_path, capsys, c4, c6, field, value):
    cert_path = _fresh_certificate(tmp_path, capsys, c4, c6)
    doc = json.loads(cert_path.read_text())
    doc[field] = value
    cert_path.write_text(json.dumps(doc))
    code = main(["validate", str(cert_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{field} must be" in captured.err.replace("'", "")
    assert captured.out == ""


_GOLDEN_CERTS = sorted(p.name for p in GOLDEN.glob("cert-*.json"))
_DELETE = "delete the field"
# what replaces the field: every JSON type, an integer beyond the float
# range, and a graph with a self-loop
_SWAPS = [None, True, "oops", [1.0], {"oops": 1}, 10**400, {"vertices": 2, "edges": [[1, 1]]}]


def _field_paths(node):
    """A field of a JSON document, at any depth, as the path of keys to it."""
    keys = sorted(node) if isinstance(node, dict) else range(len(node))

    def deeper(key):
        if not isinstance(node[key], (dict, list)) or not node[key]:
            return st.just((key,))
        return st.one_of(st.just((key,)), _field_paths(node[key]).map(lambda path: (key,) + path))

    return st.sampled_from(keys).flatmap(deeper)


_GOLDEN_FIELDS = st.sampled_from(_GOLDEN_CERTS).flatmap(
    lambda name: st.tuples(st.just(name), _field_paths(json.loads((GOLDEN / name).read_text())))
)


@contextlib.contextmanager
def _address_space_headroom(extra):
    """Cap this process's address space at its current size plus extra, so
    a runaway allocation raises MemoryError instead of exhausting the machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    in_use = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    cap = in_use + extra if hard == resource.RLIM_INFINITY else min(in_use + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_GOLDEN_FIELDS, st.sampled_from([_DELETE, *_SWAPS]))
@example(("cert-c4c6-weak-0.json", ("kind",)), ["holder-violation"])
@example(("cert-p4k13-weak-0.json", ("kind",)), {"oops": 1})
@example(("cert-c4c6-domination.json", ("graph", "vertices")), 10**400)
@example(("cert-k4k3-weak-1.json", ("graph", "vertices")), 10**400)
def test_validate_survives_any_one_field_mutation(tmp_path_factory, field, swap):
    # Exit 0 or 3 when the certificate still parses, 2 when it does not;
    # never a traceback, and no allocation that grows with a declared count.
    name, path = field
    doc = json.loads((GOLDEN / name).read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if swap == _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = swap
    cert = tmp_path_factory.mktemp("fuzz") / name
    cert.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with _address_space_headroom(2**30):
            code = main(["validate", str(cert)])
    assert code in (0, 2, 3)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _run_twice(argv, capsys):
    code1 = main(argv)
    out1 = capsys.readouterr()
    code2 = main(argv)
    out2 = capsys.readouterr()
    assert code1 == code2
    assert out1.out == out2.out
    return out1.out


def test_outputs_are_reproducible(tmp_path, capsys, c4, c6):
    gpath = write_graph(tmp_path, disjoint_union(c4, c6))
    kpath = write_kernel(tmp_path, half_square_kernel())
    _run_twice(["density", gpath, kpath], capsys)
    _run_twice(["check", gpath, "--budget", "30", "--seed", "5"], capsys)
    _run_twice(
        ["moduli", write_graph(tmp_path, c4), "--kind", "convexity", "--n-grid", "16", "--seeds", "0,1"],
        capsys,
    )


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_main_serves_every_command_in_one_process(tmp_path, capsys, c4, c6):
    graph = write_graph(tmp_path, c4)
    assert main(["density", graph, write_kernel(tmp_path, half_square_kernel())]) == 0
    assert "t(H,W) = 0.0625" in capsys.readouterr().out
    with pytest.raises(SystemExit) as err:
        main(["moduli", graph])  # --kind is required
    assert err.value.code == 2
    assert "--kind" in capsys.readouterr().err
    assert main(["moduli", graph, "--kind", "smoothness", "--n-grid", "4", "--seeds", "0"]) == 0
    assert capsys.readouterr().out.startswith("graph,kind,epsilon,n,seed,value\n")
    assert main(["check", graph, "--budget", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["overall"].startswith("consistent")
    cert_path = _fresh_certificate(tmp_path, capsys, c4, c6)
    with pytest.raises(SystemExit) as err:
        main(["validate", str(cert_path), "--margin", "wide"])
    assert err.value.code == 2
    assert "--margin" in capsys.readouterr().err
    assert main(["validate", str(cert_path)]) == 0
    assert "valid = yes" in capsys.readouterr().out
