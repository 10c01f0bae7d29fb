"""Golden outputs: fixed CLI invocations must reproduce tests/golden/ byte for byte.

The determinism tests elsewhere compare a run with itself, so a refactor
could silently change every seeded number; these files pin the numbers.
A golden file changes only in a change that says why.  Large JSON outputs
(witness kernels embedded) are stored gzip-compressed.  The cert-*.json
inputs are the certificates of the check outputs (EMITTED, each equal to
its certificate in the check golden), certificates that earlier check
outputs carried, one domination certificate (C4 in C4+C6 under the dyadic
(1, 1) kernel) and one forged non-isomorphism certificate; refuted checks
and rejected certificates exit 3, so every case carries its exit code.

To (re)capture every file from the current code, or only the named ones
(an EMITTED certificate is taken from a fresh run of its check):

    PYTHONPATH=src python tests/test_golden.py [NAME ...]
"""

from __future__ import annotations

import contextlib
import difflib
import gzip
import io
import json
import sys
from pathlib import Path

import pytest

from graphnorms.cli import main

GOLDEN = Path(__file__).parent / "golden"

_MODULI_GRID = ["--eps-grid", "0.25,0.5,0.75", "--n-grid", "16,64", "--seeds", "0,5"]

# file name -> (exit code, argv); graph, kernel and certificate files are relative to GOLDEN
CASES: dict[str, tuple[int, list[str]]] = {}
for _graph in ("c4", "k23"):
    for _kind in ("convexity", "smoothness"):
        CASES[f"moduli-{_graph}-{_kind}.csv"] = (0, ["moduli", f"{_graph}.txt", "--kind", _kind, *_MODULI_GRID])
        CASES[f"moduli-{_graph}-{_kind}.json.gz"] = (0, [
            "moduli", f"{_graph}.txt", "--kind", _kind, *_MODULI_GRID, "--format", "json", "--witnesses",
        ])
CASES["check-k23-weak.json"] = (0, ["check", "k23.txt", "--mode", "weak", "--budget", "1000", "--seed", "0"])
# refuted hosts, together covering every certificate kind: case -> (mode, certificates in the verdict).
# P4+P4 carries a Hoelder hit on one P4, lifted to both copies.
_REFUTED = {
    "k4k3-weak": ("weak", 2), "c4c6-weak": ("weak", 2), "p4k13-weak": ("weak", 1), "k23-semi": ("semi", 1),
    "p4p4-weak": ("weak", 1),
}
# cert-<case>-<i>.json -> (check-<case>.json, i): the certificate it must equal
EMITTED = {f"cert-{c}-{i}.json": (f"check-{c}.json", i) for c, (_, n) in _REFUTED.items() for i in range(n)}
# Certificates that check emitted before components that are not all
# isomorphic settled the verdict alone, kept as validate inputs -> exit
# code: the subgraph-scan hit on K4+K3 and the Hoelder hits on K4+K3, C4+C6
# and P4+K1,3.  k4k3-weak-3 has rhs 0 and an lhs of 7e-22, far below the
# 1e-12 floor of validation; it is valid because one of its weak kernels
# has a density of exactly 0 on the host.
_STANDALONE = {"k4k3-weak-2": 0, "k4k3-weak-3": 0, "c4c6-weak-2": 0, "p4k13-weak-1": 0}
for _case, (_mode, _certs) in _REFUTED.items():
    _graph = _case.split("-")[0]
    CASES[f"check-{_case}.json"] = (3, ["check", f"{_graph}.txt", "--mode", _mode, "--budget", "300", "--seed", "0"])
    for _i in range(_certs):
        CASES[f"validate-{_case}-{_i}.txt"] = (0, ["validate", f"cert-{_case}-{_i}.json"])
for _cert, _code in _STANDALONE.items():
    CASES[f"validate-{_cert}.txt"] = (_code, ["validate", f"cert-{_cert}.json"])
CASES["validate-c4c6-domination.txt"] = (0, ["validate", "cert-c4c6-domination.json"])
# cert-c4c6-weak-1 (pair C4, C6) with its host replaced by C4+C4: the pair is
# not the host's components, so it is rejected
CASES["validate-c4c6-forged.txt"] = (3, ["validate", "cert-c4c6-forged.json"])
# the largest part count the moduli benchmark scans
CASES["moduli-c4-smoothness-n128.csv"] = (0, [
    "moduli", "c4.txt", "--kind", "smoothness", "--eps-grid", "0.25,0.5,0.75", "--n-grid", "128", "--seeds", "0,5",
])
for _graph in ("c6", "k4", "k33", "q3"):
    CASES[f"density-{_graph}.txt"] = (0, ["density", f"{_graph}.txt", "kernel5.json"])
# without witnesses, the JSON prints every value at full precision
CASES["moduli-c6-smoothness.json"] = (0, ["moduli", "c6.txt", "--kind", "smoothness", *_MODULI_GRID, "--format", "json"])
CASES["check-k34-semi.json"] = (3, ["check", "k34.txt", "--mode", "semi", "--budget", "300", "--seed", "0"])


def _run(argv: list[str]) -> tuple[int, str]:
    argv = [str(GOLDEN / a) if a.endswith((".txt", ".json")) else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _read(name: str) -> str:
    path = GOLDEN / name
    if name.endswith(".gz"):
        return gzip.decompress(path.read_bytes()).decode("utf-8")
    return path.read_text()


def _write(name: str, text: str) -> None:
    path = GOLDEN / name
    if name.endswith(".gz"):
        # mtime=0 keeps the compressed bytes reproducible
        path.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
    else:
        path.write_text(text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected_code, argv = CASES[name]
    code, out = _run(argv)
    assert code == expected_code
    expected = _read(name)
    if out != expected:
        diff = difflib.unified_diff(
            expected.splitlines(), out.splitlines(), "golden/" + name, "current", lineterm="", n=1
        )
        pytest.fail("output differs from the golden file:\n" + "\n".join(list(diff)[:40]))


@pytest.mark.parametrize("name", sorted(EMITTED))
def test_certificate_fixture_is_what_check_emits(name):
    check, index = EMITTED[name]
    assert json.loads(_read(name)) == json.loads(_read(check))["certificates"][index]


if __name__ == "__main__":
    # certificates first, so that the validate cases read the new ones
    _names = sys.argv[1:] or [*sorted(EMITTED), *sorted(CASES)]
    _unknown = [n for n in _names if n not in CASES and n not in EMITTED]
    if _unknown:
        sys.exit(f"unknown golden case(s): {', '.join(_unknown)}")
    for _name in _names:
        if _name in EMITTED:
            _check, _index = EMITTED[_name]
            _code, _out = _run(CASES[_check][1])
            _out = json.dumps(json.loads(_out)["certificates"][_index], indent=2) + "\n"
        else:
            _expected, _argv = CASES[_name]
            _code, _out = _run(_argv)
            if _code != _expected:
                sys.exit(f"{_name}: exit code {_code}, expected {_expected}")
        _write(_name, _out)
        print(f"wrote {_name} ({len(_out)} chars)")
