"""Golden outputs: fixed CLI invocations must reproduce tests/golden/ byte for byte.

The determinism tests elsewhere compare a run with itself, so a refactor
could silently change every seeded number; these files pin the numbers.
A golden file changes only in a change that says why.  Large JSON outputs
(witness kernels embedded) are stored gzip-compressed.  The cert-*.json
inputs are certificates taken from the check outputs, plus one domination
certificate (C4 in C4+C6 under the dyadic (1, 1) kernel) and one forged
non-isomorphism certificate; refuted checks and rejected certificates exit
3, so every case carries its exit code.

To (re)capture every file from the current code, or only the named ones:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]
"""

from __future__ import annotations

import contextlib
import difflib
import gzip
import io
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
# refuted hosts, together covering every certificate kind: case -> (mode, certificates in the verdict)
_REFUTED = {"k4k3-weak": ("weak", 4), "c4c6-weak": ("weak", 3), "p4k13-weak": ("weak", 2), "k23-semi": ("semi", 1)}
_REJECTED = {"k4k3-weak-3"}  # a Hoelder hit with rhs 0 and lhs below the 1e-12 floor of validation
for _case, (_mode, _certs) in _REFUTED.items():
    _graph = _case.split("-")[0]
    CASES[f"check-{_case}.json"] = (3, ["check", f"{_graph}.txt", "--mode", _mode, "--budget", "300", "--seed", "0"])
    for _cert in (f"{_case}-{_i}" for _i in range(_certs)):
        CASES[f"validate-{_cert}.txt"] = (3 if _cert in _REJECTED else 0, ["validate", f"cert-{_cert}.json"])
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


if __name__ == "__main__":
    _names = sys.argv[1:] or sorted(CASES)
    _unknown = [n for n in _names if n not in CASES]
    if _unknown:
        sys.exit(f"unknown golden case(s): {', '.join(_unknown)}")
    for _name in _names:
        _expected, _argv = CASES[_name]
        _code, _out = _run(_argv)
        if _code != _expected:
            sys.exit(f"{_name}: exit code {_code}, expected {_expected}")
        _write(_name, _out)
        print(f"wrote {_name} ({len(_out)} chars)")
