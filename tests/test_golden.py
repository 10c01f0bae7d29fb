"""Golden outputs: fixed CLI invocations must reproduce tests/golden/ byte for byte.

The determinism tests elsewhere compare a run with itself, so a refactor
could silently change every seeded number; these files pin the numbers.
A golden file changes only in a change that says why.  Large JSON outputs
(witness kernels embedded) are stored gzip-compressed.

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

# file name -> argv (graph and kernel files are relative to GOLDEN)
CASES: dict[str, list[str]] = {}
for _graph in ("c4", "k23"):
    for _kind in ("convexity", "smoothness"):
        CASES[f"moduli-{_graph}-{_kind}.csv"] = ["moduli", f"{_graph}.txt", "--kind", _kind, *_MODULI_GRID]
        CASES[f"moduli-{_graph}-{_kind}.json.gz"] = [
            "moduli", f"{_graph}.txt", "--kind", _kind, *_MODULI_GRID, "--format", "json", "--witnesses",
        ]
CASES["check-k23-weak.json"] = ["check", "k23.txt", "--mode", "weak", "--budget", "1000", "--seed", "0"]
for _graph in ("c6", "k4", "k33"):
    CASES[f"density-{_graph}.txt"] = ["density", f"{_graph}.txt", "kernel5.json"]


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
    code, out = _run(CASES[name])
    assert code == 0
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
        _code, _out = _run(CASES[_name])
        if _code != 0:
            sys.exit(f"{_name}: exit code {_code}")
        _write(_name, _out)
        print(f"wrote {_name} ({len(_out)} chars)")
