"""Keyed uniform streams."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from graphnorms import seeding
from graphnorms.seeding import _key_seed, key_uniforms


def test_key_uniforms_reproducible_and_keyed():
    a = key_uniforms("moduli/u1/0/0/16", 136)
    assert a.dtype == np.float64 and a.shape == (136,)
    assert a.tobytes() == key_uniforms("moduli/u1/0/0/16", 136).tobytes()
    assert not np.array_equal(a, key_uniforms("moduli/u1/0/1/16", 136))
    assert not np.array_equal(a, key_uniforms("moduli/u2/0/0/16", 136))
    # one stream: a shorter draw is a prefix of a longer one
    assert np.array_equal(key_uniforms("moduli/u1/0/0/16", 10), a[:10])
    assert np.all((a >= 0.0) & (a < 1.0))
    assert key_uniforms("k", 0).size == 0


@given(st.text(st.characters(exclude_categories=("Cs",))))  # no lone surrogates: UTF-8 has none
def test_key_seed_is_the_top_of_the_sha256_digest(key):
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    assert _key_seed(key) == int.from_bytes(digest[:8], "big")


class _FixedStream:
    """Stands in for hashlib.shake_256: words of all ones, all zeros, and
    only the 11 low bits set, which the top-53-bit rule drops."""

    def __init__(self, data: bytes):
        pass

    def digest(self, length: int) -> bytes:
        return (b"\xff" * 8 + b"\x00" * 8 + b"\x00" * 6 + b"\x07\xff")[:length]


def test_key_uniforms_stay_below_one(monkeypatch):
    # key_uniforms imports hashlib when called and looks shake_256 up there
    monkeypatch.setattr(hashlib, "shake_256", _FixedStream)
    u = key_uniforms("any", 3)
    assert u.tolist() == [1.0 - 2.0**-53, 0.0, 0.0]
    assert u[0] < 1.0


def test_import_leaves_numpy_random_unloaded():
    # importing numpy.random costs about 15 ms of every start-up
    code = "import sys, graphnorms, graphnorms.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(seeding.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_check_leaves_openssl_unloaded(tmp_path):
    # importing hashlib loads libcrypto, about 3.6 MiB; only moduli scans need it
    graph = tmp_path / "c4.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    code = (
        "import sys, graphnorms, graphnorms.cli; "
        "rc = graphnorms.cli.main(['check', sys.argv[1], '--budget', '20']); "
        "print(rc, '_hashlib' in sys.modules, file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(seeding.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(graph)], capture_output=True, text=True, check=True, env=env)
    assert out.stderr.split() == ["0", "False"]
