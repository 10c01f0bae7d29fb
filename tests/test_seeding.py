"""Keyed uniform streams."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from graphnorms import seeding
from graphnorms.seeding import key_uniforms


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


class _FixedStream:
    """Stands in for hashlib.shake_256: words of all ones, all zeros, and
    only the 11 low bits set, which the top-53-bit rule drops."""

    def __init__(self, data: bytes):
        pass

    def digest(self, length: int) -> bytes:
        return (b"\xff" * 8 + b"\x00" * 8 + b"\x00" * 6 + b"\x07\xff")[:length]


def test_key_uniforms_stay_below_one(monkeypatch):
    monkeypatch.setattr(seeding.hashlib, "shake_256", _FixedStream)
    u = key_uniforms("any", 3)
    assert u.tolist() == [1.0 - 2.0**-53, 0.0, 0.0]
    assert u[0] < 1.0


def test_import_leaves_numpy_random_unloaded():
    # importing numpy.random costs about 15 ms of every start-up
    code = "import sys, graphnorms, graphnorms.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(seeding.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
