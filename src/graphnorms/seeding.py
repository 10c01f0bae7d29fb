"""Counter-based seed derivation.

Every random quantity in the package is keyed by a master seed plus a
few integer/str counters, so results are independent of iteration order
and identical across serial and parallel execution.
"""

from __future__ import annotations

import hashlib


def _key_seed(key: str) -> int:
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def derive_seed(*parts: object) -> int:
    """64-bit integer derived from the given key parts."""
    return _key_seed("/".join(map(str, parts)))


def counter_uniform(*parts: object) -> float:
    """Uniform float in [0, 1) keyed by the given parts."""
    return derive_seed(*parts) / 2.0**64


def key_uniform(key: str) -> float:
    """counter_uniform for parts already joined the way derive_seed joins
    them: key_uniform("a/1/2") == counter_uniform("a", 1, 2).  Lets a hot
    loop build its keys with one f-string each."""
    return _key_seed(key) / 2.0**64
