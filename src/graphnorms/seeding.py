"""Counter-based seed derivation.

Every random quantity in the package is keyed by a master seed plus a
few integer/str counters, so results are independent of iteration order
and identical across serial and parallel execution.

Two keyed sources serve different draws.  A draw that must be addressable
on its own, such as one block of a Hoelder-search decoration, is one
sha256 of its key (derive_seed, counter_uniform, key_uniform): certificates
and the check outputs depend on those exact values.  A draw consumed
whole, such as a moduli witness sample, takes all its uniforms from one
SHAKE-256 stream (key_uniforms), which costs one hash call instead of one
per block.

sha256 comes from the interpreter's built-in module, as the standard
`random` module takes its sha512: importing `hashlib` loads OpenSSL's
libcrypto, about 3.6 MiB of memory and 4.5 ms of start-up, and the built-in
digests are the same.  Only key_uniforms imports `hashlib`, for OpenSSL's
SHAKE-256: on a 66 KB stream (one n = 128 witness sample) it is about 2.7
times faster than the built-in one.
"""

from __future__ import annotations

import numpy as np

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256


def _key_seed(key: str) -> int:
    return int.from_bytes(sha256(key.encode("utf-8")).digest()[:8], "big")


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


def key_uniforms(key: str, count: int) -> np.ndarray:
    """count uniforms in [0, 1) read from one SHAKE-256 stream keyed by key.

    Uniform k is the top 53 bits of the k-th big-endian 8-byte word of the
    stream times 2^-53, so it is exact in float64 and at most 1 - 2^-53.
    A longer count extends the stream: the first k values never change.
    """
    import hashlib  # here, not at module level: see the module docstring

    words = np.frombuffer(hashlib.shake_256(key.encode("utf-8")).digest(8 * count), dtype=">u8")
    return (words >> np.uint64(11)) * 2.0**-53
