"""Counter-based uniform random stream (splitmix64 finalizer).

Every variate is a pure function of (seed, sample index, slot, counter), so
results are bit-identical no matter how samples are batched or distributed
across workers.  Slots separate the independent draws a single sample needs
(the sampler module documents its slot layout); the counter advances within
a slot for rejection-style retries.

The functions operate on uint64 arrays, whose arithmetic wraps modulo 2^64
as splitmix64 requires, so no masking is needed.  numpy warns on that
overflow for scalars, so the public entry points run under one errstate
guard.
"""

import re

import numpy as np

from .errors import DomainError

GOLD = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SLOT_STRIDE = np.uint64(2**32)
_INV53 = 1.0 / 9007199254740992.0  # 2^-53
# the digits int reads, without its digit-group underscores ("1_5" is 15)
_SEED = re.compile(r"0[xX][0-9a-fA-F]+|[0-9]+")


def _fin(z):
    """splitmix64 finalizer of z + GOLD.

    The sum is a fresh array, so the shift-xor and multiply steps run in
    place on it and z itself is never modified.
    """
    z = z + GOLD
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def sample_bases_v(seed, indices):
    """Vector of per-sample stream keys for an array of sample indices.

    The seed is finalized twice so that close seeds decorrelate.
    """
    with np.errstate(over="ignore"):
        key = _fin(np.uint64(seed))
        return _fin(key + GOLD * indices.astype(np.uint64, copy=False))


def u01_v(bases, slot, k):
    """Uniforms on (0,1) for an array of stream keys at (slot, counter k).

    Exclusive at both ends: ((v >> 11) + 0.5) * 2^-53.  slot and k may be
    scalars or uint64 arrays broadcasting against bases.
    """
    with np.errstate(over="ignore"):
        slot = np.asarray(slot, dtype=np.uint64)
        k = np.asarray(k, dtype=np.uint64)
        v = _fin(bases + GOLD * (slot * _SLOT_STRIDE + k))
        v >>= np.uint64(11)
        u = v.astype(np.float64)
        u += 0.5
        u *= _INV53
        return u


def parse_seed(text) -> int:
    """Seed from decimal or hexadecimal text (or an int); must fit in 64 bits."""
    if isinstance(text, (int, np.integer)) and not isinstance(text, bool):
        seed = int(text)
    else:
        s = str(text).strip()
        if not _SEED.fullmatch(s):
            raise DomainError(f"seed must be decimal or 0x-hex text, got {text!r}")
        seed = int(s, 16) if s.lower().startswith("0x") else int(s, 10)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed
