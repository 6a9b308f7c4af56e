"""Counter-based uniform random stream (splitmix64 finalizer).

Every variate is a pure function of (seed, sample index, slot, counter), so
results are bit-identical no matter how samples are batched or distributed
across workers.  Slots separate the independent draws a single sample needs
(one per coordinate, plus signs, plus the radial exponential); the counter
advances within a slot for rejection-style retries.

The functions operate on uint64 arrays.  Multiplication wraps modulo 2^64
by design; numpy warns on that overflow, so the public entry points run
under one errstate guard.
"""

import numpy as np

from .errors import DomainError

MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
GOLD = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SLOT_STRIDE = np.uint64(2**32)
_INV53 = 1.0 / 9007199254740992.0  # 2^-53


def _fin(z):
    z = (z + GOLD) & MASK
    z = ((z ^ (z >> np.uint64(30))) * _M1) & MASK
    z = ((z ^ (z >> np.uint64(27))) * _M2) & MASK
    return z ^ (z >> np.uint64(31))


def sample_bases_v(seed, indices):
    """Vector of per-sample stream keys for an array of sample indices.

    The seed is finalized twice so that close seeds decorrelate.
    """
    with np.errstate(over="ignore"):
        seed_arr = np.full(indices.shape, np.uint64(seed), dtype=np.uint64)
        return _fin((_fin(seed_arr) + GOLD * indices.astype(np.uint64)) & MASK)


def u01_v(bases, slot, k):
    """Uniforms on (0,1) for an array of stream keys at (slot, counter k).

    Exclusive at both ends: ((v >> 11) + 0.5) * 2^-53.  slot and k may be
    scalars or uint64 arrays broadcasting against bases.
    """
    with np.errstate(over="ignore"):
        slot = np.asarray(slot, dtype=np.uint64)
        k = np.asarray(k, dtype=np.uint64)
        off = GOLD * (slot * _SLOT_STRIDE + k)
        v = _fin((bases + off) & MASK)
        return ((v >> np.uint64(11)).astype(np.float64) + 0.5) * _INV53


def parse_seed(text) -> int:
    """Seed from decimal or hexadecimal text (or an int); must fit in 64 bits."""
    if isinstance(text, (int, np.integer)) and not isinstance(text, bool):
        seed = int(text)
    else:
        s = str(text).strip()
        try:
            seed = int(s, 16) if s.lower().startswith("0x") else int(s, 10)
        except ValueError:
            raise DomainError(f"seed must be decimal or 0x-hex text, got {text!r}")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed
