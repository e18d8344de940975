"""Deterministic random number generation built on SplitMix64.

Every random draw in the package (weight init, per-epoch shuffles, synthetic
data) comes from a SplitMix64 stream so that any run is reproducible from a
single integer seed, independent of numpy's global RNG state and of library
versions. Gaussian, uniform and shuffle draws all take their raw outputs from
`SplitMix64.next_u64_array`.

Substreams are derived with `derive`, which mixes a domain constant and an
index into the seed. The domain constants below are part of the on-disk /
cross-run reproducibility contract: changing them changes every derived
stream.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Substream domains. Keep values stable; they define the reproducibility contract.
DOMAIN_INIT = 1  # parameter initialisation
DOMAIN_SHUFFLE = 2  # per-epoch batch order (index = epoch)
DOMAIN_TEMPLATE = 3  # synthetic class mean templates (index = class)
DOMAIN_TRAIN = 4  # synthetic train split noise (index = class)
DOMAIN_TEST = 5  # synthetic test split noise (index = class)


def _mix(z: int) -> int:
    """One SplitMix64 output step applied to a raw 64-bit value."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 generator (Vigna's reference constants)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64_array(self, n: int) -> np.ndarray:
        """The next n raw outputs, the one draw path. SplitMix64 is counter-based
        (output_i = mix(state + i*GOLDEN)), so any split of n draws gives these."""
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        idx = np.arange(1, n + 1, dtype=np.uint64)
        states = np.uint64(self.state) + idx * np.uint64(_GOLDEN)
        self.state = int(states[-1])
        z = (states ^ (states >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def gauss_array(self, shape: tuple[int, ...] | int, std: float = 1.0) -> np.ndarray:
        """Standard normal draws via Box-Muller; n draws consume 2*ceil(n/2)
        raw outputs (pairs produce cos/sin values in that order)."""
        n = int(np.prod(shape))
        pairs = (n + 1) // 2
        raw = self.next_u64_array(2 * pairs)
        u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return (out[:n] * std).reshape(shape)

    def uniform_array(self, shape: tuple[int, ...] | int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape))
        raw = (self.next_u64_array(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (raw * (high - low) + low).reshape(shape)


def derive(seed: int, domain: int, index: int = 0) -> SplitMix64:
    """Independent substream for (seed, domain, index).

    Scalar on purpose: set-up derives about thirty substreams, and a derive
    through numpy arrays costs about ten times as much. One `_mix` shared with
    `next_u64_array` would have to mask, slowing the array draws by a fifth.
    """
    s = _mix((seed & _MASK) ^ (domain * _GOLDEN & _MASK))
    s = _mix(s ^ (index & _MASK))
    return SplitMix64(s)


def permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    """The epoch's sample order: Fisher-Yates driven by derive(seed, SHUFFLE, epoch).

    For i from n-1 down to 1, item i swaps with item draw % (i+1), the n-1
    draws taken in one array call (plain modulo: a fixed, reproducible rule).

    This is the only source of batch order, so the sequence of sample indices
    per batch depends on (seed, epoch) alone and never on the parallel plan.
    """
    perm = list(range(n))
    draws = derive(seed, DOMAIN_SHUFFLE, epoch).next_u64_array(max(n - 1, 0))
    picks = (draws % np.arange(n, 1, -1, dtype=np.uint64)).tolist()  # j for i = n-1 ... 1
    for i, j in zip(range(n - 1, 0, -1), picks):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)
