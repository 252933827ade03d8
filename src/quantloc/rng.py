"""Keyed random number streams.

Every stochastic operation in the package derives its generator from an
entropy tuple (seed, stream, ...) fed to numpy's SeedSequence, which seeds
an SFC64 bit generator.  A stream is keyed, not advanced: nothing jumps or
splits a shared generator, so streams for different tuples are independent,
the same tuple always reproduces the same sequence, and it does so whether
streams are consumed serially or in parallel.  That leaves the bit generator
free to be chosen for speed alone, and SFC64 is the fastest of numpy's:
``standard_normal(1e5)`` takes 1.69 ms and ``random(1e5)`` 0.25 ms, against
2.38 and 0.86 ms from Philox and 1.95 and 0.40 ms from PCG64DXSM (timeit,
numpy 2.4.6, 2-core x86-64 host).
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = ["make_generator", "NOISE_STREAM", "ATTACK_STREAM"]

# Stream tags.  Measurement noise and attack randomness must never share a
# stream, so the same noise realization can be replayed under different
# attacks.
NOISE_STREAM = 0
ATTACK_STREAM = 1

Entropy = int | Sequence[int]


def _normalize(entropy: Entropy) -> tuple[int, ...]:
    """The entropy as a tuple of Python ints mod 2^64; DomainError unless it
    is an integer or a sequence of integers (numpy integers included)."""
    items = (entropy,) if isinstance(entropy, (int, np.integer)) else entropy
    try:
        return tuple(operator.index(e) & 0xFFFFFFFFFFFFFFFF for e in items)
    except TypeError:
        raise DomainError(
            f"entropy must be an integer or a sequence of integers, got {entropy!r}"
        ) from None


def make_generator(entropy: Entropy) -> np.random.Generator:
    """Generator for the stream identified by ``entropy``.

    ``entropy`` is an int or a tuple of ints; tuples identify substreams,
    e.g. ``(base_seed, trial, NOISE_STREAM, sensor_id)``.
    """
    seq = np.random.SeedSequence(_normalize(entropy))
    return np.random.Generator(np.random.SFC64(seq))
