"""Counter-based random number streams.

Every stochastic operation in the package derives its generator from an
entropy tuple (seed, stream, ...) fed to numpy's SeedSequence on top of the
Philox counter-based bit generator.  Streams for different tuples are
independent, and the same tuple always reproduces the same sequence, whether
streams are consumed serially or in parallel.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["make_generator", "NOISE_STREAM", "ATTACK_STREAM"]

# Stream tags.  Measurement noise and attack randomness must never share a
# stream, so the same noise realization can be replayed under different
# attacks.
NOISE_STREAM = 0
ATTACK_STREAM = 1

Entropy = int | Sequence[int]


def _normalize(entropy: Entropy) -> tuple[int, ...]:
    if isinstance(entropy, (int, np.integer)):
        return (int(entropy) & 0xFFFFFFFFFFFFFFFF,)
    return tuple(int(e) & 0xFFFFFFFFFFFFFFFF for e in entropy)


def make_generator(entropy: Entropy) -> np.random.Generator:
    """Generator for the stream identified by ``entropy``.

    ``entropy`` is an int or a tuple of ints; tuples identify substreams,
    e.g. ``(base_seed, NOISE_STREAM, trial, sensor_id)``.
    """
    seq = np.random.SeedSequence(_normalize(entropy))
    return np.random.Generator(np.random.Philox(seed=seq))
