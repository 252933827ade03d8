"""Quantized-data target localization under data-falsification attacks.

A sensor network observes power-law path-loss signals, quantizes each
sample to one bit, and localizes a target from the zero frequencies.
Compromised sensors flip bits; two secure anchor sensors let a geometric
consistency test expose them.  This package provides the signal and
quantization model, the attack channels, the distance estimator, the
detector, large-deviations bounds on its error probabilities, and Monte
Carlo drivers that check the bounds empirically.

Every module lists its public names in its ``__all__``, and the package
re-exports exactly those, so an export is added or retired in one place.
"""

from . import (
    analysis,
    attacks,
    detector,
    errors,
    fileio,
    geometry,
    measurement,
    montecarlo,
    noise,
    rng,
    scenario,
)
from .analysis import *  # noqa: F403
from .attacks import *  # noqa: F403
from .detector import *  # noqa: F403
from .errors import *  # noqa: F403
from .fileio import *  # noqa: F403
from .geometry import *  # noqa: F403
from .measurement import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .noise import *  # noqa: F403
from .rng import *  # noqa: F403
from .scenario import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (
        noise,
        scenario,
        measurement,
        attacks,
        geometry,
        detector,
        analysis,
        montecarlo,
        fileio,
        rng,
        errors,
    )
    for name in module.__all__
]
