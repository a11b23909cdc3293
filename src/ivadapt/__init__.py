"""Adaptive spectral cut-off estimation for instrumental-variable regression.

The package couples an exact simulator for a circular IV model with
polynomially decaying operator eigenvalues, the adaptive estimation
pipeline (estimated eigenvalues, data-driven resolution bound,
penalized level selection), and a reproducible Monte Carlo harness for
oracle-ratio, rate, and bracketing studies.
"""

__version__ = "0.1.0"

from . import basis, dgp, estimator, risk
from .basis import *  # noqa: F401,F403
from .dgp import *  # noqa: F401,F403
from .estimator import *  # noqa: F401,F403
from .risk import *  # noqa: F401,F403

__all__ = ["__version__", *basis.__all__, *dgp.__all__, *estimator.__all__, *risk.__all__]
