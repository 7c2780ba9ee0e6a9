"""Exponential sums along plane curves over the p-adic integers.

The package enumerates solution sets of f(x, y) = 0 modulo prime powers,
evaluates character sums weighted by a second polynomial g, computes the
contact-order invariants that govern how fast those sums decay, and checks
the predicted decay rate against the measured one.

The package exports every name of each module's `__all__`; the command
line front end, `padicsums.cli`, stays out of the package namespace.
"""

from . import counting, expsums, invariants, padic, polynomials, series
from .counting import *
from .expsums import *
from .invariants import *
from .padic import *
from .polynomials import *
from .series import *

__version__ = "0.1.0"

__all__ = [
    *counting.__all__,
    *expsums.__all__,
    *invariants.__all__,
    *padic.__all__,
    *polynomials.__all__,
    *series.__all__,
]
