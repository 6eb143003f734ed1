"""Distortion regions for a bivariate Gaussian source over a conferencing MAC.

Library layout:

* :mod:`confmac.model` -- parameter types, feasibility reports
* :mod:`confmac.rdlib` -- closed-form rate-distortion quantities
* :mod:`confmac.vqscheme` -- the two-stage vector-quantizer scheme
* :mod:`confmac.capacity` -- the conferencing MAC region at every link capacity
* :mod:`confmac.separation` -- the two separation pipelines
* :mod:`confmac.bounds` -- outer bound and high-SNR asymptotics
* :mod:`confmac.montecarlo` -- stochastic oracles and sphere geometry
* :mod:`confmac.search` -- minimal-power / minimal-capacity optimizers
* :mod:`confmac.cli` -- command-line front end
"""

from .model import (
    UNLIMITED,
    ChannelSpec,
    DistortionPair,
    DomainError,
    FeasibilityReport,
    RatePoint,
    SourceSpec,
    is_unlimited,
)

__version__ = "0.1.0"

__all__ = [
    "UNLIMITED",
    "ChannelSpec",
    "DistortionPair",
    "DomainError",
    "FeasibilityReport",
    "RatePoint",
    "SourceSpec",
    "is_unlimited",
    "__version__",
]
