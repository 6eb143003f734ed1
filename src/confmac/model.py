"""Core parameter types shared by every other module.

All rates and capacities are in bits per source symbol (log base 2)
throughout the package.  Distortions are carried in normalized form
``d = D / sigma^2``; the raw mean-squared error is recovered with
:meth:`DistortionPair.absolute`.

Values of ``d`` above 1 are rejected rather than clamped: ``d = 1`` is
always attainable with zero rate, so a larger target is a caller error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping


class DomainError(ValueError):
    """A parameter violates its domain; ``field`` names the offender."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


UNLIMITED = math.inf  # an unlimited conference capacity / absent auxiliary


def is_unlimited(value) -> bool:
    return value == math.inf


def _require_finite(fieldname: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(fieldname, f"must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SourceSpec:
    """Bivariate Gaussian source: common variance ``sigma2``, correlation ``rho``.

    ``rho`` is restricted to [0, 1]; a negative correlation is equivalent
    to flipping the sign of one component.
    """

    sigma2: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "sigma2", _require_finite("sigma2", self.sigma2))
        object.__setattr__(self, "rho", _require_finite("rho", self.rho))
        if self.sigma2 <= 0.0:
            raise DomainError("sigma2", f"must be > 0, got {self.sigma2}")
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError("rho", f"must lie in [0, 1], got {self.rho}")


@dataclass(frozen=True)
class ChannelSpec:
    """Channel parameters: per-encoder powers, noise variance, conference capacity.

    ``c12`` is a nonnegative number of bits per symbol; :data:`UNLIMITED`
    (``math.inf``) is the unlimited link, the limit of every finite one.
    """

    p1: float
    p2: float
    n0: float
    c12: float = UNLIMITED

    def __post_init__(self):
        for name in ("p1", "p2", "n0"):
            value = _require_finite(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if value <= 0.0:
                raise DomainError(name, f"must be > 0, got {value}")
        c12 = float(self.c12)
        object.__setattr__(self, "c12", c12)
        if not c12 >= 0.0:  # NaN included
            raise DomainError("c12", f"must be >= 0, got {c12}")


@dataclass(frozen=True)
class DistortionPair:
    """Normalized distortion pair, each in (0, 1]."""

    d1: float
    d2: float

    def __post_init__(self):
        for name in ("d1", "d2"):
            value = _require_finite(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if not 0.0 < value <= 1.0:
                raise DomainError(name, f"must lie in (0, 1], got {value}")

    def absolute(self, sigma2: float) -> tuple[float, float]:
        return self.d1 * sigma2, self.d2 * sigma2

    def astuple(self) -> tuple[float, float]:
        return self.d1, self.d2


@dataclass(frozen=True)
class RatePoint:
    """Nonnegative rate pair in bits per source symbol."""

    r1: float
    r2: float

    def __post_init__(self):
        for name in ("r1", "r2"):
            value = _require_finite(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 0.0:
                raise DomainError(name, f"must be >= 0, got {value}")


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a region-membership or feasibility test.

    ``slacks`` maps constraint names to signed margins; a constraint is
    satisfied when its slack is nonnegative (for upper bounds the slack is
    bound minus value, for lower bounds value minus bound).  ``witness``
    carries whatever parameters certify feasibility, empty otherwise.
    """

    feasible: bool
    slacks: Mapping[str, float]
    witness: Mapping[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "feasible": bool(self.feasible),
            "slacks": {k: float(v) for k, v in self.slacks.items()},
            "witness": {k: float(v) for k, v in self.witness.items()},
        }


def log2_pos(x: float) -> float:
    """``max(0, log2 x)`` with an exact zero for ``x <= 1`` (no -0.0)."""
    if x <= 1.0:
        return 0.0
    return math.log2(x)
