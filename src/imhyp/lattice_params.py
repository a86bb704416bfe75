"""The lattice layer's parameter choices, free of numpy: the driver's command
table reads them at import, before any command needs an array."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

BOUNDARY_CONDITIONS = ("dirichlet", "neumann", "periodic")
PERIODIC_SCALINGS = ("paper", "standard")


@dataclass(frozen=True)
class JumpQuery:
    """Parameters of the spectral-jump ratio scan over mu_n = 1 + nu*lambda_n."""

    theta: float = 0.5
    lip: float = 1.0
    cconst: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.theta < 1.0):
            raise ConfigError(f"theta must lie in [0, 1), got {self.theta}")
        for name in ("lip", "cconst", "nu"):
            if not (getattr(self, name) > 0):
                raise ConfigError(f"{name} must be positive")
