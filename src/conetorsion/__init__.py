"""Analytic torsion of bounded cones over model even-dimensional cross-sections."""

__version__ = "0.1.0"

from .crosssection import (  # noqa: E402,F401
    CrossSection,
    SpectralSlice,
    build_cross_section,
    coclosed_spectrum,
    theta_heat_coeffs,
)
from .errors import (  # noqa: E402,F401
    ConfigError,
    CutoffInsufficientError,
    DomainError,
    ODEIntegrationError,
    ZetaPoleError,
)

__all__ = [
    "CrossSection",
    "SpectralSlice",
    "build_cross_section",
    "coclosed_spectrum",
    "theta_heat_coeffs",
    "ConfigError",
    "CutoffInsufficientError",
    "DomainError",
    "ODEIntegrationError",
    "ZetaPoleError",
    "__version__",
]
