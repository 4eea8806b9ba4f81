"""Dual classical/quantum optical downlink simulator and key-rate analyzer.

The package re-exports what the README's library example uses; everything
else is imported from its module.
"""

__version__ = "0.1.0"

from .atmosphere import AtmosphereProfile, LinkGeometry
from .ensemble import fading_stats, run_ensemble
from .keyrate import DetectorModel, FiniteSizeParams, key_rate_summary
from .protocol import SqueezingParams, covariance_matrix
