"""kahlergg: momentum construction and numerical verification of Kahler
surfaces carrying Killing potentials with geodesic gradients."""

__version__ = "0.1.0"

from .profiles import Interval, MomentumProfile, make_profile, build_reparams
from .rp1 import RP1Value, INFINITY

__all__ = [
    "Interval",
    "MomentumProfile",
    "make_profile",
    "build_reparams",
    "RP1Value",
    "INFINITY",
    "__version__",
]
