"""Points of the real projective line RP1 = R u {inf}, their chart angle and distance.

The classification invariant gamma takes values in RP1, and several
construction formulas divide by quantities that may legitimately be zero
or infinite there.  The conventions in force throughout the package:

    q / inf = 0,        q / 0 = inf   (q != 0),        p + inf = inf.

Infinity is a tagged value rather than a floating-point ``inf`` so that
branch logic ("set the gradient to zero where gamma is infinite") stays
explicit and serialization round-trips exactly.  Arrays of gamma samples are
the exception: there ``inf`` stands for the point at infinity, which the
chart angle arctan(inf) = pi/2 handles without a branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RP1Value:
    """A point of RP1: either a finite real or the point at infinity."""

    value: float = 0.0
    infinite: bool = False

    def __post_init__(self) -> None:
        if self.infinite:
            # Normalize so equality is tag-and-value equality.
            object.__setattr__(self, "value", 0.0)
        else:
            v = float(self.value)
            if not math.isfinite(v):
                raise ValueError("finite RP1Value requires a finite real, got %r" % (self.value,))
            object.__setattr__(self, "value", v)

    @staticmethod
    def of(x: "RP1Value | float | str") -> "RP1Value":
        if isinstance(x, RP1Value):
            return x
        if isinstance(x, str):
            if x.strip().lower() == "inf":
                return INFINITY
            return RP1Value(float(x))
        return RP1Value(float(x))

    def to_json(self) -> "float | str":
        """Serialize as a plain number, or the literal string "inf"."""
        return "inf" if self.infinite else self.value

    def __repr__(self) -> str:
        return "RP1(inf)" if self.infinite else f"RP1({self.value!r})"


INFINITY = RP1Value(infinite=True)


def rp1_angle(g: "RP1Value | float | np.ndarray") -> "float | np.ndarray":
    """Arctangent chart angle in (-pi/2, pi/2], with inf at pi/2; elementwise on arrays."""
    if isinstance(g, RP1Value):
        g = math.inf if g.infinite else g.value
    return np.arctan(g)


def rp1_distance(g1: "RP1Value | float | np.ndarray",
                 g2: "RP1Value | float | np.ndarray") -> "float | np.ndarray":
    """Chordal distance on RP1: angle difference modulo pi; elementwise on arrays.

    The point at infinity is a regular point of this metric, so residuals
    of gamma-recovery remain meaningful when gamma = inf.
    """
    d = np.abs(rp1_angle(g1) - rp1_angle(g2))
    return np.minimum(d, np.pi - d)


def recover_gamma(tau: np.ndarray, q: np.ndarray, lap: np.ndarray,
                  psi: np.ndarray) -> np.ndarray:
    """gamma = tau - Q / (Delta tau - 2 psi) at each point, inf where the denominator vanishes.

    The denominator counts as zero below 1e-8 (1 + Q), so the point at
    infinity is recovered as inf rather than as a large finite value.
    """
    denom = np.asarray(lap - 2.0 * psi, dtype=float)
    infinite = np.abs(denom) < 1e-8 * (1.0 + q)
    return np.where(infinite, np.inf, tau - q / np.where(infinite, 1.0, denom))
