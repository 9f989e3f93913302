"""gamma in the chart kappa = 1/(tau_star - gamma) of RP1, and RP1Value, gamma's I/O type.

The classification invariant gamma maps the surface into RP1 minus the
profile interval I.  The package carries it as kappa = 1/(tau_star - gamma),
an affine chart of RP1 in which the point at infinity is kappa = 0 and every
formula of the construction is affine, with no branch:

    beta = (tau - gamma)/(tau_star - gamma) = 1 + kappa (tau - tau_star),
    phi  = Q/(2 (tau - gamma)) = Q kappa / (2 beta),
    Omega = -a kappa omega_h.

With l = |I|/2, gamma avoids the closed interval exactly when |kappa| l < 1,
so RP1 minus I is the open interval (-1/l, 1/l) of kappa.

``RP1Value`` is a point of RP1 as configs and reports write it: a finite
real or the point at infinity, the literal string "inf".  It converts to
kappa once, where a config gamma becomes a kappa field; extraction turns the
recovered kappa back into RP1Values for its reports.
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

    def kappa(self, tau_star: float) -> float:
        """kappa = 1/(tau_star - gamma): 0 at infinity, and inf at gamma = tau_star."""
        if self.infinite:
            return 0.0
        d = tau_star - self.value
        return 1.0 / d if d else math.inf

    def to_json(self) -> "float | str":
        """Serialize as a plain number, or the literal string "inf"."""
        return "inf" if self.infinite else self.value

    def __repr__(self) -> str:
        return "RP1(inf)" if self.infinite else f"RP1({self.value!r})"


INFINITY = RP1Value(infinite=True)


def recover_kappa(tau: np.ndarray, tau_star: float, q: np.ndarray, lap: np.ndarray,
                  psi: np.ndarray) -> np.ndarray:
    """kappa at each point from Delta tau = 2 (psi + phi), with phi = Q/(2 (tau - gamma)).

    m = (Delta tau - 2 psi)/Q = 1/(tau - gamma), and kappa = m/(1 - m (tau - tau_star)),
    whose denominator is 1/beta > 0: no point of RP1 is singular.
    """
    m = (lap - 2.0 * psi) / q
    return m / (1.0 - m * (tau - tau_star))
