"""Points of the real projective line RP1 = R u {inf}, their chart angle and distance.

The classification invariant gamma takes values in RP1, and several
construction formulas divide by quantities that may legitimately be zero
or infinite there.  The conventions in force throughout the package:

    q / inf = 0,        q / 0 = inf   (q != 0),        p + inf = inf.

Infinity is a tagged value rather than a floating-point ``inf`` so that
branch logic ("set the gradient to zero where gamma is infinite") stays
explicit and serialization round-trips exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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


def rp1_angle(g: "RP1Value | float") -> float:
    """Arctangent chart angle in (-pi/2, pi/2], with inf at pi/2."""
    g = RP1Value.of(g)
    if g.infinite:
        return 0.5 * math.pi
    return math.atan(g.value)


def rp1_distance(g1: "RP1Value | float", g2: "RP1Value | float") -> float:
    """Chordal distance on RP1: angle difference modulo pi.

    The point at infinity is a regular point of this metric, so residuals
    of gamma-recovery remain meaningful when gamma = inf.
    """
    d = abs(rp1_angle(g1) - rp1_angle(g2))
    return min(d, math.pi - d)
