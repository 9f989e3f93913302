"""Run configuration: JSON schema validation and construction dispatch.

One JSON file drives every pipeline.  Unknown keys are rejected with the
offending path; gamma families are range-checked against the interval at
parse time (a gamma meeting the closed interval can never be built).  The
literal string "inf" denotes the point at infinity wherever an RP1 value
is accepted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .construction import CONTROLS, ConstructionData, build_construction
from .profiles import Interval
from .rp1 import RP1Value
from .surfaces import (build_sphere_surface, build_torus_surface, gamma_constant,
                       gamma_cos, gamma_height)
from .verify import DEFAULT_TOLERANCES, GridSpec


class ConfigError(ValueError):
    """Schema violation, with a path-precise message."""


_GAMMA_KEYS = {
    "constant": {"type", "value"},
    "inf": {"type"},
    "cos": {"type", "c0", "c1"},
    "height": {"type", "c0", "c1"},
}


def _require_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for k in obj:
        if k not in allowed:
            raise ConfigError(f"{path}.{k}: unknown key (allowed: {sorted(allowed)})")
    for k in required:
        if k not in obj:
            raise ConfigError(f"{path}.{k}: missing required key")


def grid_count(x, path: str) -> int:
    """A GridSpec count (base size, n_tau, n_theta, n_random): an integer >= 1.

    Accepts a JSON number with an integer value or, as ``--grid`` passes it,
    the decimal text of one.
    """
    if isinstance(x, str):
        try:
            x = int(x)
        except ValueError:
            raise ConfigError(f"{path}: expected an integer >= 1, got {x!r}") from None
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise ConfigError(f"{path}: expected an integer >= 1, got {x!r}")
    return x


def _chart_index(x, surface_type: str) -> int:
    """``construction.chart``: 0 on the torus, 0 (south) or 1 (north) on the sphere."""
    n_charts = 1 if surface_type == "torus" else 2
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n_charts:
        raise ConfigError(f"$.construction.chart: the {surface_type} has {n_charts} chart(s), "
                          f"expected an integer from 0 to {n_charts - 1}, got {x!r}")
    return x


def _as_number(x, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {x!r}")
    return float(x)


@dataclass
class RunConfig:
    tau_min: float
    tau_max: float
    a: float
    q_coeffs: tuple
    surface_type: str
    surface_params: dict
    gamma_spec: dict
    normalize: str
    chart: int
    grid: GridSpec
    tolerances: dict
    tol_scale: float
    seed: int
    control: str
    oracle: str
    raw: dict = dc_field(default_factory=dict, repr=False)


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"not valid JSON: {e}") from e
    _require_keys(raw, {"construction", "grid", "tolerances", "tol_scale", "seed",
                        "control", "oracle"}, set(), "$")
    oracle = raw.get("oracle", "construction")
    if oracle not in ("construction", "fubini"):
        raise ConfigError("$.oracle: must be 'construction' or 'fubini'")

    con = raw.get("construction", {})
    if oracle == "construction" and "construction" not in raw:
        raise ConfigError("$.construction: required unless oracle = 'fubini'")
    tau_min, tau_max, a = 0.0, 1.0, 2.0
    q_coeffs: tuple = ()
    surface_type, surface_params = "torus", {"h_scale": float(np.pi * np.sqrt(6.0))}
    gamma_spec = {"type": "cos", "c0": 3.0, "c1": 0.5}
    normalize, chart = "none", 0
    if con:
        _require_keys(con, {"tau_min", "tau_max", "a", "q_factor", "surface", "gamma",
                            "normalize", "chart"},
                      {"tau_min", "tau_max", "a", "surface", "gamma"}, "$.construction")
        tau_min = _as_number(con["tau_min"], "$.construction.tau_min")
        tau_max = _as_number(con["tau_max"], "$.construction.tau_max")
        if not tau_min < tau_max:
            raise ConfigError("$.construction: tau_min must be < tau_max")
        a = _as_number(con["a"], "$.construction.a")
        if a <= 0:
            raise ConfigError("$.construction.a: must be positive")
        qf = con.get("q_factor", {"type": "constant"})
        _require_keys(qf, {"type", "coeffs"}, {"type"}, "$.construction.q_factor")
        if qf["type"] == "constant":
            q_coeffs = ()
        elif qf["type"] == "poly":
            q_coeffs = tuple(_as_number(c, "$.construction.q_factor.coeffs[]")
                             for c in qf.get("coeffs", []))
        else:
            raise ConfigError("$.construction.q_factor.type: must be 'constant' or 'poly'")

        surf = con["surface"]
        _require_keys(surf, {"type", "h_scale", "radius"}, {"type"}, "$.construction.surface")
        surface_type = surf["type"]
        if surface_type == "torus":
            surface_params = {"h_scale": _as_number(surf.get("h_scale", np.pi * np.sqrt(6.0)),
                                                    "$.construction.surface.h_scale")}
        elif surface_type == "sphere":
            surface_params = {"radius": _as_number(surf.get("radius", np.sqrt(0.625)),
                                                   "$.construction.surface.radius")}
        else:
            raise ConfigError("$.construction.surface.type: must be 'torus' or 'sphere'")

        gamma_spec = con["gamma"]
        gtype = gamma_spec.get("type")
        if gtype not in _GAMMA_KEYS:
            raise ConfigError(f"$.construction.gamma.type: unknown family {gtype!r}")
        _require_keys(gamma_spec, _GAMMA_KEYS[gtype], _GAMMA_KEYS[gtype] - {"value"},
                      "$.construction.gamma")
        if gtype == "cos" and surface_type != "torus":
            raise ConfigError("$.construction.gamma: 'cos' is a torus family")
        if gtype == "height" and surface_type != "sphere":
            raise ConfigError("$.construction.gamma: 'height' is a sphere family")
        _validate_gamma_range(gamma_spec, tau_min, tau_max, surface_params)

        normalize = con.get("normalize", "none")
        if normalize not in ("none", "a", "h-scale"):
            raise ConfigError("$.construction.normalize: must be 'none', 'a' or 'h-scale'")
        chart = _chart_index(con.get("chart", 0), surface_type)

    grid_raw = raw.get("grid", {})
    _require_keys(grid_raw, {"base", "n_tau", "n_theta", "collar", "deep_collar", "n_random"},
                  set(), "$.grid")
    base = grid_raw.get("base", (8, 8))
    if not isinstance(base, (list, tuple)) or len(base) != 2:
        raise ConfigError("$.grid.base: expected two positive integers")
    seed = int(raw.get("seed", 0))
    grid = GridSpec(base=tuple(grid_count(b, f"$.grid.base[{i}]") for i, b in enumerate(base)),
                    n_tau=grid_count(grid_raw.get("n_tau", 16), "$.grid.n_tau"),
                    n_theta=grid_count(grid_raw.get("n_theta", 4), "$.grid.n_theta"),
                    collar=float(grid_raw.get("collar", 0.02)),
                    deep_collar=float(grid_raw.get("deep_collar", 0.2)),
                    seed=seed,
                    n_random=grid_count(grid_raw.get("n_random", 128), "$.grid.n_random"))
    if not 0.0 < grid.collar < 0.5:
        raise ConfigError("$.grid.collar: must lie in (0, 0.5)")

    tolerances = raw.get("tolerances", {})
    for k, v in tolerances.items():
        if k not in DEFAULT_TOLERANCES:
            raise ConfigError(f"$.tolerances.{k}: unknown check")
        if _as_number(v, f"$.tolerances.{k}") <= 0:
            raise ConfigError(f"$.tolerances.{k}: must be positive")
    tol_scale = _as_number(raw.get("tol_scale", 1.0), "$.tol_scale")
    if tol_scale <= 0:
        raise ConfigError("$.tol_scale: must be positive")
    control = raw.get("control", "none")
    if control not in CONTROLS:
        raise ConfigError(f"$.control: must be one of {CONTROLS}")
    return RunConfig(tau_min=tau_min, tau_max=tau_max, a=a, q_coeffs=q_coeffs,
                     surface_type=surface_type, surface_params=surface_params,
                     gamma_spec=gamma_spec, normalize=normalize, chart=chart,
                     grid=grid, tolerances=dict(tolerances), tol_scale=tol_scale,
                     seed=seed, control=control, oracle=oracle, raw=raw)


def _gamma_bounds(gamma_spec: dict, surface_params: dict):
    gtype = gamma_spec["type"]
    if gtype == "inf":
        return None
    if gtype == "constant":
        v = RP1Value.of(gamma_spec["value"])
        if v.infinite:
            return None
        return v.value, v.value
    c0, c1 = float(gamma_spec["c0"]), float(gamma_spec["c1"])
    if gtype == "cos":
        return c0 - abs(c1), c0 + abs(c1)
    radius = surface_params.get("radius", 1.0)
    return c0 - abs(c1) * radius, c0 + abs(c1) * radius


def _validate_gamma_range(gamma_spec, tau_min, tau_max, surface_params) -> None:
    bounds = _gamma_bounds(gamma_spec, surface_params)
    if bounds is None:
        return
    lo, hi = bounds
    if not (hi < tau_min or lo > tau_max):
        raise ConfigError(
            f"$.construction.gamma: range [{lo}, {hi}] intersects the interval "
            f"[{tau_min}, {tau_max}]")


def build_from_config(cfg: RunConfig) -> ConstructionData:
    interval = Interval(cfg.tau_min, cfg.tau_max)
    gtype = cfg.gamma_spec["type"]
    if cfg.surface_type == "torus":
        if gtype == "cos":
            gam = gamma_cos(float(cfg.gamma_spec["c0"]), float(cfg.gamma_spec["c1"]))
        elif gtype == "inf":
            gam = gamma_constant("inf")
        else:
            gam = gamma_constant(cfg.gamma_spec["value"])
        surface, a = build_torus_surface(cfg.surface_params["h_scale"], gam, interval,
                                         cfg.a, normalize=cfg.normalize)
    else:
        radius = cfg.surface_params["radius"]
        gammas = {}
        for which in ("south", "north"):
            if gtype == "height":
                gammas[which] = gamma_height(float(cfg.gamma_spec["c0"]),
                                             float(cfg.gamma_spec["c1"]), radius, which)
            elif gtype == "inf":
                gammas[which] = gamma_constant("inf")
            else:
                gammas[which] = gamma_constant(cfg.gamma_spec["value"])
        surface, a = build_sphere_surface(radius, gammas, interval, cfg.a,
                                          normalize=cfg.normalize)
    return build_construction(interval, a, surface, q_interior=cfg.q_coeffs,
                              chart_index=cfg.chart, control=cfg.control)
