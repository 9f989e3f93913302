"""Run configuration: JSON schema validation and construction dispatch.

One JSON file drives every pipeline.  Unknown keys are rejected with the
offending path; gamma families become kappa = 1/(tau_star - gamma) fields
and are range-checked against the interval at parse time (a gamma meeting
the closed interval can never be built).  The literal string "inf" denotes
the point at infinity wherever an RP1 value is accepted; it is kappa = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .construction import CONTROLS, ConstructionData, build_construction
from .profiles import MAX_Q_DEGREE, Interval
from .surfaces import (GammaRangeError, build_surface, gamma_constant, gamma_cos, gamma_height,
                       validate_gamma_range)
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


def grid_count(x, path: str, least: int = 1) -> int:
    """An integer >= ``least``: a GridSpec count (>= 1) or a seed (>= 0).

    Accepts a JSON number with an integer value or, as ``--grid`` and
    ``--seed`` pass it, the decimal text of one.
    """
    if isinstance(x, str):
        try:
            x = int(x)
        except ValueError:
            raise ConfigError(f"{path}: expected an integer >= {least}, got {x!r}") from None
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int) or x < least:
        raise ConfigError(f"{path}: expected an integer >= {least}, got {x!r}")
    return x


MAX_GRID_POINTS = 2 ** 20  # a verify keeps about 6 KB per grid point


def check_grid_size(grid: GridSpec, path: str) -> GridSpec:
    """The grid, unless n_random or bx by n_tau n_theta is too large."""
    n = max(math.prod(grid.base) * grid.n_tau * grid.n_theta, grid.n_random)
    if n > MAX_GRID_POINTS:
        raise ConfigError(f"{path}: {n} points in a grid or the random sample, at most {MAX_GRID_POINTS}")
    return grid


def positive_number(x, path: str) -> float:
    """A tolerance or tolerance scale: a finite number > 0, or (``--tol-scale``) its text."""
    if isinstance(x, str):
        try:
            x = float(x)
        except ValueError:
            raise ConfigError(f"{path}: expected a positive number, got {x!r}") from None
    if _as_number(x, path) <= 0 or not math.isfinite(x):
        raise ConfigError(f"{path}: expected a positive number, got {x!r}")
    return float(x)


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


# The profile's tables, the surface's connection and the metric overflow or
# underflow near magnitudes of 1e300 and 1e-300; every number of a
# construction stays well inside.
_MAGNITUDE = 1e100


def _bounded(x, path: str) -> float:
    x = _as_number(x, path)
    if not abs(x) <= _MAGNITUDE:
        raise ConfigError(f"{path}: must lie in [-1e100, 1e100], got {x!r}")
    return x


def _scale(x, path: str) -> float:
    """A positive size: a, the torus h_scale or the sphere radius."""
    x = _as_number(x, path)
    if not 1.0 / _MAGNITUDE <= x <= _MAGNITUDE:
        raise ConfigError(f"{path}: must lie in [1e-100, 1e100], got {x!r}")
    return x


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
    if "construction" in raw:
        _require_keys(con, {"tau_min", "tau_max", "a", "q_factor", "surface", "gamma",
                            "normalize", "chart"},
                      {"tau_min", "tau_max", "a", "surface", "gamma"}, "$.construction")
        tau_min = _bounded(con["tau_min"], "$.construction.tau_min")
        tau_max = _bounded(con["tau_max"], "$.construction.tau_max")
        if not tau_min < tau_max:
            raise ConfigError("$.construction: tau_min must be < tau_max")
        # The tau tables must resolve the interval: their first nodes sit 5e-7 of its length in.
        if tau_max - tau_min < max(1.0 / _MAGNITUDE, 1e-6 * max(abs(tau_min), abs(tau_max))):
            raise ConfigError("$.construction.tau_max: tau_max - tau_min must be at least 1e-100 "
                              "and 1e-6 max(|tau_min|, |tau_max|)")
        a = _scale(con["a"], "$.construction.a")
        qf = con.get("q_factor", {"type": "constant"})
        _require_keys(qf, {"type", "coeffs"}, {"type"}, "$.construction.q_factor")
        if qf["type"] == "constant":
            q_coeffs = ()
        elif qf["type"] == "poly":
            coeffs = qf.get("coeffs", [])
            if not isinstance(coeffs, list):
                raise ConfigError(f"$.construction.q_factor.coeffs: expected a list, got {coeffs!r}")
            if len(coeffs) > MAX_Q_DEGREE - 3:
                raise ConfigError(f"$.construction.q_factor.coeffs: at most {MAX_Q_DEGREE - 3} "
                                  f"coefficients (Q of degree {MAX_Q_DEGREE}, the highest "
                                  f"extraction fits), got {len(coeffs)}")
            q_coeffs = tuple(_bounded(c, "$.construction.q_factor.coeffs[]") for c in coeffs)
        else:
            raise ConfigError("$.construction.q_factor.type: must be 'constant' or 'poly'")

        surf = con["surface"]
        _require_keys(surf, {"type", "h_scale", "radius"}, {"type"}, "$.construction.surface")
        surface_type = surf["type"]
        if surface_type == "torus":
            surface_params = {"h_scale": _scale(surf.get("h_scale", np.pi * np.sqrt(6.0)),
                                                "$.construction.surface.h_scale")}
        elif surface_type == "sphere":
            surface_params = {"radius": _scale(surf.get("radius", np.sqrt(0.625)),
                                               "$.construction.surface.radius")}
        else:
            raise ConfigError("$.construction.surface.type: must be 'torus' or 'sphere'")

        gamma_spec = con["gamma"]
        if not isinstance(gamma_spec, dict):
            raise ConfigError(f"$.construction.gamma: expected an object, got {gamma_spec!r}")
        gtype = gamma_spec.get("type")
        if not isinstance(gtype, str) or gtype not in _GAMMA_KEYS:
            raise ConfigError(f"$.construction.gamma.type: unknown family {gtype!r}")
        _require_keys(gamma_spec, _GAMMA_KEYS[gtype], _GAMMA_KEYS[gtype], "$.construction.gamma")
        if gtype == "cos" and surface_type != "torus":
            raise ConfigError("$.construction.gamma: 'cos' is a torus family")
        if gtype == "height" and surface_type != "sphere":
            raise ConfigError("$.construction.gamma: 'height' is a sphere family")
        try:
            interval = Interval(tau_min, tau_max)
            for kappa in _kappa_fields(surface_type, gamma_spec, surface_params,
                                       interval.tau_star).values():
                validate_gamma_range(kappa, interval)
        except GammaRangeError as e:
            raise ConfigError(f"$.construction.gamma: {e}") from None

        normalize = con.get("normalize", "none")
        if normalize not in ("none", "a", "h-scale"):
            raise ConfigError("$.construction.normalize: must be 'none', 'a' or 'h-scale'")
        if normalize == "h-scale" and surface_type != "torus":
            raise ConfigError("$.construction.normalize: 'h-scale' is torus-only; rescaling the "
                              "sphere metric re-parametrizes its radius and any height-based gamma")
        chart = _chart_index(con.get("chart", 0), surface_type)

    grid_raw = raw.get("grid", {})
    _require_keys(grid_raw, {"base", "n_tau", "n_theta", "collar", "n_random"}, set(), "$.grid")
    base = grid_raw.get("base", (8, 8))
    if not isinstance(base, (list, tuple)) or len(base) != 2:
        raise ConfigError("$.grid.base: expected two positive integers")
    seed = grid_count(raw.get("seed", 0), "$.seed", 0)
    collar = _as_number(grid_raw.get("collar", 0.02), "$.grid.collar")
    if not 0.0 < collar < 0.5:
        raise ConfigError("$.grid.collar: must lie in (0, 0.5)")
    grid = GridSpec(base=tuple(grid_count(b, f"$.grid.base[{i}]") for i, b in enumerate(base)),
                    n_tau=grid_count(grid_raw.get("n_tau", 16), "$.grid.n_tau"),
                    n_theta=grid_count(grid_raw.get("n_theta", 4), "$.grid.n_theta"),
                    collar=collar, seed=seed,
                    n_random=grid_count(grid_raw.get("n_random", 128), "$.grid.n_random"))
    check_grid_size(grid, "$.grid")

    tol_raw = raw.get("tolerances", {})
    _require_keys(tol_raw, set(DEFAULT_TOLERANCES), set(), "$.tolerances")
    tolerances = {k: positive_number(v, f"$.tolerances.{k}") for k, v in tol_raw.items()}
    tol_scale = positive_number(raw.get("tol_scale", 1.0), "$.tol_scale")
    control = raw.get("control", "none")
    if control not in CONTROLS:
        raise ConfigError(f"$.control: must be one of {CONTROLS}")
    return RunConfig(tau_min=tau_min, tau_max=tau_max, a=a, q_coeffs=q_coeffs,
                     surface_type=surface_type, surface_params=surface_params,
                     gamma_spec=gamma_spec, normalize=normalize, chart=chart,
                     grid=grid, tolerances=tolerances, tol_scale=tol_scale,
                     seed=seed, control=control, oracle=oracle, raw=raw)


def _kappa_fields(surface_type: str, gamma_spec: dict, surface_params: dict,
                  tau_star: float) -> dict:
    """The kappa = 1/(tau_star - gamma) field of each chart of the surface, by gamma family."""
    gtype = gamma_spec["type"]
    if gtype in ("cos", "height"):
        c0, c1 = (_bounded(gamma_spec[k], f"$.construction.gamma.{k}") for k in ("c0", "c1"))
        if gtype == "cos":
            return {"torus": gamma_cos(c0, c1, tau_star)}
        return {w: gamma_height(c0, c1, surface_params["radius"], w, tau_star)
                for w in ("south", "north")}
    value = "inf" if gtype == "inf" else gamma_spec["value"]
    kappa = gamma_constant(value if value == "inf" else _bounded(value, "$.construction.gamma.value"),
                           tau_star)
    return {"torus": kappa} if surface_type == "torus" else {"south": kappa, "north": kappa}


def build_from_config(cfg: RunConfig) -> ConstructionData:
    if cfg.oracle != "construction":
        raise ConfigError(f"$.oracle: '{cfg.oracle}' has no construction; construct, flow "
                          "and extract --round-trip need oracle = 'construction'")
    interval = Interval(cfg.tau_min, cfg.tau_max)
    kappas = _kappa_fields(cfg.surface_type, cfg.gamma_spec, cfg.surface_params, interval.tau_star)
    if cfg.control in ("perturb-beta", "perturb-j") and any(
            k.value_range == (0.0, 0.0) for k in kappas.values()):
        raise ConfigError(f"$.control: '{cfg.control}' is inert where gamma = inf (kappa = 0): "
                          "beta = 1 there, so beta^1.01 = beta, and the metric is a local "
                          "product, on which the flipped J is Kahler too")
    size = cfg.surface_params["h_scale" if cfg.surface_type == "torus" else "radius"]
    surface, a = build_surface(cfg.surface_type, size, kappas, interval, cfg.a,
                               normalize=cfg.normalize)
    return build_construction(interval, a, surface, q_interior=cfg.q_coeffs,
                              chart_index=cfg.chart, control=cfg.control)
