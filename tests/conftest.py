import numpy as np
import pytest

from kahlergg import geometry as geo
from kahlergg.construction import build_construction
from kahlergg.profiles import Interval
from kahlergg.surfaces import build_surface, gamma_constant, gamma_cos, gamma_height

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture()
def announce():
    def _announce(num: int, label: str, ok: bool, detail: str) -> None:
        line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {label}: {detail}"
        print(line)
        ACCEPTANCE_LINES.append(line)

    return _announce


@pytest.fixture()
def ricci_tensor():
    """Ric_jk of a metric at the points: ``geometry.ricci`` at each coordinate vector v = e_k.

    The jet of Gamma is a stencil of ``christoffel`` at the given step.
    """
    def _ricci(metric, points, step):
        dgamma = geo.fd_jet(lambda p: geo.christoffel(metric, p), points, step)
        gamma = geo.christoffel(metric, points)
        return np.stack([geo.ricci(dgamma[..., k], gamma, gamma[..., k])
                         for k in range(metric.dim)], axis=2)

    return _ricci

H_SCALE = float(np.pi * np.sqrt(6.0))      # makes the torus Chern integral exactly 1
SPHERE_RADIUS = float(np.sqrt(0.625))      # makes the sphere Chern integral exactly 1


@pytest.fixture(scope="session")
def interval():
    return Interval(0.0, 1.0)


def _cos_torus(interval, a, **kwargs):
    """The torus surface with gamma = 3 + 0.5 cos(2 pi x1), and its a."""
    return build_surface("torus", H_SCALE, {"torus": gamma_cos(3.0, 0.5, interval.tau_star)},
                         interval, a, **kwargs)


@pytest.fixture(scope="session")
def torus_data(interval):
    surface, a = _cos_torus(interval, 2.0)
    return build_construction(interval, a, surface)


@pytest.fixture(scope="session")
def torus_inf_data(interval):
    kappas = {"torus": gamma_constant("inf", interval.tau_star)}
    surface, a = build_surface("torus", H_SCALE, kappas, interval, 2.0)
    return build_construction(interval, a, surface)


@pytest.fixture(scope="session")
def poly_profile_data():
    # A non-canonical profile on a shifted interval.
    interval = Interval(-0.5, 1.7)
    surface, a = _cos_torus(interval, 3.0, normalize="h-scale")
    return build_construction(interval, a, surface, q_interior=(0.4, -0.3, 0.2))


@pytest.fixture(scope="session")
def steep_torus_data(interval):
    surface, a = _cos_torus(interval, 30.0, normalize="h-scale")
    return build_construction(interval, a, surface)


@pytest.fixture(scope="session")
def flattest_torus_data(interval):
    # a = 3e-4: the flow's t-step grows as 1/a, or a fiber takes thousands of steps.
    surface, a = _cos_torus(interval, 3e-4, normalize="h-scale")
    return build_construction(interval, a, surface)


@pytest.fixture(scope="session")
def steepest_torus_data(interval):
    # a = 1e4: the trace retraces six times, to a t-step of 3^-6 FLOW_STEP.
    surface, a = _cos_torus(interval, 1e4, normalize="h-scale")
    return build_construction(interval, a, surface)


@pytest.fixture(scope="session")
def dipped_steep_torus_data(interval):
    # The steep torus with a q-factor that dips to 0.375 of its end value
    # mid-interval, so Q(tau) is flatter there than any parabola with Q's end slopes.
    surface, a = _cos_torus(interval, 30.0, normalize="h-scale")
    return build_construction(interval, a, surface, q_interior=(-150.0,))


@pytest.fixture(scope="session")
def dipped_steeper_torus_data(interval):
    # a = 100 with the q-factor at 0.3 of its end value mid-interval: past tau_max
    # Q vanishes again, and a step of the base t-step leaves the metric's domain.
    surface, a = _cos_torus(interval, 100.0, normalize="h-scale")
    return build_construction(interval, a, surface, q_interior=(-560.0,))


@pytest.fixture(scope="session")
def short_torus_data():
    # |I| = 2e-3 with a constant gamma: the tau-step of the metric's stencils
    # must shrink with the interval (an absolute 3e-4 failed oracle_equivalence
    # at 1.2e-2 and the round trip's gamma spread by 1.0e-2).
    interval = Interval(-1e-3, 1e-3)
    surface, a = build_surface("torus", H_SCALE, {"torus": gamma_constant(1.0, interval.tau_star)},
                               interval, 2.0)
    return build_construction(interval, a, surface)


@pytest.fixture(scope="session")
def short_cos_torus_data():
    # |I| = 1e-2 with the cos gamma (an absolute tau-step failed oracle_equivalence at 8.1e-3).
    interval = Interval(0.0, 1e-2)
    surface, a = _cos_torus(interval, 2.0)
    return build_construction(interval, a, surface)


@pytest.fixture(scope="session")
def sphere_data(interval):
    gammas = {w: gamma_constant(3.0, interval.tau_star) for w in ("south", "north")}
    surface, a = build_surface("sphere", SPHERE_RADIUS, gammas, interval, 2.0)
    return build_construction(interval, a, surface)


def _height_sphere(interval, radius, c0, c1, chart_index=0, q_interior=(), normalize="none"):
    gammas = {w: gamma_height(c0, c1, radius, w, interval.tau_star) for w in ("south", "north")}
    surface, a = build_surface("sphere", radius, gammas, interval, 2.0, normalize=normalize)
    return build_construction(interval, a, surface, q_interior=q_interior, chart_index=chart_index)


@pytest.fixture(scope="session")
def height_sphere_data(interval):
    # gamma = c0 + c1 (embedding height) varies from the chart centre outward.  Its
    # flux is -1.00846, not quantized, so building it warns.
    return _height_sphere(interval, SPHERE_RADIUS, -2.0, 0.5)


@pytest.fixture(scope="session")
def height_sphere_north_data(interval):
    return _height_sphere(interval, SPHERE_RADIUS, -2.0, 0.5, chart_index=1)


@pytest.fixture(scope="session")
def wide_sphere_data(interval):
    # Radius 2 with a q-factor, a normalized to make the Chern integral an integer.
    return _height_sphere(interval, 2.0, 5.0, 1.0, q_interior=(0.4, -0.3), normalize="a")


def _rebuilt(data):
    """``data`` rebuilt from what extraction reads off it: interpolated lam2 and kappa."""
    from kahlergg.extract import _rebuild, extract_all, oracle_from_construction
    oracle = oracle_from_construction(data)
    return _rebuild(extract_all(oracle), oracle)


@pytest.fixture(scope="session")
def rebuilt_torus_data(torus_data):
    return _rebuilt(torus_data)


@pytest.fixture(scope="session")
def rebuilt_sphere_data(sphere_data):
    return _rebuilt(sphere_data)


@pytest.fixture(scope="session")
def torus_subject(torus_data):
    from kahlergg.verify import subject_from_construction
    return subject_from_construction(torus_data)


@pytest.fixture(scope="session")
def fs_subject():
    from kahlergg.verify import subject_from_fs
    return subject_from_fs()
