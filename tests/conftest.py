import numpy as np
import pytest

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

H_SCALE = float(np.pi * np.sqrt(6.0))      # makes the torus Chern integral exactly 1
SPHERE_RADIUS = float(np.sqrt(0.625))      # makes the sphere Chern integral exactly 1


@pytest.fixture(scope="session")
def interval():
    return Interval(0.0, 1.0)


@pytest.fixture(scope="session")
def torus_data(interval):
    surface, a = build_surface("torus", H_SCALE, {"torus": gamma_cos(3.0, 0.5)}, interval, 2.0)
    return build_construction(interval, a, surface)


@pytest.fixture(scope="session")
def torus_inf_data(interval):
    surface, a = build_surface("torus", H_SCALE, {"torus": gamma_constant("inf")}, interval, 2.0)
    return build_construction(interval, a, surface)


@pytest.fixture(scope="session")
def poly_profile_data():
    # A non-canonical profile on a shifted interval.
    interval = Interval(-0.5, 1.7)
    surface, a = build_surface("torus", H_SCALE, {"torus": gamma_cos(3.0, 0.5)}, interval, 3.0,
                               normalize="h-scale")
    return build_construction(interval, a, surface, q_interior=(0.4, -0.3, 0.2))


@pytest.fixture(scope="session")
def steep_torus_data(interval):
    surface, a = build_surface("torus", H_SCALE, {"torus": gamma_cos(3.0, 0.5)}, interval, 30.0,
                               normalize="h-scale")
    return build_construction(interval, a, surface)


@pytest.fixture(scope="session")
def dipped_steep_torus_data(interval):
    # The steep torus with a q-factor that dips to 0.375 of its end value
    # mid-interval, so Q(tau) is flatter there than any parabola with Q's end slopes.
    surface, a = build_surface("torus", H_SCALE, {"torus": gamma_cos(3.0, 0.5)}, interval, 30.0,
                               normalize="h-scale")
    return build_construction(interval, a, surface, q_interior=(-150.0,))


@pytest.fixture(scope="session")
def dipped_steeper_torus_data(interval):
    # a = 100 with the q-factor at 0.3 of its end value mid-interval: past tau_max
    # Q vanishes again, and a stage of the base t-step lands where g is singular.
    surface, a = build_surface("torus", H_SCALE, {"torus": gamma_cos(3.0, 0.5)}, interval, 100.0,
                               normalize="h-scale")
    return build_construction(interval, a, surface, q_interior=(-560.0,))


@pytest.fixture(scope="session")
def sphere_data(interval):
    gammas = {"south": gamma_constant(3.0), "north": gamma_constant(3.0)}
    surface, a = build_surface("sphere", SPHERE_RADIUS, gammas, interval, 2.0)
    return build_construction(interval, a, surface)


def _height_sphere(interval, radius, c0, c1, chart_index=0, q_interior=(), normalize="none"):
    gammas = {w: gamma_height(c0, c1, radius, w) for w in ("south", "north")}
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


@pytest.fixture(scope="session")
def torus_subject(torus_data):
    from kahlergg.verify import subject_from_construction
    return subject_from_construction(torus_data)


@pytest.fixture(scope="session")
def fs_subject():
    from kahlergg.verify import subject_from_fs
    return subject_from_fs()
