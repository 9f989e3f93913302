import contextlib
import csv
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from kahlergg import cli
from kahlergg.cli import main
from kahlergg.config import ConfigError, build_from_config, parse_config

TORUS_CFG = """
{
  "construction": {
    "tau_min": 0.0, "tau_max": 1.0, "a": 2.0,
    "q_factor": {"type": "constant"},
    "surface": {"type": "torus", "h_scale": 7.695298980971054},
    "gamma": {"type": "cos", "c0": 3.0, "c1": 0.5},
    "normalize": "none"
  },
  "grid": {"base": [3, 3], "n_tau": 6, "n_theta": 2, "n_random": 40},
  "seed": 0
}
"""


@pytest.fixture()
def torus_cfg_file(tmp_path):
    p = tmp_path / "torus.json"
    p.write_text(TORUS_CFG)
    return p


def test_parse_defaults():
    cfg = parse_config(TORUS_CFG)
    assert cfg.grid.base == (3, 3)
    assert cfg.grid.collar == 0.02
    assert cfg.tol_scale == 1.0
    assert cfg.control == "none"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"\$\.construction\.q_factor\.typo"):
        parse_config('{"construction": {"tau_min": 0, "tau_max": 1, "a": 2,'
                     '"surface": {"type": "torus"}, "gamma": {"type": "inf"},'
                     '"q_factor": {"type": "constant", "typo": 1}}}')


@pytest.mark.parametrize("construction", ["{}", "[]", "0", '""', "null"])
def test_empty_construction_rejected(construction):
    # An empty or non-object construction used to build the default torus silently.
    with pytest.raises(ConfigError, match=r"\$\.construction"):
        parse_config(f'{{"construction": {construction}}}')


def test_gamma_range_rejected_at_parse():
    with pytest.raises(ConfigError, match="intersects the interval"):
        parse_config('{"construction": {"tau_min": 0, "tau_max": 1, "a": 2,'
                     '"surface": {"type": "torus"},'
                     '"gamma": {"type": "cos", "c0": 0.7, "c1": 0.5}}}')


def test_gamma_cos_accepted_when_disjoint():
    cfg = parse_config('{"construction": {"tau_min": 0, "tau_max": 1, "a": 2,'
                       '"surface": {"type": "torus"},'
                       '"gamma": {"type": "cos", "c0": 3, "c1": 0.5}}}')
    assert cfg.gamma_spec["c0"] == 3


def test_bad_tolerance_key():
    with pytest.raises(ConfigError, match=r"\$\.tolerances\.nope"):
        parse_config('{"oracle": "fubini", "tolerances": {"nope": 1e-5}}')


def test_build_from_config_roundtrip():
    cfg = parse_config(TORUS_CFG)
    data = build_from_config(cfg)
    assert data.a == 2.0
    assert data.surface.surface_type == "torus"


def test_cli_verify_pass_and_deterministic(torus_cfg_file, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["verify", "--config", str(torus_cfg_file), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(torus_cfg_file), "--out", str(out2)]) == 0
    b1 = (out1 / "verify_report.json").read_bytes()
    b2 = (out2 / "verify_report.json").read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["all_pass"] is True
    for rep in payload["reports"]:
        assert set(rep) >= {"check", "grid", "max", "mean", "p99", "tol", "pass", "offenders"}
        assert len(rep["offenders"]) <= 10


def test_cli_verify_control_fails(torus_cfg_file, tmp_path):
    code = main(["verify", "--config", str(torus_cfg_file), "--out", str(tmp_path / "o"),
                 "--control", "perturb-beta"])
    assert code == 1
    payload = json.loads((tmp_path / "o" / "verify_report.json").read_text())
    assert payload["all_pass"] is False
    failed = {r["check"] for r in payload["reports"] if not r["pass"]}
    assert "kaehler" in failed


def test_cli_invalid_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"construction": {"tau_min": 0, "tau_max": 1, "a": 2,'
                   '"surface": {"type": "torus"},'
                   '"gamma": {"type": "cos", "c0": 0.7, "c1": 0.5}}}')
    code = main(["verify", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]["kind"] == "config"


def test_cli_construct_outputs(torus_cfg_file, tmp_path):
    out = tmp_path / "o"
    assert main(["construct", "--config", str(torus_cfg_file), "--out", str(out)]) == 0
    with (out / "profile.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tau", "Q", "psi", "r", "s"]
    assert len(rows) > 100
    with (out / "metric_samples.csv").open() as fh:
        header = next(csv.reader(fh))
    assert header[:4] == ["x1", "x2", "tau", "theta"]
    assert "g_00" in header and "g_33" in header
    info = json.loads((out / "construct_info.json").read_text())
    assert abs(info["chern"] - 1.0) < 1e-9


def test_cli_flow(torus_cfg_file, tmp_path):
    out = tmp_path / "o"
    assert main(["flow", "--config", str(torus_cfg_file), "--out", str(out)]) == 0
    with (out / "trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "arclength", "x1", "x2", "tau", "theta", "s_of_tau"]
    assert len(rows) > 50
    # Fiber 0 flows both ways from its middle, so its rows reach both ends.
    lam = build_from_config(parse_config(TORUS_CFG)).maps.lam
    s_of_tau = [float(r[6]) for r in rows[1:]]
    assert min(s_of_tau) < 0.05 * lam and max(s_of_tau) > 0.95 * lam
    t = [float(r[0]) for r in rows[1:]]
    assert t == sorted(t) and t.count(0.0) == 1 and t[0] < 0.0 < t[-1]
    # The report counts the integrator's work: 55 steps per half, 1 + 7 * 9 + 2 * 46
    # calls, and fiber 0's steps are the trajectory's rows past the header and the seed.
    flow = json.loads((out / "flow_report.json").read_text())["flow"]
    assert flow["metric_calls"] == 156
    assert flow["steps"] == [{"fiber": i, "descending": 55, "ascending": 55} for i in range(2)]
    assert flow["steps"][0]["descending"] + flow["steps"][0]["ascending"] == len(rows) - 2


@pytest.mark.parametrize("argv", [["construct"], ["flow"], ["extract", "--round-trip"],
                                  ["verify", "--control", "perturb-j"]],
                         ids=lambda a: " ".join(a))
def test_cli_fubini_oracle_needs_a_construction(tmp_path, capsys, argv):
    # These commands used to build the default torus, skip the round trip, or verify
    # the clean Fubini-Study metric in place of the control, and exit 0.
    cfg = tmp_path / "fubini.json"
    cfg.write_text('{"oracle": "fubini"}')
    out = tmp_path / "o"
    assert main(argv[:1] + ["--config", str(cfg), "--out", str(out)] + argv[1:]) == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and "$.oracle" in err["message"]
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("control", ["perturb-beta", "perturb-j", "break-symmetry"])
@pytest.mark.parametrize("argv", [["extract"], ["extract", "--round-trip"]], ids=" ".join)
def test_cli_extract_control_is_config_error(tmp_path, capsys, argv, control):
    # extract reads the clean construction. It used to drop the control and exit 0, or
    # compare a perturbed oracle with a clean rebuild in the round trip.
    cfg = tmp_path / "control.json"
    cfg.write_text(TORUS_CFG.replace('"seed": 0', f'"seed": 0, "control": "{control}"'))
    out = tmp_path / "o"
    assert main(argv[:1] + ["--config", str(cfg), "--out", str(out)] + argv[1:]) == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and "$.control" in err["message"]
    assert not out.exists()


TORUS_GAMMA = '"gamma": {"type": "cos", "c0": 3.0, "c1": 0.5}'
GAMMA_INF = '"gamma": {"type": "inf"}'


@pytest.mark.parametrize("control", ["perturb-beta", "perturb-j"])
@pytest.mark.parametrize("surface", ["torus", "sphere"])
def test_cli_control_inert_at_infinite_gamma_is_config_error(tmp_path, capsys, surface, control):
    # beta = 1 makes the metric a local product, on which the flipped J is Kahler too:
    # the control used to reproduce every residual of the clean run and exit 0.
    # The torus passes --control, the sphere the config key.
    cfg = tmp_path / "gamma_inf.json"
    argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]
    if surface == "torus":
        cfg.write_text(TORUS_CFG.replace(TORUS_GAMMA, GAMMA_INF))
        argv += ["--control", control]
    else:
        cfg.write_text(SPHERE_CFG.replace("CHART", "0")
                       .replace('"gamma": {"type": "constant", "value": 3.0}', GAMMA_INF)
                       .replace('"seed": 0', f'"seed": 0, "control": "{control}"'))
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and "$.control" in err["message"]


def test_break_symmetry_builds_at_infinite_gamma():
    cfg = parse_config(TORUS_CFG.replace(TORUS_GAMMA, GAMMA_INF)
                       .replace('"seed": 0', '"seed": 0, "control": "break-symmetry"'))
    assert build_from_config(cfg).control == "break-symmetry"


def test_cli_seed_override_changes_report(torus_cfg_file, tmp_path):
    out1, out2 = tmp_path / "s0", tmp_path / "s9"
    main(["verify", "--config", str(torus_cfg_file), "--out", str(out1)])
    main(["verify", "--config", str(torus_cfg_file), "--out", str(out2), "--seed", "9"])
    p1 = json.loads((out1 / "verify_report.json").read_text())
    p2 = json.loads((out2 / "verify_report.json").read_text())
    assert p1["config"]["seed"] == 0 and p2["config"]["seed"] == 9


def test_cli_tol_scale(torus_cfg_file, tmp_path):
    # a huge scale loosens every check; still passes and records the scale
    out = tmp_path / "o"
    code = main(["verify", "--config", str(torus_cfg_file), "--out", str(out),
                 "--tol-scale", "100"])
    assert code == 0
    payload = json.loads((out / "verify_report.json").read_text())
    assert payload["config"]["tol_scale"] == 100.0


BAD_OPTIONS = [pytest.param("--seed", "abc", id="--seed"),
               pytest.param("--tol-scale", "abc", id="--tol-scale"),
               pytest.param("--seed", "-1", id="--seed=-1"),
               pytest.param("--tol-scale", "-1", id="--tol-scale=-1"),
               pytest.param("--tol-scale", "0", id="--tol-scale=0"),
               pytest.param("--tol-scale", "nan", id="--tol-scale=nan")]


@pytest.mark.parametrize("flag,value", BAD_OPTIONS)
def test_cli_verify_non_numeric_option_is_config_error(torus_cfg_file, tmp_path, capsys, flag,
                                                       value):
    code = main(["verify", "--config", str(torus_cfg_file), "--out", str(tmp_path / "o"),
                 flag, value])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and flag in err["message"]


@pytest.mark.parametrize("flag,value", BAD_OPTIONS)
def test_cli_fubini_check_non_numeric_option_is_config_error(tmp_path, capsys, flag, value):
    code = main(["fubini-check", "--out", str(tmp_path / "o"), flag, value])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and flag in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid", ["a,b,c,d", "2,2,0,2", "2,2,-1,2",
                                  # past 2^20 points
                                  "1024,1024,2,1", "9223372036854775808,2,2,1",
                                  "2,2,1000000000000000000000000000000,1"])
def test_cli_verify_bad_grid_is_config_error(torus_cfg_file, tmp_path, capsys, grid):
    code = main(["verify", "--config", str(torus_cfg_file), "--out", str(tmp_path / "o"),
                 "--grid", grid])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and "--grid" in err["message"]


def _with_grid(**grid) -> str:
    cfg = json.loads(TORUS_CFG)
    cfg["grid"].update(grid)
    return json.dumps(cfg)


@pytest.mark.parametrize("grid", [{"base": [2 ** 63, 2]}, {"n_tau": 10 ** 30},
                                  {"base": [512, 512], "n_tau": 4, "n_theta": 2},
                                  {"n_random": 2 ** 20 + 1}])
def test_grid_past_its_bound_is_config_error(grid):
    # A grid is allocated whole: past 2^20 points it used to end in a
    # ValueError or MemoryError traceback.
    with pytest.raises(ConfigError, match=r"\$\.grid: .* at most 1048576"):
        parse_config(_with_grid(**grid))
    assert parse_config(_with_grid(base=[128, 128], n_tau=16, n_theta=4, n_random=2 ** 20))
    assert parse_config(_with_grid(base=[1024, 1024], n_tau=1, n_theta=1))


def test_cli_verify_zero_n_tau_in_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "zero.json"
    cfg.write_text(TORUS_CFG.replace('"n_tau": 6', '"n_tau": 0'))
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and "$.grid.n_tau" in err["message"]


@pytest.mark.parametrize("old,new,path", [pytest.param(*case, id=case[1]) for case in [
    ('"seed": 0', '"seed": "x"', "$.seed"),
    ('"seed": 0', '"seed": 1.5', "$.seed"),
    ('"seed": 0', '"seed": true', "$.seed"),
    ('"seed": 0', '"seed": -1', "$.seed"),
    ('"n_random": 40', '"collar": "x", "n_random": 40', "$.grid.collar"),
    ('"n_random": 40', '"collar": [1], "n_random": 40', "$.grid.collar"),
    # $.grid.deep_collar is no longer a key: any value of it is refused as unknown, by path.
    ('"n_random": 40', '"deep_collar": 2, "n_random": 40', "$.grid.deep_collar: unknown key"),
    ('"n_random": 40', '"deep_collar": -1, "n_random": 40', "$.grid.deep_collar: unknown key"),
    ('"seed": 0', '"tolerances": [1], "seed": 0', "$.tolerances"),
    ('"seed": 0', '"tolerances": {"kaehler": NaN}, "seed": 0', "$.tolerances.kaehler"),
    ('"seed": 0', '"tol_scale": 0, "seed": 0', "$.tol_scale"),
    ('"c0": 3.0', '"c0": "x"', "$.construction.gamma.c0"),
    ('"gamma": {"type": "cos", "c0": 3.0, "c1": 0.5}', '"gamma": "inf"', "$.construction.gamma"),
    ('"gamma": {"type": "cos", "c0": 3.0, "c1": 0.5}', '"gamma": [1]', "$.construction.gamma"),
    ('"type": "cos"', '"type": ["cos"]', "$.construction.gamma.type"),
    ('{"type": "constant"}', '{"type": "poly", "coeffs": 5}', "$.construction.q_factor.coeffs"),
    ('"h_scale": 7.695298980971054', '"h_scale": -1', "$.construction.surface.h_scale"),
    ('"h_scale": 7.695298980971054', '"h_scale": 0', "$.construction.surface.h_scale"),
    ('"radius": 0.7905694150420949', '"radius": 0', "$.construction.surface.radius"),
    ('"radius": 0.7905694150420949', '"radius": -1', "$.construction.surface.radius"),
    ('"a": 2.0', '"a": 1e300', "$.construction.a"),
    ('"a": 2.0', '"a": 1e-300', "$.construction.a"),
    ('"tau_max": 1.0', '"tau_max": 1e-300', "$.construction.tau_max"),
    ('"tau_min": 0.0', '"tau_min": -1e300', "$.construction.tau_min"),
    ('"tau_min": 0.0, "tau_max": 1.0', '"tau_min": 1.0, "tau_max": 1.000000000001',
     "$.construction.tau_max"),
    ('"h_scale": 7.695298980971054', '"h_scale": 1e300', "$.construction.surface.h_scale"),
    ('"h_scale": 7.695298980971054', '"h_scale": 1e-300', "$.construction.surface.h_scale"),
    ('"radius": 0.7905694150420949', '"radius": 1e300', "$.construction.surface.radius"),
    ('"radius": 0.7905694150420949', '"radius": 1e-300', "$.construction.surface.radius"),
    ('"c0": 3.0', '"c0": 1e300', "$.construction.gamma.c0"),
    ('"c1": 0.5', '"c1": -1e300', "$.construction.gamma.c1"),
    ('"value": 3.0', '"value": 1e300', "$.construction.gamma.value"),
    ('{"type": "constant"}', '{"type": "poly", "coeffs": [1e300]}',
     "$.construction.q_factor.coeffs[]"),
    # q(0) = 4 > 0, but the sampling slack max|q'| * dtau (~1e96) exceeds it.
    ('{"type": "constant"}', '{"type": "poly", "coeffs": [1e100]}', "sampling slack"),
]])
def test_cli_bad_config_value_is_config_error(tmp_path, capsys, old, new, path):
    # Each case edits the torus config, or the sphere config where only it has the text.
    text = TORUS_CFG if old in TORUS_CFG else SPHERE_CFG.replace("CHART", "0")
    assert old in text
    cfg = tmp_path / "bad.json"
    cfg.write_text(text.replace(old, new))
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and path in err["message"]


def test_cli_nonpositive_q_factor_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "negative_q.json"
    cfg.write_text(TORUS_CFG.replace('{"type": "constant"}', '{"type": "poly", "coeffs": [-100]}'))
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and "q(" in err["message"]


def test_cli_q_factor_takes_at_most_17_coefficients(tmp_path, capsys):
    # n coefficients give Q a degree of n + 3, and extraction fits Q up to degree 20.
    def with_coeffs(n):
        return TORUS_CFG.replace('{"type": "constant"}',
                                 json.dumps({"type": "poly", "coeffs": [0.1] + [0.0] * (n - 1)}))

    assert len(parse_config(with_coeffs(17)).q_coeffs) == 17
    cfg = tmp_path / "q_degree_21.json"
    cfg.write_text(with_coeffs(18))
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and "$.construction.q_factor.coeffs: at most 17" in err["message"]


@pytest.mark.parametrize("exc", cli.CONFIG_ERRORS + cli.NUMERICAL_ERRORS,
                         ids=lambda e: e.__name__)
def test_cli_error_taxonomy(torus_cfg_file, tmp_path, capsys, monkeypatch, exc):
    def fail(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_verify", fail)
    code = main(["verify", "--config", str(torus_cfg_file), "--out", str(tmp_path / "o")])
    kind = "config" if exc in cli.CONFIG_ERRORS else "numerical"
    assert code == (2 if kind == "config" else 3)
    assert json.loads(capsys.readouterr().err.strip())["error"] == {"kind": kind, "message": "boom"}


@pytest.mark.parametrize("command", [["flow"], ["extract", "--round-trip"]],
                         ids=["flow", "extract --round-trip"])
def test_cli_flow_on_a_singular_metric_is_numerical(tmp_path, capsys, command):
    # At a = 1e20 with h-scale normalization g is singular at the seeds: exit 3
    # with a JSON error, as verify and construct do, not a traceback.
    cfg = tmp_path / "torus_a1e20.json"
    cfg.write_text(TORUS_CFG.replace('"a": 2.0', '"a": 1e20').replace('"none"', '"h-scale"'))
    assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "numerical" and "numerically singular" in err["message"]


SPHERE_CFG = """
{
  "construction": {
    "tau_min": 0.0, "tau_max": 1.0, "a": 2.0,
    "surface": {"type": "sphere", "radius": 0.7905694150420949},
    "gamma": {"type": "constant", "value": 3.0},
    "chart": CHART
  },
  "grid": {"base": [3, 3], "n_tau": 6, "n_theta": 2, "n_random": 40},
  "seed": 0
}
"""


@pytest.mark.parametrize("surface,chart", [("torus", "1"), ("torus", "2.5"), ("torus", '"x"'),
                                           ("torus", "-1"), ("torus", "true"), ("sphere", "2")])
def test_cli_bad_chart_is_config_error(tmp_path, capsys, surface, chart):
    cfg = tmp_path / "chart.json"
    if surface == "torus":
        cfg.write_text(TORUS_CFG.replace('"normalize": "none"', f'"normalize": "none", "chart": {chart}'))
    else:
        cfg.write_text(SPHERE_CFG.replace("CHART", chart))
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and "$.construction.chart" in err["message"]


def test_cli_sphere_north_chart_verifies(tmp_path):
    cfg = tmp_path / "north.json"
    cfg.write_text(SPHERE_CFG.replace("CHART", "1"))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "verify_report.json").read_text())["all_pass"] is True


def test_cli_sphere_h_scale_is_config_error(tmp_path, capsys):
    # build_surface rejects it too, but with a ValueError the CLI does not map.
    cfg = tmp_path / "sphere_h_scale.json"
    cfg.write_text(SPHERE_CFG.replace('"chart": CHART', '"normalize": "h-scale"'))
    out = tmp_path / "o"
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config" and "$.construction.normalize" in err["message"]
    assert not out.exists()


def _assert_construct_exits_documented(cfg: dict) -> None:
    """``construct`` on cfg exits 0-3, and every failure prints a JSON error, not a traceback."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = main(["construct", "--config", path, "--out", os.path.join(tmp, "o")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert set(json.loads(err.getvalue().strip().splitlines()[-1])) == {"error"}


# Gamma parameters the fuzz draws: huge, near the interval [0, 1], inside it, ordinary,
# and not numbers at all (JSON has no NaN, but Python's json reads it).
_GAMMA_VALUES = st.one_of(
    st.sampled_from([1e300, -1e300, 1e100, -1e100, 1e99, 1.0, 0.0, 0.5, 1.0 + 1e-15, -1e-15,
                     1.0 + 1e-9, -1e-9, float("nan"), float("inf")]),
    st.floats(-3.0, 4.0), st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10, 10), st.text(max_size=3), st.none(), st.booleans(),
    st.lists(st.integers(), max_size=2))
_GAMMA_SPECS = st.one_of(
    st.fixed_dictionaries({"type": st.just("constant"), "value": _GAMMA_VALUES}),
    st.fixed_dictionaries({"type": st.sampled_from(["cos", "height"]),
                           "c0": _GAMMA_VALUES, "c1": _GAMMA_VALUES}),
    st.just({"type": "inf"}),
    st.just({"type": "constant", "value": "inf"}))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gamma=_GAMMA_SPECS, surface=st.sampled_from(["torus", "sphere"]))
def test_construct_fuzz_gamma_specs(gamma, surface):
    # Any gamma spec, on either surface, ends in a documented exit code, and every
    # failure prints a JSON error rather than a traceback.
    cfg = {"construction": {"tau_min": 0.0, "tau_max": 1.0, "a": 2.0,
                            "surface": {"type": surface}, "gamma": gamma},
           "grid": {"base": [2, 2], "n_tau": 2, "n_theta": 1}}
    _assert_construct_exits_documented(cfg)


# Numbers the config fuzz draws for every numeric field of a construction: the
# bounds of the config's magnitude checks and just past them, zero, near-zero,
# the interval ends, ordinary sizes, and any finite float.
_NUMBERS = st.one_of(
    st.sampled_from([1e100, -1e100, 1.0000001e100, 1e-100, 9.9e-101, 1e-300, 0.0, -0.0,
                     1e-15, 1.0, -1.0, 0.5, 2.0, 3.0, 30.0, 1e4, 1e20]),
    st.floats(-5.0, 5.0), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _numeric_constructions(draw):
    """A valid torus or sphere construction with one or two numeric fields fuzzed."""
    surface = draw(st.sampled_from(["torus", "sphere"]))
    fuzzed = draw(st.sets(st.sampled_from(["tau_min", "tau_max", "a", "size", "c0", "c1",
                                           "coeffs"]), min_size=1, max_size=2))

    def num(name, default):
        return draw(_NUMBERS) if name in fuzzed else default

    gamma = {"type": "cos" if surface == "torus" else "height", "c0": num("c0", 3.0),
             "c1": num("c1", 0.5)}
    if draw(st.booleans()):
        gamma = {"type": "constant", "value": gamma["c0"]}
    coeffs = draw(st.lists(_NUMBERS, min_size=1, max_size=2)) if "coeffs" in fuzzed else []
    return {"tau_min": num("tau_min", 0.0), "tau_max": num("tau_max", 1.0), "a": num("a", 2.0),
            "q_factor": {"type": "poly", "coeffs": coeffs},
            "surface": {"type": surface, {"torus": "h_scale", "sphere": "radius"}[surface]:
                        num("size", 1.0)},
            "gamma": gamma, "normalize": draw(st.sampled_from(
                ["none", "a", "h-scale"] if surface == "torus" else ["none", "a"]))}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(construction=_numeric_constructions())
def test_construct_fuzz_numeric_fields(construction):
    # Any numbers in a construction, the profile and connection tables they build
    # included, end in a documented exit code with a JSON error, never a traceback.
    cfg = {"construction": construction, "grid": {"base": [2, 2], "n_tau": 2, "n_theta": 1}}
    _assert_construct_exits_documented(cfg)


# JSON values the structural fuzz puts anywhere in a config: counts past any grid
# bound, scalars of every JSON type, and small lists and objects of them.  The counts
# are small or huge, never a grid large enough to be slow to build.
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 8), st.floats(-10.0, 10.0),
                     st.sampled_from([float("nan"), float("inf"), -0.0, 0.5, "inf", "none",
                                      "torus", "sphere", "poly", "fubini", "perturb-j"]),
                     st.text(max_size=3))
_JSON_VALUES = st.one_of(
    st.sampled_from([2 ** 20 + 1, 10 ** 30, 2 ** 63, 1e30]), _SCALARS,
    st.recursive(_SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=5), inner, max_size=2)),
        max_leaves=4))


def _config_paths(node, prefix=()):
    """Every key and list index path in a JSON tree, children first and the root () last."""
    if isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _config_paths(v, prefix + (k,))
    yield prefix


@st.composite
def _mutated_configs(draw):
    """A complete valid config with one to three of its values replaced, deleted or joined by a stranger."""
    surface = draw(st.sampled_from(["torus", "sphere"]))
    cfg = {"construction": {"tau_min": 0.0, "tau_max": 1.0, "a": 2.0,
                            "q_factor": {"type": "poly", "coeffs": [0.4]},
                            "surface": {"type": surface},
                            "gamma": {"type": "constant", "value": 3.0},
                            "normalize": "none", "chart": 0},
           "grid": {"base": [2, 2], "n_tau": 2, "n_theta": 1, "collar": 0.02, "n_random": 4},
           "tolerances": {"kaehler": 1e-6}, "tol_scale": 1.0, "seed": 0,
           "control": "none", "oracle": "construction"}
    rnd = draw(st.randoms(use_true_random=False))  # uniform picks: sampled_from favours early items
    for _ in range(draw(st.integers(1, 3))):
        path = rnd.choice(list(_config_paths(cfg)))
        if not path:
            return draw(_JSON_VALUES)
        parent = cfg
        for k in path[:-1]:
            parent = parent[k]
        action = rnd.choice(["replace", "replace", "delete", "stranger"])
        if action == "replace":
            parent[path[-1]] = draw(_JSON_VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=5))] = draw(_JSON_VALUES)
    return cfg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cfg=_mutated_configs())
def test_construct_fuzz_config_structure(cfg):
    # Any value of a config, the config itself included, replaced by any JSON
    # value, deleted, or joined by an unknown key ends in a documented exit code
    # with a JSON error, never a traceback; a grid count past the grid bound is
    # a config error, not an allocation that fails.
    _assert_construct_exits_documented(cfg)
