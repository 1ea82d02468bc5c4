"""End-to-end CLI tests.

Every test drives ``nlbs.cli.main`` in process with a throwaway config file
and checks artifacts, stdout, and exit codes.  Grids are kept tiny so the
whole file runs in a couple of seconds.
"""

import json
import math

import numpy as np
import pytest

from nlbs import GridSpec, SolverFlags, cbest_price, solve_nonlinear, validate
from nlbs import cli
from nlbs.cli import main

from conftest import CONFIG_DIR


CENTER = math.log(30.0)


def write_config(path, **sections):
    cfg = {
        "market": {"sigmas": [0.3, 0.15], "rho": 0.5, "r": 0.08, "T": 1.0},
        "cost": {"type": "constant", "C0": 0.0},
        "payoff": {"type": "best_cash_or_nothing", "K": 5.0, "X": 30.0},
        "dt_tc": 1.0 / 261.0,
        "grid": {"a": CENTER - 1.9, "b": CENTER + 1.9, "nx": 10, "nt": 4},
    }
    cfg.update(sections)
    path.write_text(json.dumps(cfg))
    return cfg


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_price_writes_exact_artifacts(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    out = tmp_path / "run"
    rc = main(["price", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert "converged after 1 sweeps" in capsys.readouterr().out

    header, rows = read_csv(out / "surface.csv")
    assert header == "x1,x2,S1,S2,value"
    assert len(rows) == 11 * 11

    # %.17g round-trips doubles, so the CSV must reproduce the solver output
    # bit for bit
    result = solve_nonlinear(validate(cfg), flags=SolverFlags())
    parsed = np.array([float(r[4]) for r in rows]).reshape(11, 11)
    assert np.array_equal(parsed, result.surface.values)

    g_header, g_rows = read_csv(out / "cost_field.csv")
    assert g_header == "x1,x2,S1,S2,G"
    assert all(float(r[4]) == 0.0 for r in g_rows)

    c_header, c_rows = read_csv(out / "convergence.csv")
    assert c_header == "n,d1,d2,dinf"
    assert c_rows == []  # zero cost: single sweep, nothing to compare

    meta_text = (out / "metadata.json").read_text()
    meta = json.loads(meta_text)
    assert meta["command"] == "price"
    assert meta["result"]["converged"] is True
    assert meta["result"]["iterations"] == 1
    assert meta["config"]["grid"]["nx"] == 10
    # deterministic formatting: sorted keys, two-space indent, trailing newline
    assert meta_text == json.dumps(meta, indent=2, sort_keys=True) + "\n"


def test_surface_csv_fields_read_back_exactly(tmp_path):
    rng = np.random.default_rng(34)
    for coord in ("log", "price"):
        grid = GridSpec(a=1.5, b=5.3, nx=9, nt=2, coord=coord)
        values = rng.normal(size=(10, 10)) * 10.0 ** rng.integers(-300, 300, size=(10, 10))
        values[0, :3] = [0.0, 5e-324, -1.7976931348623157e308]
        path = tmp_path / f"{coord}.csv"
        cli._write_surface_csv(path, grid, values, value_name="G")
        header, rows = read_csv(path)
        assert header == "x1,x2,S1,S2,G"
        assert len(rows) == 100
        for k, row in enumerate(rows):
            i, j = divmod(k, 10)
            fields = (grid.axis()[i], grid.axis()[j], grid.spot_axis()[i], grid.spot_axis()[j], values[i, j])
            assert [float(f) for f in row] == list(fields)


def test_price_reports_nonconvergence_with_exit_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        cost={"type": "constant", "C0": 0.005},
        solver={"max_iter": 1, "tol": 1e-14},
    )
    rc = main(["price", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "NOT converged" in capsys.readouterr().out


def test_leland_does_not_scan_an_unconverged_surface(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        cost={"type": "constant", "C0": 0.005},
        solver={"max_iter": 1, "tol": 1e-14},
    )
    out = tmp_path / "scan"
    rc = main(["leland", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 3
    text = capsys.readouterr().out
    assert "NOT converged after 1 sweeps" in text
    assert "scan:" not in text
    assert not (out / "ellipticity.json").exists()


def test_analytic_matches_closed_form_and_honors_tau_flag(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    out = tmp_path / "ana"
    assert main(["analytic", "--config", str(cfg_path), "--out", str(out)]) == 0

    scen = validate(cfg)
    s = scen.grid.spot_axis()
    expected = cbest_price(s[:, None], s[None, :], 1.0, scen)
    _, rows = read_csv(out / "surface.csv")
    parsed = np.array([float(r[4]) for r in rows]).reshape(11, 11)
    assert np.array_equal(parsed, np.broadcast_to(expected, (11, 11)))
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["result"]["tau"] == 1.0

    out2 = tmp_path / "ana_quarter"
    rc = main(
        ["analytic", "--config", str(cfg_path), "--out", str(out2), "--flag", "output.tau=0.25"]
    )
    assert rc == 0
    meta2 = json.loads((out2 / "metadata.json").read_text())
    assert meta2["result"]["tau"] == 0.25
    _, rows2 = read_csv(out2 / "surface.csv")
    expected2 = cbest_price(s[:, None], s[None, :], 0.25, scen)
    parsed2 = np.array([float(r[4]) for r in rows2]).reshape(11, 11)
    assert np.array_equal(parsed2, np.broadcast_to(expected2, (11, 11)))


def test_leland_classification_lines(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, solver={"skip_scan": True})
    assert main(["leland", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "asset 1:" in out and "asset 2:" in out
    assert out.count("well-posed (Le < 1)") == 2
    assert "scan:" not in out

    # a huge round-trip cost tips both assets over the threshold
    write_config(cfg_path, cost={"type": "constant", "C0": 0.5}, solver={"skip_scan": True})
    assert main(["leland", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.count("ILL-POSED (Le >= 1)") == 2


def test_leland_scan_report_files(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, output={"per_node_csv": True})
    out = tmp_path / "scan"
    rc = main(["leland", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert "scan:" in capsys.readouterr().out
    report = json.loads((out / "ellipticity.json").read_text())
    assert report["result"]["satisfied"] is True  # zero cost cannot break it
    assert report["result"]["form"] == "exact"
    lines = (out / "ellipticity_nodes.csv").read_text().splitlines()
    assert lines[0] == "i,j,S1,S2,max_eigenvalue,degenerate,satisfied"
    assert len(lines) == 1 + 9 * 9


def test_converge_prints_record_table(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, cost={"type": "constant", "C0": 0.001})
    out = tmp_path / "conv"
    rc = main(["converge", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("n    d1")
    assert "converge: converged after" in text

    header, rows = read_csv(out / "convergence.csv")
    assert header == "n,d1,d2,dinf"
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    meta = json.loads((out / "metadata.json").read_text())
    assert len(meta["result"]["records"]) == meta["result"]["iterations"] - 1


def test_sweep_csv_layout(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        cost={"type": "constant", "C0": 0.001},
        output={"dt_values": [0.01, 0.001], "probes": [[30.0, 30.0]]},
    )
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert "solved 2 rebalancing intervals" in capsys.readouterr().out

    header, rows = read_csv(out / "sweep.csv")
    assert header == "dt,converged,iterations,price_1,G_1"
    assert [float(r[0]) for r in rows] == [0.01, 0.001]
    for r in rows:
        assert r[1] == "1"
        assert float(r[4]) > 0.0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["result"]["n_dt"] == 2
    assert meta["result"]["probe_nodes"] == [[5, 5]]


@pytest.mark.parametrize(
    "mutate_argv",
    [
        lambda cfg, bad: ["price", "--config", str(bad), "--out", str(bad.parent / "o")],
        lambda cfg, bad: ["price", "--config", str(cfg), "--out", str(cfg.parent / "o"), "--flag", "no-equals-sign"],
        lambda cfg, bad: ["price", "--config", str(cfg), "--out", str(cfg.parent / "o"), "--flag", "=5"],
        lambda cfg, bad: ["price", "--config", str(cfg), "--out", str(cfg.parent / "o"), "--flag", "solver.first_derivative=bogus"],
    ],
    ids=["malformed-json", "flag-missing-equals", "flag-empty-key", "bad-solver-choice"],
)
def test_exit_code_2_on_config_errors(tmp_path, capsys, mutate_argv):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(mutate_argv(cfg_path, bad)) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key", ["boundry", "cbest_formula", "mixed_stencil", "cost_prefactor", "boundary", "smoothing", "stop_norm"]
)
@pytest.mark.parametrize("command", ["price", "analytic", "leland", "converge", "sweep"])
def test_exit_code_2_names_an_unknown_solver_key(tmp_path, capsys, command, key):
    """A misspelt key, the removed scheme switches and the removed stop norm are all rejected."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    assert main(argv + ["--flag", f"solver.{key}=standard"]) == 2
    assert f"solver.{key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flags,field",
    [
        (["grid.nx=8"], "grid.a"),
        (['market.sigmas="ab"'], "market.sigmas"),
        (["grid.a=1.5", "grid.b=5.3", 'grid.nt="x"'], "grid.nt"),
        (["grid.a=1.5", "grid.b=5.3", "grid.nx=8.5"], "grid.nx"),
        (["market.rho=[1,2]"], "market.rho"),
        (["market.T=null"], "market.T"),
        (["market.r=[0.05]"], "market.r"),
        (['payoff.K="x"'], "payoff.K"),
        (['dt_tc="x"'], "dt_tc"),
        (['cost.C0="x"'], "cost.C0"),
        (["cost.k=[1]"], "cost.k"),
        (['cost={"type":"sampled","x":[0,"a"],"c":[1,1],"c_upper":2}'], "cost.x"),
        (['cost={"type":"sampled","x":[0,1],"c":[1,1],"c_upper":2,"dc":"x"}'], "cost.dc"),
        (['cost={"type":"sampled","x":[0,1],"c":[1,1],"c_upper":2,"c_lower":null}'], "cost.c_lower"),
        (['cost={"type":"constant","c0":[0.1]}'], "cost.C0"),
        (["market.sigmas=[true,0.2]"], "market.sigmas"),
        (['cost={"type":"sampled","x":[0,true],"c":[1,1],"c_upper":2}'], "cost.x"),
        (["cost.c0=0.5"], "cost.c0"),
        (['cost={"type":"constant","C0":0.01,"c0":0.5}'], "cost.c0"),
        (["market.sigmas=[0.3]"], "market.sigmas"),
        (["market.sigmas=[1.0]"], "market.sigmas"),
        (["market.sigmas=[0.3,0.15,0.2]"], "market.sigmas"),
    ],
)
def test_exit_code_2_names_a_malformed_grid_or_market_field(tmp_path, capsys, flags, field):
    """Malformed values on a shipped config exit 2 naming the field, no traceback.

    The cases cover every scenario section: grid, market, payoff, dt_tc and
    cost, a boolean inside a list of numbers, a cost level given both as
    ``C0`` and as ``c0``, and a volatility count other than two beside the
    config's scalar correlation.
    """
    out = tmp_path / "o"
    argv = ["analytic", "--config", str(CONFIG_DIR / "testing1.json"), "--out", str(out)]
    for flag in flags:
        argv += ["--flag", flag]
    assert main(argv) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,field",
    [
        ("market.sigma=[0.2,0.2]", "market.sigma"),
        ('cost.c_upper="x"', "cost.c_upper"),
        ('cost={"type":"constant","C0":0.001,"k":1}', "cost.k"),
        ("payoff.Strike=3", "payoff.Strike"),
        ('grid={"a":1.5,"b":5.3,"nx":8,"nt":2,"cord":"log"}', "grid.cord"),
        ("output.tua=0.5", "output.tua"),
        ("tua=0.5", "tua"),
    ],
)
def test_exit_code_2_names_an_unknown_section_key(tmp_path, capsys, flag, field):
    """A key its section, or the top level, does not define is rejected, not ignored.

    Config 1's cost is exponential, so ``c_upper`` (a sampled-cost key) is
    unknown there, and a constant cost has no ``k``.
    """
    out = tmp_path / "o"
    argv = ["analytic", "--config", str(CONFIG_DIR / "testing1.json"), "--out", str(out), "--flag", flag]
    assert main(argv) == 2
    assert f"config error: {field}: unknown key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flag,field",
    [
        ("analytic", 'output.tau="x"', "output.tau"),
        ("analytic", "output.tau=[0.5]", "output.tau"),
        ("analytic", "output.tau=-1", "output.tau"),
        ("price", 'output.error_band="x"', "output.error_band"),
        ("price", "output.error_band=1.5", "output.error_band"),
        ("price", "output=5", "output"),
        ("price", 'solver.max_iter="x"', "solver.max_iter"),
        ("converge", "solver.tol=[1]", "solver.tol"),
        ("sweep", "solver.max_iter=2.5", "solver.max_iter"),
        ("leland", 'solver.eig_tol="a"', "solver.eig_tol"),
        ("sweep", 'output.dt_values="x"', "output.dt_values"),
        ("sweep", "output.probes=5", "output.probes"),
        ("sweep", "output.probes=[[1]]", "output.probes"),
        ("sweep", "output.probes=[[30, -1]]", "output.probes"),
        ("sweep", "output.probes=[[30, NaN]]", "output.probes"),
        ("leland", 'output.per_node_csv="no"', "output.per_node_csv"),
        ("leland", 'solver.skip_scan="false"', "solver.skip_scan"),
        ("leland", "solver.skip_scan=1", "solver.skip_scan"),
        ("leland", 'solver.dyf_form="bogus"', "solver.dyf_form"),
        ("leland", 'solver.dyf_form="aggregate"', "solver.dyf_form"),
        ("price", "output.probes=5", "output.probes"),
        ("converge", "solver.tol=-1", "solver.tol"),
        ("price", "solver.tol=0", "solver.tol"),
        ("sweep", "solver.tol=Infinity", "solver.tol"),
        ("price", "solver.max_iter=0", "solver.max_iter"),
        ("converge", "solver.max_iter=-3", "solver.max_iter"),
        ("sweep", "output.dt_values=[-1]", "output.dt_values"),
        ("sweep", "output.dt_values=0", "output.dt_values"),
        ("sweep", "output.dt_values=[0.002, NaN]", "output.dt_values"),
        ("sweep", "output.dt_values=[]", "output.dt_values"),
        ("sweep", "output.dt_values=[true, 0.004]", "output.dt_values"),
        ("sweep", "output.probes=[[30, true]]", "output.probes"),
        ("price", "output.error_band=-1", "output.error_band"),
        ("price", "output.error_band=1000000", "output.error_band"),
        ("leland", "solver.theta_floor=-1", "solver.theta_floor"),
        ("leland", "solver.theta_floor=NaN", "solver.theta_floor"),
        ("leland", "solver.theta_floor=Infinity", "solver.theta_floor"),
        ("leland", "solver.eig_tol=NaN", "solver.eig_tol"),
        ("leland", "solver.eig_tol=-Infinity", "solver.eig_tol"),
    ],
)
def test_exit_code_2_names_a_malformed_output_or_solver_value(tmp_path, capsys, command, flag, field):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--flag", flag]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flag,field",
    [
        ("analytic", "output.per_node_csv=true", "output.per_node_csv"),
        ("analytic", "solver.skip_scan=true", "solver.skip_scan"),
        ("analytic", "output.probes=[[30, 30]]", "output.probes"),
        ("analytic", "solver.max_iter=3", "solver.max_iter"),
        ("price", "output.probes=[[30, 30]]", "output.probes"),
        ("price", "output.dt_values=[0.004]", "output.dt_values"),
        ("price", "solver.skip_scan=false", "solver.skip_scan"),
        ("price", 'solver.dyf_form="exact"', "solver.dyf_form"),
        ("sweep", "output.tau=0.5", "output.tau"),
        ("sweep", "output.error_band=2", "output.error_band"),
        ("converge", "output.error_band=2", "output.error_band"),
        ("leland", "output.tau=0.5", "output.tau"),
    ],
)
def test_exit_code_2_names_a_key_the_command_does_not_read(tmp_path, capsys, monkeypatch, command, flag, field):
    """A key another command reads is not silently ignored: exit 2 before
    any solve, naming the dotted key and the command."""

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli, "solve_nonlinear", no_solve)
    monkeypatch.setattr(cli, "dt_sensitivity_sweep", no_solve)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--flag", flag]) == 2
    assert f"config error: {field}: unknown key for {command}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["solver.tol=0.001", 'solver.first_derivative="central"', 'solver.dyf_form="exact"'])
def test_leland_classification_alone_rejects_solve_keys(tmp_path, capsys, flag):
    """With solver.skip_scan nothing is solved, so a solve key would be ignored."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, solver={"skip_scan": True})
    assert main(["leland", "--config", str(cfg_path), "--flag", flag]) == 2
    key = flag.partition("=")[0]
    assert f"config error: {key}: leland with solver.skip_scan neither solves nor scans" in capsys.readouterr().err


def test_every_metadata_records_the_version_and_price_and_leland_their_leland_numbers(tmp_path):
    import nlbs
    from nlbs import leland_number

    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path, cost={"type": "constant", "C0": 0.001}, output={})
    runs = {
        "price": [],
        "analytic": [],
        "converge": [],
        "sweep": ["--flag", "output.dt_values=[0.004]"],
        "leland": ["--flag", "output.per_node_csv=true"],
    }
    expected = [leland_number(sigma, 2.0 * 0.001, cfg["dt_tc"]).value for sigma in cfg["market"]["sigmas"]]
    for command, flags in runs.items():
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--out", str(out)] + flags) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["nlbs_version"] == nlbs.__version__, command
        assert meta["command"] == command
        assert all((out / name).exists() for name in meta["outputs"]), command
        if command in ("price", "leland"):
            assert meta["result"]["leland_numbers"] == expected, command
    leland_meta = json.loads((tmp_path / "leland" / "metadata.json").read_text())
    assert leland_meta["outputs"] == ["ellipticity.json", "ellipticity_nodes.csv"]

    # classification alone still records the Leland numbers, and no scan files
    out = tmp_path / "classify"
    assert main(["leland", "--config", str(cfg_path), "--out", str(out), "--flag", "solver.skip_scan=true"]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["outputs"] == [] and meta["result"]["leland_numbers"] == expected
    assert sorted(p.name for p in out.iterdir()) == ["metadata.json"]


def test_error_band_leaving_no_node_exits_2_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli, "solve_nonlinear", no_solve)
    out = tmp_path / "o"
    argv = ["price", "--config", str(CONFIG_DIR / "testing1.json"), "--out", str(out)]
    for flag in ('grid={"a":1.5,"b":5.3,"nx":8,"nt":8}', "output.error_band=1000000"):
        argv += ["--flag", flag]
    assert main(argv) == 2
    assert "config error: output.error_band: exclusion band leaves no interior nodes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("probe", ["[[1e6, 30]]", "[[30, 1e6]]", "[[30, 30], [198, 30]]"])
def test_sweep_probe_on_the_dirichlet_ring_exits_2_before_the_solve(tmp_path, capsys, monkeypatch, probe):
    """Spots beyond the grid, or within half a cell of S_max = 30 e^1.9 (about
    200.6), snap to the ring, where the source is never evaluated."""

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli, "dt_sensitivity_sweep", no_solve)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--flag", f"output.probes={probe}"]) == 2
    assert "config error: output.probes: probe (" in capsys.readouterr().err
    assert not out.exists()


def test_leland_scan_without_a_cost_derivative_exits_2_before_the_solve(tmp_path, capsys, monkeypatch):
    """The scan needs C'; a sampled cost without ``dc`` is a config error
    found before the solve, and the classification alone does not need it."""

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli, "solve_nonlinear", no_solve)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, cost={"type": "sampled", "x": [0.0, 1.0], "c": [0.002, 0.001], "c_upper": 0.002})
    assert main(["leland", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "config error: cost.dc: cost derivative required" in captured.err
    assert captured.out == ""
    assert main(["leland", "--config", str(cfg_path), "--flag", "solver.skip_scan=true"]) == 0


@pytest.mark.parametrize("skip_scan", [False, True])
def test_per_node_csv_without_a_written_scan_exits_2_before_the_solve(tmp_path, capsys, monkeypatch, skip_scan):
    """The per-node CSV comes only from a scan written with --out; a config
    asking for it otherwise must not be ignored."""

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli, "solve_nonlinear", no_solve)
    out = tmp_path / "o"
    argv = ["leland", "--config", str(CONFIG_DIR / "testing1.json"), "--flag", "output.per_node_csv=true"]
    if skip_scan:
        argv += ["--out", str(out), "--flag", "solver.skip_scan=true"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error: output.per_node_csv:" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_null_solver_or_output_value_means_the_default(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    main(["price", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    flags = ["--flag", "solver.tol=null", "--flag", "output.error_band=null"]
    assert main(["price", "--config", str(cfg_path), "--out", str(tmp_path / "b")] + flags) == 0
    assert (tmp_path / "a" / "surface.csv").read_bytes() == (tmp_path / "b" / "surface.csv").read_bytes()


def test_sweep_exits_3_and_names_the_ill_posed_intervals(tmp_path, capsys):
    """Config 1 at dt = 7.6e-5 has Le = 3.05 and 6.10: the row is ill-posed."""
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(CONFIG_DIR / "testing1.json"), "--out", str(out)]
    for flag in ("output.dt_values=[7.6e-5]", "grid.a=1.5", "grid.b=5.3", "grid.nx=16", "grid.nt=8",
                 "solver.max_iter=3"):
        argv += ["--flag", flag]
    assert main(argv) == 3
    assert "sweep: ILL-POSED (Le >= 1) at dt = 7.6e-05" in capsys.readouterr().out
    meta = json.loads((out / "metadata.json").read_text())["result"]
    assert meta["ill_posed_dts"] == [7.6e-5]
    assert meta["leland_numbers"] == [pytest.approx([3.05, 6.10], abs=0.01)]
    _, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 1


SMALL_GRID = ("grid.a=1.5", "grid.b=5.3", "grid.nx=16", "grid.nt=8")


def test_sweep_reports_nonconvergence_with_exit_3(tmp_path, capsys):
    """A well-posed row whose solve an explicit max_iter stopped short is
    written, but the result is not to be trusted, as for ``price``."""
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(CONFIG_DIR / "testing1.json"), "--out", str(out)]
    for flag in SMALL_GRID + ("solver.max_iter=1", "solver.tol=1e-14", "output.dt_values=[0.004]"):
        argv += ["--flag", flag]
    assert main(argv) == 3
    text = capsys.readouterr().out
    assert "sweep: NOT converged at dt = 0.004" in text
    assert "ILL-POSED" not in text
    _, rows = read_csv(out / "sweep.csv")
    assert [row[1] for row in rows] == ["0"]


@pytest.mark.parametrize("command", ["price", "leland"])
def test_an_ill_posed_dt_tc_exits_3(tmp_path, capsys, command):
    """Config 1 at dt_tc = 7.6e-5 has Le = 3.05 and 6.10: the solve converges
    and its outputs are written, but the result is not to be trusted."""
    out = tmp_path / "o"
    argv = [command, "--config", str(CONFIG_DIR / "testing1.json"), "--out", str(out)]
    for flag in SMALL_GRID + ("dt_tc=7.6e-5",) + (("output.per_node_csv=true",) if command == "leland" else ()):
        argv += ["--flag", flag]
    assert main(argv) == 3
    text = capsys.readouterr().out
    assert "ILL-POSED (Le >= 1)" in text
    if command == "price":
        assert "price: converged after" in text
        assert "for asset 1, 2" in text
        assert (out / "surface.csv").exists()
    else:
        assert "scan:" in text
        assert (out / "ellipticity.json").exists()


@pytest.mark.parametrize("command", ["price", "leland"])
def test_a_non_finite_surface_exits_3(tmp_path, capsys, monkeypatch, command):
    def nan_solve(*args, **kwargs):
        result = solve_nonlinear(*args, **kwargs)
        result.surface.values[5, 5] = np.nan
        return result

    monkeypatch.setattr(cli, "solve_nonlinear", nan_solve)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    text = capsys.readouterr().out
    assert "the surface is not finite" in text
    assert "scan:" not in text


def test_exit_code_2_on_missing_section(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    del cfg["market"]
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["analytic", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "market" in capsys.readouterr().err


def test_exit_code_4_when_output_dir_cannot_be_created(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    rc = main(["analytic", "--config", str(cfg_path), "--out", str(blocker / "sub")])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cost,recorded",
    [
        ({"type": "constant", "c0": 1}, {"type": "constant", "C0": 1.0}),
        ({"type": "Exponential", "c0": 0.01, "k": 2}, {"type": "exponential", "C0": 0.01, "k": 2.0}),
        (
            {"type": "sampled", "x": [0, 1], "c": [0.002, 0.001], "c_upper": 0.003},
            {"type": "sampled", "x": [0.0, 1.0], "c": [0.002, 0.001], "c_lower": 0.0, "c_upper": 0.003},
        ),
        (
            {"type": "sampled", "x": [0, 1], "c": [0.002, 0.001], "c_lower": 0.001, "c_upper": 0.003, "dc": [-1e-3, 0]},
            {
                "type": "sampled",
                "x": [0.0, 1.0],
                "c": [0.002, 0.001],
                "c_lower": 0.001,
                "c_upper": 0.003,
                "dc": [-1e-3, 0.0],
            },
        ),
    ],
    ids=["constant", "exponential", "sampled", "sampled-with-dc"],
)
def test_metadata_records_the_built_cost_model(tmp_path, cost, recorded):
    """The cost section is written as resolved, like the market and grid:
    ``C0`` for a level given as ``c0``, the type lower-cased, numbers as
    floats, a sampled cost's default ``c_lower``, and ``dc`` only when given."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, cost=cost)
    out = tmp_path / "ana"
    assert main(["analytic", "--config", str(cfg_path), "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["cost"] == recorded
    numbers = [v for v in meta["config"]["cost"].values() if not isinstance(v, str)]
    assert all(type(x) is float for v in numbers for x in (v if isinstance(v, list) else [v]))


def test_flag_overrides_reach_nested_sections(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "small"
    rc = main(
        ["price", "--config", str(cfg_path), "--out", str(out), "--flag", "grid.nx=8"]
    )
    assert rc == 0
    _, rows = read_csv(out / "surface.csv")
    assert len(rows) == 9 * 9
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["grid"]["nx"] == 8
