"""Command-line front end.

Subcommands:

* ``price``    - nonlinear PDE solve; writes surface, source field,
                 convergence records, metadata.
* ``analytic`` - closed-form benchmark surface on the same grid.
* ``leland``   - per-asset Leland numbers and classification; unless
                 ``solver.skip_scan``, a node-by-node scan of the operator
                 derivative on the solved surface, whose per-node CSV
                 (``output.per_node_csv``) needs ``--out``.  The scan has
                 no settings; ``solver.dyf_form`` accepts only ``"exact"``,
                 and a sampled cost needs ``dc``, checked before the solve.
                 With ``--out`` it also writes ``metadata.json``.
* ``converge`` - runs the fixed-point iteration and reports its records.
* ``sweep``    - re-solves across a range of rebalancing intervals and
                 names the ill-posed ones (Le >= 1).

All commands read one JSON config (sections ``market``, ``cost``, ``payoff``,
``dt_tc``, optional ``grid``, ``solver``, ``output``), accept repeated
``--flag dotted.key=value`` overrides (values parsed as JSON, falling back to
bare strings), and write deterministic artifacts: CSV numbers with repr-exact
%.17g formatting, LF line endings, and sorted-key metadata JSON; every
``metadata.json`` records the package version, and those of ``price`` and
``leland`` each asset's Leland number at ``dt_tc``.  A key that the command
does not read, at the top level or in any section (a ``solver`` or
``output`` key that only another command reads included), and a value of
the wrong type are config errors, found before any solve; switches take
JSON booleans, and a ``solver`` or ``output`` value of null means the key is
absent.

A solver or output setting the config leaves out takes the library's
default; ``solver.max_iter`` defaults to nt + 2, by which the fixed-point
iteration always converges.

Exit codes: 0 success, 2 invalid config, 3 a result not to trust, 4 I/O
failure.  Exit 3 means: for ``price`` and a scanning ``leland``, an asset
with Leland number Le >= 1 at ``dt_tc`` (from the cost's upper bound), a
non-finite surface, or a solve stopped short by an explicit ``max_iter``
(``leland`` then does not scan); for ``sweep``, a row with Le >= 1, a
non-finite price or a solve stopped short; for ``converge``, a solve
stopped short.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .adi_solver import SolveResult, solve_nonlinear
from .analytic_pricing import cbest_price
from .cost_engine import assemble_G
from .diagnostics import compared_nodes, dt_sensitivity_sweep, error_vs_analytic, probe_nodes
from .ellipticity import LelandNumber, leland_number, scan_surface
from .market_model import (
    ExponentialCost,
    GridSpec,
    SampledCost,
    Scenario,
    ValidationError,
    _bounded,
    _integer,
    validate,
)

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _set_dotted(cfg: dict, dotted: str, value: Any) -> None:
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


def _apply_flags(cfg: dict, flag_args: list[str]) -> None:
    for item in flag_args:
        if "=" not in item:
            raise ValidationError("flag", f"expected dotted.key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ValidationError("flag", f"empty key in {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_dotted(cfg, key, value)


def _boolean(value: Any, qualified: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(qualified, f"expected true or false, got {value!r}")
    return value


def _exact(value: Any, qualified: str) -> str:
    if value != "exact":
        raise ValidationError(qualified, f"expected 'exact', the only operator derivative, got {value!r}")
    return value


# the parser of every solve key; the grid checks first_derivative itself
_SOLVE_PARSERS = {
    "first_derivative": lambda value, qualified: value,
    "tol": functools.partial(_bounded, low=0.0),
    "max_iter": functools.partial(_integer, low=1),
}
# command -> the parsers of the solver keys and of the output keys it reads;
# probe_nodes checks that each probe is a pair
_COMMAND_PARSERS = {
    "price": (_SOLVE_PARSERS, {"error_band": functools.partial(_integer, low=0)}),
    "analytic": ({}, {"tau": functools.partial(_bounded, low=0.0, strict=False)}),
    "leland": (
        # dyf_form names the one operator derivative; nothing to choose
        {**_SOLVE_PARSERS, "dyf_form": _exact, "skip_scan": _boolean},
        {"per_node_csv": _boolean},
    ),
    "converge": (_SOLVE_PARSERS, {}),
    "sweep": (
        _SOLVE_PARSERS,
        {
            "dt_values": functools.partial(_bounded, low=0.0, ndims=(0, 1)),
            "probes": functools.partial(_bounded, low=0.0, ndims=(2,)),
        },
    ),
}
_TOP_LEVEL_KEYS = ("market", "cost", "payoff", "dt_tc", "grid", "solver", "output")


def _parsed_section(cfg: dict, name: str, parsers: dict, command: str) -> dict:
    """The config's optional section ``name`` with every value parsed.

    ``parsers`` hold the keys of the section that ``command`` reads.  Rejects
    any other key, even one another command reads, and a value of the wrong
    type; a null value is dropped, so the command uses its default.
    """
    section = {} if cfg.get(name) is None else cfg[name]
    if not isinstance(section, dict):
        raise ValidationError(name, f"expected a mapping, got {type(section).__name__}")
    parsed = {}
    for key, value in section.items():
        if key not in parsers:
            reads = ", ".join(parsers) or "none"
            raise ValidationError(f"{name}.{key}", f"unknown key for {command}, which reads: {reads}")
        if value is not None:
            parsed[key] = parsers[key](value, f"{name}.{key}")
    return parsed


def _resolved_cost(cost) -> dict:
    """The built cost model under its config keys, defaults filled in."""
    if isinstance(cost, SampledCost):
        out = {
            "type": "sampled",
            "x": cost.x.tolist(),
            "c": cost.c.tolist(),
            "c_lower": cost.c_lower,
            "c_upper": cost.c_upper,
        }
        if cost.dc is not None:
            out["dc"] = cost.dc.tolist()
        return out
    if isinstance(cost, ExponentialCost):
        return {"type": "exponential", "C0": cost.c0, "k": cost.k}
    return {"type": "constant", "C0": cost.c0}


def _resolved_config(cfg: dict, scenario: Scenario) -> dict:
    grid = scenario.grid
    out = {
        "market": {
            "sigmas": list(scenario.market.sigmas),
            "rho": [[float(v) for v in row] for row in scenario.market.rho],
            "r": scenario.market.r,
            "T": scenario.market.T,
        },
        "cost": _resolved_cost(scenario.cost),
        "payoff": {"type": "best_cash_or_nothing", "K": scenario.payoff.K, "X": scenario.payoff.X},
        "dt_tc": scenario.dt_tc,
        "grid": {"a": grid.a, "b": grid.b, "nx": grid.nx, "nt": grid.nt, "coord": grid.coord},
    }
    for section in ("solver", "output"):
        if cfg.get(section):
            out[section] = cfg[section]
    return out


def _write_surface_csv(path: Path, grid: GridSpec, values: np.ndarray, value_name: str = "value") -> None:
    axis = [_fmt(x) for x in grid.axis()]
    spots = [_fmt(s) for s in grid.spot_axis()]
    with open(path, "w", newline="") as fh:
        fh.write(f"x1,x2,S1,S2,{value_name}\n")
        for i, row in enumerate(values.tolist()):
            fh.writelines([f"{axis[i]},{axis[j]},{spots[i]},{spots[j]},{_fmt(v)}\n" for j, v in enumerate(row)])


def _write_convergence_csv(path: Path, records) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("n,d1,d2,dinf\n")
        for rec in records:
            fh.write(f"{rec.n},{_fmt(rec.d1)},{_fmt(rec.d2)},{_fmt(rec.dinf)}\n")


def _write_metadata(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_metadata(out: Path, command: str, cfg: dict, scenario: Scenario, outputs: list, result: dict) -> None:
    """``metadata.json``: what the command read, what it wrote and found, and the package version."""
    _write_metadata(
        out / "metadata.json",
        {
            "command": command,
            "config": _resolved_config(cfg, scenario),
            "nlbs_version": __version__,
            "outputs": outputs,
            "result": result,
        },
    )


def _solve_json(result: SolveResult) -> dict:
    records = [dataclasses.asdict(r) for r in result.records]
    return {"converged": result.converged, "iterations": result.iterations, "records": records}


def _load_config(path: str, flag_args: list[str]) -> dict:
    with open(path, "r") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("config", f"top level must be an object, got {type(cfg).__name__}")
    _apply_flags(cfg, flag_args)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setup(args) -> tuple[dict, Scenario, dict, dict, dict]:
    """Load the config, validate the scenario, resolve the solve settings.

    Returns the config, the scenario (its grid carrying the stencil of
    ``solver.first_derivative``), the keyword arguments of
    :func:`solve_nonlinear` (``tol`` and ``max_iter`` when the config sets
    them) and the parsed ``solver`` and ``output`` sections, which may hold
    only the keys ``args.command`` reads.
    """
    cfg = _load_config(args.config, args.flag)
    for key in cfg:
        if key not in _TOP_LEVEL_KEYS:
            raise ValidationError(key, f"unknown key; expected one of {_TOP_LEVEL_KEYS}")
    scenario = validate(cfg)
    solver_parsers, output_parsers = _COMMAND_PARSERS[args.command]
    solver = _parsed_section(cfg, "solver", solver_parsers, args.command)
    output = _parsed_section(cfg, "output", output_parsers, args.command)
    if "first_derivative" in solver:
        scenario = scenario.with_grid(dataclasses.replace(scenario.grid, first_derivative=solver["first_derivative"]))
    solve = {key: solver[key] for key in ("tol", "max_iter") if key in solver}
    return cfg, scenario, solve, solver, output


def _checked(key: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``, with a :class:`ValidationError` it raises renamed to the config key ``key``."""
    try:
        return check(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(key, str(exc).removeprefix(f"{exc.field}: ")) from None


def _leland_numbers(scenario: Scenario, dt: float) -> list[LelandNumber]:
    """Each asset's Leland number at rebalancing interval ``dt``, from the round-trip cost bound."""
    round_trip = 2.0 * scenario.cost.bounds()[1]
    return [leland_number(sigma, round_trip, dt) for sigma in scenario.market.sigmas]


def _status(result: SolveResult) -> str:
    state = "converged" if result.converged else "NOT converged"
    return f"{state} after {result.iterations} sweeps"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_price(args) -> int:
    cfg, scenario, solve, _, output = _setup(args)
    band = {"band": output["error_band"]} if "error_band" in output else {}
    _checked("output.error_band", compared_nodes, scenario, **band)
    out = _out_dir(args)

    result = solve_nonlinear(scenario, **solve)
    g = assemble_G(result.surface.values, scenario)
    err = error_vs_analytic(result.surface.values, scenario, **band)

    lelands = _leland_numbers(scenario, scenario.dt_tc)
    _write_surface_csv(out / "surface.csv", scenario.grid, result.surface.values)
    _write_surface_csv(out / "cost_field.csv", scenario.grid, g, value_name="G")
    _write_convergence_csv(out / "convergence.csv", result.records)
    _write_run_metadata(
        out,
        "price",
        cfg,
        scenario,
        ["surface.csv", "cost_field.csv", "convergence.csv"],
        {
            **_solve_json(result),
            "error_vs_analytic": dataclasses.asdict(err),
            "leland_numbers": [le.value for le in lelands],
        },
    )
    print(
        f"price: {_status(result)}; "
        f"peak-normalized benchmark error {err.max_rel:.3e}; wrote {out}"
    )
    ill_posed = [i for i, le in enumerate(lelands, start=1) if not le.well_posed]
    if ill_posed:
        print(f"price: ILL-POSED (Le >= 1) at dt_tc={scenario.dt_tc:.6g} for asset {', '.join(map(str, ill_posed))}")
    finite = bool(np.isfinite(result.surface.values).all())
    if not finite:
        print("price: the surface is not finite")
    return 0 if result.converged and finite and not ill_posed else 3


def _cmd_analytic(args) -> int:
    cfg, scenario, _, _, output = _setup(args)
    tau = output.get("tau", scenario.market.T)
    out = _out_dir(args)
    grid = scenario.grid
    s = grid.spot_axis()
    vals = cbest_price(s[:, None], s[None, :], tau, scenario)
    vals = np.broadcast_to(vals, (grid.nx + 1, grid.nx + 1))
    _write_surface_csv(out / "surface.csv", grid, vals)
    _write_run_metadata(out, "analytic", cfg, scenario, ["surface.csv"], {"tau": tau})
    print(f"analytic: wrote closed-form surface at tau={tau} to {out}")
    return 0


def _cmd_leland(args) -> int:
    cfg, scenario, solve, solver, output = _setup(args)
    skip_scan = solver.get("skip_scan", False)
    per_node_csv = output.get("per_node_csv", False)
    if per_node_csv and (args.out is None or skip_scan):
        raise ValidationError("output.per_node_csv", "the per-node CSV needs a scan and --out")
    unread = sorted(solver.keys() - {"skip_scan"}) if skip_scan else []
    if unread:
        raise ValidationError(f"solver.{unread[0]}", "leland with solver.skip_scan neither solves nor scans")
    if not skip_scan:
        scenario.cost.derivative(0.0)  # the scan needs C'; a sampled cost without dc raises here, not after the solve

    round_trip = 2.0 * scenario.cost.bounds()[1]
    lelands = _leland_numbers(scenario, scenario.dt_tc)
    for i, (sigma, le) in enumerate(zip(scenario.market.sigmas, lelands), start=1):
        verdict = "well-posed (Le < 1)" if le.well_posed else "ILL-POSED (Le >= 1)"
        print(
            f"asset {i}: sigma={_fmt(sigma)}, round-trip cost bound={_fmt(round_trip)}, "
            f"dt={_fmt(scenario.dt_tc)} -> Le={le.value:.6g}: {verdict}"
        )

    # the classification alone is a trusted result, whatever its verdict
    status, outputs = 0, []
    if not skip_scan:
        status, outputs = _leland_scan(args, cfg, scenario, solve, per_node_csv)
        if not all(le.well_posed for le in lelands):
            status = 3
    if args.out is not None:
        result = {"leland_numbers": [le.value for le in lelands]}
        _write_run_metadata(_out_dir(args), "leland", cfg, scenario, outputs, result)
    return status


def _leland_scan(args, cfg: dict, scenario: Scenario, solve: dict, per_node_csv: bool):
    """Solve and scan for ``leland``: the exit status so far and the files written."""
    result = solve_nonlinear(scenario, **solve)
    if not result.converged:
        print(f"leland: solve {_status(result)}; surface not scanned")
        return 3, []
    if not np.isfinite(result.surface.values).all():
        print("leland: the surface is not finite; not scanned")
        return 3, []
    report = scan_surface(result.surface.values, scenario)
    if report.n_checked:
        verdict = "satisfied" if report.satisfied else "violated"
        print(
            f"scan: negative-definiteness {verdict} on {report.n_checked} nodes "
            f"({report.degenerate_count} degenerate); max eigenvalue "
            f"{report.max_eigenvalue:.6g}"
        )
    else:
        print(f"scan: all {report.degenerate_count} interior nodes degenerate")
    if args.out is None:
        return 0, []
    out = _out_dir(args)
    _write_metadata(
        out / "ellipticity.json",
        {
            "command": "leland",
            "config": _resolved_config(cfg, scenario),
            "result": report.to_json_dict(),
        },
    )
    outputs = ["ellipticity.json"]
    if per_node_csv:
        report.write_nodes_csv(out / "ellipticity_nodes.csv")
        outputs.append("ellipticity_nodes.csv")
    print(f"leland: wrote scan report to {out}")
    return 0, outputs


def _cmd_converge(args) -> int:
    cfg, scenario, solve, _, _ = _setup(args)
    out = _out_dir(args)
    result = solve_nonlinear(scenario, **solve)
    _write_convergence_csv(out / "convergence.csv", result.records)
    _write_run_metadata(out, "converge", cfg, scenario, ["convergence.csv"], _solve_json(result))
    print("n    d1            d2            dinf")
    for rec in result.records:
        print(f"{rec.n:<4d} {rec.d1:<13.6e} {rec.d2:<13.6e} {rec.dinf:<13.6e}")
    print(f"converge: {_status(result)}; wrote {out}")
    return 0 if result.converged else 3


def _cmd_sweep(args) -> int:
    cfg, scenario, solve, _, output = _setup(args)
    probes = output.get("probes")
    _checked("output.probes", probe_nodes, scenario, probes)
    out = _out_dir(args)

    dt_values = output.get("dt_values")
    if dt_values is None:
        dt_values = np.logspace(math.log10(7.6e-5), math.log10(7e-3), 20).tolist()
    result = dt_sensitivity_sweep(scenario, dt_values, probes, **solve)
    n_probe = len(result.probe_nodes)
    with open(out / "sweep.csv", "w", newline="") as fh:
        heads = ["dt", "converged", "iterations"]
        heads += [f"price_{k + 1}" for k in range(n_probe)]
        heads += [f"G_{k + 1}" for k in range(n_probe)]
        fh.write(",".join(heads) + "\n")
        for row in result.rows:
            cells = [_fmt(row.dt), str(int(row.converged)), str(row.iterations)]
            cells += [_fmt(v) for v in row.prices]
            cells += [_fmt(v) for v in row.g_values]
            fh.write(",".join(cells) + "\n")
    leland = [_leland_numbers(scenario, row.dt) for row in result.rows]
    ill_posed = [row.dt for row, les in zip(result.rows, leland) if not all(le.well_posed for le in les)]
    non_finite = [row.dt for row in result.rows if not all(map(math.isfinite, row.prices))]
    stopped = [row.dt for row in result.rows if not row.converged]
    _write_run_metadata(
        out,
        "sweep",
        cfg,
        scenario,
        ["sweep.csv"],
        {
            "probe_nodes": [list(n) for n in result.probe_nodes],
            "probe_spots": [list(s) for s in result.probe_spots],
            "n_dt": len(result.rows),
            "n_converged": sum(r.converged for r in result.rows),
            "leland_numbers": [[le.value for le in les] for les in leland],
            "ill_posed_dts": ill_posed,
        },
    )
    print(f"sweep: solved {len(result.rows)} rebalancing intervals; wrote {out}")
    if ill_posed:
        print(f"sweep: ILL-POSED (Le >= 1) at dt = {', '.join(f'{d:.6g}' for d in ill_posed)}")
    if non_finite:
        print(f"sweep: non-finite prices at dt = {', '.join(f'{d:.6g}' for d in non_finite)}")
    if stopped:
        print(f"sweep: NOT converged at dt = {', '.join(f'{d:.6g}' for d in stopped)}")
    return 3 if ill_posed or non_finite or stopped else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlbs",
        description="Two-asset option pricing under nonlinear transaction-cost models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "price": (_cmd_price, True),
        "analytic": (_cmd_analytic, True),
        "leland": (_cmd_leland, False),
        "converge": (_cmd_converge, True),
        "sweep": (_cmd_sweep, True),
    }
    for name, (handler, out_required) in specs.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON scenario config")
        p.add_argument(
            "--out",
            required=out_required,
            default=None,
            help="output directory (created if missing)",
        )
        p.add_argument(
            "--flag",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="config override with a dotted key, e.g. --flag solver.tol=1e-8",
        )
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
