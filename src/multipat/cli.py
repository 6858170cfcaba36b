"""Command-line driver and experiment orchestration.

Subcommands: decompose | simulate | calibrate | reconstruct | sweep | plan
| optimize. Every experiment is reproducible from its config file: chamber
seeds, reference orientations, and the optimizer are all deterministic, so
two runs produce identical outputs apart from the report timestamp.

The set-up's reference amplitude matrix A_R is the closed form
planner.dipole_coefficient_matrix, on the config grid the orientation
optimizer reports its values from: one decomposition of the upright
reference dipole, rotated. Its reference voltage matrix V_R is the closed
form dipole.reference_voltages, per candidate chamber: one real projection
of the reference axes onto every path's direction and polarization, with
no field formed. build_setup takes the reference axes once and hands
select_chamber a builder bound to them and to one dict of scratch buffers:
every candidate reuses the same buffers, only its N_s x N_R V_R is a fresh
array, and the buffers are freed when the selection returns. select_chamber
ranks the candidates by cond(V_R), one at a time, and hands back the
selected chamber's V_R, which the calibration uses as it is, with every
candidate's cond(V_R); reports list that ranking under chamber_selection.

reconstruct and sweep share one per-antenna path, _reconstruct_test. One
dipole.grid_field pass on MeasurementSetup.directions, the chamber's launch
trig then the grid's, gives its probe voltages' field and its truth field on
the config grid; farfield.directivity takes the order sums once, for its
trailing synthesize call too. The theory summary it compares against is
computed once per set-up, in 1-D and on no grid, from the theta pattern of
the config test dipole's upright twin: R_r and D of an identical dipole do
not depend on its orientation. The channel T = V_R inv(A_R) is solved once
per set-up too, and each calibration matrix's condition number is taken when
it is built, so an inverse or direct-weights reconstruction is one solve and
no condition number.

Exit codes: 0 success, 2 configuration error (a set-up too large for
memory counts as one), 3 numerical/conditioning error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import chamber as chamber_mod
from . import dipole, farfield, fileio, planner, recon
from .fileio import ConfigError, ExperimentConfig
from .vsh import TangentVector

REPORT_FORMAT = "report/1"
# About a 0.255-degree grid. At milliseconds per orientation that sweep
# already takes hours; a finer step is refused before the set-up runs.
MAX_SWEEP_ORIENTATIONS = 1_000_000
# build_setup warns of a dipole whose pi * length, k times half of it, exceeds lambda_max + this.
ORDER_MARGIN = 0.5
# Numerical failures: exit 3, or one orientation's error: row in a sweep.
_NUMERICAL_ERRORS = (farfield.PatternError, recon.IllConditionedError, np.linalg.LinAlgError)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _summary_dict(s: farfield.RadiationSummary) -> dict:
    return {
        "power_w": s.power,
        "radiation_resistance_ohm": s.radiation_resistance,
        "directivity": s.directivity,
        "directivity_db": s.directivity_db,
        "current_a": s.current,
    }


@dataclass
class MeasurementSetup:
    """Everything the reconstruction pipeline derives from a config.

    theory is the radiation summary of the config's test dipole, from its
    upright twin's theta pattern, on no grid: R_r and D of an identical
    dipole are the same at every orientation. channel is the calibrated T
    when A_R is square, else None. selection holds the selected chamber and
    how every candidate ranked; optimization the reference orientation
    optimizer's result, or None when the config runs no optimizer.
    """

    config: ExperimentConfig
    grid: farfield.SphereGrid
    orientations: list[tuple[float, float]]
    calibration: recon.CalibrationSet
    channel: chamber_mod.ChannelMatrix | None
    selection: chamber_mod.ChamberSelection
    theory: farfield.RadiationSummary
    optimization: planner.OptimizationResult | None

    @property
    def chamber(self) -> chamber_mod.ChamberModel:
        return self.selection.chamber

    @property
    def cond_v_selected(self) -> float:  # the number the chamber was selected by
        return self.calibration.cond_v

    @functools.cached_property
    def directions(self) -> SimpleNamespace:
        """The chamber's launch directions, then the grid's nodes, flattened, read-only."""
        trig = tuple(map(np.append, self.chamber.trig, self.grid.trig))
        for arr in trig:
            arr.flags.writeable = False
        return SimpleNamespace(trig=trig)


def build_setup(cfg: ExperimentConfig) -> MeasurementSetup:
    """References (optionally orientation-optimized), chamber selection,
    and calibration, all deterministic given the config. V_R is the matrix
    select_chamber ranked the selected chamber by."""
    for key, length in (("test_antenna", cfg.test_length), ("references", cfg.ref_length)):
        if math.pi * length > cfg.lambda_max + ORDER_MARGIN:
            warnings.warn(f"{key}.length {length} is too long for lambda_max {cfg.lambda_max}")
    mode_set = cfg.mode_set()
    grid = farfield.SphereGrid(cfg.n_theta, cfg.n_phi)
    k = cfg.k

    orientations = cfg.ref_orientations or planner.fibonacci_orientations(cfg.ref_count)
    result = None
    if cfg.optimize_objective is not None and cfg.optimize_budget > 0:
        result = planner.optimize_reference_orientations(
            orientations,
            objective=cfg.optimize_objective,
            budget=cfg.optimize_budget,
            mode_set=mode_set,
            length=cfg.ref_length,
            grid=grid,
        )
        orientations = result.orientations

    a_matrix = planner.dipole_coefficient_matrix(
        orientations, mode_set, cfg.ref_length, cfg.ref_current, grid, k
    )
    references = dipole.reference_dipole_set(orientations, cfg.ref_length, cfg.ref_current)
    axes = np.array([dipole.axis(spec) for spec in references])
    selection = chamber_mod.select_chamber(
        cfg.seeds, functools.partial(dipole.reference_voltages, axes, cfg.ref_length,
                                     cfg.ref_current, k=k, workspace={}),
        cfg.n_probes, cfg.n_paths, cfg.sigma_rho,
    )
    calibration = recon.calibrate(a_matrix, selection.voltage_matrix, mode_set)
    square = calibration.n_references == mode_set.size
    channel = recon.channel_from_calibration(calibration) if square else None
    upright = dipole.DipoleSpec(cfg.test_length, 0.0, 0.0, cfg.test_current)
    theory = farfield.field_radiation_summary(
        upright.field(k), 2.0 * math.pi * cfg.test_length, k, cfg.test_current)
    return MeasurementSetup(
        config=cfg,
        grid=grid,
        orientations=orientations,
        calibration=calibration,
        channel=channel,
        selection=selection,
        theory=theory,
        optimization=result,
    )


def _reconstruct_voltages(setup: MeasurementSetup, voltages: np.ndarray) -> recon.ReconstructionResult:
    cfg = setup.config
    if cfg.method == "inverse":
        result = recon.reconstruct_inverse(setup.channel, voltages)
        result.diagnostics["cond_A"] = setup.calibration.cond_a
    elif cfg.method == "direct-weights":
        result = recon.reconstruct_weights_direct(setup.calibration, voltages)
    else:
        result = recon.reconstruct_lse(setup.calibration, voltages)
    if cfg.normalization is not None:
        norm = cfg.normalization
        result = recon.apply_normalization(
            result,
            norm["mode"],
            k=cfg.k,
            current=cfg.test_current,
            r_meas=norm.get("r_meas"),
            r_loss=norm.get("r_loss", 0.0),
        )
    return result


def _reconstruct_test(setup: MeasurementSetup, test: dipole.DipoleSpec):
    """Reconstruct one test antenna, the config's test dipole at any
    orientation; returns (result, rms, theory, reconstructed, exact, synth).

    theory is setup.theory, so a dipole of another length or current is
    refused with ValueError.
    """
    cfg = setup.config
    if test.length != cfg.test_length or test.current != cfg.test_current:
        raise ValueError(
            f"test dipole (length {test.length}, current {test.current}) differs from the "
            f"config's (length {cfg.test_length}, current {cfg.test_current})"
        )
    both = dipole.grid_field(test, setup.directions, cfg.k)
    n, shapes = setup.chamber.rho.size, (setup.chamber.rho.shape, setup.grid.theta_mesh.shape)
    launch, exact = (TangentVector(*(e[part].reshape(shape) for e in (both.e_theta, both.e_phi)))
                     for part, shape in zip((slice(n), slice(n, None)), shapes))
    voltages = chamber_mod.probe_voltages(setup.chamber, launch)
    result = _reconstruct_voltages(setup, voltages)
    reconstructed = farfield.radiation_summary(result.coefficients, cfg.k, test.current)

    synth = farfield.synthesize_on_grid(result.coefficients, setup.grid)
    rms = farfield.rms_field_error(exact.magnitude(), synth.magnitude())
    return result, rms, setup.theory, reconstructed, exact, synth


def _condition_numbers(setup: MeasurementSetup) -> dict:
    out = {"a_matrix": setup.calibration.cond_a, "v_matrix": setup.calibration.cond_v}
    if setup.channel is not None:
        out["channel"] = setup.channel.cond
    return out


def _setup_record(setup: MeasurementSetup) -> dict:
    """The keys report.json and sweep_meta.json share: the reference
    orientations, the optimizer's objective, evaluations used, budget and
    first and last trace values (None without an optimizer), every chamber
    candidate's seed and cond(V_R) with the selected index, the condition
    numbers and the theory summary."""
    result, cfg = setup.optimization, setup.config
    optimization = None
    if result is not None:
        values = [value for _, value in result.trace] or [None]
        optimization = {"objective": cfg.optimize_objective, "evaluations": result.evaluations,
                        "budget": cfg.optimize_budget, "start": values[0], "end": values[-1]}
    return {
        "reference_orientations": [[t, p] for t, p in setup.orientations],
        "reference_optimization": optimization,
        "chamber_selection": {"seeds": cfg.seeds, "cond_v": setup.selection.cond_v,
                              "selected_index": setup.selection.index},
        "condition_numbers": _condition_numbers(setup),
        "theory": _summary_dict(setup.theory),
    }


# ---------------------------------------------------------------------------
# Subcommands

def cmd_decompose(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    mode_set = cfg.mode_set()
    grid = farfield.SphereGrid(cfg.n_theta, cfg.n_phi)
    k = cfg.k
    test = dipole.DipoleSpec(cfg.test_length, cfg.test_theta0, cfg.test_phi0, cfg.test_current)
    coeffs = farfield.decompose(test.field(k), mode_set, grid, check_convergence=True)
    # Modes the dipole cannot excite capture rounding noise: R_r and D of it mean nothing.
    power = grid.integrate(dipole.grid_field(test, grid, k).magnitude() ** 2)
    captured = np.sum(np.abs(coeffs.values) ** 2) / power
    if not captured >= np.finfo(float).eps:
        raise farfield.PatternError(f"the mode set captures {captured:.3g} of the test "
                                    "dipole's power: it cannot excite these modes")
    fileio.write_json(out_dir / "coefficients.json", fileio.coefficients_to_dict(coeffs))

    # Spectrum normalized to the axis-aligned twin of the same antenna.
    upright = dipole.DipoleSpec(cfg.test_length, 0.0, 0.0, cfg.test_current)
    ref_peak = float(
        np.max(np.abs(farfield.decompose(upright.field(k), mode_set, grid).values))
    )
    with open(out_dir / "spectrum.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "l", "m", "magnitude", "normalized"])
        for entry, value in zip(mode_set.entries, coeffs.values):
            mag = abs(value)
            writer.writerow(
                [entry.family, entry.l, entry.m, repr(float(mag)), repr(float(mag / ref_peak))]
            )

    summary = farfield.radiation_summary(coeffs, k, test.current)
    print(f"decomposed {mode_set.size} modes; wrote {out_dir / 'coefficients.json'}")
    print(
        f"radiation resistance {summary.radiation_resistance:.3f} ohm, "
        f"directivity {summary.directivity:.4f} ({summary.directivity_db:.3f} dB)"
    )
    return 0


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    setup = build_setup(cfg)
    fileio.write_json(out_dir / "chamber.json", fileio.chamber_to_dict(setup.chamber))
    v_r = setup.calibration.voltage_matrix
    named = {f"reference_{i:02d}": v_r[:, i] for i in range(v_r.shape[1])}
    test = dipole.DipoleSpec(cfg.test_length, cfg.test_theta0, cfg.test_phi0, cfg.test_current)
    named["test"] = chamber_mod.probe_voltages(
        setup.chamber, dipole.grid_field(test, setup.chamber, cfg.k))
    fileio.write_json(out_dir / "voltages.json", fileio.voltages_to_dict(named))
    print(
        f"chamber seed {setup.chamber.seed} (cond V = {setup.cond_v_selected:.4g}); "
        f"wrote chamber.json and voltages.json to {out_dir}"
    )
    return 0


def cmd_calibrate(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    setup = build_setup(cfg)
    conds = _condition_numbers(setup)
    doc = fileio.calibration_to_dict(
        setup.calibration,
        extra={
            "chamber_seed": setup.chamber.seed,
            "condition_numbers": conds,
            "reference_orientations": [[t, p] for t, p in setup.orientations],
        },
    )
    fileio.write_json(out_dir / "calibration.json", doc)
    print(
        "calibration written; cond(A_R) = {a_matrix:.4g}, cond(V_R) = {v_matrix:.4g}".format(
            **conds
        )
    )
    return 0


def cmd_reconstruct(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    setup = build_setup(cfg)
    test = dipole.DipoleSpec(cfg.test_length, cfg.test_theta0, cfg.test_phi0, cfg.test_current)
    result, rms, theory, reconstructed, exact, synth = _reconstruct_test(setup, test)

    fileio.write_pattern_csv(
        out_dir / "pattern_theory.csv", setup.grid.theta_mesh, setup.grid.phi_mesh, exact
    )
    fileio.write_pattern_csv(
        out_dir / "pattern_reconstructed.csv", setup.grid.theta_mesh, setup.grid.phi_mesh, synth
    )
    fileio.write_json(
        out_dir / "coefficients_reconstructed.json",
        fileio.coefficients_to_dict(result.coefficients),
    )

    report = {
        "format": REPORT_FORMAT,
        "timestamp": _timestamp(),
        "method": result.method,
        "normalization": cfg.normalization,
        "seeds": {"candidates": cfg.seeds, "chamber_selected": setup.chamber.seed},
        **_setup_record(setup),
        "test_antenna": {
            "length": cfg.test_length,
            "theta0": cfg.test_theta0,
            "phi0": cfg.test_phi0,
            "current": cfg.test_current,
        },
        "diagnostics": result.diagnostics,
        "reconstruction": _summary_dict(reconstructed),
        "rms_field_error": rms,
    }
    fileio.write_json(out_dir / "report.json", report)
    print(
        f"rms field error {rms:.3e}; "
        f"R_r {reconstructed.radiation_resistance:.3f} ohm "
        f"(theory {theory.radiation_resistance:.3f}); "
        f"D {reconstructed.directivity:.4f} (theory {theory.directivity:.4f})"
    )
    print(f"report written to {out_dir / 'report.json'}")
    return 0


def _sweep_grid(step: float):
    """theta0 rows and phi0 columns of the sweep grid with the given step (rad)."""
    if not 0.0 < step <= math.pi:
        raise ConfigError(f"sweep step {step} rad is out of range")
    n_theta = n_phi = math.inf
    if math.pi / step <= MAX_SWEEP_ORIENTATIONS:  # else pi / step may be inf
        n_theta = int(round(math.pi / step)) + 1
        n_phi = int(round(2.0 * math.pi / step))
    if n_theta * n_phi > MAX_SWEEP_ORIENTATIONS:
        raise ConfigError(
            f"sweep step {step} rad gives more than {MAX_SWEEP_ORIENTATIONS} orientations"
        )
    return np.linspace(0.0, math.pi, n_theta), np.arange(n_phi) * (2.0 * math.pi / n_phi)


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    step = float(args.step)
    if args.degrees:
        step = math.radians(step)
    theta0s, phi0s = _sweep_grid(step)
    setup = build_setup(cfg)

    rows = []
    for t0 in theta0s:
        for p0 in phi0s:
            spec = dipole.DipoleSpec(cfg.test_length, float(t0), float(p0), cfg.test_current)
            try:
                _, rms, theory, rec, _, _ = _reconstruct_test(setup, spec)
                row = (
                    rms,
                    rec.radiation_resistance - theory.radiation_resistance,
                    rec.directivity - theory.directivity,
                    "ok",
                )
            except _NUMERICAL_ERRORS as exc:
                row = (math.nan, math.nan, math.nan, f"error:{exc}")
            rows.append((float(t0), float(p0), *row))

    fileio.write_sweep_csv(out_dir / "sweep.csv", rows)
    meta = {
        "format": "sweep-meta/1",
        "step_rad": step,
        "grid_shape": [len(theta0s), len(phi0s)],
        "chamber_seed": setup.chamber.seed,
        **_setup_record(setup),
    }
    fileio.write_json(out_dir / "sweep_meta.json", meta)
    failed = sum(1 for r in rows if r[5] != "ok")
    print(f"swept {len(rows)} orientations ({failed} failed); wrote {out_dir / 'sweep.csv'}")
    return 0


def cmd_plan(args) -> int:
    for option, value in (("--kr", args.kr), ("--p-tr", args.p_tr), ("--p-r", args.p_r)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{option} must be finite, got {value}")
    try:  # kR <= 0, or finite inputs that give no order >= 1 or overflow
        budget = planner.plan_modes(args.kr, p_tr=args.p_tr, p_r=args.p_r)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"no truncation order for these inputs: {exc}") from None
    print(f"rule: {budget.rule}")
    print(f"truncation order: {budget.lambda_max}")
    print(f"mode count (both multipole families): {budget.n_modes}")
    if args.p_tr is not None:
        simple = planner.plan_modes(args.kr)
        print(f"simple-ceiling comparison: order {simple.lambda_max}, {simple.n_modes} modes")
    return 0


def cmd_optimize(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    mode_set = cfg.mode_set()
    orientations = cfg.ref_orientations or planner.fibonacci_orientations(cfg.ref_count)
    objective = cfg.optimize_objective or "cond-A"
    budget = args.budget if args.budget is not None else (
        1000 if cfg.optimize_objective is None else cfg.optimize_budget)  # 1000 without a section
    budget = fileio._integer(budget, "optimize.budget")
    result = planner.optimize_reference_orientations(
        orientations,
        objective=objective,
        budget=budget,
        mode_set=mode_set,
        length=cfg.ref_length,
        grid=farfield.SphereGrid(cfg.n_theta, cfg.n_phi),
    )
    fileio.write_json(
        out_dir / "orientations.json",
        {
            "format": "orientations/1",
            "objective": objective,
            "objective_value": result.objective_value,
            "orientations": [[t, p] for t, p in result.orientations],
        },
    )
    with open(out_dir / "optimize_trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["evaluations", "objective"])
        for evals, value in result.trace:
            writer.writerow([evals, repr(float(value))])
    # The trace falls strictly from the start's exact score, its first entry
    # unless that score is inf.
    trace, end = result.trace, result.objective_value
    start = trace[0][1] if trace and trace[0][0] == 0 else math.inf
    change = f"improved from {start:.4g} to {end:.4g}" if end < start else f"stayed at {end:.4g}"
    print(f"{objective} {change} after {result.evaluations} of {budget} evaluations")
    return 0


# ---------------------------------------------------------------------------
# Entry point

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override chamber seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multipat",
        description="Antenna pattern reconstruction from multipath probe voltages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("decompose", "simulate", "calibrate", "reconstruct", "optimize"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "optimize":
            p.add_argument("--budget", type=int, default=None,
                           help="objective evaluations (default: the config's "
                                "optimize.budget, or 1000 without an optimize section)")

    p = sub.add_parser("sweep")
    _add_common(p)
    p.add_argument(
        "--step",
        type=float,
        default=math.radians(10.0),
        help="orientation grid step (radians unless --degrees)",
    )
    p.add_argument("--degrees", action="store_true", help="read --step in degrees")

    p = sub.add_parser("plan")
    p.add_argument("--kr", type=float, required=True, help="wavenumber times enclosing radius")
    p.add_argument("--p-tr", dest="p_tr", type=float, default=None, help="truncated power, dB")
    p.add_argument("--p-r", dest="p_r", type=float, default=0.0, help="source relative power, dB")
    return parser


_COMMANDS = {
    "decompose": cmd_decompose,
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "reconstruct": cmd_reconstruct,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
}


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    """Run one command. Printed warnings take one line, "warning: <message>",
    while it runs; which warnings show is left to the warning filters."""
    args = build_parser().parse_args(argv)
    default_format, warnings.formatwarning = warnings.formatwarning, _one_line_warning
    try:
        if args.command == "plan":
            return cmd_plan(args)
        cfg = fileio.load_config(args.config)
        if args.seed is not None:
            cfg.seeds = [fileio._integer(args.seed, "chamber seed")]
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, or a path below one
            raise ConfigError(f"--out {out_dir} cannot be created: {exc.strerror or exc}") from None
        return _COMMANDS[args.command](cfg, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: the set-up does not fit in memory: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
