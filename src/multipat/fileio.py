"""File formats for configs, coefficients, chambers, and pattern grids.

JSON documents are written with sorted keys and repr-exact floats, and CSV
cells use repr as well, so replayed experiments diff clean. Complex numbers
are [re, im] pairs. Angles in files are always radians.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .vsh import ModeSet, build_mode_set


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# JSON plumbing

def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj))


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))  # RFC 8259: JSON is UTF-8


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_pairs(matrix) -> list:
    return [[complex_to_pair(z) for z in row] for row in np.asarray(matrix, dtype=complex)]


# ---------------------------------------------------------------------------
# Mode sets and coefficients

def mode_set_to_dict(ms: ModeSet) -> dict:
    return {"lambda_max": ms.lambda_max, "parity": ms.parity, "multipole": ms.multipole}


def coefficients_to_dict(coeffs) -> dict:
    """Self-describing coefficient document: the mode ordering rides along."""
    modes = [
        {"family": e.family, "l": e.l, "m": e.m, "value": complex_to_pair(v)}
        for e, v in zip(coeffs.mode_set.entries, coeffs.values)
    ]
    return {
        "format": "vsh-coefficients/1",
        "mode_set": mode_set_to_dict(coeffs.mode_set),
        "modes": modes,
    }


# ---------------------------------------------------------------------------
# Chambers

def chamber_to_dict(ch) -> dict:
    return {
        "format": "chamber/1",
        "n_probes": ch.n_probes,
        "n_paths": ch.n_paths,
        "sigma_rho": ch.sigma_rho,
        "seed": ch.seed,
        "rho": matrix_to_pairs(ch.rho),
        "theta": np.asarray(ch.theta).tolist(),
        "phi": np.asarray(ch.phi).tolist(),
        "alpha": np.asarray(ch.alpha).tolist(),
    }


def voltages_to_dict(named_voltages: dict[str, np.ndarray]) -> dict:
    return {
        "format": "probe-voltages/1",
        "antennas": [
            {"name": name, "voltages": [complex_to_pair(z) for z in vec]}
            for name, vec in named_voltages.items()
        ],
    }


def calibration_to_dict(cal, extra: dict | None = None) -> dict:
    doc = {
        "format": "calibration/1",
        "mode_set": mode_set_to_dict(cal.mode_set),
        "coefficient_matrix": matrix_to_pairs(cal.coefficient_matrix),
        "voltage_matrix": matrix_to_pairs(cal.voltage_matrix),
    }
    if extra:
        doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# CSV grids

PATTERN_HEADER = ["theta", "phi", "E_theta_re", "E_theta_im", "E_phi_re", "E_phi_im", "mag"]


def write_pattern_csv(path, theta_mesh, phi_mesh, field_values) -> None:
    """Pattern samples, theta-major row order."""
    et = np.broadcast_to(field_values.e_theta, theta_mesh.shape)
    ep = np.broadcast_to(field_values.e_phi, theta_mesh.shape)
    mag = np.sqrt(np.abs(et) ** 2 + np.abs(ep) ** 2)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PATTERN_HEADER)
        for t, p, a, b, m in zip(
            theta_mesh.ravel(), phi_mesh.ravel(), et.ravel(), ep.ravel(), mag.ravel()
        ):
            writer.writerow(
                [repr(float(t)), repr(float(p)), repr(float(a.real)), repr(float(a.imag)),
                 repr(float(b.real)), repr(float(b.imag)), repr(float(m))]
            )


SWEEP_HEADER = [
    "theta0", "phi0", "rms_field_error",
    "radiation_resistance_error", "directivity_error", "status",
]


def write_sweep_csv(path, rows) -> None:
    """rows: iterables (theta0, phi0, rms, rr_err, d_err, status)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for t0, p0, rms, rr, dd, status in rows:
            writer.writerow(
                [repr(float(t0)), repr(float(p0)), repr(float(rms)),
                 repr(float(rr)), repr(float(dd)), status]
            )


def read_sweep_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != SWEEP_HEADER:
            raise ConfigError(f"unexpected sweep header {header}")
        return [
            (float(r[0]), float(r[1]), float(r[2]), float(r[3]), float(r[4]), r[5])
            for r in reader
        ]


# ---------------------------------------------------------------------------
# Experiment configuration

@dataclass
class ExperimentConfig:
    wavelength: float
    lambda_max: int
    parity: str
    multipole: str
    n_theta: int
    n_phi: int
    ref_length: float
    ref_current: float
    ref_orientations: list[tuple[float, float]] | None
    ref_count: int
    optimize_objective: str | None
    optimize_budget: int
    n_probes: int
    n_paths: int
    sigma_rho: float
    seeds: list[int]
    test_length: float
    test_theta0: float
    test_phi0: float
    test_current: float
    method: str
    normalization: dict | None

    @property
    def k(self) -> float:
        return 2.0 * np.pi / self.wavelength

    def mode_set(self) -> ModeSet:
        return build_mode_set(self.lambda_max, self.parity, self.multipole)


# The largest accepted truncation order. Its all-modes set already has
# 20 400 modes, whose basis on the smallest accepted grid (101 x 201) takes
# 13 GB, and building the mode set of an unbounded order would hang here.
MAX_LAMBDA = 100

# The largest accepted grid.n_theta and grid.n_phi: MAX_LAMBDA's default
# 416, doubled as decompose's convergence check doubles it. leggauss(n) in
# SphereGrid builds an n x n matrix: 5.5 MB here, 22 MB for the doubled
# check, 80 GB at n = 1e5. The 832 x 832 mesh's basis takes 22 MB a mode.
MAX_GRID = 2 * (4 * MAX_LAMBDA + 16)

# The largest accepted references.count, chamber.n_probes and chamber.n_paths:
# two per mode of MAX_LAMBDA's all-modes set, so every accepted mode set can
# still be served. Each is a side of a complex matrix the set-up builds (the
# path gains, V_R, the LSE normal matrix): 27 GB at 40 800 x 40 800. Unbounded,
# a count of 1e12 loops in planner.fibonacci_orientations, and a probe or path
# count of 1e12 asks for TiB.
MAX_COUNT = 2 * 2 * MAX_LAMBDA * (MAX_LAMBDA + 2)

# The largest accepted chamber gain scale. sigma_rho only scales every
# voltage and T (rho = sigma_rho N(0, 1)), so no result depends on it beyond
# rounding, but from about 1e154 on, V_R^H V_R of unit-current references
# overflows: the LSE route fails and the inverse route prints overflow
# warnings. The bound leaves fifty decades for larger fields, currents and
# chambers.
SIGMA_RHO_MAX = 1e100

# The largest accepted wavelength and current magnitude; the smallest are
# its reciprocal. A dipole's modified far field is eta0 I / wavelength times
# a pattern factor of order one, so its scale lies within 1e40 of a unit
# current at unit wavelength: |E|^2 stays in about [1e-75, 1e85], k^2 in
# [4e-39, 4e41], and V_R^H V_R, (sigma_rho eta0 I / wavelength)^2 times the
# probe and path counts, below about 1e290 up to SIGMA_RHO_MAX.
PHYSICAL_SCALE_MAX = 1e20

# The shortest accepted dipole length, in wavelengths. The pattern bracket
# cos(pi L g) - cos(pi L), two cosines within (pi L)^2 / 2 of 1, loses about
# -log10((pi L)^2 / 2) of its 16 digits: at this bound it keeps about 9
# broadside and 6 at 2 degrees from the axis; at 1e-10 it is exactly zero.
DIPOLE_LENGTH_MIN = 1e-4
# The longest: a dipole of length l excites modes up to degree about pi l,
# which MAX_LAMBDA serves up to here; the theory summary's leggauss, cubic in
# its node count, grows with l too.
DIPOLE_LENGTH_MAX = MAX_LAMBDA / math.pi


def _known_keys(section: dict, name: str, known: tuple) -> None:
    """ConfigError naming the first key of section that is not in known: a
    misspelt key would otherwise leave its default in silence."""
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {name}")


def _section(doc: dict, key: str, known: tuple) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be a JSON object, got {section!r}")
    _known_keys(section, key, known)
    return section


# (test, requirement) pairs for _number
_SCALE = (lambda v: 1.0 / PHYSICAL_SCALE_MAX <= v <= PHYSICAL_SCALE_MAX,
          f"in [{1.0 / PHYSICAL_SCALE_MAX:g}, {PHYSICAL_SCALE_MAX:g}]")
_CURRENT = (lambda v: 1.0 / PHYSICAL_SCALE_MAX <= abs(v) <= PHYSICAL_SCALE_MAX,
            f"of magnitude in [{1.0 / PHYSICAL_SCALE_MAX:g}, {PHYSICAL_SCALE_MAX:g}]")
_LENGTH = (lambda v: DIPOLE_LENGTH_MIN <= v <= DIPOLE_LENGTH_MAX,
           f"at least {DIPOLE_LENGTH_MIN:g} and at most {DIPOLE_LENGTH_MAX} wavelengths")
_POLAR = (lambda v: 0.0 <= v <= math.pi, "in [0, pi]")
_FINITE = (math.isfinite, "finite")
_GAIN_SCALE = (lambda v: 0.0 < v <= SIGMA_RHO_MAX, f"in (0, {SIGMA_RHO_MAX:g}]")


def _require_real(value, name: str, kind: str) -> None:
    """ConfigError unless value is a real number: bools and strings are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def _number(value, name: str, rule) -> float:
    """value as a float that passes rule, else ConfigError."""
    valid, requirement = rule
    _require_real(value, name, "a number")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf if value > 0 else -math.inf
    if not valid(number):
        raise ConfigError(f"{name} must be {requirement}, got {number}")
    return number


def _integer(value, name: str, minimum: int = 0, maximum: float = math.inf) -> int:
    """value as an int in [minimum, maximum], else ConfigError; a float must be integral."""
    _require_real(value, name, "an integer")
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    number = int(value)
    if not minimum <= number <= maximum:
        raise ConfigError(f"{name} = {number} is outside [{minimum}, {maximum}]")
    return number


def _check_resistance_target(normalization: dict) -> None:
    """Radiation-resistance normalization needs numeric r_meas and r_loss
    (default 0) with a positive, finite target r_meas - r_loss."""
    if "r_meas" not in normalization:
        raise ConfigError("radiation-resistance normalization needs r_meas")
    r_meas, r_loss = (
        _number(normalization.get(name, 0.0), name, _FINITE) for name in ("r_meas", "r_loss")
    )
    target = r_meas - r_loss
    if not 0.0 < target < math.inf:
        raise ConfigError(
            f"target resistance r_meas - r_loss = {target} is not positive and finite"
        )


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document; every unusable value raises ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _known_keys(doc, "the config", ("wavelength", "mode_set", "grid", "references", "chamber",
                                    "test_antenna", "reconstruction"))
    wavelength = _number(doc.get("wavelength", 1.0), "wavelength", _SCALE)

    ms_sec = _section(doc, "mode_set", ("lambda_max", "parity", "multipole"))
    lambda_max = _integer(ms_sec.get("lambda_max", 3), "lambda_max", 1, MAX_LAMBDA)
    try:
        mode_set = build_mode_set(
            lambda_max, ms_sec.get("parity", "odd"), ms_sec.get("multipole", "electric")
        )
    except ValueError as exc:
        raise ConfigError(f"bad mode_set section: {exc}") from exc
    if mode_set.size == 0:
        raise ConfigError(
            f"lambda_max = {mode_set.lambda_max} with parity {mode_set.parity!r} leaves no modes"
        )

    grid_sec = _section(doc, "grid", ("n_theta", "n_phi"))
    n_default = 4 * mode_set.lambda_max + 16
    n_theta = _integer(grid_sec.get("n_theta", n_default), "n_theta", 0, MAX_GRID)
    n_phi = _integer(grid_sec.get("n_phi", n_default), "n_phi", 0, MAX_GRID)
    # Below this the quadrature no longer integrates products of the basis
    # exactly, and the decompositions silently alias.
    if n_theta < mode_set.lambda_max + 1 or n_phi < 2 * mode_set.lambda_max + 1:
        raise ConfigError(
            f"a {n_theta} x {n_phi} grid under-resolves lambda_max = {mode_set.lambda_max}: "
            f"need n_theta >= {mode_set.lambda_max + 1} and n_phi >= {2 * mode_set.lambda_max + 1}"
        )

    ref_sec = _section(
        doc, "references", ("orientations", "count", "optimize", "length", "current"))
    orientations = ref_sec.get("orientations")
    if orientations is not None:
        try:
            pairs = [(t, p) for t, p in orientations]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad reference orientations: {exc}") from exc
        orientations = [
            (_number(t, "reference theta0", _POLAR), _number(p, "reference phi0", _FINITE))
            for t, p in pairs
        ]
    count = _integer(
        ref_sec.get("count", len(orientations) if orientations else mode_set.size),
        "references.count", 0, MAX_COUNT,
    )
    if orientations is not None and len(orientations) != count:
        raise ConfigError(
            f"references.count = {count} but {len(orientations)} orientations listed"
        )
    opt_sec = {} if ref_sec.get("optimize") is None else ref_sec["optimize"]  # null: absent
    if not isinstance(opt_sec, dict):
        raise ConfigError(f"optimize must be a JSON object, got {opt_sec!r}")
    _known_keys(opt_sec, "references.optimize", ("objective", "budget"))
    optimize_objective = None
    optimize_budget = 0
    if opt_sec:
        optimize_objective = opt_sec.get("objective", "cond-A")
        if optimize_objective not in ("cond-A", "capacity"):
            raise ConfigError(f"unknown optimize objective {optimize_objective!r}")
        optimize_budget = _integer(opt_sec.get("budget", 1000), "optimize.budget")

    ch_sec = _section(doc, "chamber", ("n_probes", "n_paths", "sigma_rho", "seeds", "seed"))
    n_probes = _integer(ch_sec.get("n_probes", mode_set.size), "chamber.n_probes", 0, MAX_COUNT)
    n_paths = _integer(ch_sec.get("n_paths", mode_set.size), "chamber.n_paths", 1, MAX_COUNT)
    sigma_rho = _number(ch_sec.get("sigma_rho", 0.001), "sigma_rho", _GAIN_SCALE)
    if "seed" in ch_sec and "seeds" in ch_sec:
        raise ConfigError("chamber takes seed or seeds, not both")
    if "seeds" in ch_sec:
        if not isinstance(ch_sec["seeds"], list):
            raise ConfigError(f"chamber.seeds must be a list, got {ch_sec['seeds']!r}")
        seeds = [_integer(s, "chamber seed") for s in ch_sec["seeds"]]
    else:
        seeds = [_integer(ch_sec.get("seed", 0), "chamber seed")]
    if not seeds:
        raise ConfigError("chamber.seeds must not be empty")
    if n_probes < mode_set.size:
        raise ConfigError(f"{n_probes} probes cannot resolve {mode_set.size} modes")
    if count < mode_set.size:
        raise ConfigError(
            f"{count} reference antennas cannot span {mode_set.size} modes"
        )

    test_sec = _section(doc, "test_antenna", ("length", "theta0", "phi0", "current"))
    rec_sec = _section(doc, "reconstruction", ("method", "normalization"))
    method = rec_sec.get("method", "inverse")
    if method not in ("inverse", "direct-weights", "lse"):
        raise ConfigError(f"unknown reconstruction method {method!r}")
    # inverse solves the square A_R and T; direct-weights fits V_R w = v by
    # least squares, which needs at least as many probes as weights; lse's
    # real weights need Re(V_R^H V_R) of full rank, and its rank is at most
    # 2 n_probes.
    if method == "inverse" and not count == n_probes == mode_set.size:
        raise ConfigError(
            f"inverse reconstruction needs references.count = chamber.n_probes = "
            f"{mode_set.size} modes, got count={count}, n_probes={n_probes}"
        )
    if method == "direct-weights" and n_probes < count:
        raise ConfigError(f"direct-weights: {n_probes} probes cannot fit {count} reference weights")
    if method == "lse" and count > 2 * n_probes:
        raise ConfigError(f"lse: {n_probes} probes cannot fit {count} real reference weights")
    normalization = rec_sec.get("normalization")
    if normalization is not None:
        if not isinstance(normalization, dict) or normalization.get("mode") not in (
            "unit-weight",
            "radiation-resistance",
        ):
            raise ConfigError(f"unknown normalization {normalization!r}")
        _known_keys(normalization, "reconstruction.normalization", ("mode", "r_meas", "r_loss"))
        if method == "inverse" and normalization["mode"] == "unit-weight":
            raise ConfigError("unit-weight normalization needs a weight-based method")
        if normalization["mode"] == "radiation-resistance":
            _check_resistance_target(normalization)

    return ExperimentConfig(
        wavelength=wavelength,
        lambda_max=mode_set.lambda_max,
        parity=mode_set.parity,
        multipole=mode_set.multipole,
        n_theta=n_theta,
        n_phi=n_phi,
        ref_length=_number(ref_sec.get("length", 0.5), "references.length", _LENGTH),
        ref_current=_number(ref_sec.get("current", 1.0), "references.current", _CURRENT),
        ref_orientations=orientations,
        ref_count=count,
        optimize_objective=optimize_objective,
        optimize_budget=optimize_budget,
        n_probes=n_probes,
        n_paths=n_paths,
        sigma_rho=sigma_rho,
        seeds=seeds,
        test_length=_number(test_sec.get("length", 0.5), "test_antenna.length", _LENGTH),
        test_theta0=_number(test_sec.get("theta0", 0.0), "test_antenna.theta0", _POLAR),
        test_phi0=_number(test_sec.get("phi0", 0.0), "test_antenna.phi0", _FINITE),
        test_current=_number(test_sec.get("current", 1.0), "test_antenna.current", _CURRENT),
        method=method,
        normalization=normalization,
    )


def load_config(path) -> ExperimentConfig:
    try:
        doc = read_json(path)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or past json's limits
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    return parse_config(doc)
