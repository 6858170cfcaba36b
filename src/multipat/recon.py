"""Channel calibration and test-antenna reconstruction.

The chamber is calibrated from reference antennas with known mode
amplitudes: calibrate pairs their amplitude matrix A_R with their probe
voltage matrix V_R. The pipeline builds A_R in closed form
(planner.dipole_coefficient_matrix, the builder the orientation optimizer
reports its values from). An unknown antenna's amplitudes are then
recovered from its probe voltages by direct inversion, by complex
reference-voltage weights fitted by least squares over any N_s >= N_R probes,
or by a real-weight least-square fit. All linear algebra acts on
unscaled amplitude vectors (VshCoefficients.to_amplitude_vector); returned
coefficient sets always satisfy the +-m conjugation constraint exactly.

The condition numbers of A_R, V_R and the channel T are taken once, when
each matrix is built, and that of the LSE normal matrix Re(V_R^H V_R) once
per calibration, on the LSE route's first solve; a solve checks the stored
number against the one fixed limit COND_ERROR and warns above COND_WARN.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chamber import ChannelMatrix
# Unused here; perfbench/tracer.py wraps recon.probe_voltages by name.
from .chamber import probe_voltages  # noqa: F401
from .farfield import PatternError, VshCoefficients, enforce_symmetry, radiated_power
from .vsh import ModeSet

COND_WARN = 1e6
COND_ERROR = 1e12


class IllConditionedError(RuntimeError):
    """A solve was refused because a matrix condition number is too large."""

    def __init__(self, name: str, cond: float, limit: float):
        super().__init__(f"cond({name}) = {cond:.4g} exceeds limit {limit:.2g}")
        self.name = name
        self.cond = cond
        self.limit = limit


def _checked(cond: float, name: str) -> float:
    """Refuse cond(name) above COND_ERROR (or non-finite); warn above COND_WARN."""
    if cond > COND_ERROR or not np.isfinite(cond):
        raise IllConditionedError(name, cond, COND_ERROR)
    if cond > COND_WARN:
        warnings.warn(f"cond({name}) = {cond:.4g} is large; results may be inaccurate")
    return cond


@dataclass
class CalibrationSet:
    """Reference amplitude matrix (modes x refs) and voltage matrix (probes x refs),
    and their condition numbers cond_a and cond_v, taken once at construction.
    V_R^H, the LSE normal matrix and its condition number are taken once, on
    first use: the other routes never need them."""

    coefficient_matrix: np.ndarray
    voltage_matrix: np.ndarray
    mode_set: ModeSet
    cond_a: float = field(init=False)
    cond_v: float = field(init=False)

    def __post_init__(self):
        self.coefficient_matrix = np.asarray(self.coefficient_matrix, dtype=complex)
        self.voltage_matrix = np.asarray(self.voltage_matrix, dtype=complex)
        if self.coefficient_matrix.shape[0] != self.mode_set.size:
            raise ValueError(
                f"coefficient matrix needs {self.mode_set.size} rows, "
                f"got {self.coefficient_matrix.shape[0]}"
            )
        if self.coefficient_matrix.shape[1] != self.voltage_matrix.shape[1]:
            raise ValueError("coefficient and voltage matrices disagree on reference count")
        self.cond_a = float(np.linalg.cond(self.coefficient_matrix))
        self.cond_v = float(np.linalg.cond(self.voltage_matrix))

    @cached_property
    def adjoint(self) -> np.ndarray:
        """V_R^H, which every LSE solve applies to its voltages."""
        return self.voltage_matrix.conj().T

    @cached_property
    def normal(self) -> np.ndarray:
        """Re(V_R^H V_R), the normal matrix of the real-weight LSE fit."""
        return (self.adjoint @ self.voltage_matrix).real

    @cached_property
    def cond_normal(self) -> float:
        return float(np.linalg.cond(self.normal))

    @property
    def n_references(self) -> int:
        return self.coefficient_matrix.shape[1]


def calibrate(a_matrix: np.ndarray, v_matrix: np.ndarray, mode_set: ModeSet) -> CalibrationSet:
    """Calibration from the reference amplitude matrix A_R (modes x refs) and
    the reference voltage matrix V_R (probes x refs), columns in reference
    order.

    V_R must be 2-D with one column per reference (CalibrationSet checks the
    count), and it needs at least as many probes as mode_set has modes.
    """
    v_matrix = np.asarray(v_matrix, dtype=complex)
    if v_matrix.ndim != 2:
        raise ValueError(f"v_matrix must be N_s x N_R, got shape {v_matrix.shape}")
    if v_matrix.shape[0] < mode_set.size:
        raise ValueError(
            f"{v_matrix.shape[0]} probes cannot resolve {mode_set.size} modes; "
            f"information would be lost"
        )
    return CalibrationSet(a_matrix, v_matrix, mode_set)


def channel_from_calibration(cal: CalibrationSet) -> ChannelMatrix:
    """Channel estimate T = V_R inv(A_R), solved once per calibration; requires
    a square reference set. Refuses cal.cond_a above COND_ERROR, warns above
    COND_WARN; the channel takes its own cond at construction."""
    a = cal.coefficient_matrix
    if a.shape[0] != a.shape[1]:
        raise ValueError("coefficient matrix must be square to invert; use the LSE method")
    _checked(cal.cond_a, "A_R")
    # T A_R = V_R  =>  A_R^T T^T = V_R^T
    entries = np.linalg.solve(a.T, cal.voltage_matrix.T).T
    return ChannelMatrix(entries, cal.mode_set)


@dataclass
class ReconstructionResult:
    coefficients: VshCoefficients
    method: str
    weights: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _finish(vec: np.ndarray, mode_set: ModeSet, method: str, weights, diagnostics, residual):
    """Symmetrize, take residual(coefficients), the measurement misfit, and wrap."""
    coeffs = enforce_symmetry(VshCoefficients.from_amplitude_vector(mode_set, vec))
    diagnostics = dict(diagnostics)
    diagnostics["residual"] = float(np.linalg.norm(residual(coeffs)))
    return ReconstructionResult(
        coefficients=coeffs, method=method, weights=weights, diagnostics=diagnostics
    )


def reconstruct_inverse(channel: ChannelMatrix, voltages) -> ReconstructionResult:
    """Amplitudes by direct inversion of a square channel matrix."""
    t = channel.entries
    v = np.asarray(voltages, dtype=complex)
    if t.shape[0] != t.shape[1]:
        raise ValueError("inverse reconstruction needs a square channel; use the LSE method")
    if v.shape != (t.shape[0],):
        raise ValueError(f"expected {t.shape[0]} probe voltages, got shape {v.shape}")
    cond = _checked(channel.cond, "T")
    vec = np.linalg.solve(t, v)
    return _finish(vec, channel.mode_set, "inverse", None, {"cond_T": cond},
                   lambda c: v - t @ c.to_amplitude_vector())


def reconstruct_weights_direct(cal: CalibrationSet, voltages) -> ReconstructionResult:
    """Amplitudes via complex reference weights w = argmin ||V_R w - v||, the
    least-squares fit over any N_s >= N_R probes, then a = A_R w.

    For co-phase-centered antennas the weights should come out real; the
    largest imaginary part is reported as a diagnostic.
    """
    v_r = cal.voltage_matrix
    if v_r.shape[0] < v_r.shape[1]:
        raise ValueError(f"{v_r.shape[0]} probes cannot fix {v_r.shape[1]} complex weights")
    v = np.asarray(voltages, dtype=complex)
    if v.shape != (v_r.shape[0],):
        raise ValueError(f"expected {v_r.shape[0]} probe voltages, got shape {v.shape}")
    cond = _checked(cal.cond_v, "V_R")
    w = np.linalg.lstsq(v_r, v, rcond=None)[0]
    diagnostics = {"cond_V": cond, "max_imag_weight": float(np.max(np.abs(w.imag)))}
    return _finish(cal.coefficient_matrix @ w, cal.mode_set, "direct-weights", w, diagnostics,
                   lambda _: v - v_r @ w)


def reconstruct_lse(cal: CalibrationSet, voltages) -> ReconstructionResult:
    """Real-weight least-square-error reconstruction.

    Minimizes the squared voltage mismatch over real weights:
    w = inv(Re{V_R^H V_R}) Re{V_R^H v}. Works for any N_s >= N_R. V_R^H, the
    normal matrix and its condition number come from the calibration.
    """
    v_r = cal.voltage_matrix
    v = np.asarray(voltages, dtype=complex)
    if v.shape != (v_r.shape[0],):
        raise ValueError(f"expected {v_r.shape[0]} probe voltages, got shape {v.shape}")
    rhs = (cal.adjoint @ v).real
    cond = _checked(cal.cond_normal, "Re(V_R^H V_R)")
    w = np.linalg.solve(cal.normal, rhs)
    result = _finish(cal.coefficient_matrix @ w, cal.mode_set, "lse", w, {"cond_normal": cond},
                     lambda _: v - v_r @ w)
    result.diagnostics["lse_cost"] = result.diagnostics["residual"] ** 2
    return result


def apply_normalization(
    result: ReconstructionResult,
    mode: str,
    k: float | None = None,
    current: float | None = None,
    r_meas: float | None = None,
    r_loss: float = 0.0,
) -> ReconstructionResult:
    """Rescale a reconstruction to a normalization constraint.

    "unit-weight" rescales so the weight vector has unit norm;
    "radiation-resistance" rescales the coefficients so 2P/|I|^2 matches
    r_meas - r_loss. Rescaling preserves the pattern shape; only the overall
    level moves.
    """
    if mode == "unit-weight":
        if result.weights is None:
            raise ValueError("unit-weight normalization needs a weight-based reconstruction")
        norm_sq = float(np.sum(np.abs(result.weights) ** 2))
        if norm_sq == 0.0:
            raise PatternError("cannot normalize zero weights")
        scale = 1.0 / np.sqrt(norm_sq)
    elif mode == "radiation-resistance":
        if k is None or current is None or r_meas is None:
            raise ValueError("radiation-resistance normalization needs k, current and r_meas")
        target = r_meas - r_loss
        if target <= 0.0:
            raise ValueError(f"target resistance {target} is not positive")
        power = radiated_power(result.coefficients, k)
        if power <= 0.0:
            raise PatternError("cannot normalize a zero-power reconstruction")
        # power scales with the square of the amplitude scale
        scale = float(np.sqrt(target * abs(current) ** 2 / (2.0 * power)))
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    diagnostics = dict(result.diagnostics)
    diagnostics["normalization_scale"] = float(scale)
    return ReconstructionResult(
        coefficients=result.coefficients.scaled(scale),
        method=result.method,
        weights=None if result.weights is None else result.weights * scale,
        diagnostics=diagnostics,
    )
