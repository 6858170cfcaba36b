"""Channel calibration and test-antenna reconstruction.

The chamber is calibrated from reference antennas with known mode
amplitudes; an unknown antenna's amplitudes are then recovered from its
probe voltages by direct inversion, by reference-voltage weights, or by a
real-weight least-square fit. All linear algebra acts on unscaled
amplitude vectors (VshCoefficients.to_amplitude_vector); returned
coefficient sets always satisfy the +-m conjugation constraint exactly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .chamber import ChamberModel, ChannelMatrix, probe_voltages
from .farfield import VshCoefficients, enforce_symmetry, radiated_power
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


def _checked_cond(matrix: np.ndarray, name: str, limit: float = COND_ERROR) -> float:
    cond = float(np.linalg.cond(matrix))
    if cond > limit or not np.isfinite(cond):
        raise IllConditionedError(name, cond, limit)
    if cond > COND_WARN:
        warnings.warn(f"cond({name}) = {cond:.4g} is large; results may be inaccurate")
    return cond


@dataclass
class CalibrationSet:
    """Reference amplitude matrix (modes x refs) and voltage matrix (probes x refs)."""

    coefficient_matrix: np.ndarray
    voltage_matrix: np.ndarray
    mode_set: ModeSet

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

    @property
    def n_references(self) -> int:
        return self.coefficient_matrix.shape[1]

    @property
    def n_probes(self) -> int:
        return self.voltage_matrix.shape[0]


def calibrate(
    references,
    v_matrix: np.ndarray | None = None,
    chamber: ChamberModel | None = None,
    fields=None,
) -> CalibrationSet:
    """Assemble the calibration matrices in reference order.

    references: list of VshCoefficients sharing one mode set. The voltage
    side comes either from a measured/precomputed v_matrix or from a
    simulated chamber plus the references' exact field callables (the
    physical route: voltages sample the true fields, the coefficient matrix
    is the truncated expansion).
    """
    if not references:
        raise ValueError("need at least one reference antenna")
    mode_set = references[0].mode_set
    if any(ref.mode_set != mode_set for ref in references):
        raise ValueError("references use inconsistent mode sets")
    a_matrix = np.column_stack([ref.to_amplitude_vector() for ref in references])

    if v_matrix is not None:
        v_matrix = np.asarray(v_matrix, dtype=complex)
        if v_matrix.ndim != 2 or v_matrix.shape[1] != len(references):
            raise ValueError(f"v_matrix must be N_s x {len(references)}")
    elif chamber is not None:
        if fields is None or len(fields) != len(references):
            raise ValueError("chamber calibration needs one field callable per reference")
        if chamber.n_paths < mode_set.size:
            raise ValueError(
                f"chamber has {chamber.n_paths} paths but the mode set needs "
                f"at least {mode_set.size}; information would be lost"
            )
        v_matrix = np.column_stack([probe_voltages(chamber, f) for f in fields])
    else:
        raise ValueError("provide either v_matrix or chamber (with fields)")

    if v_matrix.shape[0] < mode_set.size:
        raise ValueError(
            f"{v_matrix.shape[0]} probes cannot resolve {mode_set.size} modes; "
            f"information would be lost"
        )
    return CalibrationSet(a_matrix, v_matrix, mode_set)


def channel_from_calibration(cal: CalibrationSet, cond_limit: float = COND_ERROR) -> ChannelMatrix:
    """Channel estimate T = V_R inv(A_R); requires a square reference set."""
    a = cal.coefficient_matrix
    if a.shape[0] != a.shape[1]:
        raise ValueError("coefficient matrix must be square to invert; use the LSE method")
    _checked_cond(a, "A_R", cond_limit)
    # T A_R = V_R  =>  A_R^T T^T = V_R^T
    entries = np.linalg.solve(a.T, cal.voltage_matrix.T).T
    return ChannelMatrix(entries, cal.mode_set)


@dataclass
class ReconstructionResult:
    coefficients: VshCoefficients
    method: str
    weights: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _finish(vec: np.ndarray, mode_set: ModeSet, method: str, weights, diagnostics, predict):
    """Symmetrize, compute the residual against the measurement, and wrap."""
    coeffs = enforce_symmetry(VshCoefficients.from_amplitude_vector(mode_set, vec))
    diagnostics = dict(diagnostics)
    diagnostics["residual"] = float(np.linalg.norm(predict(coeffs.to_amplitude_vector())))
    return ReconstructionResult(
        coefficients=coeffs, method=method, weights=weights, diagnostics=diagnostics
    )


def reconstruct_inverse(channel: ChannelMatrix, voltages, cond_limit: float = COND_ERROR) -> ReconstructionResult:
    """Amplitudes by direct inversion of a square channel matrix."""
    t = channel.entries
    v = np.asarray(voltages, dtype=complex)
    if t.shape[0] != t.shape[1]:
        raise ValueError("inverse reconstruction needs a square channel; use the LSE method")
    if v.shape != (t.shape[0],):
        raise ValueError(f"expected {t.shape[0]} probe voltages, got shape {v.shape}")
    cond = _checked_cond(t, "T", cond_limit)
    vec = np.linalg.solve(t, v)
    return _finish(
        vec,
        channel.mode_set,
        "inverse",
        None,
        {"cond_T": cond},
        lambda a: v - t @ a,
    )


def reconstruct_weights_direct(cal: CalibrationSet, voltages, cond_limit: float = COND_ERROR) -> ReconstructionResult:
    """Amplitudes via reference weights w = inv(V_R) v, a = A_R w.

    For co-phase-centered antennas the weights should come out real; the
    largest imaginary part is reported as a diagnostic.
    """
    v_r = cal.voltage_matrix
    if v_r.shape[0] != v_r.shape[1]:
        raise ValueError("direct weights need a square voltage matrix; use the LSE method")
    v = np.asarray(voltages, dtype=complex)
    if v.shape != (v_r.shape[0],):
        raise ValueError(f"expected {v_r.shape[0]} probe voltages, got shape {v.shape}")
    cond = _checked_cond(v_r, "V_R", cond_limit)
    w = np.linalg.solve(v_r, v)
    vec = cal.coefficient_matrix @ w
    return _finish(
        vec,
        cal.mode_set,
        "direct-weights",
        w,
        {"cond_V": cond, "max_imag_weight": float(np.max(np.abs(w.imag)))},
        lambda a: v - v_r @ w,
    )


def reconstruct_lse(cal: CalibrationSet, voltages, cond_limit: float = COND_ERROR) -> ReconstructionResult:
    """Real-weight least-square-error reconstruction.

    Minimizes the squared voltage mismatch over real weights:
    w = inv(Re{V_R^H V_R}) Re{V_R^H v}. Works for any N_s >= N_R.
    """
    v_r = cal.voltage_matrix
    v = np.asarray(voltages, dtype=complex)
    if v.shape != (v_r.shape[0],):
        raise ValueError(f"expected {v_r.shape[0]} probe voltages, got shape {v.shape}")
    normal = (v_r.conj().T @ v_r).real
    rhs = (v_r.conj().T @ v).real
    cond = _checked_cond(normal, "Re(V_R^H V_R)", cond_limit)
    w = np.linalg.solve(normal, rhs)
    vec = cal.coefficient_matrix @ w
    cost = float(np.linalg.norm(v - v_r @ w) ** 2)
    return _finish(
        vec,
        cal.mode_set,
        "lse",
        w,
        {"cond_normal": cond, "lse_cost": cost},
        lambda a: v - v_r @ w,
    )


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
            raise ValueError("cannot normalize zero weights")
        scale = 1.0 / np.sqrt(norm_sq)
    elif mode == "radiation-resistance":
        if k is None or current is None or r_meas is None:
            raise ValueError("radiation-resistance normalization needs k, current and r_meas")
        target = r_meas - r_loss
        if target <= 0.0:
            raise ValueError(f"target resistance {target} is not positive")
        power = radiated_power(result.coefficients, k)
        if power <= 0.0:
            raise ValueError("cannot normalize a zero-power reconstruction")
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
