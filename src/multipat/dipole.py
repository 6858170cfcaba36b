"""Closed-form far fields of center-fed linear dipoles.

Lengths are in wavelengths, so the pattern shape is frequency-free; the
wavenumber only scales the overall field strength. Orientation is the axis
direction (theta0, phi0). The returned fields are modified far fields
(spreading factor removed), consistent with the rest of the toolkit.

A dipole with axis a radiates E = amp B(a . r_hat) (a - (a . r_hat) r_hat),
B the pattern bracket. A chamber path sees E . e, its polarization e being
orthogonal to r_hat, so E . e = amp B(a . r_hat) (a . e): reference_voltages
takes a reference set's probe voltages from these projections, with no field.
One kernel serves dipole_field and grid_field; grid_field reads the cached .trig
of a ChamberModel, a SphereGrid or both in one, reference_voltages a ChamberModel's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .farfield import ETA0
from .vsh import TangentVector, scratch

_BRACKET_TOL = 1e-8


@dataclass(frozen=True)
class DipoleSpec:
    """Center-fed dipole: length in wavelengths, axis orientation, and
    terminal current (amperes)."""

    length: float = 0.5
    theta0: float = 0.0
    phi0: float = 0.0
    current: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.length < math.inf:
            raise ValueError("dipole length must be positive and finite")
        if not 0.0 <= self.theta0 <= math.pi:
            raise ValueError("theta0 must lie in [0, pi]")
        if not math.isfinite(self.phi0):
            raise ValueError("phi0 must be finite")
        if not math.isfinite(self.current):
            raise ValueError("dipole current must be finite")

    def field(self, k: float = 2.0 * math.pi):
        """Field callable (theta, phi) -> TangentVector for this dipole."""
        return lambda theta, phi: dipole_field(self, theta, phi, k)


def pattern_bracket(g, kl: float, workspace: dict) -> np.ndarray:
    """(cos(kl g / 2) - cos(kl / 2)) / (1 - g^2) at g = axis . r_hat, for a
    dipole of electrical length kl, in the buffers of workspace (see
    vsh.scratch).

    Where |1 - g^2| < _BRACKET_TOL it is the L'Hopital limit instead: the
    field is zero along the axis, as both polarization projections vanish,
    but the bracket stays finite; no on-axis mask is formed if no point is.
    """
    denom = np.multiply(g, g, out=scratch(workspace, "dipole.denominator", g.shape))
    np.subtract(1.0, denom, out=denom)
    on_axis = None if denom.min(initial=math.inf) >= _BRACKET_TOL else np.abs(denom) < _BRACKET_TOL
    numerator = np.multiply(0.5 * kl, g, out=scratch(workspace, "dipole.bracket", g.shape))
    np.cos(numerator, out=numerator)
    numerator -= math.cos(0.5 * kl)
    if on_axis is None or not on_axis.any():
        return np.divide(numerator, denom, out=numerator)
    # The placeholders 1.0 keep the discarded branches free of 1/0.
    g_safe = np.where(on_axis, g, 1.0)
    limit = (kl / (4.0 * g_safe)) * np.sin(0.5 * kl * g_safe)
    return np.where(on_axis, limit, numerator / np.where(on_axis, 1.0, denom))


def axis(spec: DipoleSpec) -> tuple[float, float, float]:
    """The unit axis (x, y, z) of spec, from Python-float trig."""
    st0 = math.sin(spec.theta0)
    return st0 * math.cos(spec.phi0), st0 * math.sin(spec.phi0), math.cos(spec.theta0)


def _trig_field(spec: DipoleSpec, st, ct, sp, cp, k: float) -> TangentVector:
    """dipole_field from the sin/cos of theta and phi at its directions. The
    axis projections g = a . r_hat, p = a . theta_hat and q = a . phi_hat,
    each summed left to right, set the pattern argument and the polarization."""
    a, b, ct0 = axis(spec)
    bracket = pattern_bracket(a * st * cp + b * st * sp + ct0 * ct, 2.0 * math.pi * spec.length, {})
    amp = -1j * ETA0 * spec.current * k / (2.0 * math.pi)
    return TangentVector(amp * (a * ct * cp + b * ct * sp - ct0 * st) * bracket,
                         amp * (b * cp - a * sp) * bracket)


def dipole_field(spec: DipoleSpec, theta, phi, k: float = 2.0 * math.pi) -> TangentVector:
    """Modified far field of an arbitrarily oriented center-fed dipole;
    scalar directions give complex components."""
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    scalar = th.ndim == 0
    th, ph = np.atleast_1d(th), np.atleast_1d(ph)
    f = _trig_field(spec, np.sin(th), np.cos(th), np.sin(ph), np.cos(ph), k)
    return TangentVector(complex(f.e_theta[0]), complex(f.e_phi[0])) if scalar else f


def grid_field(spec: DipoleSpec, points, k: float = 2.0 * math.pi) -> TangentVector:
    """dipole_field, bit for bit, at points with a cached .trig, the (sin, cos) of theta
    and phi: a SphereGrid's mesh, a ChamberModel's launch directions or both in one."""
    return _trig_field(spec, *points.trig, k)


def reference_voltages(axes: np.ndarray, length: float, current: float, chamber, k: float,
                       workspace: dict) -> np.ndarray:
    """The N_s x N_R probe voltages of N_R references with the given N_R x 3
    unit axes (see axis) and one shared length and current, one column
    each: chamber.probe_voltages of each one's dipole_field, to rounding.

    One real product of the axes with every path's [r_hat e] gives
    g = a . r_hat and a . e, then one pattern_bracket pass and one real
    contraction with (Re rho, Im rho) sum over the paths. Intermediates live
    in workspace (see vsh.scratch), so a caller that builds many chambers'
    voltages allocates them once; the voltages are a fresh array.
    """
    n_probes, n_paths = chamber.rho.shape

    # r_hat at every probe's launch directions, then e, each one contiguous
    # block, with theta_hat = (ct cp, ct sp, -st) and phi_hat = (-sp, cp, 0).
    r_hat, e_hat = directions = scratch(workspace, "dipole.directions", (2, n_probes, 3, n_paths))
    st, ct, sp, cp = chamber.trig
    ca, sa = chamber.cos_alpha, chamber.sin_alpha
    np.multiply(st, cp, out=r_hat[:, 0])
    np.multiply(st, sp, out=r_hat[:, 1])
    r_hat[:, 2] = ct
    ca_ct = ca * ct
    np.subtract(ca_ct * cp, sa * sp, out=e_hat[:, 0])
    np.add(ca_ct * sp, sa * cp, out=e_hat[:, 1])
    np.multiply(-ca, st, out=e_hat[:, 2])

    g, along_e = np.matmul(axes, directions, out=scratch(
        workspace, "dipole.projection", (2, n_probes, len(axes), n_paths)))
    along_e *= pattern_bracket(g, 2.0 * math.pi * length, workspace)
    rho = np.ascontiguousarray(chamber.rho, dtype=complex).view(float)
    voltages = np.matmul(along_e, rho.reshape(n_probes, n_paths, 2))
    voltages = voltages.view(complex).reshape(n_probes, len(axes))
    voltages *= -1j * ETA0 * current * k / (2.0 * math.pi)
    return voltages


def reference_dipole_set(orientations, length: float = 0.5, current: float = 1.0):
    """Identical dipoles at the given (theta0, phi0) orientations.

    All share one terminal current, so no per-antenna renormalization is
    needed downstream. Orientations are expected to be distinct; degenerate
    sets surface later as ill-conditioned calibration matrices.
    """
    return [
        DipoleSpec(length=length, theta0=float(t), phi0=float(p), current=current)
        for t, p in orientations
    ]
