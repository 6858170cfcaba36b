"""Closed-form far fields of center-fed linear dipoles.

Lengths are in wavelengths, so the pattern shape is frequency-free; the
wavenumber only scales the overall field strength. Orientation is the axis
direction (theta0, phi0). The returned fields are modified far fields
(spreading factor removed), consistent with the rest of the toolkit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .farfield import ETA0
from .vsh import TangentVector

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
        if self.length <= 0.0:
            raise ValueError("dipole length must be positive")
        if not 0.0 <= self.theta0 <= math.pi:
            raise ValueError("theta0 must lie in [0, pi]")

    def field(self, k: float = 2.0 * math.pi):
        """Field callable (theta, phi) -> TangentVector for this dipole."""
        return lambda theta, phi: dipole_field(self, theta, phi, k)


def dipole_field(spec: DipoleSpec, theta, phi, k: float = 2.0 * math.pi) -> TangentVector:
    """Modified far field of an arbitrarily oriented center-fed dipole.

    The axis projections onto theta_hat, phi_hat, r_hat set the polarization
    and the pattern argument; the 0/0 along the axis is resolved by the
    analytic limit of the pattern bracket (the field there is zero because
    both polarization projections vanish).
    """
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    th, ph = np.broadcast_arrays(th, ph)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    ph = np.atleast_1d(ph)

    st0, ct0 = math.sin(spec.theta0), math.cos(spec.theta0)
    sp0, cp0 = math.sin(spec.phi0), math.cos(spec.phi0)
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)

    # axis . theta_hat, axis . phi_hat, axis . r_hat
    p = st0 * cp0 * ct * cp + st0 * sp0 * ct * sp - ct0 * st
    q = st0 * sp0 * cp - st0 * cp0 * sp
    g = st0 * cp0 * st * cp + st0 * sp0 * st * sp + ct0 * ct

    kl = 2.0 * math.pi * spec.length  # k L depends only on length/wavelength
    denom = 1.0 - g * g
    on_axis = np.abs(denom) < _BRACKET_TOL
    safe = np.where(on_axis, 1.0, denom)
    bracket = (np.cos(0.5 * kl * g) - math.cos(0.5 * kl)) / safe
    # L'Hopital limit at g -> +-1; p and q vanish there so the field is zero,
    # but keep the bracket finite for well-defined intermediate values. The
    # placeholder 1.0 keeps the discarded off-axis branch free of 1/0.
    g_safe = np.where(on_axis, g, 1.0)
    limit = (kl / (4.0 * g_safe)) * np.sin(0.5 * kl * g_safe)
    bracket = np.where(on_axis, limit, bracket)

    amp = -1j * ETA0 * spec.current * k / (2.0 * math.pi)
    e_theta = amp * p * bracket
    e_phi = amp * q * bracket
    if scalar:
        return TangentVector(complex(e_theta[0]), complex(e_phi[0]))
    return TangentVector(e_theta, e_phi)


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
