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


def dipole_field(
    spec, theta, phi, k: float = 2.0 * math.pi, workspace: dict | None = None
) -> TangentVector:
    """Modified far field of an arbitrarily oriented center-fed dipole.

    spec is one DipoleSpec, or a sequence of them that share one length and
    one current (such as reference_dipole_set returns); a sequence gives
    components with a leading reference axis, from one pass that takes the
    trig of the launch directions once. One DipoleSpec is a batch of one
    whose leading axis is dropped at the end.

    The axis projections onto theta_hat, phi_hat, r_hat set the polarization
    and the pattern argument; the 0/0 along the axis is resolved by the
    analytic limit of the pattern bracket (the field there is zero because
    both polarization projections vanish).

    The pass keeps its intermediates over the launch directions in three
    real arrays and a mask, updated in place. With a workspace (see
    vsh.scratch) these are its buffers, reused by every call of the same
    shape, and the returned components live in its "e_theta" and "e_phi"
    buffers, which the next such call overwrites; without one every array
    is allocated per call. Either way each value comes from the same
    operations in the same order.
    """
    single = isinstance(spec, DipoleSpec)
    specs = [spec] if single else list(spec)
    if not specs:
        raise ValueError("need at least one dipole")
    length, current = specs[0].length, specs[0].current
    if any(s.length != length or s.current != current for s in specs):
        raise ValueError("batched dipoles must share one length and one current")
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    th, ph = np.broadcast_arrays(th, ph)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    ph = np.atleast_1d(ph)

    # Each dipole's axis (a, b, ct0) = (st0 cp0, st0 sp0, ct0), st0 = sin(theta0)
    # and so on, shaped (n_dipoles, 1, ...) to broadcast over the launch directions.
    axes = [(math.sin(s.theta0) * math.cos(s.phi0), math.sin(s.theta0) * math.sin(s.phi0),
             math.cos(s.theta0)) for s in specs]
    a, b, ct0 = np.array(axes).T.reshape((3, len(specs)) + (1,) * th.ndim)
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)
    shape = (len(specs),) + th.shape

    def buffer(name, dtype=float):
        return scratch(workspace, name, shape, dtype)

    # The axis projections, each summed left to right. g = axis . r_hat sets
    # the pattern bracket first; p = axis . theta_hat and q = axis . phi_hat
    # then take turns in g's array, so three real arrays serve the whole pass:
    #   g = st0 cp0 st cp + st0 sp0 st sp + ct0 ct
    #   p = st0 cp0 ct cp + st0 sp0 ct sp - ct0 st
    #   q = st0 sp0 cp - st0 cp0 sp
    g = np.multiply(a, st, out=buffer("dipole.projection"))
    g *= cp
    term = np.multiply(b, st, out=buffer("dipole.term"))
    term *= sp
    g += term
    g += np.multiply(ct0, ct, out=term)

    kl = 2.0 * math.pi * length  # k L depends only on length/wavelength
    denom = np.multiply(g, g, out=term)
    np.subtract(1.0, denom, out=denom)
    numerator = np.abs(denom, out=buffer("dipole.bracket"))
    on_axis = np.less(numerator, _BRACKET_TOL, out=buffer("dipole.on_axis", bool))
    np.multiply(0.5 * kl, g, out=numerator)
    np.cos(numerator, out=numerator)
    numerator -= math.cos(0.5 * kl)
    if not on_axis.any():
        bracket = np.divide(numerator, denom, out=numerator)
    else:
        # L'Hopital limit at g -> +-1; p and q vanish there so the field is
        # zero, but keep the bracket finite for well-defined intermediate
        # values. The placeholders 1.0 keep the discarded branches free of 1/0.
        g_safe = np.where(on_axis, g, 1.0)
        limit = (kl / (4.0 * g_safe)) * np.sin(0.5 * kl * g_safe)
        bracket = np.where(on_axis, limit, numerator / np.where(on_axis, 1.0, denom))

    amp = -1j * ETA0 * current * k / (2.0 * math.pi)
    p = np.multiply(a, ct, out=g)
    p *= cp
    np.multiply(b, ct, out=term)
    term *= sp
    p += term
    p -= np.multiply(ct0, st, out=term)
    e_theta = np.multiply(amp, p, out=buffer("e_theta", complex))
    e_theta *= bracket
    q = np.multiply(b, cp, out=p)
    q -= np.multiply(a, sp, out=term)
    e_phi = np.multiply(amp, q, out=buffer("e_phi", complex))
    e_phi *= bracket
    if single:
        e_theta, e_phi = e_theta[0], e_phi[0]
    if scalar:
        e_theta, e_phi = e_theta[..., 0], e_phi[..., 0]
        if single:
            return TangentVector(complex(e_theta), complex(e_phi))
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
