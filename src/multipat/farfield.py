"""Far-field synthesis and analysis on the unit sphere.

All fields here are "modified" far fields: the spherical spreading factor
exp(-jkr)/(kr) is divided out once and for all, so no operation takes a
radius. A field is represented either by a callable (theta, phi) ->
TangentVector or by its coefficients over a ModeSet.

Conventions:
  synthesis     E(t, p) = sum_q c_q B_q(t, p)
  analysis      c_q = integral E . conj(B_q) dOmega
with B_q = j^(l+1) X_{l,m} for magnetic modes and j^(l+1) (r_hat x X_{l,m})
for electric modes. Electric entries of a coefficient vector hold the
impedance-scaled (modified) amplitudes; the unscaled amplitudes that the
probe-voltage channel acts on are obtained via to_amplitude_vector().
"""
from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .vsh import ModeSet, TangentVector, mode_components

ETA0 = 376.730313668  # free-space impedance, ohms

class ConvergenceWarning(UserWarning):
    """Raised (as a warning) when grid doubling moves a decomposition, or
    when the peak search hits its iteration cap."""


class SphereGrid:
    """Product quadrature grid: Gauss-Legendre in cos(theta), uniform in phi.

    Exact for integrands polynomial in cos(theta) up to degree 2*n_theta - 1
    and band-limited in phi below n_phi, which covers every harmonic product
    used here. Non-polynomial integrands (physical antenna patterns) converge
    geometrically; decompose() can verify by doubling.
    """

    def __init__(self, n_theta: int, n_phi: int):
        if n_theta < 2 or n_phi < 2:
            raise ValueError("grid needs at least 2 nodes per direction")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        x, w = leggauss(self.n_theta)
        order = np.argsort(-x)  # theta ascending
        self.cos_theta = x[order]
        self.theta = np.arccos(self.cos_theta)
        self.theta_weights = w[order]
        self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.dphi = 2.0 * np.pi / self.n_phi
        self.theta_mesh, self.phi_mesh = np.meshgrid(self.theta, self.phi, indexing="ij")
        # Per-node dOmega weights, shape (n_theta, n_phi).
        self.solid_angle_weights = (
            np.repeat(self.theta_weights[:, None], self.n_phi, axis=1) * self.dphi
        )

    def integrate(self, values: np.ndarray):
        """Integrate samples on the (n_theta, n_phi) mesh over the sphere."""
        return np.sum(values * self.solid_angle_weights)

    def key(self) -> tuple:
        return ("gl", self.n_theta, self.n_phi)


def default_grid(lambda_max: int) -> SphereGrid:
    n = 4 * lambda_max + 16
    return SphereGrid(n, n)


# Mode-basis cache: evaluating the basis on a big grid dominates repeated
# decompositions/syntheses, so keep a few basis matrices around.
_BASIS_CACHE: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
_BASIS_CACHE_MAX = 8


def mode_basis(mode_set: ModeSet, theta, phi, cache_token: tuple | None = None):
    """Stacked basis component arrays (B_theta, B_phi), shape (size, npts).

    vsh.mode_components evaluates every mode in one pass; this adds the
    j^(l+1) synthesis phase. theta/phi are arrays of equal size, read in
    flattened order. Pass a hashable cache_token to memoize per (mode_set, token).
    """
    key = None
    if cache_token is not None:
        key = (mode_set, cache_token)
        hit = _BASIS_CACHE.get(key)
        if hit is not None:
            _BASIS_CACHE.move_to_end(key)
            return hit
    bt, bp = mode_components(mode_set.entries, theta, phi)
    phase = np.array([1j ** (e.l + 1) for e in mode_set.entries])[:, None]
    bt *= phase
    bp *= phase
    if key is not None:
        _BASIS_CACHE[key] = (bt, bp)
        while len(_BASIS_CACHE) > _BASIS_CACHE_MAX:
            _BASIS_CACHE.popitem(last=False)
    return bt, bp


@dataclass
class VshCoefficients:
    """Complex mode amplitudes over a ModeSet.

    values follows the ModeSet ordering. Electric entries are the modified
    amplitudes (free-space impedance absorbed, same units as the magnetic
    ones); magnetic entries are the plain magnetic amplitudes.
    """

    mode_set: ModeSet
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.mode_set.size,):
            raise ValueError(
                f"expected {self.mode_set.size} coefficients, got shape {self.values.shape}"
            )

    @classmethod
    def zeros(cls, mode_set: ModeSet) -> "VshCoefficients":
        return cls(mode_set, np.zeros(mode_set.size, dtype=complex))

    @property
    def electric(self) -> np.ndarray:
        """Modified electric amplitudes (view into values)."""
        return self.values[: self.mode_set.n_electric]

    @property
    def magnetic(self) -> np.ndarray:
        return self.values[self.mode_set.n_electric :]

    def get(self, family: str, l: int, m: int) -> complex:
        return complex(self.values[self.mode_set.index_of(family, l, m)])

    def to_amplitude_vector(self) -> np.ndarray:
        """Unscaled multipole amplitudes [a_E; a_M], the vector the linear
        probe-voltage channel acts on (electric entries divided by -eta0)."""
        vec = self.values.copy()
        vec[: self.mode_set.n_electric] /= -ETA0
        return vec

    @classmethod
    def from_amplitude_vector(cls, mode_set: ModeSet, vec) -> "VshCoefficients":
        values = np.asarray(vec, dtype=complex).copy()
        values[: mode_set.n_electric] *= -ETA0
        return cls(mode_set, values)

    def scaled(self, factor) -> "VshCoefficients":
        return VshCoefficients(self.mode_set, self.values * factor)


def synthesize(coeffs: VshCoefficients, theta, phi) -> TangentVector:
    """Evaluate the modified far field of a coefficient set at (theta, phi).

    Broadcasts over array inputs; returns scalar components for scalar input.
    """
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    th_b, ph_b = np.broadcast_arrays(th, ph)
    shape = th_b.shape
    bt, bp = mode_basis(coeffs.mode_set, th_b.ravel(), ph_b.ravel())
    et = coeffs.values @ bt
    ep = coeffs.values @ bp
    if shape == ():
        return TangentVector(complex(et[0]), complex(ep[0]))
    return TangentVector(et.reshape(shape), ep.reshape(shape))


def synthesize_on_grid(coeffs: VshCoefficients, grid: SphereGrid) -> TangentVector:
    """Synthesize on a quadrature grid, caching the mode basis."""
    bt, bp = mode_basis(coeffs.mode_set, grid.theta_mesh.ravel(), grid.phi_mesh.ravel(), grid.key())
    shape = grid.theta_mesh.shape
    return TangentVector((coeffs.values @ bt).reshape(shape), (coeffs.values @ bp).reshape(shape))


def _project(field_t: np.ndarray, field_p: np.ndarray, mode_set: ModeSet, grid: SphereGrid):
    bt, bp = mode_basis(mode_set, grid.theta_mesh.ravel(), grid.phi_mesh.ravel(), grid.key())
    w = grid.solid_angle_weights.ravel()
    # conj(B) @ x as conj(B @ conj(x)), with no conjugate copy of the cached
    # basis. 0 - imag, not -imag, keeps exact zeros at +0.0, as conj(B) @ x
    # gives them, so written coefficients keep their bytes.
    out = bt @ np.conj(field_t.ravel() * w) + bp @ np.conj(field_p.ravel() * w)
    out.imag = 0.0 - out.imag
    return out


def decompose(
    field,
    mode_set: ModeSet,
    grid: SphereGrid | None = None,
    check_convergence: bool = False,
    rel_tol: float = 1e-6,
) -> VshCoefficients:
    """Extract mode amplitudes from a field callable by surface quadrature.

    field maps broadcast (theta, phi) arrays to a TangentVector. With
    check_convergence=True the quadrature is repeated on a doubled grid and a
    ConvergenceWarning is emitted if any coefficient moves by more than
    rel_tol relative to the largest amplitude; the original-grid result is
    returned either way.
    """
    if grid is None:
        grid = default_grid(mode_set.lambda_max)
    sampled = field(grid.theta_mesh, grid.phi_mesh)
    values = _project(
        np.broadcast_to(sampled.e_theta, grid.theta_mesh.shape),
        np.broadcast_to(sampled.e_phi, grid.theta_mesh.shape),
        mode_set,
        grid,
    )
    if check_convergence:
        fine = SphereGrid(2 * grid.n_theta, 2 * grid.n_phi)
        resampled = field(fine.theta_mesh, fine.phi_mesh)
        refined = _project(
            np.broadcast_to(resampled.e_theta, fine.theta_mesh.shape),
            np.broadcast_to(resampled.e_phi, fine.theta_mesh.shape),
            mode_set,
            fine,
        )
        scale = np.max(np.abs(refined))
        if scale > 0.0:
            shift = np.max(np.abs(values - refined)) / scale
            if shift > rel_tol:
                warnings.warn(
                    f"decomposition not converged: doubling the grid moved a "
                    f"coefficient by {shift:.3e} (> {rel_tol:.1e}) relative",
                    ConvergenceWarning,
                    stacklevel=2,
                )
    return VshCoefficients(mode_set, values)


def radiated_power(coeffs: VshCoefficients, k: float) -> float:
    """Total radiated power: sum of squared amplitudes over 2 eta0 k^2."""
    if k <= 0.0:
        raise ValueError("wavenumber k must be positive")
    return float(np.sum(np.abs(coeffs.values) ** 2) / (2.0 * ETA0 * k * k))


def radiation_resistance(power: float, current: float) -> float:
    """Equivalent terminal resistance 2 P / |I|^2."""
    if abs(current) == 0.0:
        raise ZeroDivisionError("radiation resistance undefined for zero terminal current")
    return 2.0 * power / abs(current) ** 2


# 1-degree mesh whose argmax starts every peak search.
_COARSE_THETA, _COARSE_PHI = np.meshgrid(
    np.linspace(0.0, np.pi, 181), np.arange(360) * math.radians(1.0), indexing="ij"
)
# 3x3 stencil offsets (a, b) along theta-hat and phi-hat, row-major in a.
_STENCIL = np.array([(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)])
_NEWTON_MAX_ITER = 50
# Objective error is quadratic in the position error near a smooth peak, so
# a 1e-5 rad step already resolves |E|^2 well beyond rel_tol.
_NEWTON_STEP_TOL = 1e-5


def _angles(x: np.ndarray):
    return np.arccos(np.clip(x[..., 2], -1.0, 1.0)), np.arctan2(x[..., 1], x[..., 0])


def _tangent_frame(x: np.ndarray):
    """Unit theta-hat and phi-hat at unit vector x (at a pole, for the phi
    that arctan2 returns)."""
    theta, phi = _angles(x)
    ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    return np.array([ct * cp, ct * sp, -st]), np.array([-sp, cp, 0.0])


def _chart(x, e_t, e_p, offsets) -> np.ndarray:
    """Gnomonic chart at x: tangent-plane offsets (n, 2) to unit vectors (n, 3)."""
    pts = x + offsets[:, :1] * e_t + offsets[:, 1:] * e_p
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _max_magnitude_squared(eval_sq, coarse=None, rel_tol: float = 1e-8) -> float:
    """Maximum over the sphere of eval_sq(theta, phi) (broadcasting arrays).

    The argmax over the 1-degree mesh (_COARSE_THETA, _COARSE_PHI) of
    coarse, the values of eval_sq there (computed when not given), starts a
    Newton ascent in the gnomonic chart of the tangent plane at the current
    point, so neither the poles nor the phi coordinate need a special case.
    Each iteration makes one eval_sq call on a 3x3 stencil of step h along
    theta-hat and phi-hat and takes the gradient and Hessian from central
    differences. Along each principal axis of the Hessian the step is
    Newton's where the curvature is negative (the whole Newton step when the
    Hessian is negative definite), and elsewhere an uphill step of h when
    its first-order gain exceeds rel_tol; on an axisymmetric ridge this
    converges across the ridge instead of crawling along it. The step is
    clamped to 2h, and h then shrinks toward the step length. The search
    stops once the step and h are below 1e-5 rad and the stencil raised the
    best value by at most rel_tol relative. If the iteration cap is hit
    first, a ConvergenceWarning is emitted. The best value seen is returned
    either way. A non-finite value on the mesh raises ValueError, since its
    argmax would be meaningless.
    """
    if coarse is None:
        coarse = eval_sq(_COARSE_THETA, _COARSE_PHI)
    if not np.all(np.isfinite(coarse)):
        raise ValueError("peak search: the pattern is not finite on the 1-degree mesh")
    i, j = np.unravel_index(np.argmax(coarse), coarse.shape)
    best = float(coarse[i, j])
    t0, p0 = float(_COARSE_THETA[i, j]), float(_COARSE_PHI[i, j])
    x = np.array([math.sin(t0) * math.cos(p0), math.sin(t0) * math.sin(p0), math.cos(t0)])
    h = float(_COARSE_THETA[1, 0] - _COARSE_THETA[0, 0])
    for _ in range(_NEWTON_MAX_ITER):
        e_t, e_p = _tangent_frame(x)
        f = np.asarray(eval_sq(*_angles(_chart(x, e_t, e_p, h * _STENCIL))), dtype=float)
        gained = f.max() > best * (1.0 + rel_tol)
        best = max(best, float(f.max()))
        f = f.reshape(3, 3)
        grad = np.array([f[2, 1] - f[0, 1], f[1, 2] - f[1, 0]]) / (2.0 * h)
        cross = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / 4.0
        hess = np.array([
            [f[2, 1] - 2.0 * f[1, 1] + f[0, 1], cross],
            [cross, f[1, 2] - 2.0 * f[1, 1] + f[1, 0]],
        ]) / h**2
        curvature, axes = np.linalg.eigh(hess)
        slope = axes.T @ grad
        along = np.where(np.abs(slope) * h > rel_tol * best, np.sign(slope) * h, 0.0)
        concave = curvature < 0.0
        along[concave] = -slope[concave] / curvature[concave]
        s = axes @ along
        length = math.hypot(*s)
        if length > 2.0 * h:
            s *= 2.0 * h / length
            length = 2.0 * h
        if not gained and length < _NEWTON_STEP_TOL and h < _NEWTON_STEP_TOL:
            return best
        x = _chart(x, e_t, e_p, s[None, :])[0]
        # At most 1000-fold per step, so a zero step never collapses the stencil.
        h = min(h, max(length, 1e-3 * h))
    warnings.warn(
        f"peak search hit its {_NEWTON_MAX_ITER}-iteration cap; returning the best value seen",
        ConvergenceWarning,
        stacklevel=2,
    )
    return best


def directivity(coeffs: VshCoefficients, k: float, rel_tol: float = 1e-8) -> float:
    """Directivity: 4 pi max |E|^2 over the integrated squared magnitude.

    The peak comes from _max_magnitude_squared: the argmax of a 1-degree
    grid (on a cached basis) refined by a batched tangent-plane Newton
    ascent, each step one vectorized synthesize call on 9 points, to
    rel_tol relative. The spreading-free formulation makes the wavenumber
    cancel; it is kept in the signature for interface symmetry with
    radiated_power.
    """
    total = float(np.sum(np.abs(coeffs.values) ** 2))  # = 2 eta0 k^2 P
    if not 0.0 < total < math.inf:
        raise ValueError(f"directivity undefined for squared amplitude sum {total}")

    def eval_sq(t, p):
        f = synthesize(coeffs, t, p)
        return np.abs(f.e_theta) ** 2 + np.abs(f.e_phi) ** 2

    # The coarse sampling reuses one cached basis per mode set.
    bt, bp = mode_basis(coeffs.mode_set, _COARSE_THETA, _COARSE_PHI, ("coarse", 181, 360))
    et = coeffs.values @ bt
    ep = coeffs.values @ bp
    vals = (np.abs(et) ** 2 + np.abs(ep) ** 2).reshape(_COARSE_THETA.shape)
    peak = _max_magnitude_squared(eval_sq, coarse=vals, rel_tol=rel_tol)
    return 4.0 * math.pi * peak / total


@dataclass
class RadiationSummary:
    """Power, terminal-referenced resistance, and directivity of a pattern."""

    power: float
    radiation_resistance: float
    directivity: float
    directivity_db: float
    current: float


def radiation_summary(coeffs: VshCoefficients, k: float, current: float) -> RadiationSummary:
    p = radiated_power(coeffs, k)
    d = directivity(coeffs, k)
    return RadiationSummary(
        power=p,
        radiation_resistance=radiation_resistance(p, current),
        directivity=d,
        directivity_db=10.0 * math.log10(d),
        current=current,
    )


def field_radiation_summary(field, grid: SphereGrid, k: float, current: float) -> RadiationSummary:
    """Radiation summary straight from a field callable (no mode expansion).

    Power by quadrature of |E|^2, peak by the same search as directivity()
    (1-degree grid, then the batched tangent-plane Newton ascent), with the
    field callable evaluated on whole stencils. Serves as the theory-side
    reference.
    """
    sampled = field(grid.theta_mesh, grid.phi_mesh)
    mag_sq = np.abs(sampled.e_theta) ** 2 + np.abs(sampled.e_phi) ** 2
    total = float(grid.integrate(np.broadcast_to(mag_sq, grid.theta_mesh.shape)))
    if not 0.0 < total < math.inf:
        raise ValueError(f"field power integral {total} is not positive and finite")
    power = total / (2.0 * ETA0 * k * k)

    def eval_sq(t, p):
        f = field(np.asarray(t, dtype=float), np.asarray(p, dtype=float))
        return np.abs(f.e_theta) ** 2 + np.abs(f.e_phi) ** 2

    peak = _max_magnitude_squared(eval_sq)
    d = 4.0 * math.pi * peak / total
    return RadiationSummary(
        power=power,
        radiation_resistance=radiation_resistance(power, current),
        directivity=d,
        directivity_db=10.0 * math.log10(d),
        current=current,
    )


def enforce_symmetry(coeffs: VshCoefficients) -> VshCoefficients:
    """Impose the +-m conjugation constraint exactly on both families.

    hat a_{l,m} = (a_{l,m} + (-1)^m conj(a_{l,-m})) / 2 for m > 0, the -m
    entry is rebuilt from it, and m = 0 entries are forced real. Requires
    every |m| > 0 mode to appear with both signs.
    """
    ms = coeffs.mode_set
    index = {entry: q for q, entry in enumerate(ms.entries)}
    new = coeffs.values.copy()
    for entry, q in index.items():
        family, l, m = entry
        if m == 0:
            new[q] = complex(coeffs.values[q].real, 0.0)
            continue
        if m < 0:
            continue  # filled from the +m partner below
        partner = index.get((family, l, -m))
        if partner is None:
            raise ValueError(f"mode set lacks the -m partner of ({family}, {l}, {m})")
        sym = 0.5 * (coeffs.values[q] + (-1) ** m * np.conj(coeffs.values[partner]))
        new[q] = sym
        new[partner] = (-1) ** m * np.conj(sym)
    for entry, q in index.items():
        if entry.m < 0 and (entry.family, entry.l, -entry.m) not in index:
            raise ValueError(f"mode set lacks the +m partner of {tuple(entry)}")
    return VshCoefficients(ms, new)


def rms_field_error(reference, reconstructed) -> float:
    """RMS of the magnitude mismatch normalized by the reference peak.

    Inputs are pattern magnitude samples on a common grid.
    """
    ref = np.abs(np.asarray(reference))
    rec = np.abs(np.asarray(reconstructed))
    if ref.size == 0:
        raise ValueError("empty pattern grid")
    if ref.shape != rec.shape:
        raise ValueError(f"grids differ: {ref.shape} vs {rec.shape}")
    peak = float(np.max(ref))
    if peak == 0.0:
        raise ValueError("all-zero reference pattern")
    return float(np.sqrt(np.mean(((ref - rec) / peak) ** 2)))
