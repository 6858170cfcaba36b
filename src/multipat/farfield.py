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

directivity() finds the pattern's peak from the argmax of a 1-degree mesh,
refined by a Newton ascent in Python floats. The mesh of a coefficient set
is not synthesized node by node: every mode depends on phi only through
exp(j m phi), so each theta row of |E|^2 is a trigonometric polynomial in
phi, evaluated from per-order theta profiles on a cached 181-node column
basis and a cached cos/sin table of the 360 phi nodes. mode_basis keeps
nothing; a quadrature grid owns the basis on its nodes (SphereGrid.basis),
which every projection and synthesis on it reads.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .vsh import ModeSet, TangentVector, mode_components

ETA0 = 376.730313668  # free-space impedance, ohms

class ConvergenceWarning(UserWarning):
    """Raised (as a warning) when grid doubling moves a decomposition, or
    when the peak search hits its iteration cap."""


class PatternError(ValueError):
    """A pattern that is numerically unusable: zero or non-finite power, a
    non-finite peak-search mesh, or an all-zero reference."""


class SphereGrid:
    """Product quadrature grid: Gauss-Legendre in cos(theta), uniform in phi.

    Exact for integrands polynomial in cos(theta) up to degree 2*n_theta - 1
    and band-limited in phi below n_phi, which covers every harmonic product
    used here. Non-polynomial integrands (physical antenna patterns) converge
    geometrically; decompose() can verify by doubling. The grid owns the mode
    basis on its nodes: basis() builds it once per mode set and keeps it.
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
        self._bases: dict[ModeSet, tuple[np.ndarray, np.ndarray]] = {}

    def integrate(self, values: np.ndarray):
        """Integrate samples on the (n_theta, n_phi) mesh over the sphere."""
        return np.sum(values * self.solid_angle_weights)

    def basis(self, mode_set: ModeSet) -> tuple[np.ndarray, np.ndarray]:
        """mode_basis of mode_set on the mesh nodes, flattened theta-major."""
        if mode_set not in self._bases:
            self._bases[mode_set] = mode_basis(mode_set, self.theta_mesh.ravel(), self.phi_mesh.ravel())
        return self._bases[mode_set]


def default_grid(lambda_max: int) -> SphereGrid:
    n = 4 * lambda_max + 16
    return SphereGrid(n, n)


@lru_cache(maxsize=32)
def _synthesis_phase(mode_set: ModeSet) -> np.ndarray:
    """j^(l+1) of every mode of the set, shape (size, 1)."""
    return np.array([1j ** (e.l + 1) for e in mode_set.entries])[:, None]


def mode_basis(mode_set: ModeSet, theta, phi):
    """Stacked basis component arrays (B_theta, B_phi), shape (size, npts).

    vsh.mode_components evaluates every mode in one pass, with the j^(l+1)
    synthesis phase as its row factor. theta/phi are arrays of equal size,
    read in flattened order. Nothing is kept here: SphereGrid.basis and
    _coarse_basis keep theirs.
    """
    return mode_components(mode_set.entries, theta, phi, _synthesis_phase(mode_set))


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
    """Synthesize on a quadrature grid from the grid's own basis."""
    bt, bp = grid.basis(coeffs.mode_set)
    shape = grid.theta_mesh.shape
    return TangentVector((coeffs.values @ bt).reshape(shape), (coeffs.values @ bp).reshape(shape))


def _project(field_t: np.ndarray, field_p: np.ndarray, mode_set: ModeSet, grid: SphereGrid):
    bt, bp = grid.basis(mode_set)
    w = grid.solid_angle_weights.ravel()
    # conj(B) @ x as conj(B @ conj(x)), with no conjugate copy of the grid's
    # basis. 0 - imag, not -imag, keeps exact zeros at +0.0, as conj(B) @ x
    # gives them, so written coefficients keep their bytes.
    out = bt @ np.conj(field_t.ravel() * w) + bp @ np.conj(field_p.ravel() * w)
    out.imag = 0.0 - out.imag
    return out


# decompose(check_convergence=True) warns when doubling the grid moves a
# coefficient by more than this, relative to the largest amplitude.
_DECOMPOSE_REL_TOL = 1e-6


def decompose(
    field,
    mode_set: ModeSet,
    grid: SphereGrid | None = None,
    check_convergence: bool = False,
) -> VshCoefficients:
    """Extract mode amplitudes from a field callable by surface quadrature.

    field maps broadcast (theta, phi) arrays to a TangentVector. With
    check_convergence=True the quadrature is repeated on a doubled grid and a
    ConvergenceWarning is emitted if any coefficient moves by more than
    _DECOMPOSE_REL_TOL relative to the largest amplitude; the original-grid
    result is returned either way.
    """
    if grid is None:
        grid = default_grid(mode_set.lambda_max)

    def project_on(g: SphereGrid) -> np.ndarray:
        sampled = field(g.theta_mesh, g.phi_mesh)
        return _project(
            np.broadcast_to(sampled.e_theta, g.theta_mesh.shape),
            np.broadcast_to(sampled.e_phi, g.theta_mesh.shape),
            mode_set,
            g,
        )

    values = project_on(grid)
    if check_convergence:
        refined = project_on(SphereGrid(2 * grid.n_theta, 2 * grid.n_phi))
        scale = np.max(np.abs(refined))
        if scale > 0.0:
            shift = np.max(np.abs(values - refined)) / scale
            if shift > _DECOMPOSE_REL_TOL:
                warnings.warn(
                    f"decomposition not converged: doubling the grid moved a "
                    f"coefficient by {shift:.3e} (> {_DECOMPOSE_REL_TOL:.1e}) relative",
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
_NEWTON_MAX_ITER = 50
# Relative tolerance of the peak value found by the Newton ascent.
_PEAK_REL_TOL = 1e-8
# Objective error is quadratic in the position error near a smooth peak, so
# a 1e-5 rad step already resolves |E|^2 well beyond _PEAK_REL_TOL.
_NEWTON_STEP_TOL = 1e-5


def _angles(x) -> tuple[float, float]:
    """(theta, phi) of the unit vector x, a float triple."""
    return math.acos(max(-1.0, min(1.0, x[2]))), math.atan2(x[1], x[0])


def _tangent_frame(x):
    """Unit theta-hat and phi-hat (less its zero z) at x; at a pole, for atan2's phi."""
    theta, phi = _angles(x)
    ct, st, cp, sp = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    return (ct * cp, ct * sp, -st), (-sp, cp)


def _chart(x, frame, u: float, v: float):
    """Gnomonic chart at x: the unit vector along x + u theta-hat + v phi-hat."""
    (tx, ty, tz), (px, py) = frame
    c = (x[0] + u * tx + v * px, x[1] + u * ty + v * py, x[2] + u * tz)
    norm = math.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
    return c[0] / norm, c[1] / norm, c[2] / norm


def _principal_axes(a: float, c: float, b: float):
    """Eigenpairs (curvature, (u, v)) of the symmetric [[a, c], [c, b]],
    ascending; the chart axes when it is isotropic."""
    half = 0.5 * (a - b)
    r = math.hypot(half, c)
    if r == 0.0:
        return (a, (1.0, 0.0)), (b, (0.0, 1.0))
    u, v = (half + r, c) if half >= 0.0 else (c, r - half)  # no cancellation
    n = math.hypot(u, v)
    return (0.5 * (a + b) - r, (-v / n, u / n)), (0.5 * (a + b) + r, (u / n, v / n))


@lru_cache(maxsize=32)
def _coarse_basis(mode_set: ModeSet) -> tuple[np.ndarray, np.ndarray]:
    """mode_basis of mode_set on the 1-degree mesh's theta column, phi = 0."""
    theta = _COARSE_THETA[:, 0]
    return mode_basis(mode_set, theta, np.zeros_like(theta))


@lru_cache(maxsize=32)
def _coarse_trig(n: int) -> np.ndarray:
    """[cos M phi_j, M = 0..n; -sin M phi_j, M = 1..n] on the 1-degree mesh's
    360 phi nodes, M j reduced modulo 360 first so each angle is one rounding."""
    angle = np.outer(np.arange(n + 1), np.arange(360)) % 360 * math.radians(1.0)
    return np.concatenate([np.cos(angle), -np.sin(angle[1:])])


def _coarse_magnitude_squared(coeffs: VshCoefficients) -> np.ndarray:
    """|E|^2 of a coefficient set on the 1-degree mesh, shape (181, 360).

    Every mode depends on phi only through exp(j m phi), so on the row at
    theta E = sum_m g_m(theta) exp(j m phi), where the per-order profile g_m
    sums c_q B_q(theta, 0) over the modes of order m; _coarse_basis on the
    181-node theta column gives all of them. |E|^2 on the row is then
    Re h_0 + 2 sum_M (Re h_M cos M phi - Im h_M sin M phi), 0 < M <= 2 m_max,
    with lag sums h_M = sum_m g_m conj(g_{m-M}) over both components: one
    real product with the cached trig table _coarse_trig at the 360 nodes
    themselves, so no harmonic aliases, whatever the orders.
    """
    ms = coeffs.mode_set
    orders = np.array([e.m for e in ms.entries])
    m_max = int(np.abs(orders).max())
    bt, bp = _coarse_basis(ms)
    weights = np.zeros((2 * m_max + 1, ms.size), dtype=complex)
    weights[orders + m_max, np.arange(ms.size)] = coeffs.values
    # Row m + m_max: the theta profiles of g_m, both components side by side.
    g = np.concatenate([weights @ bt, weights @ bp], axis=1)
    gc, n = g.conj(), g.shape[0]
    h = np.stack([(g[lag:] * gc[: n - lag]).sum(axis=0) for lag in range(n)])
    h = h[:, : bt.shape[1]] + h[:, bt.shape[1] :]
    h[1:] *= 2.0
    return np.concatenate([h.real, h[1:].imag]).T @ _coarse_trig(n - 1)


def _max_magnitude_squared(eval_sq, coarse: np.ndarray) -> float:
    """Maximum over the sphere of eval_sq(theta, phi) (broadcasting arrays).

    The argmax of coarse, the values of eval_sq on the 1-degree mesh
    (_COARSE_THETA, _COARSE_PHI), starts a Newton ascent in the gnomonic
    chart of the tangent plane at the current point, so neither the poles
    nor the phi coordinate need a special case. The point, its frame, the
    gradient, the Hessian and the step are Python floats. Each iteration
    makes one eval_sq call on the two 9-element angle arrays of a 3x3
    stencil of step h along theta-hat and phi-hat, and takes the gradient
    and Hessian from central differences. Along each principal axis of the
    Hessian (a closed-form 2x2 eigensystem) the step is Newton's where the
    curvature is negative, and elsewhere an uphill step of h when its
    first-order gain exceeds _PEAK_REL_TOL; on an axisymmetric ridge this
    converges across the ridge instead of crawling along it. The step is
    clamped to 2h, and h then shrinks toward the step length. The search
    stops once the step and h are below 1e-5 rad and the stencil raised the
    best value by at most _PEAK_REL_TOL relative; at the iteration cap it
    warns (ConvergenceWarning). Either way it returns the best value seen.
    A non-finite mesh value raises PatternError: its argmax is meaningless.
    """
    if not np.all(np.isfinite(coarse)):
        raise PatternError("peak search: the pattern is not finite on the 1-degree mesh")
    i, j = np.unravel_index(np.argmax(coarse), coarse.shape)
    best = float(coarse[i, j])
    t0, p0 = float(_COARSE_THETA[i, j]), float(_COARSE_PHI[i, j])
    x = (math.sin(t0) * math.cos(p0), math.sin(t0) * math.sin(p0), math.cos(t0))
    h = float(_COARSE_THETA[1, 0] - _COARSE_THETA[0, 0])
    for _ in range(_NEWTON_MAX_ITER):
        frame = _tangent_frame(x)
        # Stencil node (a, b), offsets a h along theta-hat and b h along phi-hat, is f[3a + b + 4].
        nodes = [_angles(_chart(x, frame, u, v)) for u in (-h, 0.0, h) for v in (-h, 0.0, h)]
        f = np.asarray(eval_sq(*np.array(nodes).T), dtype=float).tolist()
        gained = max(f) > best * (1.0 + _PEAK_REL_TOL)
        best = max(best, *f)
        g_t, g_p = (f[7] - f[1]) / (2.0 * h), (f[5] - f[3]) / (2.0 * h)
        hess = ((f[7] - 2.0 * f[4] + f[1]) / h**2, (f[8] - f[6] - f[2] + f[0]) / 4.0 / h**2,
                (f[5] - 2.0 * f[4] + f[3]) / h**2)
        s_t = s_p = 0.0
        for curvature, (u, v) in _principal_axes(*hess):
            slope = u * g_t + v * g_p
            if curvature < 0.0:
                along = -slope / curvature
            else:
                along = math.copysign(h, slope) if abs(slope) * h > _PEAK_REL_TOL * best else 0.0
            s_t, s_p = s_t + u * along, s_p + v * along
        length = math.hypot(s_t, s_p)
        if length > 2.0 * h:
            s_t, s_p, length = s_t * (2.0 * h / length), s_p * (2.0 * h / length), 2.0 * h
        if not gained and length < _NEWTON_STEP_TOL and h < _NEWTON_STEP_TOL:
            return best
        x = _chart(x, frame, s_t, s_p)
        # At most 1000-fold per step, so a zero step never collapses the stencil.
        h = min(h, max(length, 1e-3 * h))
    warnings.warn(
        f"peak search hit its {_NEWTON_MAX_ITER}-iteration cap; returning the best value seen",
        ConvergenceWarning,
        stacklevel=2,
    )
    return best


def directivity(coeffs: VshCoefficients, k: float) -> float:
    """Directivity: 4 pi max |E|^2 over the integrated squared magnitude.

    The peak is _max_magnitude_squared's float Newton ascent, one 9-point
    synthesize call per step, to _PEAK_REL_TOL relative, from the argmax of
    _coarse_magnitude_squared's trig-table mesh; no full-mesh basis is
    built. A zero or non-finite amplitude sum raises PatternError. The
    spreading-free formulation makes the wavenumber cancel; it is kept in
    the signature for interface symmetry with radiated_power.
    """
    total = float(np.sum(np.abs(coeffs.values) ** 2))  # = 2 eta0 k^2 P
    if not 0.0 < total < math.inf:
        raise PatternError(f"directivity undefined for squared amplitude sum {total}")

    # Each stencil is one call of this module's synthesize, looked up when
    # called: the benchmark's traced run wraps that name, and its
    # farfield.synthesize_us and synth_calls_per_directivity come from
    # those calls alone.
    def eval_sq(t, p):
        f = synthesize(coeffs, t, p)
        return np.abs(f.e_theta) ** 2 + np.abs(f.e_phi) ** 2

    coarse = _coarse_magnitude_squared(coeffs)
    peak = _max_magnitude_squared(eval_sq, coarse)
    return 4.0 * math.pi * peak / total


@dataclass
class RadiationSummary:
    """Power, terminal-referenced resistance, and directivity of a pattern."""

    power: float
    radiation_resistance: float
    directivity: float
    directivity_db: float
    current: float


def _summary(power: float, d: float, current: float) -> RadiationSummary:
    return RadiationSummary(
        power=power,
        radiation_resistance=radiation_resistance(power, current),
        directivity=d,
        directivity_db=10.0 * math.log10(d),
        current=current,
    )


def radiation_summary(coeffs: VshCoefficients, k: float, current: float) -> RadiationSummary:
    return _summary(radiated_power(coeffs, k), directivity(coeffs, k), current)


def field_radiation_summary(field, grid: SphereGrid, k: float, current: float) -> RadiationSummary:
    """Radiation summary straight from a field callable (no mode expansion).

    Power by quadrature of |E|^2, peak by the same search as directivity()
    (1-degree grid, then the tangent-plane Newton ascent), with the field
    callable evaluated on whole stencils. Serves as the theory-side
    reference. A power integral that is not positive and finite raises
    PatternError.
    """
    sampled = field(grid.theta_mesh, grid.phi_mesh)
    mag_sq = np.abs(sampled.e_theta) ** 2 + np.abs(sampled.e_phi) ** 2
    total = float(grid.integrate(np.broadcast_to(mag_sq, grid.theta_mesh.shape)))
    if not 0.0 < total < math.inf:
        raise PatternError(f"field power integral {total} is not positive and finite")
    power = total / (2.0 * ETA0 * k * k)

    def eval_sq(t, p):
        f = field(np.asarray(t, dtype=float), np.asarray(p, dtype=float))
        return np.abs(f.e_theta) ** 2 + np.abs(f.e_phi) ** 2

    peak = _max_magnitude_squared(eval_sq, eval_sq(_COARSE_THETA, _COARSE_PHI))
    return _summary(power, 4.0 * math.pi * peak / total, current)


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
        raise PatternError("all-zero reference pattern")
    return float(np.sqrt(np.mean(((ref - rec) / peak) ** 2)))
