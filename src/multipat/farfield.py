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

Every mode depends on phi only through exp(j m phi), and on theta as a
trigonometric polynomial of degree <= L, so one cached theta-Fourier table
per mode set, laid out by order m, describes every pattern over it:
synthesize() sums its per-order theta profiles and evaluates no basis at
its points. directivity() finds the pattern's peak from the argmax of a
1-degree mesh, each theta row of which is a trigonometric polynomial in
phi (its theta <= 90 deg half if all modes share an inversion parity),
refined by a Newton ascent in Python floats on |E|^2's exact gradient and
Hessian (at a pole, along three meridians), and takes |E|^2 there from one
synthesize() call; mesh, model and that call read one _order_sums of the table.
field_radiation_summary's peak is a 1-D theta search. mode_basis is
vsh.mode_components with each row times j^(l+1), and keeps nothing; a
quadrature grid owns the basis on its nodes (SphereGrid.basis), which
every projection and synthesis on it reads, and its nodes' trig (.trig).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .vsh import ELECTRIC, ModeSet, TangentVector, mode_components

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
    basis on its nodes: basis() builds it once per mode set and keeps it,
    and trig the sin/cos of its theta and phi mesh, on first use.
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

    @cached_property
    def trig(self) -> tuple[np.ndarray, ...]:
        """(sin theta, cos theta, sin phi, cos phi) on the mesh."""
        th, ph = self.theta_mesh, self.phi_mesh
        return np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)


def default_grid(lambda_max: int) -> SphereGrid:
    n = 4 * lambda_max + 16
    return SphereGrid(n, n)


def mode_basis(mode_set: ModeSet, theta, phi):
    """Stacked basis component arrays (B_theta, B_phi), shape (size, npts).

    vsh.mode_components evaluates every mode in one pass; each row is then
    multiplied by its j^(l+1) synthesis phase. theta/phi are arrays of
    equal size, read in flattened order. Nothing is kept here:
    SphereGrid.basis and _theta_fourier keep theirs.
    """
    bt, bp = mode_components(mode_set.entries, theta, phi)
    phase = np.array([1j ** (e.l + 1) for e in mode_set.entries])[:, None]
    bt *= phase
    bp *= phase
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


@lru_cache(maxsize=32)
def _mode_rows(mode_set: ModeSet):
    """(orders, up, down, parity, unpaired) of mode_set: each row's m; the
    rows with m > 0, the rows of their (family, l, -m) partners and (-1)^m,
    in the order of up; and the modes whose partner is missing."""
    entries = mode_set.entries
    index = {entry: q for q, entry in enumerate(entries)}
    orders = np.array([e.m for e in entries], dtype=np.intp)
    up = np.flatnonzero(orders > 0)
    down = np.array([index.get((e.family, e.l, -e.m), -1) for e in entries], dtype=np.intp)[up]
    unpaired = tuple(e for e in entries if (e.family, e.l, -e.m) not in index)
    return orders, up, down, np.where(orders[up] % 2 == 0, 1.0, -1.0), unpaired


@lru_cache(maxsize=32)
def _theta_fourier(mode_set: ModeSet):
    """(members, table, jp, jm, jets_p, jets_m, column, trig): the theta-
    Fourier table of mode_set, which synthesize, _exact_model and the
    1-degree mesh all read through _order_sums.

    A mode of degree l <= L is exp(j m phi) times a trigonometric
    polynomial of degree <= L in theta, which mode_components gives at any
    theta, theta > pi included, so the FFT of mode_basis at theta_j =
    2 pi j / (2L + 1), phi = 0, gives table[q, c * (2L + 1) + p + L], the
    coefficient of exp(j p theta) in component c of mode q. Row m + M of
    the 0/1 matrix members marks the modes of order m, m = -M..M with M the
    largest |m|, and the columns jp = j p, p = -L..L, and jm = j m are the
    exponents. Rows [1, j p, (j p)^2] of jets_p and columns [1, j m, (j m)^2]
    of jets_m take a term to its first two theta and phi derivatives.
    column holds exp(j p theta_i) on the mesh's theta column (its 91 nodes
    theta <= 90 deg if all modes share an inversion parity, (l + [electric])
    mod 2, as |E|^2 is then even under r -> -r), and trig [cos K phi_j, K =
    0..2M; -sin K phi_j, K = 1..2M] on its 360 phi nodes, K j mod 360 first.
    """
    degree = max((e.l for e in mode_set.entries), default=0)
    n = 2 * degree + 1
    samples = np.stack(mode_basis(mode_set, 2.0 * np.pi * np.arange(n) / n, np.zeros(n)), axis=1)
    table = np.fft.fftshift(np.fft.fft(samples, axis=-1), axes=-1).reshape(-1, 2 * n) / n
    orders = _mode_rows(mode_set)[0]
    top = int(np.abs(orders).max(initial=0))
    members = (np.arange(-top, top + 1)[:, None] == orders).astype(float)
    jp, jm = 1j * np.arange(-degree, degree + 1.0), 1j * np.arange(-top, top + 1.0)
    angle = np.outer(np.arange(2 * top + 1), np.arange(360)) % 360 * math.radians(1.0)
    rows = 91 if len({(e.l + (e.family == ELECTRIC)) % 2 for e in mode_set.entries}) == 1 else 181
    return (members, table, jp[:, None], jm[:, None, None], np.vander(jp, 3, increasing=True),
            np.vander(jm, 3, increasing=True).T, np.exp(np.outer(jp, _COARSE_THETA[:rows, 0])),
            np.concatenate([np.cos(angle), -np.sin(angle[1:])]))


def _order_sums(coeffs: VshCoefficients):
    """(g, jp, jm, jets_p, jets_m, column, trig): g[m + M, c, p], the
    coefficient-weighted sum of the _theta_fourier rows of the modes of
    order m (zero where the set has none), then the rest of the table."""
    members, table, *rest = _theta_fourier(coeffs.mode_set)
    return (members @ (coeffs.values[:, None] * table)).reshape(len(members), 2, -1), *rest


def synthesize(coeffs: VshCoefficients, theta, phi, *, sums=None) -> TangentVector:
    """Evaluate the modified far field of a coefficient set at (theta, phi).

    E = sum_m exp(j m phi) sum_p g_m,p exp(j p theta), g the _order_sums of
    the cached theta-Fourier table, or sums if given (a caller that already
    took them): no basis recurrence, a handful of array operations whatever
    the number of points. Broadcasts; returns scalar components for scalar input.
    """
    th, ph = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if th.shape != ph.shape:
        th, ph = np.broadcast_arrays(th, ph)
    g, jp, jm = (_order_sums(coeffs) if sums is None else sums)[:3]
    e_t, e_p = (g @ np.exp(jp * th.ravel()) * np.exp(jm * ph.ravel())).sum(axis=0)
    if th.shape == ():
        return TangentVector(complex(e_t[0]), complex(e_p[0]))
    return TangentVector(e_t.reshape(th.shape), e_p.reshape(th.shape))


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
    """(theta, phi) of the unit vector x, a float triple; atan2 keeps both exact at a pole."""
    return math.atan2(math.hypot(x[0], x[1]), x[2]), math.atan2(x[1], x[0])


def _tangent_frame(x):
    """Unit theta-hat and phi-hat (less its zero z) at x, for atan2's phi at a
    pole, then the (theta, phi, sin theta, cos theta) they came from."""
    theta, phi = _angles(x)
    ct, st, cp, sp = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    return (ct * cp, ct * sp, -st), (-sp, cp), (theta, phi, st, ct)


def _chart(x, frame, u: float, v: float):
    """Gnomonic chart at x: the unit vector along x + u theta-hat + v phi-hat."""
    (tx, ty, tz), (px, py) = frame[:2]
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


def _coarse_magnitude_squared(sums) -> np.ndarray:
    """|E|^2 of a pattern on the 1-degree mesh, shape (91 or 181, 360), from its _order_sums.

    Every mode depends on phi only through exp(j m phi), so on the row at
    theta E = sum_m g_m(theta) exp(j m phi), where the per-order profile g_m
    is _order_sums' row m times the table's exponents on the theta column.
    |E|^2 on the row is then Re h_0 + 2 sum_K (Re h_K cos K phi -
    Im h_K sin K phi), 0 < K <= 2M, with lag sums h_K = sum_m g_m
    conj(g_{m-K}) over both components: one real product with the table's
    trig rows at the 360 nodes themselves, so no harmonic aliases, whatever
    the orders.
    """
    g, *_, column, trig = sums
    # Row m + M: the theta profiles of g_m, both components side by side.
    g = (g.reshape(-1, len(column)) @ column).reshape(len(g), -1)
    gc, n = g.conj(), g.shape[0]
    h = np.empty_like(g)
    for lag in range(n):
        (g[lag:] * gc[: n - lag]).sum(axis=0, out=h[lag])
    h = h[:, : column.shape[1]] + h[:, column.shape[1] :]
    h[1:] *= 2.0
    return np.concatenate([h.real, h[1:].imag]).T @ trig


# Below this sin(theta) _exact_model works at the pole: the chain rule is singular there.
_POLE_SIN = 1e-5
# _exact_model lifts its curvatures by this share of their scale, so that
# rounding (along an axisymmetric ridge) reads as flat, not as a Newton axis.
_CURVATURE_LIFT = 1e-10


def _jet(a, b):
    """|E|^2 and its first two derivatives on a curve, from both components' [E, E', E'']."""
    ac, bc = a[0].conjugate(), b[0].conjugate()
    return ((ac * a[0] + bc * b[0]).real, 2.0 * (ac * a[1] + bc * b[1]).real,
            2.0 * (abs(a[1]) ** 2 + abs(b[1]) ** 2 + (ac * a[2] + bc * b[2]).real))


def _exact_model(sums):
    """Local model of |E|^2 of a pattern, exact to rounding, from its _order_sums.

    E and its theta and phi derivatives up to the second are one product of
    synthesize's per-order sums g[m, c, p] with jets_m exp(j m phi) and one
    with jets_p exp(j p theta); the chain rule takes those of |E|^2 to the
    chart at x. Where sin(theta) < _POLE_SIN the chart derivatives are theta
    derivatives at the pole along three meridians, carried on to x.
    """
    g, _, _, jets_p, jets_m = sums[:5]
    g = g.reshape(len(g), -1)
    n, jp, jm = len(jets_p), jets_p[:, 1], jets_m[1]

    def jets(rows, theta):  # [2 r + c][k]: theta derivative k of component c, on row r
        return (((rows @ g).reshape(6, n) * np.exp(jp * theta)) @ jets_p).tolist()

    def model(x, frame):  # frame: _tangent_frame(x), whose angles and trig it reads
        theta, phi, s, c = frame[2]
        if s < _POLE_SIN:  # the meridians of theta-hat, phi-hat and their bisector
            pole = 0.0 if c > 0.0 else math.pi
            meridians = phi + math.copysign(math.pi, c) * np.array([0.0, 0.5, 0.25])
            d = jets(np.exp(np.outer(meridians, jm)), pole)
            (f, f_u, f_uu), (_, f_v, f_vv), (_, _, f_dd) = (_jet(d[i], d[i + 1]) for i in (0, 2, 4))
            f_uv, u = f_dd - 0.5 * (f_uu + f_vv), theta - pole
            f, f_u, f_v = f + (f_u + 0.5 * f_uu * u) * u, f_u + f_uu * u, f_v + f_uv * u
        else:
            d = jets(jets_m * np.exp(jm * phi), theta)  # row r: phi derivative r
            f, f_u, f_uu = _jet(d[0], d[1])
            _, f_p, f_pp = _jet((d[0][0], d[2][0], d[4][0]), (d[1][0], d[3][0], d[5][0]))
            f_tp = 2.0 * (d[0][1].conjugate() * d[2][0] + d[1][1].conjugate() * d[3][0]
                          + d[0][0].conjugate() * d[2][1] + d[1][0].conjugate() * d[3][1]).real
            f_v, f_uv, f_vv = f_p / s, (f_tp - f_p * c / s) / s, (f_pp / s + f_u * c) / s
        lift = _CURVATURE_LIFT * (abs(f_uu) + abs(f_vv))
        return f, (theta, phi), (f_u, f_v), (f_uu + lift, f_uv, f_vv + lift)

    return model


def _max_magnitude_squared(model, coarse: np.ndarray):
    """Maximum over the sphere of a pattern's |E|^2, and its (theta, phi).

    The argmax of coarse, the pattern on the 1-degree mesh's first rows
    (_COARSE_THETA, _COARSE_PHI), starts a Newton ascent in Python floats in
    the gnomonic chart of the tangent plane at the current point x, so neither
    the poles nor the phi coordinate need a special case. Each model(x, frame)
    call, _exact_model's, gives |E|^2 and (theta, phi) at x, and the chart
    gradient and Hessian (uu, uv, vv) there. Along each principal axis of the
    Hessian (a closed-form 2x2 eigensystem) the step is Newton's where the
    curvature is negative, and elsewhere an uphill step of h, the mesh step at
    first, when its first-order gain exceeds _PEAK_REL_TOL; on an axisymmetric
    ridge this converges across the ridge instead of crawling along it. The
    step is clamped to 2h, and h then shrinks toward the step length. At the
    best point seen, with both curvatures negative, an unclamped step under
    1e-3 rad predicting a gain (sum 1/2 slope along) of at most
    _PEAK_REL_TOL relative is the last: the search returns its direction and
    predicted value, with no model call. Else after a first step it stops
    once the step is below 1e-5 rad and the model raised the best value by
    at most _PEAK_REL_TOL relative; at the iteration cap it warns
    (ConvergenceWarning). Both return the best value seen and its direction.
    A non-finite mesh value raises PatternError.
    """
    i, j = divmod(int(np.argmax(coarse)), coarse.shape[1])
    best = float(coarse[i, j])
    # argmax takes the first NaN, +inf is the maximum, and |E|^2 has no -inf.
    if not math.isfinite(best):
        raise PatternError("peak search: the pattern is not finite on the 1-degree mesh")
    t0, p0 = float(_COARSE_THETA[i, j]), float(_COARSE_PHI[i, j])
    best_at = t0, p0
    x = (math.sin(t0) * math.cos(p0), math.sin(t0) * math.sin(p0), math.cos(t0))
    h = float(_COARSE_THETA[1, 0] - _COARSE_THETA[0, 0])
    for step in range(_NEWTON_MAX_ITER):
        frame = _tangent_frame(x)
        top, at, (g_t, g_p), hess = model(x, frame)
        gained = top > best * (1.0 + _PEAK_REL_TOL)
        if top > best:
            best, best_at = top, at
        s_t = s_p = gain = 0.0
        for curvature, (u, v) in _principal_axes(*hess):  # ends on the larger curvature
            slope = u * g_t + v * g_p
            if curvature < 0.0:
                along = -slope / curvature
            else:
                along = math.copysign(h, slope) if abs(slope) * h > _PEAK_REL_TOL * best else 0.0
            s_t, s_p, gain = s_t + u * along, s_p + v * along, gain + 0.5 * slope * along
        length = math.hypot(s_t, s_p)
        if length > 2.0 * h:
            s_t, s_p, length = s_t * (2.0 * h / length), s_p * (2.0 * h / length), 2.0 * h
        elif curvature < 0.0 and length < 1e-3 and top == best and gain <= _PEAK_REL_TOL * best:
            return best + gain, _angles(_chart(x, frame, s_t, s_p))
        if step and not gained and length < _NEWTON_STEP_TOL:
            return best, best_at
        x = _chart(x, frame, s_t, s_p)
        # At most 1000-fold per step, so a zero step never collapses h.
        h = min(h, max(length, 1e-3 * h))
    warnings.warn(
        f"peak search hit its {_NEWTON_MAX_ITER}-iteration cap; returning the best value seen",
        ConvergenceWarning,
        stacklevel=2,
    )
    return best, best_at


def directivity(coeffs: VshCoefficients, k: float) -> float:
    """Directivity: 4 pi max |E|^2 over the integrated squared magnitude.

    The peak's direction is _max_magnitude_squared's float Newton ascent on
    _exact_model (a pole model within _POLE_SIN of a pole), from the argmax
    of _coarse_magnitude_squared's mesh (its north half if the set fixes the
    inversion parity); both read the mode set's cached _theta_fourier table,
    so its later patterns evaluate no basis, and one _order_sums call. |E|^2
    there is one synthesize call, which reads those sums. A zero or non-finite
    amplitude sum raises PatternError. The spreading-free formulation makes the
    wavenumber cancel; it is kept for interface symmetry with radiated_power.
    """
    total = float(np.sum(np.abs(coeffs.values) ** 2))  # = 2 eta0 k^2 P
    if not 0.0 < total < math.inf:
        raise PatternError(f"directivity undefined for squared amplitude sum {total}")
    sums = _order_sums(coeffs)
    _, (theta, phi) = _max_magnitude_squared(_exact_model(sums), _coarse_magnitude_squared(sums))
    # One call of this module's synthesize, looked up when called: the
    # benchmark's traced run wraps that name, and its farfield.synthesize_us
    # and synth_calls_per_directivity come from this call.
    f = synthesize(coeffs, theta, phi, sums=sums)
    return 4.0 * math.pi * (abs(f.e_theta) ** 2 + abs(f.e_phi) ** 2) / total


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


_THETA_NODES, _THETA_PEAK_TOL = 24, 1e-10  # see field_radiation_summary


def field_radiation_summary(field, kl: float, k: float, current: float) -> RadiationSummary:
    """Radiation summary of a field callable symmetric about the z axis, such
    as an upright dipole's of electrical length kl, from its theta pattern at
    phi = 0, with no mode expansion: the theory side. Power is an n-node
    Gauss-Legendre rule in cos(theta), n = _THETA_NODES + int(kl): a dipole's
    |E|^2 is entire in cos(theta), so the rule converges geometrically once
    2n is well past kl. The peak is the argmax of an 8n-interval theta mesh,
    refined by 32-interval meshes over the two intervals around each argmax
    until they span under _THETA_PEAK_TOL rad, which puts |E|^2 within about
    (kl 1e-10)^2 of the peak, relative. A power integral that is not positive
    and finite, or a non-finite peak, raises PatternError."""
    def pattern(theta):
        f = field(theta, np.zeros_like(theta))
        return np.abs(f.e_theta) ** 2 + np.abs(f.e_phi) ** 2

    n = _THETA_NODES + int(kl)
    cos_theta, weights = leggauss(n)
    total = 2.0 * math.pi * float(weights @ pattern(np.arccos(cos_theta)))
    if not 0.0 < total < math.inf:
        raise PatternError(f"field power integral {total} is not positive and finite")
    theta = np.linspace(0.0, math.pi, 8 * n + 1)
    while theta[-1] - theta[0] > _THETA_PEAK_TOL:
        i = int(np.argmax(pattern(theta)))
        theta = np.linspace(theta[max(i - 1, 0)], theta[min(i + 1, len(theta) - 1)], 33)
    peak = float(np.max(pattern(theta)))
    if not math.isfinite(peak):
        raise PatternError("field peak search: the pattern is not finite on the theta mesh")
    return _summary(total / (2.0 * ETA0 * k * k), 4.0 * math.pi * peak / total, current)


def enforce_symmetry(coeffs: VshCoefficients) -> VshCoefficients:
    """Impose the +-m conjugation constraint exactly on both families.

    hat a_{l,m} = (a_{l,m} + (-1)^m conj(a_{l,-m})) / 2 for m > 0, the -m
    entry is (-1)^m conj(hat a_{l,m}), and m = 0 entries are forced real:
    three array steps over the mode set's cached row map, _mode_rows.
    Requires every |m| > 0 mode to appear with both signs.
    """
    ms = coeffs.mode_set
    _, up, down, parity, unpaired = _mode_rows(ms)
    if unpaired:
        family, l, m = unpaired[0]
        raise ValueError(f"mode set lacks the {'-' if m > 0 else '+'}m partner of "
                         f"({family}, {l}, {m})")
    values = coeffs.values
    new = values.real.astype(complex)  # the m = 0 entries; the others are overwritten
    new[up] = symmetric = 0.5 * (values[up] + parity * np.conj(values[down]))
    new[down] = parity * np.conj(symmetric)
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
