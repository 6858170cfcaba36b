"""Mode budgeting and measurement-setup quality metrics.

How many harmonics does an antenna of a given electrical size need, and how
good is a particular calibration set or chamber at resolving them? The
optimizer is a plain Nelder-Mead simplex over reference orientations with
a budgeted evaluation count and a monotone best-so-far trace.

dipole_coefficient_matrix builds the reference amplitude matrix A_R in
closed form from one quadrature decomposition of the upright dipole; it is
the set-up's calibration matrix (cli.build_setup). The optimizer ranks its
candidates by the addition theorem instead: A_R^H A_R is the real
references x references Gram matrix sum_l p_l P_l(a_i . a_j) of the
reference axes, so a well-conditioned evaluation is one Legendre series
and one symmetric eigenproblem. The values it reports are those of
dipole_coefficient_matrix at the recorded points.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import dipole, farfield
from .vsh import ELECTRIC, ModeSet, spherical_harmonics


def mode_count(lambda_max: int) -> int:
    """Number of harmonics for a truncation order: 2 L (L + 2)."""
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    return 2 * lambda_max * (lambda_max + 2)


def lambda_simple(k_r: float) -> int:
    """Truncation order from the enclosing-sphere size: ceil(kR)."""
    if k_r <= 0.0:
        raise ValueError("kR must be positive")
    return math.ceil(k_r)


def lambda_jensen(k_r: float, p_tr: float, p_r: float = 0.0) -> int:
    """Conservative truncation order from a target truncated-power level.

    ceil(kR + 0.045 (kR)^(1/3) (p_r - p_tr)), powers in dB. The fit behind
    it is only validated for electrically large antennas and p_tr <= -40 dB;
    outside that range a warning is emitted and the value is advisory.
    """
    if k_r <= 0.0:
        raise ValueError("kR must be positive")
    if k_r < 10.0:
        warnings.warn(
            f"kR = {k_r:.3g} is outside the validity range (kR >> 1); "
            f"treat the estimate as advisory"
        )
    if p_tr > -40.0:
        warnings.warn(f"p_tr = {p_tr:.3g} dB is above the -40 dB validity limit")
    return math.ceil(k_r + 0.045 * np.cbrt(k_r) * (p_r - p_tr))


@dataclass
class ModeBudget:
    lambda_max: int
    n_modes: int
    rule: str  # "simple-ceiling" or "jensen"


def plan_modes(k_r: float, p_tr: float | None = None, p_r: float = 0.0) -> ModeBudget:
    """Mode budget for an enclosing-sphere size, optionally accuracy-driven."""
    if p_tr is None:
        lam = lambda_simple(k_r)
        return ModeBudget(lam, mode_count(lam), "simple-ceiling")
    lam = lambda_jensen(k_r, p_tr, p_r)
    return ModeBudget(lam, mode_count(lam), "jensen")


def _entries(matrix) -> np.ndarray:
    return np.asarray(getattr(matrix, "entries", matrix), dtype=complex)


def epsilon_entropy(channel, epsilon: float) -> float:
    """Information bound of a channel at uncertainty epsilon.

    Sum over singular values of log2(sigma / epsilon). A singular channel
    yields -inf. At epsilon = 1 this equals half the log2 determinant of
    T T^H (consistency is pinned by tests).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    t = _entries(channel)
    if not np.any(t):
        raise ValueError("channel matrix is zero")
    sigma = np.linalg.svd(t, compute_uv=False)
    with np.errstate(divide="ignore"):
        return float(np.sum(np.log2(sigma / epsilon)))


def capacity_objective(channel) -> float:
    """Placement objective -det(T T^H); lower means more informative."""
    t = _entries(channel)
    return float(-np.linalg.det(t @ t.conj().T).real)


def wrap_orientation(theta: float, phi: float) -> tuple[float, float]:
    """Map arbitrary angles to the canonical (theta in [0, pi], phi in [0, 2 pi))."""
    x = math.sin(theta) * math.cos(phi)
    y = math.sin(theta) * math.sin(phi)
    z = math.cos(theta)
    t = math.acos(max(-1.0, min(1.0, z)))
    p = math.atan2(y, x) % (2.0 * math.pi)  # a tiny negative angle rounds to 2 pi
    return t, (0.0 if p == 2.0 * math.pi else p)


def fibonacci_orientations(n: int) -> list[tuple[float, float]]:
    """Quasi-uniform axis directions on the upper hemisphere.

    Avoids antipodal pairs (which would duplicate dipole patterns) and the
    exact pole only by construction of the z offsets.
    """
    golden = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for i in range(n):
        z = 1.0 - (i + 0.5) / n  # z in (0, 1): upper hemisphere
        out.append((math.acos(z), (i * golden) % (2.0 * math.pi)))
    return out


def _upright_column(
    mode_set: ModeSet,
    length: float = 0.5,
    current: float = 1.0,
    grid: farfield.SphereGrid | None = None,
    k: float = 2.0 * math.pi,
) -> np.ndarray:
    """c_{l,0}^upright sqrt(4 pi / (2l + 1)) for every row (family, l, m) of
    mode_set: one quadrature decomposition on grid (default:
    farfield.default_grid) of the upright dipole."""
    upright = dipole.DipoleSpec(length=length, current=current)
    c = farfield.decompose(upright.field(k), mode_set, grid).to_amplitude_vector()
    index = {entry: q for q, entry in enumerate(mode_set.entries)}
    return np.array([
        c[index[(family, l, 0)]] * math.sqrt(4.0 * math.pi / (2 * l + 1))
        for family, l, _ in mode_set.entries
    ])


def dipole_coefficient_matrix(
    orientations,
    mode_set: ModeSet,
    length: float = 0.5,
    current: float = 1.0,
    grid: farfield.SphereGrid | None = None,
    k: float = 2.0 * math.pi,
    upright: np.ndarray | None = None,
) -> np.ndarray:
    """Amplitude-vector matrix (modes x orientations) of identical dipoles.

    A dipole along (theta0, phi0) is the upright (z-directed) dipole
    rotated, and the upright dipole radiates only m = 0 modes. Rotation
    mixes the orders of one degree through the m' = 0 column of the
    Wigner D-matrix, so in each family (electric, magnetic)

      c_{l,m}(theta0, phi0) = c_{l,0}^upright sqrt(4 pi / (2l + 1)) conj(Y_{l,m}(theta0, phi0))

    (Hansen (ed.), Spherical Near-Field Antenna Measurements, IEE 1988,
    app. A2). Y_{l,m} is orthonormal with the Condon-Shortley phase
    (vsh.spherical_harmonics of mode_set.entries, on the plan that
    mode_components caches for them), and c^upright is the amplitude
    vector of one quadrature decomposition on grid (default:
    farfield.default_grid) of the upright twin with the same length,
    current and k. Every column is then one vectorized product. A caller
    that builds many matrices for the same dipole passes upright, the
    scaled column _upright_column(mode_set, length, current, grid, k), and
    skips the decomposition.
    """
    if upright is None:
        upright = _upright_column(mode_set, length, current, grid, k)
    theta0, phi0 = np.asarray(orientations, dtype=float).T
    y = spherical_harmonics(mode_set.entries, theta0, phi0)
    return upright[:, None] * y.conj()


_SIMPLEX_STEP = 0.25  # initial simplex edge along each axis (rad for angles)
_SIMPLEX_FTOL_REL = 1e-6  # relative objective spread that ends the search
_GRAM_RATIO_MIN = 1e-4  # Gram lambda_min / lambda_max under which (cond > 100) A_R is built
_TRACE_BLOCK = 1 << 16  # orientation x mode entries of A_R built at once when scoring the trace


def _horner(coefficients, x):  # highest degree first, at every entry of x
    out = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        out *= x
        out += c
    return out


def nelder_mead(fun, x0: np.ndarray, budget: int):
    """Budgeted Nelder-Mead minimizer.

    Standard reflection/expansion/contraction coefficients (1, 2, 0.5) and
    shrink 0.5, from a simplex of edge _SIMPLEX_STEP along each axis. Stops
    when the simplex objective spread falls below _SIMPLEX_FTOL_REL
    relative or the evaluation budget is exhausted; returns the best point
    seen, its value, the trace and the evaluations used. The trace records
    (evaluations_used, best_so_far) at every improvement.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    evals = 0
    trace: list[tuple[int, float]] = []
    best_x, best_f = x0.copy(), math.inf

    def record(x, f):
        nonlocal best_x, best_f
        if f < best_f:
            best_x, best_f = x.copy(), f
            trace.append((evals, f))

    def call(x):
        nonlocal evals
        evals += 1
        f = fun(x)
        record(x, f)
        return f

    f0 = fun(x0)  # baseline, not counted against the budget
    record(x0, f0)
    if budget <= 0:
        return best_x, best_f, trace, evals

    simplex = np.empty((n + 1, n))
    fvals = np.empty(n + 1)
    simplex[0], fvals[0] = x0, f0
    for i in range(n):
        if evals >= budget:
            return best_x, best_f, trace, evals
        simplex[i + 1] = x0
        simplex[i + 1, i] += _SIMPLEX_STEP
        fvals[i + 1] = call(simplex[i + 1])

    while evals < budget:
        order = np.argsort(fvals)
        simplex, fvals = simplex[order], fvals[order]
        spread = fvals[-1] - fvals[0]
        if spread <= _SIMPLEX_FTOL_REL * max(abs(fvals[0]), 1e-300):
            break
        centroid = np.add.reduce(simplex[:-1], axis=0) / n
        reflected = centroid + (centroid - simplex[-1])
        fr = call(reflected)
        if fr < fvals[0]:
            if evals < budget:
                expanded = centroid + 2.0 * (centroid - simplex[-1])
                fe = call(expanded)
                if fe < fr:
                    simplex[-1], fvals[-1] = expanded, fe
                    continue
            simplex[-1], fvals[-1] = reflected, fr
            continue
        if fr < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, fr
            continue
        if evals >= budget:
            break
        if fr < fvals[-1]:  # outside contraction
            contracted = centroid + 0.5 * (reflected - centroid)
            fc = call(contracted)
            if fc <= fr:
                simplex[-1], fvals[-1] = contracted, fc
                continue
        else:  # inside contraction
            contracted = centroid - 0.5 * (centroid - simplex[-1])
            fc = call(contracted)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, fc
                continue
        for i in range(1, n + 1):  # shrink toward the best vertex
            if evals >= budget:
                break
            simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
            fvals[i] = call(simplex[i])
    return best_x, best_f, trace, evals


@dataclass
class OptimizationResult:
    orientations: list[tuple[float, float]]
    objective_value: float
    trace: list[tuple[int, float]]
    evaluations: int  # counted against the budget; the baseline is not


def optimize_reference_orientations(
    initial,
    mode_set: ModeSet,
    objective: str = "cond-A",
    budget: int = 2000,
    length: float = 0.5,
    grid: farfield.SphereGrid | None = None,
) -> OptimizationResult:
    """Locally optimize reference-antenna orientations.

    Objectives: "cond-A" or "capacity" (-det(A A^H)) of the modes x
    references matrix A = dipole_coefficient_matrix over mode_set for
    dipoles of the given length; both are scale-free, so the reference
    current and the wavenumber do not enter. The upright dipole is
    decomposed once per run on grid (default: farfield.default_grid); the
    set-up passes its config grid, so the values are those of its A_R.

    The search ranks its points by the addition theorem: with a_i the axis
    of reference i and p_l the upright dipole's power in degree l,
    A^H A = sum_l p_l P_l(a_i . a_j), whose top mode_set.size eigenvalues
    are the squared singular values of A. An evaluation is that Legendre
    series on the axes' Gram matrix and one eigvalsh; the angles float
    freely. The series is taken to monomial coefficients once per run and
    evaluated by Horner's rule, two array steps per degree; for these
    powers it agrees with the Legendre sum to about 1e-15 of its peak. The
    eigenvalues' rounding grows as eps cond(A)^2, about 1e-12 relative at
    cond(A) = 100, so a worse point is scored through
    dipole_coefficient_matrix at its wrapped orientation. At the end the
    best-so-far points are scored the same way, side by side: one
    dipole_coefficient_matrix call builds the A_R of as many points as fit
    in _TRACE_BLOCK orientation x mode entries, and each such stack is
    scored at once. The builder is looked up in this module when called.
    The trace keeps the points whose score beats all before, so it falls
    strictly from the start.

    A centre-fed dipole radiates only odd-degree electric modes, so a
    mode set with a magnetic or even-degree mode leaves A_R singular at
    every orientation: the search is skipped with a warning, and the start
    is returned with its score after zero evaluations.
    """
    orientations = [(float(t), float(p)) for t, p in initial]
    n = len(orientations)
    if n < mode_set.size:
        raise ValueError(f"{n} orientations cannot span {mode_set.size} modes")
    if objective == "cond-A":
        score = lambda m: float(np.linalg.cond(m))
    elif objective == "capacity":
        score = capacity_objective
    else:
        raise ValueError(f"unknown objective {objective!r}")
    # The upright dipole is the same on every evaluation: decompose it once.
    upright = _upright_column(mode_set, length, grid=grid)

    def unpack(x):
        return [wrap_orientation(x[2 * i], x[2 * i + 1]) for i in range(n)]

    def exact(x):
        return score(dipole_coefficient_matrix(unpack(x), mode_set, length, upright=upright))

    x0 = np.array([a for pair in orientations for a in pair], dtype=float)
    if any(family != ELECTRIC or l % 2 == 0 for family, l, _ in mode_set.entries):
        warnings.warn("the mode set has magnetic or even-degree modes, which a centre-fed "
                      "dipole does not radiate: A_R is singular at every orientation, so "
                      "the orientation search is skipped")
        return OptimizationResult(unpack(x0), *nelder_mead(exact, x0, budget=0)[1:])

    # Each of the 2l + 1 rows of degree l carries |c_{l,0}|^2 4 pi / (2l + 1).
    powers = np.bincount([l for _, l, _ in mode_set.entries], abs(upright) ** 2) / (4 * math.pi)
    monomials = np.polynomial.legendre.leg2poly(powers)[::-1]  # highest degree first
    xs = []  # every evaluated point

    def gram(x):
        xs.append(x.copy())
        sin, cos = np.sin(x), np.cos(x)
        axes = np.array([sin[0::2] * cos[1::2], sin[0::2] * sin[1::2], cos[0::2]])
        top = np.linalg.eigvalsh(_horner(monomials, axes.T @ axes))[n - mode_set.size:]
        if not top[0] > _GRAM_RATIO_MIN * top[-1]:  # also a singular or NaN spectrum
            return exact(x)
        return -float(np.prod(top)) if objective == "capacity" else math.sqrt(top[-1] / top[0])

    _, _, trace, evals = nelder_mead(gram, x0, budget=budget)
    kept = [(0, math.inf)]  # the exact trace; xs[0] is the start
    for b in range(0, len(trace), step := max(1, _TRACE_BLOCK // (n * mode_set.size))):
        used = [u for u, _ in trace[b:b + step]]
        a = dipole_coefficient_matrix([o for u in used for o in unpack(xs[u])], mode_set, length,
                                      upright=upright).reshape(-1, len(used), n).swapaxes(0, 1)
        for u, f in zip(used, np.linalg.cond(a) if objective == "cond-A" else map(score, a)):
            if f < kept[-1][1]:
                kept.append((u, float(f)))
    return OptimizationResult(unpack(xs[kept[-1][0]]), kept[-1][1], kept[1:], evals)
