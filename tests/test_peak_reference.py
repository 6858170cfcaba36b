"""The peak search against the implementation it replaced.

The reference below is the earlier coarse mesh, one zero-padded real
inverse FFT of 360 points per theta row with the harmonics past 180 folded
onto 360 - M, and the earlier Newton loop, which carried the point, the
tangent frame, the gradient, the Hessian and the step as numpy arrays and
took the principal axes from np.linalg.eigh. The current code evaluates
the mesh from a cached cos/sin table and runs the same loop in Python
floats with a closed-form 2x2 eigensystem, so the two agree to rounding.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipat import cli, farfield
from multipat.dipole import DipoleSpec
from multipat.farfield import (
    _COARSE_PHI,
    _COARSE_THETA,
    _NEWTON_MAX_ITER,
    _NEWTON_STEP_TOL,
    _PEAK_REL_TOL,
    ConvergenceWarning,
    _coarse_basis,
    _coarse_magnitude_squared,
    _max_magnitude_squared,
    default_grid,
    directivity,
    field_radiation_summary,
    synthesize,
)
from multipat.vsh import MULTIPOLE_FILTERS, PARITY_FILTERS, ModeSet, build_mode_set
from test_farfield import random_coefficients

K = 2 * np.pi


def reference_coarse_magnitude_squared(coeffs):
    ms = coeffs.mode_set
    theta = _COARSE_THETA[:, 0]
    n_phi = _COARSE_THETA.shape[1]
    half = n_phi // 2
    orders = np.array([e.m for e in ms.entries])
    m_max = int(np.abs(orders).max())
    if 2 * m_max >= n_phi:
        raise ValueError(f"order {m_max} aliases on the {n_phi}-column mesh")
    bt, bp = _coarse_basis(ms)
    weights = np.zeros((2 * m_max + 1, ms.size), dtype=complex)
    weights[orders + m_max, np.arange(ms.size)] = coeffs.values
    g = np.concatenate([weights @ bt, weights @ bp], axis=1)
    gc = g.conj()
    spectrum = np.zeros((theta.size, half + 1), dtype=complex)
    for lag in range(2 * m_max + 1):
        h = (g[lag:] * gc[: g.shape[0] - lag]).sum(axis=0)
        h = h[: theta.size] + h[theta.size :]
        if lag <= half:
            spectrum[:, lag] += h
        if lag >= half:
            spectrum[:, n_phi - lag] += h.conj()
    return np.fft.irfft(spectrum, n=n_phi, norm="forward")


_STENCIL = np.array([(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)])


def _angles(x):
    return np.arccos(np.clip(x[..., 2], -1.0, 1.0)), np.arctan2(x[..., 1], x[..., 0])


def _tangent_frame(x):
    theta, phi = _angles(x)
    ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    return np.array([ct * cp, ct * sp, -st]), np.array([-sp, cp, 0.0])


def _chart(x, e_t, e_p, offsets):
    pts = x + offsets[:, :1] * e_t + offsets[:, 1:] * e_p
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def reference_max_magnitude_squared(eval_sq, coarse):
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
        gained = f.max() > best * (1.0 + _PEAK_REL_TOL)
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
        along = np.where(np.abs(slope) * h > _PEAK_REL_TOL * best, np.sign(slope) * h, 0.0)
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
        h = min(h, max(length, 1e-3 * h))
    warnings.warn("peak search hit its iteration cap", ConvergenceWarning, stacklevel=2)
    return best


def counted(eval_sq):
    """eval_sq and the list of the sizes of the point sets it was called on."""
    calls = []

    def wrapped(t, p):
        calls.append(np.size(t))
        return eval_sq(t, p)

    return wrapped, calls


def coefficient_eval_sq(coeffs):
    def eval_sq(t, p):
        f = synthesize(coeffs, t, p)
        return np.abs(f.e_theta) ** 2 + np.abs(f.e_phi) ** 2

    return eval_sq


def assert_same_peak(coeffs):
    """Both loops from the same mesh: the same peak to 1e-14 relative after
    the same number of 9-point calls; and directivity() against the
    reference mesh and loop."""
    coarse = _coarse_magnitude_squared(coeffs)
    ours, our_calls = counted(coefficient_eval_sq(coeffs))
    theirs, their_calls = counted(coefficient_eval_sq(coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        peak = _max_magnitude_squared(ours, coarse)
        expected = reference_max_magnitude_squared(theirs, coarse)
    assert peak == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert our_calls == their_calls and set(our_calls) == {9}
    total = float(np.sum(np.abs(coeffs.values) ** 2))
    reference_d = 4.0 * math.pi * reference_max_magnitude_squared(
        coefficient_eval_sq(coeffs), reference_coarse_magnitude_squared(coeffs)
    ) / total
    assert directivity(coeffs, K) == pytest.approx(reference_d, rel=1e-14, abs=0.0)


filtered_sets = st.tuples(
    st.integers(1, 12),
    st.sampled_from(PARITY_FILTERS),
    st.sampled_from(MULTIPOLE_FILTERS),
    st.sampled_from([1.0, 0.4]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(filtered_sets)
def test_mesh_matches_the_fft_reference(params):
    lambda_max, parity, multipole, keep, seed = params
    rng = np.random.default_rng(seed)
    # With keep < 1 random modes are dropped, so whole orders m may be missing.
    entries = tuple(
        e for e in build_mode_set(lambda_max, parity, multipole).entries if rng.random() < keep
    )
    if not entries:
        return
    c = random_coefficients(ModeSet(lambda_max, parity, multipole, entries), rng)
    mesh = _coarse_magnitude_squared(c)
    expected = reference_coarse_magnitude_squared(c)
    np.testing.assert_allclose(mesh, expected, rtol=0, atol=1e-13 * expected.max())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 5),
    st.sampled_from(PARITY_FILTERS),
    st.sampled_from(MULTIPOLE_FILTERS),
    st.integers(0, 2**32 - 1),
)
def test_peak_matches_the_numpy_reference(lambda_max, parity, multipole, seed):
    ms = build_mode_set(lambda_max, parity, multipole)
    if ms.size == 0:
        return
    assert_same_peak(random_coefficients(ms, np.random.default_rng(seed)))


def test_peak_matches_the_numpy_reference_on_the_paper_design(paper_setup):
    # The 16-antenna Fibonacci design over the sphere, reconstructed on the
    # paper config: tilted half-wave dipoles, whose peak is a ring-shaped ridge.
    cfg = paper_setup.config
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for i in range(16):
        theta0, phi0 = math.acos(1.0 - (2 * i + 1) / 16), (i * golden) % (2.0 * math.pi)
        spec = DipoleSpec(cfg.test_length, theta0, phi0, cfg.test_current)
        assert_same_peak(cli._reconstruct_test(paper_setup, spec)[0].coefficients)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.floats(0.05, 2.0), st.floats(0.01, 100.0))
def test_field_route_matches_the_numpy_reference(length, current):
    # The set-up's theory summary: the upright dipole's field callable.
    field = DipoleSpec(length, 0.0, 0.0, current).field(K)
    grid = default_grid(3)
    summary = field_radiation_summary(field, grid, K, current)

    def eval_sq(t, p):
        f = field(np.asarray(t, dtype=float), np.asarray(p, dtype=float))
        return np.abs(f.e_theta) ** 2 + np.abs(f.e_phi) ** 2

    sampled = field(grid.theta_mesh, grid.phi_mesh)
    total = float(grid.integrate(np.abs(sampled.e_theta) ** 2 + np.abs(sampled.e_phi) ** 2))
    peak = reference_max_magnitude_squared(eval_sq, eval_sq(_COARSE_THETA, _COARSE_PHI))
    assert summary.power == total / (2.0 * farfield.ETA0 * K * K)
    assert summary.directivity == pytest.approx(4.0 * math.pi * peak / total, rel=1e-14, abs=0.0)
