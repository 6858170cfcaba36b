"""The peak search against numpy references of its mesh and its loops.

The reference mesh is the earlier coarse mesh, one zero-padded real
inverse FFT of 360 points per theta row with the harmonics past 180 folded
onto 360 - M. The reference loops carry the point, the tangent frame, the
gradient, the Hessian and the step as numpy arrays and take the principal
axes from np.linalg.eigh. The exact loop is the coefficient route's:
derivatives of E summed mode by mode with einsum, the chain rule as
J^T H J plus the second derivatives of the angles, and at a pole the
Hessian solved from three meridians. The current code runs it in Python
floats with a closed-form 2x2 eigensystem, so it agrees with its reference
to rounding.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from multipat import cli, farfield, fileio
from multipat.dipole import DipoleSpec
from multipat.farfield import (
    _COARSE_PHI,
    _COARSE_THETA,
    _CURVATURE_LIFT,
    _NEWTON_MAX_ITER,
    _NEWTON_STEP_TOL,
    _PEAK_REL_TOL,
    _POLE_SIN,
    ConvergenceWarning,
    _coarse_magnitude_squared,
    _order_sums,
    _theta_fourier,
    directivity,
    mode_basis,
    synthesize,
)
from multipat.vsh import MULTIPOLE_FILTERS, PARITY_FILTERS, ModeSet, build_mode_set
from test_cli import HIGHORDER_LSE_CONFIG
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
    bt, bp = mode_basis(ms, theta, np.zeros_like(theta))
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


def _angles(x):
    return np.arctan2(np.hypot(x[..., 0], x[..., 1]), x[..., 2]), np.arctan2(x[..., 1], x[..., 0])


def _tangent_frame(x):
    theta, phi = _angles(x)
    ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    return np.array([ct * cp, ct * sp, -st]), np.array([-sp, cp, 0.0])


def _chart(x, e_t, e_p, offsets):
    pts = x + offsets[:, :1] * e_t + offsets[:, 1:] * e_p
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def coefficient_eval_sq(coeffs):
    def eval_sq(t, p):
        f = synthesize(coeffs, t, p)
        return np.abs(f.e_theta) ** 2 + np.abs(f.e_phi) ** 2

    return eval_sq


def reference_field_derivatives(coeffs, theta, phis):
    """d[i, a, b, c]: the a-th theta and b-th phi derivative, a + b <= 2, of
    component c of E at (theta, phis[i]), summed mode by mode over the
    theta-Fourier table."""
    table = _theta_fourier(coeffs.mode_set)[1].reshape(coeffs.mode_set.size, 2, -1)
    degree = (table.shape[-1] - 1) // 2
    jp = 1j * np.arange(-degree, degree + 1)
    jm = 1j * np.array([e.m for e in coeffs.mode_set.entries])
    d = np.zeros((len(phis), 3, 3, 2), dtype=complex)
    for a in range(3):
        for b in range(3 - a):
            d[:, a, b] = np.einsum("q,qcp,p,iq->ic", coeffs.values, table,
                                   jp**a * np.exp(jp * theta), jm**b * np.exp(np.outer(phis, jm)))
    return d


def _re_dot(a, b):
    return float(np.sum(np.real(np.conj(a) * b)))


def reference_exact_model(coeffs, theta, phi):
    """|E|^2 at (theta, phi), and its gradient and Hessian in the gnomonic
    chart there (at a pole, carried over from the pole), Hessian lifted by
    _CURVATURE_LIFT."""
    s, c = math.sin(theta), math.cos(theta)
    if s < _POLE_SIN:
        pole, sign = (0.0, 1.0) if c > 0.0 else (math.pi, -1.0)
        alpha = np.array([0.0, 0.5 * math.pi, 0.25 * math.pi])  # the chart directions
        d = reference_field_derivatives(coeffs, pole, phi + sign * alpha)
        e, e1, e2 = d[:, 0, 0], d[:, 1, 0], d[:, 2, 0]
        first = [2.0 * _re_dot(e[i], e1[i]) for i in range(3)]
        second = [2.0 * (_re_dot(e1[i], e1[i]) + _re_dot(e[i], e2[i])) for i in range(3)]
        cos, sin = np.cos(alpha), np.sin(alpha)
        quad = np.stack([cos**2, 2.0 * cos * sin, sin**2], axis=1)  # f'' along (cos, sin) in u, v
        uu, uv, vv = np.linalg.solve(quad, second)
        hess = np.array([[uu, uv], [uv, vv]])
        shift = np.array([theta - pole, 0.0])
        value = _re_dot(e[0], e[0]) + first[0] * shift[0] + 0.5 * uu * shift[0] ** 2
        grad = np.array(first[:2]) + hess @ shift
    else:
        d = reference_field_derivatives(coeffs, theta, [phi])[0]
        e = d[0, 0]
        value = _re_dot(e, e)
        sph_grad = np.array([2.0 * _re_dot(e, d[1, 0]), 2.0 * _re_dot(e, d[0, 1])])
        cross = _re_dot(d[1, 0], d[0, 1]) + _re_dot(e, d[1, 1])
        sph_hess = 2.0 * np.array([
            [_re_dot(d[1, 0], d[1, 0]) + _re_dot(e, d[2, 0]), cross],
            [cross, _re_dot(d[0, 1], d[0, 1]) + _re_dot(e, d[0, 2])],
        ])
        jac = np.diag([1.0, 1.0 / s])  # d(theta, phi) / d(u, v) at the chart's origin
        # The second derivatives of theta and of phi in u, v.
        theta_uv = np.array([[0.0, 0.0], [0.0, c / s]])
        phi_uv = np.array([[0.0, -c / s**2], [-c / s**2, 0.0]])
        grad = jac @ sph_grad
        hess = jac @ sph_hess @ jac + sph_grad[0] * theta_uv + sph_grad[1] * phi_uv
    hess = hess + _CURVATURE_LIFT * (abs(hess[0, 0]) + abs(hess[1, 1])) * np.eye(2)
    return value, grad, hess


def reference_exact_peak(coeffs, coarse):
    """The coefficient route's search: (peak, (theta, phi))."""
    i, j = np.unravel_index(np.argmax(coarse), coarse.shape)
    best = float(coarse[i, j])
    if not math.isfinite(best):
        raise ValueError("peak search: the pattern is not finite on the 1-degree mesh")
    t0, p0 = float(_COARSE_THETA[i, j]), float(_COARSE_PHI[i, j])
    best_at = (t0, p0)
    x = np.array([math.sin(t0) * math.cos(p0), math.sin(t0) * math.sin(p0), math.cos(t0)])
    h = float(_COARSE_THETA[1, 0] - _COARSE_THETA[0, 0])
    for step in range(_NEWTON_MAX_ITER):
        e_t, e_p = _tangent_frame(x)
        at = tuple(float(a) for a in _angles(x))
        value, grad, hess = reference_exact_model(coeffs, *at)
        gained = value > best * (1.0 + _PEAK_REL_TOL)
        if value > best:
            best, best_at = value, at
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
        elif (concave.all() and length < 1e-3 and value == best
              and 0.5 * slope @ along <= _PEAK_REL_TOL * best):
            return best + 0.5 * slope @ along, _angles(_chart(x, e_t, e_p, s[None, :])[0])
        if step and not gained and length < _NEWTON_STEP_TOL:
            return best, best_at
        x = _chart(x, e_t, e_p, s[None, :])[0]
        h = min(h, max(length, 1e-3 * h))
    warnings.warn("peak search hit its iteration cap", ConvergenceWarning, stacklevel=2)
    return best, best_at


def assert_same_peak(coeffs):
    """directivity() against the exact loop's reference from the reference
    mesh, to 1e-14 relative."""
    coarse = reference_coarse_magnitude_squared(coeffs)
    eval_sq = coefficient_eval_sq(coeffs)
    total = float(np.sum(np.abs(coeffs.values) ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = directivity(coeffs, K)
        _, at = reference_exact_peak(coeffs, coarse)
    assert d == pytest.approx(4.0 * math.pi * float(eval_sq(*at)) / total, rel=1e-14, abs=0.0)


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
    mesh = _coarse_magnitude_squared(_order_sums(c))
    expected = reference_coarse_magnitude_squared(c)
    np.testing.assert_allclose(mesh, expected[: mesh.shape[0]], rtol=0,
                               atol=1e-13 * expected.max())


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


def test_elongated_highorder_lse_peak_converges():
    # On highorder-lse at (130, 300) degrees the peak's curvatures are about
    # -4.4e6 and -2.4e3. Its last Newton step, about 9e-6 rad, predicts a
    # gain below _PEAK_REL_TOL and is taken with no model call; a search that
    # stops without it leaves D 8.4e-14 of D short of the polished maximum.
    cfg = fileio.parse_config(HIGHORDER_LSE_CONFIG)
    setup = cli.build_setup(cfg)
    spec = DipoleSpec(cfg.test_length, math.radians(130.0), math.radians(300.0), cfg.test_current)
    coeffs = cli._reconstruct_test(setup, spec)[0].coefficients
    sums = _order_sums(coeffs)
    _, at = farfield._max_magnitude_squared(farfield._exact_model(sums),
                                            _coarse_magnitude_squared(sums))

    def neg_mag_sq(x):
        return -synthesize(coeffs, x[0], x[1]).magnitude() ** 2

    simplex = np.array(at) + np.array([[0.0, 0.0], [1e-6, 0.0], [0.0, 1e-6]])
    res = minimize(neg_mag_sq, at, method="Nelder-Mead",
                   options={"xatol": 1e-13, "fatol": 0.0, "initial_simplex": simplex})
    total = float(np.sum(np.abs(coeffs.values) ** 2))
    polished = 4.0 * math.pi * max(-res.fun, -neg_mag_sq(at)) / total
    assert directivity(coeffs, K) == pytest.approx(polished, rel=1e-15, abs=0.0)


def test_at_most_three_model_calls_per_peak_on_the_paper_sweep(paper_setup, monkeypatch):
    # The paper config's 10-degree sweep grid, 684 orientations: the last
    # Newton step needs no confirming model call, so no peak takes more than
    # three, and most take two.
    calls = []
    model_of = farfield._exact_model

    def counted(sums):
        model = model_of(sums)
        calls.append(0)

        def step(x, frame):
            calls[-1] += 1
            return model(x, frame)

        return step

    monkeypatch.setattr(farfield, "_exact_model", counted)
    cfg = paper_setup.config
    theta0s, phi0s = cli._sweep_grid(math.radians(10.0))
    for theta0 in theta0s:
        for phi0 in phi0s:
            spec = DipoleSpec(cfg.test_length, float(theta0), float(phi0), cfg.test_current)
            cli._reconstruct_test(paper_setup, spec)
    assert len(calls) == 684 and max(calls) <= 3
    assert sum(calls) < 2.2 * len(calls)
