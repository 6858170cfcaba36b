"""Vector harmonics: hand values, a finite-difference oracle, orthonormality."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lpmv, sph_harm_y

from multipat.farfield import default_grid
from multipat.vsh import (
    ModeEntry,
    build_mode_set,
    mode_components,
    r_cross_x,
    spherical_harmonics,
    vsh_x,
)


def sph_harm(mode, theta, phi):
    """Orthonormal Y_{l,m} from scipy's lpmv (Condon-Shortley phase included)."""
    l, m = mode
    if m < 0:
        return (-1) ** m * np.conj(sph_harm((l, -m), theta, phi))
    norm = math.sqrt((2 * l + 1) / (4 * math.pi) * math.factorial(l - m) / math.factorial(l + m))
    return norm * lpmv(m, l, np.cos(theta)) * np.exp(1j * m * phi)


def surface_rotated_gradient(l, m, theta, phi, h=1e-6):
    """-(j/sqrt(l(l+1))) r x grad Y by central differences on the sphere."""
    n = np.sqrt(l * (l + 1))
    d_theta = (sph_harm((l, m), theta + h, phi) - sph_harm((l, m), theta - h, phi)) / (2 * h)
    d_phi = (sph_harm((l, m), theta, phi + h) - sph_harm((l, m), theta, phi - h)) / (2 * h)
    # r x grad Y = phi_hat dY/dtheta - theta_hat (1/sin) dY/dphi
    e_theta = -1j * (-d_phi / np.sin(theta)) / n
    e_phi = -1j * d_theta / n
    return e_theta, e_phi


class TestVshX:
    def test_hand_value_dipole_mode(self):
        v = vsh_x((1, 0), np.pi / 2, 0.0)
        assert abs(v.e_theta) < 1e-15
        assert v.e_phi == pytest.approx(1j * np.sqrt(3 / (8 * np.pi)), rel=1e-13, abs=0.0)

    def test_finite_difference_oracle(self):
        for mode in [(2, 2), (3, 1), (4, -2), (5, 0), (1, -1), (10, 7), (15, -4)]:
            v = vsh_x(mode, 1.0, 0.5)
            et, ep = surface_rotated_gradient(*mode, 1.0, 0.5)
            assert v.e_theta == pytest.approx(et, abs=5e-9)
            assert v.e_phi == pytest.approx(ep, abs=5e-9)

    def test_polar_limit_is_finite(self):
        v = vsh_x((1, 1), 0.0, 0.0)
        assert np.isfinite(v.e_theta) and np.isfinite(v.e_phi)
        assert abs(v.e_theta) > 0.1  # |m| = 1 modes stay nonzero at the pole

    def test_pole_guard_matches_near_pole_values(self):
        for mode in [(1, 1), (2, -1), (3, 1), (3, 2), (4, 0)]:
            for pole in (0.0, np.pi):
                guard = vsh_x(mode, pole, 0.3)
                near = vsh_x(mode, abs(pole - 5e-6), 0.3) if pole == 0.0 else vsh_x(
                    mode, np.pi - 5e-6, 0.3
                )
                assert abs(guard.e_theta - near.e_theta) < 1e-4
                assert abs(guard.e_phi - near.e_phi) < 1e-4

    def test_regular_next_to_the_pole(self):
        theta = 5e-7
        v = vsh_x((1, 0), theta, 0.3)
        expected = 1j * math.sqrt(3 / (8 * math.pi)) * math.sin(theta)
        assert v.e_phi == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert v.e_theta == 0

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(0.0, math.pi), min_size=1, max_size=6).map(
            lambda ts: [0.0, math.pi] + ts
        ),
        st.floats(0.0, 2 * math.pi),
    )
    def test_unsold_identity_to_degree_160(self, thetas, phi):
        # sum_m |X_{l,m}|^2 = (2l+1)/(4 pi) at every point, poles included.
        ms = build_mode_set(160, multipole="magnetic")
        bt, bp = mode_components(ms.entries, np.array(thetas), np.full(len(thetas), phi))
        degrees = np.array([e.l for e in ms.entries])
        sums = np.zeros((161, len(thetas)))
        np.add.at(sums, degrees, np.abs(bt) ** 2 + np.abs(bp) ** 2)
        expected = (2 * np.arange(1, 161) + 1) / (4 * math.pi)
        np.testing.assert_allclose(sums[1:], np.broadcast_to(expected[:, None], sums[1:].shape), rtol=1e-12)

    def test_rejects_monopole(self):
        with pytest.raises(ValueError):
            vsh_x((0, 0), 0.3, 0.4)


class TestRCrossX:
    def test_is_tangent_plane_rotation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            l = int(rng.integers(1, 6))
            m = int(rng.integers(-l, l + 1))
            theta = rng.uniform(0.05, np.pi - 0.05)
            phi = rng.uniform(0, 2 * np.pi)
            x = vsh_x((l, m), theta, phi)
            r = r_cross_x((l, m), theta, phi)
            assert r.e_theta == pytest.approx(-x.e_phi, rel=1e-14, abs=1e-16)
            assert r.e_phi == pytest.approx(x.e_theta, rel=1e-14, abs=1e-16)

    def test_hand_value_dipole_mode(self):
        r = r_cross_x((1, 0), np.pi / 2, 0.0)
        assert abs(r.e_theta) == pytest.approx(np.sqrt(3 / (8 * np.pi)), rel=1e-13, abs=0.0)
        assert abs(r.e_phi) < 1e-15

    def test_magnitude_preserved(self):
        x = vsh_x((3, 1), 0.9, 2.0)
        r = r_cross_x((3, 1), 0.9, 2.0)
        assert x.magnitude() == pytest.approx(r.magnitude(), rel=1e-14, abs=0.0)


class TestModeComponents:
    def test_matches_single_mode_views(self):
        ms = build_mode_set(4)
        theta = np.array([0.0, 0.4, 1.3, 2.9, np.pi])
        phi = np.array([0.2, 5.1, 1.0, 3.3, 0.7])
        bt, bp = mode_components(ms.entries, theta, phi)
        for q, (family, l, m) in enumerate(ms.entries):
            view = vsh_x if family == "M" else r_cross_x
            v = view((l, m), theta, phi)
            np.testing.assert_array_equal(bt[q], v.e_theta)
            np.testing.assert_array_equal(bp[q], v.e_phi)


class TestSphericalHarmonics:
    def test_matches_scipy_to_degree_30(self):
        rng = np.random.default_rng(4)
        theta = np.concatenate([[0.0, np.pi, 1e-9, np.pi - 1e-9], rng.uniform(0, np.pi, 60)])
        phi = rng.uniform(0, 2 * np.pi, theta.size)
        modes = [("E", l, m) for l in range(31) for m in range(-l, l + 1)]
        ours = spherical_harmonics(modes, theta, phi)
        ref = np.array([sph_harm_y(l, m, theta, phi) for _, l, m in modes])
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)


class TestModeSet:
    def test_single_index_table(self):
        ms = build_mode_set(3, "odd", "electric")
        assert ms.size == 10
        expected = [
            (1, -1), (1, 0), (1, 1),
            (3, -3), (3, -2), (3, -1), (3, 0), (3, 1), (3, 2), (3, 3),
        ]
        assert [(e.l, e.m) for e in ms.entries] == expected
        assert all(e.family == "E" for e in ms.entries)

    def test_full_set_sizes(self):
        assert build_mode_set(2).size == 16
        assert build_mode_set(4).size == 48

    def test_electric_block_precedes_magnetic(self):
        ms = build_mode_set(2)
        families = [e.family for e in ms.entries]
        assert families == ["E"] * 8 + ["M"] * 8

    def test_no_monopole(self):
        assert all(e.l >= 1 for e in build_mode_set(5).entries)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_mode_set(0)
        with pytest.raises(ValueError):
            build_mode_set(2, parity="prime")
        with pytest.raises(ValueError):
            build_mode_set(2, multipole="scalar")

    def test_index_lookup(self):
        ms = build_mode_set(3, "odd", "electric")
        assert ms.entries.index(ModeEntry("E", 3, -3)) == 3


@pytest.fixture(scope="module")
def gram_matrices():
    ms = build_mode_set(5, multipole="electric")
    modes = [(e.l, e.m) for e in ms.entries]
    grid = default_grid(5)
    t = grid.theta_mesh.ravel()
    p = grid.phi_mesh.ravel()
    w = grid.solid_angle_weights.ravel()
    xs = np.array([np.stack(
        [vsh_x(mode, t, p).e_theta, vsh_x(mode, t, p).e_phi]) for mode in modes])
    rs = np.array([np.stack(
        [r_cross_x(mode, t, p).e_theta, r_cross_x(mode, t, p).e_phi]) for mode in modes])

    def gram(a, b):
        return np.einsum("ick,jck,k->ij", a.conj(), b, w)

    return gram(xs, xs), gram(xs, rs), gram(rs, rs)


class TestOrthonormality:
    def test_x_orthonormal(self, gram_matrices):
        xx, _, _ = gram_matrices
        assert np.max(np.abs(xx - np.eye(xx.shape[0]))) < 1e-10

    def test_cross_family_orthogonal(self, gram_matrices):
        _, xr, _ = gram_matrices
        assert np.max(np.abs(xr)) < 1e-10

    def test_rotated_family_orthonormal(self, gram_matrices):
        _, _, rr = gram_matrices
        assert np.max(np.abs(rr - np.eye(rr.shape[0]))) < 1e-10
