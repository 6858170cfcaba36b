"""Closed-form dipole fields and reference sets."""
import numpy as np
import pytest

from multipat.dipole import DipoleSpec, dipole_field, reference_dipole_set
from multipat.farfield import ETA0, decompose, default_grid, rms_field_error, synthesize_on_grid
from multipat.vsh import build_mode_set

K = 2 * np.pi


class TestDipoleField:
    def test_broadside_hand_value(self):
        # z-oriented half-wave dipole: p = -1, g = 0, bracket = 1 at theta = pi/2
        v = dipole_field(DipoleSpec(), np.pi / 2, 0.0, K)
        assert abs(v.e_theta) == pytest.approx(ETA0 * 1.0 * K / (2 * np.pi), rel=1e-14)
        assert v.e_phi == 0.0

    def test_null_along_axis(self):
        v = dipole_field(DipoleSpec(), 0.0, 0.0, K)
        assert v.e_theta == 0.0 and v.e_phi == 0.0
        tilted = DipoleSpec(theta0=np.pi / 2, phi0=0.0)
        v = dipole_field(tilted, np.pi / 2, 0.0, K)
        assert abs(v.e_theta) < 1e-12 and abs(v.e_phi) < 1e-12

    def test_null_along_axis_many_orientations(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            t0 = rng.uniform(0, np.pi)
            p0 = rng.uniform(0, 2 * np.pi)
            spec = DipoleSpec(theta0=t0, phi0=p0)
            v = dipole_field(spec, t0, p0, K)
            assert np.hypot(abs(v.e_theta), abs(v.e_phi)) < 1e-10 * ETA0

    def test_antipodal_axis_same_magnitude(self):
        grid = default_grid(3)
        a = DipoleSpec(theta0=0.7, phi0=1.9)
        b = DipoleSpec(theta0=np.pi - 0.7, phi0=(1.9 + np.pi) % (2 * np.pi))
        fa = dipole_field(a, grid.theta_mesh, grid.phi_mesh, K)
        fb = dipole_field(b, grid.theta_mesh, grid.phi_mesh, K)
        np.testing.assert_allclose(fa.magnitude(), fb.magnitude(), atol=1e-9)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            DipoleSpec(length=0.0)
        with pytest.raises(ValueError):
            DipoleSpec(theta0=4.0)

    def test_band_limited_reconstruction_error(self):
        # 10-mode expansion reproduces any half-wave dipole to < 1e-3 RMS
        ms = build_mode_set(3, "odd", "electric")
        grid = default_grid(3)
        for t0, p0 in [(0.0, 0.0), (np.pi / 4, np.pi / 4), (1.3, 5.1)]:
            spec = DipoleSpec(theta0=t0, phi0=p0)
            c = decompose(spec.field(K), ms, grid)
            exact = spec.field(K)(grid.theta_mesh, grid.phi_mesh)
            approx = synthesize_on_grid(c, grid)
            assert rms_field_error(exact.magnitude(), approx.magnitude()) < 1e-3

    def test_coefficient_conjugation_structure(self):
        # +-m amplitudes share magnitude but differ in phase
        ms = build_mode_set(3, "odd", "electric")
        c = decompose(DipoleSpec(theta0=np.pi / 4, phi0=np.pi / 4).field(K), ms)
        for family, l, m in ms.entries:
            if m <= 0:
                continue
            plus = c.get(family, l, m)
            minus = c.get(family, l, -m)
            assert abs(plus) == pytest.approx(abs(minus), rel=1e-10)
            assert minus == pytest.approx((-1) ** m * np.conj(plus), rel=1e-9)


class TestReferenceSet:
    def test_orthogonal_triple(self):
        specs = reference_dipole_set([(0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)])
        assert len(specs) == 3
        assert all(s.length == 0.5 and s.current == 1.0 for s in specs)
        assert specs[1].theta0 == pytest.approx(np.pi / 2)

    def test_empty(self):
        assert reference_dipole_set([]) == []

    def test_shared_feed_normalization(self):
        specs = reference_dipole_set([(0.1, 0.2), (0.3, 0.4)], length=0.5, current=0.7)
        assert {s.current for s in specs} == {0.7}
