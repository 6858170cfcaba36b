"""Closed-form dipole fields, reference sets and their probe voltages."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multipat import dipole
from multipat.chamber import sample_chamber
from multipat.dipole import (DipoleSpec, axis, dipole_field, grid_field, reference_dipole_set,
                             reference_voltages)
from multipat.farfield import (ETA0, SphereGrid, decompose, default_grid, rms_field_error,
                               synthesize_on_grid)
from multipat.vsh import build_mode_set

K = 2 * np.pi


class TestDipoleField:
    def test_broadside_hand_value(self):
        # z-oriented half-wave dipole: p = -1, g = 0, bracket = 1 at theta = pi/2
        v = dipole_field(DipoleSpec(), np.pi / 2, 0.0, K)
        assert abs(v.e_theta) == pytest.approx(ETA0 * 1.0 * K / (2 * np.pi), rel=1e-14, abs=0.0)
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

    def test_on_axis_point_leaves_off_axis_values_bitwise(self):
        # A grid with no node on the axis skips the limit branch; one on-axis
        # point appended takes it, and every other value keeps its bits.
        spec = DipoleSpec(length=0.8, theta0=0.7, phi0=1.9)
        grid = default_grid(3)
        theta, phi = grid.theta_mesh.ravel(), grid.phi_mesh.ravel()
        alone = dipole_field(spec, theta, phi, K)
        with_axis = dipole_field(spec, np.append(theta, 0.7), np.append(phi, 1.9), K)
        assert abs(with_axis.e_theta[-1]) < 1e-10 * ETA0
        assert abs(with_axis.e_phi[-1]) < 1e-10 * ETA0
        assert with_axis.e_theta[:-1].tobytes() == alone.e_theta.tobytes()
        assert with_axis.e_phi[:-1].tobytes() == alone.e_phi.tobytes()

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_length_refused(self, value):
        with pytest.raises(ValueError, match="length"):
            DipoleSpec(length=value)

    def test_nan_theta0_refused(self):
        with pytest.raises(ValueError, match="theta0"):
            DipoleSpec(theta0=np.nan)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_phi0_refused(self, value):
        with pytest.raises(ValueError, match="phi0"):
            DipoleSpec(phi0=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_current_refused(self, value):
        with pytest.raises(ValueError, match="current"):
            DipoleSpec(current=value)

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
        amplitude = dict(zip(ms.entries, c.values))
        for family, l, m in ms.entries:
            if m <= 0:
                continue
            plus = amplitude[family, l, m]
            minus = amplitude[family, l, -m]
            assert abs(plus) == pytest.approx(abs(minus), rel=1e-10)
            assert minus == pytest.approx((-1) ** m * np.conj(plus), rel=1e-9)


class TestGridField:
    """grid_field: dipole_field on a grid's mesh from the grid's cached trig."""

    GRIDS = [(4, 7), (28, 28), (36, 36)]

    @pytest.mark.parametrize("n_theta, n_phi", GRIDS, ids=["4x7", "28x28", "36x36"])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(theta0=st.floats(0.0, np.pi), phi0=st.floats(0.0, 2 * np.pi),
           length=st.sampled_from([0.5, 1.0, 1.5]), current=st.sampled_from([1.0, -0.7]))
    @example(theta0=0.0, phi0=0.0, length=0.5, current=1.0)
    @example(theta0=np.pi, phi0=0.3, length=1.5, current=1.0)
    @example(theta0=None, phi0=None, length=1.0, current=1.0)  # on a node: the limit branch
    def test_equals_dipole_field_on_the_mesh(self, n_theta, n_phi, theta0, phi0, length,
                                             current):
        grid = SphereGrid(n_theta, n_phi)
        if theta0 is None:
            theta0, phi0 = float(grid.theta[1]), float(grid.phi[2])
        spec = DipoleSpec(length, theta0, phi0, current)
        for _ in range(2):  # building the trig, then reading it
            field = grid_field(spec, grid, K)
            expected = dipole_field(spec, grid.theta_mesh, grid.phi_mesh, K)
            assert np.array_equal(field.e_theta, expected.e_theta)
            assert np.array_equal(field.e_phi, expected.e_phi)

    def test_trig_is_built_on_first_use_and_kept(self):
        grid = SphereGrid(12, 16)
        decompose(DipoleSpec(theta0=0.4).field(K), build_mode_set(3, "odd", "electric"), grid)
        assert "trig" not in vars(grid)  # decompose builds no trig
        grid_field(DipoleSpec(), grid, K)
        trig = grid.trig
        grid_field(DipoleSpec(theta0=1.0), grid, K)
        assert grid.trig is trig
        assert all(t.shape == (12, 16) for t in trig)


def masked_bracket(g, kl):
    """pattern_bracket as it was formed with an on-axis mask at every call."""
    denom = 1.0 - g * g
    on_axis = np.abs(denom) < 1e-8
    numerator = np.cos(0.5 * kl * g) - math.cos(0.5 * kl)
    if not on_axis.any():
        return numerator / denom
    g_safe = np.where(on_axis, g, 1.0)
    limit = (kl / (4.0 * g_safe)) * np.sin(0.5 * kl * g_safe)
    return np.where(on_axis, limit, numerator / np.where(on_axis, 1.0, denom))


class TestPatternBracket:
    """pattern_bracket forms no on-axis mask when no point is near the axis,
    and keeps the bytes of the masked formula for any g."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(g=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(
        [1.0, -1.0, 1.0 - 1e-9, -1.0 + 1e-9, 1.0 - 1e-8, 0.0, 1.0 + 1e-12, math.nan])),
        min_size=0, max_size=12), kl=st.floats(0.05, 20.0))
    @example(g=[0.3, -0.99999999], kl=math.pi)  # 1 - g^2 just above _BRACKET_TOL: no mask
    def test_keeps_the_bytes_of_the_masked_formula(self, g, kl):
        g = np.array(g)
        workspace = {}
        got = dipole.pattern_bracket(g, kl, workspace)
        assert got.tobytes() == masked_bracket(g, kl).tobytes()
        assert set(workspace) == {"dipole.denominator", "dipole.bracket"}


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


class TestBatchedField:
    """reference_voltages: a whole reference set's probe voltages from one
    closed-form pass, one column per reference."""

    ORIENTATIONS = [(0.0, 0.0), (0.7, 1.9), (np.pi / 2, 4.0), (np.pi, 0.3)]

    @pytest.mark.parametrize("current", [0.7, -0.7])
    def test_workspace_gives_the_same_bytes_in_reused_buffers(self, current):
        axes = np.array([axis(spec) for spec in reference_dipole_set(self.ORIENTATIONS)])
        workspace = {}
        for seed in (9, 10):  # the second call refills the first call's buffers
            ch = sample_chamber(seed, 7, 11)
            theta, phi = ch.theta.copy(), ch.phi.copy()
            theta[2, 5], phi[2, 5] = 0.7, 1.9  # on the second axis: the limit branch
            ch = dataclasses.replace(ch, theta=theta, phi=phi)  # retakes the launch trig
            buffers = dict(workspace)
            reused = reference_voltages(axes, 1.0, current, ch, K, workspace)
            fresh = reference_voltages(axes, 1.0, current, ch, K, {})
            assert reused.shape == (7, len(axes)) and reused.flags.c_contiguous
            assert reused.tobytes() == fresh.tobytes()
            assert all(workspace[name] is buffer for name, buffer in buffers.items())
            assert not any(np.shares_memory(reused, b) for b in workspace.values())

    def test_one_element_sequence_keeps_its_axis(self):
        axes = np.array([axis(DipoleSpec())])
        assert reference_voltages(axes, 0.5, 1.0, sample_chamber(0, 3, 2), K, {}).shape == (3, 1)


def batch_of_one_field(spec, theta, phi, k):
    """dipole_field as it was computed when one spec ran as a batch of one:
    the axis a (1, 1, ...) array, every product in the order kept today."""
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    axis = [(math.sin(spec.theta0) * math.cos(spec.phi0),
             math.sin(spec.theta0) * math.sin(spec.phi0), math.cos(spec.theta0))]
    a, b, ct0 = np.array(axis).T.reshape((3, 1) + (1,) * th.ndim)
    st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    g = a * st * cp + b * st * sp + ct0 * ct
    kl = 2.0 * math.pi * spec.length
    denom = 1.0 - g * g
    on_axis = np.abs(denom) < 1e-8
    numerator = np.cos(0.5 * kl * g) - math.cos(0.5 * kl)
    if on_axis.any():
        g_safe = np.where(on_axis, g, 1.0)
        limit = (kl / (4.0 * g_safe)) * np.sin(0.5 * kl * g_safe)
        bracket = np.where(on_axis, limit, numerator / np.where(on_axis, 1.0, denom))
    else:
        bracket = numerator / denom
    amp = -1j * ETA0 * spec.current * k / (2.0 * math.pi)
    p = a * ct * cp + b * ct * sp - ct0 * st
    q = b * cp - a * sp
    return (amp * p * bracket)[0], (amp * q * bracket)[0]


class TestPerAntennaBytes:
    """One antenna's field, the per-antenna measurement path, keeps the
    bytes of the batch-of-one formula it replaced."""

    SPECS = [DipoleSpec(), DipoleSpec(1.0, 0.7, 1.9, -1.0), DipoleSpec(1.5, np.pi, 0.3, 0.7),
             DipoleSpec(0.8, 2.2, 5.9, 2.5)]

    @pytest.mark.parametrize("spec", SPECS, ids=["upright", "tilted", "pole", "long"])
    def test_grid_and_launch_directions(self, spec):
        grid = default_grid(5)
        paper, highorder = sample_chamber(77, 10, 10), sample_chamber(16, 42, 42)
        # the grid, each chamber's launch directions, and one point on the axis
        points = [(grid.theta_mesh, grid.phi_mesh), (paper.theta, paper.phi),
                  (highorder.theta, highorder.phi),
                  (np.append(paper.theta, spec.theta0), np.append(paper.phi, spec.phi0))]
        for theta, phi in points:
            field = dipole_field(spec, theta, phi, K)
            e_theta, e_phi = batch_of_one_field(spec, theta, phi, K)
            assert field.e_theta.tobytes() == e_theta.tobytes()
            assert field.e_phi.tobytes() == e_phi.tobytes()

    def test_scalar_point_gives_complex_components(self):
        spec = self.SPECS[1]
        field = dipole_field(spec, 1.1, 0.4, K)
        e_theta, e_phi = batch_of_one_field(spec, np.array([1.1]), np.array([0.4]), K)
        assert type(field.e_theta) is complex and type(field.e_phi) is complex
        assert field.e_theta == e_theta[0] and field.e_phi == e_phi[0]
