"""Multipath chamber model: determinism, voltage law, analytic channel."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multipat.chamber import ChamberModel, analytic_channel, probe_voltages, sample_chamber, select_chamber
from multipat.dipole import DipoleSpec, axis, grid_field, reference_dipole_set
from multipat.farfield import VshCoefficients, decompose, default_grid, synthesize
from multipat.vsh import TangentVector, build_mode_set

K = 2 * np.pi


def single_path_chamber(theta, phi, alpha=0.0, rho=1.0 + 0j):
    return ChamberModel(
        n_probes=1,
        n_paths=1,
        sigma_rho=1.0,
        seed=0,
        rho=np.array([[rho]]),
        theta=np.array([[theta]]),
        phi=np.array([[phi]]),
        alpha=np.array([[alpha]]),
    )


class TestSampleChamber:
    def test_deterministic(self):
        a = sample_chamber(42, 10, 10, 0.001)
        b = sample_chamber(42, 10, 10, 0.001)
        np.testing.assert_array_equal(a.rho, b.rho)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_seeds_differ(self):
        a = sample_chamber(1, 4, 4)
        b = sample_chamber(2, 4, 4)
        assert np.any(a.rho != b.rho)

    def test_distribution_ranges(self):
        ch = sample_chamber(3, 40, 40, 0.001)
        assert ch.theta.min() > 0 and ch.theta.max() < np.pi
        assert ch.phi.min() >= 0 and ch.phi.max() < 2 * np.pi
        assert ch.alpha.min() >= 0 and ch.alpha.max() < 2 * np.pi
        assert abs(np.std(ch.rho.real) - 0.001) < 3e-4
        assert abs(np.mean(ch.rho.real)) < 1e-4

    def test_launch_trig_is_numpy_trig_of_the_launch_angles(self):
        ch = sample_chamber(12, 5, 9)
        expected = (np.sin(ch.theta), np.cos(ch.theta), np.sin(ch.phi), np.cos(ch.phi))
        assert len(ch.trig) == 4
        assert all(np.array_equal(got, want) for got, want in zip(ch.trig, expected))

    @pytest.mark.parametrize("name", ["theta", "phi", "alpha", "cos_alpha", "sin_alpha",
                                      "trig"])
    def test_angles_and_their_trig_are_read_only(self, name):
        # The trig is taken once, when the model is built: an in-place write
        # to an angle would leave it stale, so every one of them refuses it.
        ch = sample_chamber(4, 3, 5)
        for arr in (getattr(ch, name) if name == "trig" else [getattr(ch, name)]):
            with pytest.raises(ValueError, match="read-only"):
                arr[1, 2] = 0.25
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0

    def test_replace_builds_a_consistent_model(self):
        ch = sample_chamber(4, 3, 5)
        theta, alpha = ch.theta.copy(), ch.alpha.copy()
        theta[1, 2], alpha[0, 4] = 0.25, 1.5
        moved = dataclasses.replace(ch, theta=theta, alpha=alpha)
        assert np.array_equal(moved.theta, theta) and np.array_equal(moved.phi, ch.phi)
        expected = (np.sin(theta), np.cos(theta), np.sin(ch.phi), np.cos(ch.phi))
        assert all(np.array_equal(got, want) for got, want in zip(moved.trig, expected))
        assert np.array_equal(moved.cos_alpha, np.cos(alpha))
        assert np.array_equal(moved.sin_alpha, np.sin(alpha))
        assert not np.array_equal(ch.trig[0], moved.trig[0])  # the original keeps its own
        assert not moved.theta.flags.writeable and not moved.trig[0].flags.writeable

    def test_over_provisioned_shape(self):
        ch = sample_chamber(5, 12, 20, 0.001)
        assert ch.rho.shape == (12, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_chamber(0, 0, 5)
        with pytest.raises(ValueError):
            sample_chamber(0, 5, 5, sigma_rho=0.0)

    @pytest.mark.parametrize("sigma_rho", [np.nan, np.inf])
    def test_non_finite_sigma_rho_refused(self, sigma_rho):
        with pytest.raises(ValueError, match="sigma_rho"):
            sample_chamber(1, 2, 2, sigma_rho)


class TestProbeVoltages:
    def test_zero_gains(self):
        ch = sample_chamber(0, 6, 6)
        ch.rho = np.zeros_like(ch.rho)
        v = probe_voltages(ch, DipoleSpec().field(K))
        np.testing.assert_array_equal(v, np.zeros(6, dtype=complex))

    def test_single_path_theta_polarized(self):
        ch = single_path_chamber(1.1, 0.3, alpha=0.0)
        field = DipoleSpec(theta0=0.5, phi0=2.0).field(K)
        v = probe_voltages(ch, field)
        assert v[0] == pytest.approx(field(1.1, 0.3).e_theta, rel=1e-14, abs=0.0)

    def test_single_path_phi_polarized(self):
        ch = single_path_chamber(1.1, 0.3, alpha=np.pi / 2)
        field = DipoleSpec(theta0=0.5, phi0=2.0).field(K)
        v = probe_voltages(ch, field)
        assert v[0] == pytest.approx(field(1.1, 0.3).e_phi, rel=1e-12, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        ch = sample_chamber(17, 8, 12)
        f1 = DipoleSpec(theta0=0.3, phi0=1.0).field(K)
        f2 = DipoleSpec(theta0=2.0, phi0=4.0).field(K)

        def combined(t, p):
            a, b = f1(t, p), f2(t, p)
            return TangentVector(a.e_theta + b.e_theta, a.e_phi + b.e_phi)

        lhs = probe_voltages(ch, combined)
        rhs = probe_voltages(ch, f1) + probe_voltages(ch, f2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_leading_antenna_axis_equals_stacked_calls(self):
        ch = sample_chamber(9, 7, 11)
        specs = reference_dipole_set([(0.2, 0.1), (1.3, 2.0), (2.9, 5.5)], length=0.8)

        def stacked_fields(t, p):
            fields = [spec.field(K)(t, p) for spec in specs]
            return TangentVector(np.stack([f.e_theta for f in fields]),
                                 np.stack([f.e_phi for f in fields]))

        batched = probe_voltages(ch, stacked_fields)
        stacked = np.stack([probe_voltages(ch, spec.field(K)) for spec in specs])
        assert batched.shape == (3, 7)
        assert np.array_equal(batched, stacked)


class TestSampledField:
    """probe_voltages of a field already sampled at the launch directions,
    dipole.grid_field on the chamber, against the field callable."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_probes=st.integers(1, 6), n_paths=st.integers(1, 6),
           theta0=st.floats(0.0, math.pi), phi0=st.floats(-10.0, 10.0),
           length=st.floats(0.05, 3.0), on_path=st.booleans())
    @example(seed=0, n_probes=3, n_paths=4, theta0=0.0, phi0=0.0, length=0.5, on_path=False)
    @example(seed=1, n_probes=3, n_paths=4, theta0=math.pi, phi0=0.3, length=1.5, on_path=False)
    @example(seed=2, n_probes=3, n_paths=4, theta0=0.0, phi0=0.0, length=0.5, on_path=True)
    def test_equals_the_field_callable(self, seed, n_probes, n_paths, theta0, phi0, length,
                                       on_path):
        ch = sample_chamber(seed, n_probes, n_paths)
        if on_path:  # the axis on the last path's launch direction: the bracket's limit branch
            theta0, phi0 = float(ch.theta[-1, -1]), float(ch.phi[-1, -1])
        spec = DipoleSpec(length, theta0, phi0)
        if on_path:
            sin_t, cos_t, sin_p, cos_p = (t[-1, -1] for t in ch.trig)
            g = np.dot(axis(spec), [sin_t * cos_p, sin_t * sin_p, cos_t])
            assert abs(1.0 - g * g) < 1e-8
        sampled = probe_voltages(ch, grid_field(spec, ch, K))
        assert sampled.shape == (n_probes,)
        assert np.array_equal(sampled, probe_voltages(ch, spec.field(K)))

    def test_leading_antenna_axis_equals_stacked_calls(self):
        ch = sample_chamber(9, 7, 11)
        specs = reference_dipole_set([(0.2, 0.1), (1.3, 2.0), (2.9, 5.5)], length=0.8)
        fields = [grid_field(spec, ch, K) for spec in specs]
        stacked_field = TangentVector(np.stack([f.e_theta for f in fields]),
                                      np.stack([f.e_phi for f in fields]))
        batched = probe_voltages(ch, stacked_field)
        assert batched.shape == (3, 7)
        assert np.array_equal(batched, np.stack([probe_voltages(ch, f) for f in fields]))

    @pytest.mark.parametrize("shape", [(1, 11), (11,), (11, 7), (7, 11, 1), ()],
                             ids=["one-probe-row", "one-path-row", "transposed", "trailing-axis",
                                  "scalar"])
    def test_wrongly_shaped_field_is_refused(self, shape):
        ch = sample_chamber(9, 7, 11)
        wrong = np.ones(shape, dtype=complex)
        right = grid_field(DipoleSpec(), ch, K).e_phi
        for field in (TangentVector(wrong, right), TangentVector(right, wrong)):
            with pytest.raises(ValueError, match=rf"{re.escape(str(shape))}.*\(7, 11\)"):
                probe_voltages(ch, field)

    def test_a_callable_is_not_shape_checked(self):
        # A field callable may broadcast, as before: a constant theta field.
        ch = sample_chamber(9, 7, 11)
        v = probe_voltages(ch, lambda t, p: TangentVector(1.0, 0.0))
        assert np.array_equal(v, np.sum(ch.rho * ch.cos_alpha, axis=-1))


class TestAnalyticChannel:
    def test_exact_on_truncated_field_with_magnetic_modes(self):
        ms = build_mode_set(3)
        ch = sample_chamber(4, 12, 12, 0.001)
        rng = np.random.default_rng(6)
        coeffs = VshCoefficients(ms, rng.normal(size=ms.size) + 1j * rng.normal(size=ms.size))
        via_matrix = analytic_channel(ch, ms).entries @ coeffs.to_amplitude_vector()
        via_simulation = probe_voltages(ch, lambda a, b: synthesize(coeffs, a, b))
        assert np.max(np.abs(via_matrix - via_simulation)) < 1e-13 * np.max(np.abs(via_simulation))

    def test_zero_gain_chamber(self):
        ch = sample_chamber(0, 10, 10)
        ch.rho = np.zeros_like(ch.rho)
        t = analytic_channel(ch, build_mode_set(3, "odd", "electric"))
        assert np.all(t.entries == 0)

    def test_exact_on_truncated_field(self):
        ms = build_mode_set(3, "odd", "electric")
        ch = sample_chamber(5, 10, 10, 0.001)
        spec = DipoleSpec(theta0=0.9, phi0=2.2)
        coeffs = decompose(spec.field(K), ms, default_grid(3))
        t = analytic_channel(ch, ms)
        via_matrix = t.entries @ coeffs.to_amplitude_vector()
        via_simulation = probe_voltages(ch, lambda a, b: synthesize(coeffs, a, b))
        assert np.max(np.abs(via_matrix - via_simulation)) < 1e-10 * np.max(np.abs(via_simulation))

    def test_truncation_residual_against_exact_field(self):
        ch = sample_chamber(5, 10, 10, 0.001)
        spec = DipoleSpec(theta0=0.9, phi0=2.2)
        exact_v = probe_voltages(ch, spec.field(K))
        errs = []
        for lam in (1, 3, 5):
            ms = build_mode_set(lam, "odd", "electric")
            coeffs = decompose(spec.field(K), ms, default_grid(lam))
            approx_v = analytic_channel(ch, ms).entries @ coeffs.to_amplitude_vector()
            errs.append(np.linalg.norm(approx_v - exact_v) / np.linalg.norm(exact_v))
        assert errs[0] > errs[1] > errs[2] > 1e-14  # nonzero, strictly shrinking


class TestSelectChamber:
    @staticmethod
    def _builder(fields, built=None):
        """V_R of the fields; each matrix built is recorded in built by seed."""
        def build(ch):
            v = np.column_stack([probe_voltages(ch, f) for f in fields])
            if built is not None:
                built[ch.seed] = v
            return v
        return build

    def test_single_seed_unconditional(self):
        fields = [DipoleSpec(theta0=t).field(K) for t in (0.2, 0.9, 1.6)]
        built = {}
        selection = select_chamber([7], self._builder(fields, built), 4, 4)
        ch, v = selection.chamber, selection.voltage_matrix
        assert ch.seed == 7 and v is built[7] and np.linalg.cond(v) > 1.0
        assert selection.index == 0
        assert selection.cond_v == [np.linalg.cond(v)]

    def test_minimizes_condition_number(self):
        fields = [DipoleSpec(theta0=t, phi0=p).field(K)
                  for t, p in [(0.1, 0), (0.8, 1.0), (1.5, 2.0), (2.2, 4.0)]]
        built = {}
        build = self._builder(fields, built)
        seeds = list(range(30))
        conds = [np.linalg.cond(build(sample_chamber(s, 4, 6))) for s in seeds]
        built.clear()
        selection = select_chamber(seeds, build, 4, 6)
        ch, v = selection.chamber, selection.voltage_matrix
        assert sorted(built) == seeds  # every candidate was ranked
        # The ranking lists every candidate's cond(V_R) in seed order.
        assert selection.cond_v == conds
        assert seeds[selection.index] == ch.seed
        # The matrix handed back is the one the winner was ranked by.
        assert v is built[ch.seed]
        assert np.linalg.cond(v) == min(conds)
        assert np.linalg.cond(v) <= np.median(conds)
        assert ch.seed == seeds[int(np.argmin(conds))]

    def test_ties_keep_the_earliest_seed(self, monkeypatch):
        # Every candidate ranks the same, so the first seed must win.
        monkeypatch.setattr(np.linalg, "cond", lambda m: 2.0)
        selection = select_chamber([5, 3, 9], lambda ch: np.full((2, 2), ch.seed), 2, 2)
        assert selection.chamber.seed == 5 and np.all(selection.voltage_matrix == 5)
        assert selection.index == 0 and selection.cond_v == [2.0, 2.0, 2.0]

    def test_empty_seed_list(self):
        with pytest.raises(ValueError):
            select_chamber([], lambda ch: np.eye(2), 2, 2)
