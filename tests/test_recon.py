"""Calibration assembly and the three reconstruction routes."""
import inspect

import numpy as np
import pytest

from multipat.chamber import analytic_channel, probe_voltages, sample_chamber
from multipat.dipole import DipoleSpec, reference_dipole_set
from multipat.farfield import VshCoefficients, radiated_power, synthesize
from multipat.planner import dipole_coefficient_matrix
from multipat.recon import (
    CalibrationSet,
    IllConditionedError,
    apply_normalization,
    calibrate,
    channel_from_calibration,
    reconstruct_inverse,
    reconstruct_lse,
    reconstruct_weights_direct,
)
from multipat.vsh import build_mode_set

K = 2 * np.pi
MS = build_mode_set(3, "odd", "electric")


def symmetric_random_coefficients(rng, mode_set=MS, scale=1.0):
    """Random coefficients obeying the +-m conjugation constraint (so direct
    and real-weight methods are exact on band-limited truth)."""
    from multipat.farfield import enforce_symmetry

    vals = rng.normal(size=mode_set.size) + 1j * rng.normal(size=mode_set.size)
    return enforce_symmetry(VshCoefficients(mode_set, scale * vals))


def amplitude_matrix(coeffs):
    """A_R: one amplitude-vector column per reference."""
    return np.column_stack([c.to_amplitude_vector() for c in coeffs])


def voltage_matrix(chamber, fields):
    """V_R: one probe-voltage column per reference field."""
    return np.column_stack([probe_voltages(chamber, f) for f in fields])


def band_limited_calibration(refs, chamber):
    """Calibration of exactly band-limited references: their fields are the
    truncated expansions themselves."""
    fields = [(lambda c: (lambda t, p: synthesize(c, t, p)))(c) for c in refs]
    return calibrate(amplitude_matrix(refs), voltage_matrix(chamber, fields), refs[0].mode_set)


@pytest.fixture(scope="module")
def dipole_setup():
    """Ten-reference half-wave dipole calibration in a random 10x10 chamber."""
    orientations = [
        (0.2, 0.1), (0.7, 1.1), (1.1, 2.4), (1.4, 3.6), (0.5, 4.8),
        (1.5, 0.7), (0.9, 5.6), (1.2, 1.9), (0.35, 3.0), (1.55, 5.1),
    ]
    refs = reference_dipole_set(orientations)
    fields = [r.field(K) for r in refs]
    a_matrix = dipole_coefficient_matrix(orientations, MS)
    chamber = sample_chamber(77, 10, 10, 0.001)
    cal = calibrate(a_matrix, voltage_matrix(chamber, fields), MS)
    return refs, fields, a_matrix, chamber, cal


@pytest.fixture(scope="module")
def band_limited_setup():
    """Noiseless, exactly band-limited references and test antenna."""
    rng = np.random.default_rng(21)
    ref_coeffs = [symmetric_random_coefficients(rng) for _ in range(10)]
    chamber = sample_chamber(5, 10, 10, 0.001)
    cal = band_limited_calibration(ref_coeffs, chamber)
    truth = symmetric_random_coefficients(rng)
    v = probe_voltages(chamber, lambda t, p: synthesize(truth, t, p))
    return cal, chamber, truth, v


class TestCalibrate:
    def test_paper_shapes(self, dipole_setup):
        *_, cal = dipole_setup
        assert cal.coefficient_matrix.shape == (10, 10)
        assert cal.voltage_matrix.shape == (10, 10)
        assert cal.n_references == 10

    def test_single_reference(self):
        rng = np.random.default_rng(0)
        c = symmetric_random_coefficients(rng)
        cal = calibrate(amplitude_matrix([c]), np.ones((10, 1), dtype=complex), MS)
        assert cal.coefficient_matrix.shape == (10, 1)

    def test_every_argument_is_required(self):
        params = inspect.signature(calibrate).parameters.values()
        assert [p.name for p in params] == ["a_matrix", "v_matrix", "mode_set"]
        assert all(p.default is inspect.Parameter.empty for p in params)

    @pytest.mark.parametrize(
        "v_matrix",
        [np.ones(10, dtype=complex), np.ones((10, 9), dtype=complex),
         np.ones((10, 11), dtype=complex)],
        ids=["one-dimensional", "too-few-columns", "too-many-columns"],
    )
    def test_voltage_matrix_needs_one_column_per_reference(self, v_matrix):
        rng = np.random.default_rng(0)
        a = amplitude_matrix([symmetric_random_coefficients(rng) for _ in range(10)])
        with pytest.raises(ValueError):
            calibrate(a, v_matrix, MS)

    def test_information_preservation_guards(self):
        rng = np.random.default_rng(0)
        refs = [symmetric_random_coefficients(rng) for _ in range(10)]
        starved_probes = sample_chamber(1, 6, 12)
        with pytest.raises(ValueError, match="information"):
            band_limited_calibration(refs, starved_probes)
        with pytest.raises(ValueError, match="information"):
            calibrate(amplitude_matrix(refs), np.ones((6, 10), dtype=complex), MS)


class TestChannelFromCalibration:
    def test_recovers_analytic_channel(self, band_limited_setup):
        cal, chamber, *_ = band_limited_setup
        t_direct = analytic_channel(chamber, MS).entries
        t_cal = channel_from_calibration(cal).entries
        assert np.max(np.abs(t_cal - t_direct)) < 1e-8 * np.max(np.abs(t_direct))

    def test_identity_references(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        cal = calibrate(np.eye(10), v, MS)
        np.testing.assert_allclose(channel_from_calibration(cal).entries, v, rtol=1e-12)

    def test_ill_conditioned_error_carries_cond(self):
        rng = np.random.default_rng(2)
        c = symmetric_random_coefficients(rng)
        # two identical references: singular coefficient matrix
        cal = calibrate(amplitude_matrix([c] * 10), rng.normal(size=(10, 10)).astype(complex), MS)
        with pytest.raises(IllConditionedError) as err:
            channel_from_calibration(cal)
        assert err.value.cond > 1e12 or not np.isfinite(err.value.cond)

    def test_non_square_rejected(self):
        rng = np.random.default_rng(3)
        refs = [symmetric_random_coefficients(rng) for _ in range(9)]
        cal = calibrate(amplitude_matrix(refs), np.ones((10, 9), dtype=complex), MS)
        with pytest.raises(ValueError):
            channel_from_calibration(cal)

    def test_large_condition_number_warns(self):
        from multipat.chamber import ChannelMatrix

        ms = build_mode_set(1, multipole="electric")
        entries = np.diag([1.0, 1.0, 1e-8]).astype(complex)  # cond ~ 1e8
        with pytest.warns(UserWarning, match="large"):
            reconstruct_inverse(ChannelMatrix(entries, ms), np.ones(3, dtype=complex))

    def test_condition_limit_raises(self):
        from multipat.chamber import ChannelMatrix

        ms = build_mode_set(1, multipole="electric")
        entries = np.diag([1.0, 1.0, 1e-14]).astype(complex)  # cond ~ 1e14
        with pytest.raises(IllConditionedError) as err:
            reconstruct_inverse(ChannelMatrix(entries, ms), np.ones(3, dtype=complex))
        assert err.value.cond > 1e12


class TestReconstructInverse:
    def test_round_trip(self, band_limited_setup):
        cal, chamber, truth, v = band_limited_setup
        result = reconstruct_inverse(channel_from_calibration(cal), v)
        scale = np.max(np.abs(truth.values))
        assert np.max(np.abs(result.coefficients.values - truth.values)) < 1e-6 * scale
        assert result.method == "inverse"
        assert result.diagnostics["residual"] < 1e-8 * np.linalg.norm(v)

    def test_zero_voltages(self, band_limited_setup):
        cal, *_ = band_limited_setup
        result = reconstruct_inverse(channel_from_calibration(cal), np.zeros(10, dtype=complex))
        assert np.all(result.coefficients.values == 0)

    def test_dimension_mismatch(self, band_limited_setup):
        cal, *_ = band_limited_setup
        with pytest.raises(ValueError):
            reconstruct_inverse(channel_from_calibration(cal), np.zeros(7, dtype=complex))

    def test_symmetry_constraint_exact(self, dipole_setup):
        chamber, cal = dipole_setup[3], dipole_setup[4]
        v = probe_voltages(chamber, DipoleSpec(theta0=1.0, phi0=0.3).field(K))
        result = reconstruct_inverse(channel_from_calibration(cal), v)
        amplitude = dict(zip(MS.entries, result.coefficients.values))
        for family, l, m in MS.entries:
            if m > 0:
                assert amplitude[family, l, -m] == (-1) ** m * np.conj(amplitude[family, l, m])
            elif m == 0:
                assert amplitude[family, l, 0].imag == 0.0


@pytest.mark.parametrize("route, amplitude_vectors", [
    (lambda cal, v: reconstruct_inverse(channel_from_calibration(cal), v), 1),
    (reconstruct_weights_direct, 0),
    (reconstruct_lse, 0),
], ids=["inverse", "direct-weights", "lse"])
def test_only_the_inverse_residual_reads_the_amplitude_vector(band_limited_setup, monkeypatch,
                                                               route, amplitude_vectors):
    # The weight routes' residual is v - V_R w, which needs no amplitudes;
    # the inverse's is v - T a, of the symmetrized coefficients.
    cal, chamber, truth, v = band_limited_setup
    channel_from_calibration(cal)
    calls = []
    original = VshCoefficients.to_amplitude_vector
    monkeypatch.setattr(VshCoefficients, "to_amplitude_vector",
                        lambda self: calls.append(self) or original(self))
    result = route(cal, v)
    assert len(calls) == amplitude_vectors
    if amplitude_vectors:
        expected = v - channel_from_calibration(cal).entries @ original(result.coefficients)
    else:
        expected = v - cal.voltage_matrix @ result.weights
    assert result.diagnostics["residual"] == float(np.linalg.norm(expected))


class TestReconstructWeightsDirect:
    def test_reference_recovers_unit_weight(self, band_limited_setup):
        cal, chamber, *_ = band_limited_setup
        kth = 3
        v = cal.voltage_matrix[:, kth]
        result = reconstruct_weights_direct(cal, v)
        expected = np.zeros(10)
        expected[kth] = 1.0
        np.testing.assert_allclose(result.weights, expected, atol=1e-8)
        np.testing.assert_allclose(
            result.coefficients.to_amplitude_vector(),
            cal.coefficient_matrix[:, kth],
            atol=1e-8 * np.max(np.abs(cal.coefficient_matrix)),
        )

    def test_agrees_with_inverse_on_square_systems(self, band_limited_setup):
        cal, chamber, truth, v = band_limited_setup
        a = reconstruct_inverse(channel_from_calibration(cal), v)
        b = reconstruct_weights_direct(cal, v)
        scale = np.max(np.abs(a.coefficients.values))
        assert np.max(np.abs(a.coefficients.values - b.coefficients.values)) < 1e-8 * scale

    def test_overdetermined_weights_are_the_least_squares_fit(self):
        rng = np.random.default_rng(5)
        refs = [symmetric_random_coefficients(rng) for _ in range(10)]
        cal = band_limited_calibration(refs, sample_chamber(9, 12, 15, 0.001))
        v_r = cal.voltage_matrix
        v = np.linalg.norm(v_r) * (rng.normal(size=12) + 1j * rng.normal(size=12))
        result = reconstruct_weights_direct(cal, v)
        r = v - v_r @ result.weights
        assert result.diagnostics["residual"] == np.linalg.norm(r) > 0.1 * np.linalg.norm(v)
        # The residual is orthogonal to V_R's range, and no real-weight fit beats it.
        assert np.linalg.norm(v_r.conj().T @ r) < 1e-12 * np.linalg.norm(v_r) * np.linalg.norm(v)
        lse = reconstruct_lse(cal, v)
        assert lse.diagnostics["lse_cost"] == lse.diagnostics["residual"] ** 2
        assert result.diagnostics["residual"] ** 2 <= lse.diagnostics["lse_cost"]

    def test_fewer_probes_than_references_refused(self):
        rng = np.random.default_rng(6)
        refs = [symmetric_random_coefficients(rng) for _ in range(12)]
        cal = band_limited_calibration(refs, sample_chamber(9, 10, 15, 0.001))
        with pytest.raises(ValueError, match="10 probes cannot fix 12 complex weights"):
            reconstruct_weights_direct(cal, np.ones(10, dtype=complex))

    def test_near_real_weights_for_dipole(self, dipole_setup):
        chamber, cal = dipole_setup[3], dipole_setup[4]
        v = probe_voltages(chamber, DipoleSpec(theta0=np.pi / 4, phi0=np.pi / 3).field(K))
        result = reconstruct_weights_direct(cal, v)
        assert result.diagnostics["max_imag_weight"] < 0.05 * np.max(np.abs(result.weights))


class TestReconstructLse:
    def test_normal_matrix_is_conditioned_once_per_calibration(self, band_limited_setup,
                                                                monkeypatch):
        cal, chamber, truth, v = band_limited_setup
        fresh = calibrate(cal.coefficient_matrix, cal.voltage_matrix, cal.mode_set)
        conds = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: conds.append(a) or cond(*a, **k))
        results = [reconstruct_lse(fresh, v) for _ in range(3)]
        assert len(conds) == 1
        v_r = fresh.voltage_matrix
        normal = (v_r.conj().T @ v_r).real
        assert np.array_equal(fresh.normal, normal)
        for result in results:
            assert result.diagnostics["cond_normal"] == float(cond(normal))
            assert np.array_equal(result.weights, np.linalg.solve(normal, (v_r.conj().T @ v).real))

    def test_adjoint_is_taken_once_per_calibration(self, band_limited_setup):
        cal, chamber, truth, v = band_limited_setup
        fresh = calibrate(cal.coefficient_matrix, cal.voltage_matrix, cal.mode_set)
        assert "adjoint" not in vars(fresh)  # the other routes never need it
        first = reconstruct_lse(fresh, v)
        adjoint = fresh.adjoint
        assert np.array_equal(adjoint, fresh.voltage_matrix.conj().T)
        assert np.array_equal(first.weights, np.linalg.solve(fresh.normal, (adjoint @ v).real))
        # Every solve reads the cached V_R^H: a doubled one doubles the weights.
        fresh.adjoint = 2.0 * adjoint
        assert np.array_equal(reconstruct_lse(fresh, v).weights, 2.0 * first.weights)

    def test_matches_direct_weights_noiseless(self, band_limited_setup):
        cal, chamber, truth, v = band_limited_setup
        direct = reconstruct_weights_direct(cal, v)
        lse = reconstruct_lse(cal, v)
        assert np.max(np.abs(lse.weights - direct.weights.real)) < 1e-6

    def test_overdetermined_system(self):
        rng = np.random.default_rng(31)
        refs = [symmetric_random_coefficients(rng) for _ in range(10)]
        chamber = sample_chamber(9, 12, 15, 0.001)
        cal = band_limited_calibration(refs, chamber)
        truth = symmetric_random_coefficients(rng)
        v = probe_voltages(chamber, lambda t, p: synthesize(truth, t, p))
        scale = np.max(np.abs(truth.values))
        # 12 probes, 10 references: real weights by LSE, complex by least squares
        for result in (reconstruct_lse(cal, v), reconstruct_weights_direct(cal, v)):
            assert np.max(np.abs(result.coefficients.values - truth.values)) < 1e-6 * scale

    def test_noise_residual_beats_realified_direct_weights(self, band_limited_setup):
        cal, chamber, truth, v = band_limited_setup
        rng = np.random.default_rng(4)
        noise = 1e-3 * np.linalg.norm(v) / np.sqrt(v.size) * (
            rng.normal(size=v.size) + 1j * rng.normal(size=v.size)
        )
        noisy = v + noise
        lse = reconstruct_lse(cal, noisy)
        w_direct_real = np.linalg.solve(cal.voltage_matrix, noisy).real
        cost_direct = np.linalg.norm(noisy - cal.voltage_matrix @ w_direct_real) ** 2
        assert lse.diagnostics["lse_cost"] <= cost_direct + 1e-15

    def test_global_optimality_lattice_oracle(self):
        # 3-reference toy problem: no lattice point beats the LSE minimum
        ms1 = build_mode_set(1, multipole="electric")
        rng = np.random.default_rng(13)
        refs = [symmetric_random_coefficients(rng, ms1) for _ in range(3)]
        chamber = sample_chamber(2, 3, 3, 0.001)
        cal = band_limited_calibration(refs, chamber)
        truth = symmetric_random_coefficients(rng, ms1)
        v = probe_voltages(chamber, lambda t, p: synthesize(truth, t, p))
        lse = reconstruct_lse(cal, v)
        grid = np.linspace(-1.5, 1.5, 21)
        best_lattice = np.inf
        for w0 in grid:
            for w1 in grid:
                for w2 in grid:
                    w = lse.weights + np.array([w0, w1, w2])
                    best_lattice = min(
                        best_lattice, np.linalg.norm(v - cal.voltage_matrix @ w) ** 2
                    )
        assert lse.diagnostics["lse_cost"] <= best_lattice + 1e-12

    def test_random_weights_never_beat_lse(self, band_limited_setup):
        cal, chamber, truth, v = band_limited_setup
        lse = reconstruct_lse(cal, v)
        rng = np.random.default_rng(14)
        samples = rng.normal(scale=2.0, size=(10_000, 10)) + lse.weights
        costs = np.linalg.norm(v[:, None] - cal.voltage_matrix @ samples.T, axis=0) ** 2
        assert np.min(costs) >= lse.diagnostics["lse_cost"] - 1e-12


class TestNormalization:
    def test_unit_weight(self, band_limited_setup):
        cal, chamber, truth, v = band_limited_setup
        result = reconstruct_lse(cal, v)
        result.weights[:] = 0.0
        result.weights[0], result.weights[1] = 3.0, 4.0
        out = apply_normalization(result, "unit-weight")
        assert np.sum(out.weights**2) == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_resistance_rescale_recovers_scale(self, band_limited_setup):
        cal, chamber, truth, v = band_limited_setup
        result = reconstruct_inverse(channel_from_calibration(cal), v)
        target_r = 2.0 * radiated_power(result.coefficients, K)  # current 1 A
        doubled = reconstruct_inverse(channel_from_calibration(cal), 2.0 * v)
        out = apply_normalization(
            doubled, "radiation-resistance", k=K, current=1.0, r_meas=target_r
        )
        np.testing.assert_allclose(
            out.coefficients.values, result.coefficients.values, rtol=1e-9
        )

    def test_nonpositive_target_rejected(self, band_limited_setup):
        cal, chamber, truth, v = band_limited_setup
        result = reconstruct_inverse(channel_from_calibration(cal), v)
        with pytest.raises(ValueError):
            apply_normalization(
                result, "radiation-resistance", k=K, current=1.0, r_meas=5.0, r_loss=5.0
            )

    def test_zero_weights_rejected(self, band_limited_setup):
        cal, chamber, truth, v = band_limited_setup
        result = reconstruct_lse(cal, v)
        result.weights[:] = 0.0
        with pytest.raises(ValueError):
            apply_normalization(result, "unit-weight")

    def test_unknown_mode(self, band_limited_setup):
        cal, chamber, truth, v = band_limited_setup
        result = reconstruct_lse(cal, v)
        with pytest.raises(ValueError):
            apply_normalization(result, "total-field")


class TestMethodAgreementOnDipoles:
    def test_all_methods_close_on_physical_pipeline(self, dipole_setup):
        refs, fields, a_matrix, chamber, cal = dipole_setup
        v = probe_voltages(chamber, DipoleSpec(theta0=0.8, phi0=2.7).field(K))
        a = reconstruct_inverse(channel_from_calibration(cal), v)
        b = reconstruct_weights_direct(cal, v)
        scale = np.max(np.abs(a.coefficients.values))
        assert np.max(np.abs(a.coefficients.values - b.coefficients.values)) < 1e-8 * scale
