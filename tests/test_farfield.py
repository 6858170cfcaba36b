"""Synthesis/decomposition round trips, power, directivity, symmetry repair."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from multipat import cli, farfield
from multipat.chamber import probe_voltages
from multipat.dipole import DipoleSpec
from multipat.farfield import (
    _COARSE_PHI,
    _COARSE_THETA,
    ETA0,
    ConvergenceWarning,
    PatternError,
    SphereGrid,
    VshCoefficients,
    _coarse_magnitude_squared,
    _max_magnitude_squared,
    decompose,
    default_grid,
    directivity,
    enforce_symmetry,
    field_radiation_summary,
    mode_basis,
    radiated_power,
    radiation_resistance,
    radiation_summary,
    rms_field_error,
    synthesize,
    synthesize_on_grid,
)
from multipat.vsh import (
    MULTIPOLE_FILTERS,
    PARITY_FILTERS,
    ModeEntry,
    ModeSet,
    TangentVector,
    build_mode_set,
    vsh_x,
)

K = 2 * np.pi


def random_coefficients(mode_set, rng, scale=1.0):
    vals = rng.normal(size=mode_set.size) + 1j * rng.normal(size=mode_set.size)
    return VshCoefficients(mode_set, scale * vals)


def polished_directivity(coeffs, step_deg):
    """Reference directivity: the best point of a step_deg grid, polished by
    Nelder-Mead (xatol 1e-10) on scalar synthesize calls.

    The grid is synthesized row by row from the basis at phi = 0, since
    every basis function depends on phi only through exp(j m phi).
    """
    thetas = np.linspace(0.0, np.pi, int(round(180 / step_deg)) + 1)
    phis = np.radians(step_deg) * np.arange(int(round(360 / step_deg)))
    bt, bp = mode_basis(coeffs.mode_set, thetas, np.zeros_like(thetas))
    phase = np.exp(1j * np.outer([e.m for e in coeffs.mode_set.entries], phis))
    mag_sq = (
        np.abs((coeffs.values[:, None] * bt).T @ phase) ** 2
        + np.abs((coeffs.values[:, None] * bp).T @ phase) ** 2
    )
    i, j = np.unravel_index(np.argmax(mag_sq), mag_sq.shape)

    def neg_mag_sq(x):
        f = synthesize(coeffs, x[0], x[1])
        return -(abs(f.e_theta) ** 2 + abs(f.e_phi) ** 2)

    res = minimize(neg_mag_sq, [thetas[i], phis[j]], method="Nelder-Mead",
                   options={"xatol": 1e-10, "maxiter": 20000})
    peak = max(-res.fun, mag_sq[i, j])
    return 4.0 * math.pi * peak / float(np.sum(np.abs(coeffs.values) ** 2))


def huygens_field(axis):
    """Crossed electric and magnetic dipoles radiating along `axis`: the
    cardioid |E|^2 = (1 + r_hat . n)^2, whose directivity is exactly 3."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    e = np.cross(n, [1.0, 0.0, 0.0] if abs(n[0]) < 0.9 else [0.0, 1.0, 0.0])
    e /= np.linalg.norm(e)
    m = np.cross(n, e)

    def field(theta, phi):
        theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
        st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
        r = np.stack([st * cp, st * sp, ct], axis=-1)
        t_hat = np.stack([ct * cp, ct * sp, -st], axis=-1)
        p_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
        vec = np.cross(r, m) - e  # the radial part of -e is dropped by the projections
        return TangentVector(np.sum(vec * t_hat, axis=-1), np.sum(vec * p_hat, axis=-1))

    return field


class TestSphereGrid:
    def test_weights_cover_the_sphere(self):
        for n in (8, 20, 36):
            grid = SphereGrid(n, n)
            assert abs(np.sum(grid.solid_angle_weights) - 4 * np.pi) < 1e-12

    def test_nodes_interior(self):
        grid = SphereGrid(16, 16)
        assert grid.theta.min() > 0.0 and grid.theta.max() < np.pi

    def test_validation(self):
        with pytest.raises(ValueError):
            SphereGrid(1, 8)

    def test_builds_its_basis_once_per_mode_set(self, monkeypatch):
        calls = []
        original = farfield.mode_basis

        def spy(mode_set, theta, phi):
            calls.append((mode_set, np.size(theta)))
            return original(mode_set, theta, phi)

        monkeypatch.setattr(farfield, "mode_basis", spy)
        grid = SphereGrid(12, 14)
        ms3, ms1 = build_mode_set(3), build_mode_set(1, multipole="electric")
        coeffs = decompose(DipoleSpec(theta0=0.7, phi0=0.3).field(K), ms3, grid)
        on_grid = synthesize_on_grid(coeffs, grid)
        decompose(DipoleSpec(theta0=1.1).field(K), ms3, grid)
        synthesize_on_grid(decompose(DipoleSpec().field(K), ms1, grid), grid)
        assert calls == [(ms3, 12 * 14), (ms1, 12 * 14)]
        # The kept basis is the one a fresh evaluation on the nodes gives.
        bt, bp = original(ms3, grid.theta_mesh.ravel(), grid.phi_mesh.ravel())
        assert np.array_equal(grid.basis(ms3)[0], bt) and np.array_equal(grid.basis(ms3)[1], bp)
        direct = coeffs.values @ bt
        assert np.array_equal(on_grid.e_theta, direct.reshape(grid.theta_mesh.shape))
        # Another grid of the same size keeps its own.
        synthesize_on_grid(coeffs, SphereGrid(12, 14))
        assert len(calls) == 3


class TestSynthesize:
    def test_zero_coefficients(self):
        ms = build_mode_set(2)
        v = synthesize(VshCoefficients.zeros(ms), 0.7, 1.3)
        assert v.e_theta == 0 and v.e_phi == 0

    def test_single_magnetic_mode(self):
        ms = build_mode_set(1)
        c = VshCoefficients.zeros(ms)
        c.values[ms.index_of("M", 1, 0)] = 1.0
        got = synthesize(c, np.pi / 2, 0.0)
        want = vsh_x((1, 0), np.pi / 2, 0.0)
        # one-term sum with the j^(l+1) = j^2 phase
        assert got.e_theta == pytest.approx(1j**2 * want.e_theta, abs=1e-15)
        assert got.e_phi == pytest.approx(1j**2 * want.e_phi, rel=1e-14)

    def test_dipole_equator_magnitude(self):
        # synthesized half-wave dipole approaches eta0 I k / (2 pi) broadside
        ms = build_mode_set(3, "odd", "electric")
        c = decompose(DipoleSpec().field(K), ms)
        mag = abs(synthesize(c, np.pi / 2, 1.0).e_theta)
        assert mag == pytest.approx(ETA0 * K / (2 * np.pi), rel=1e-3)


class TestDecompose:
    def test_round_trip_band_limited(self):
        rng = np.random.default_rng(11)
        ms = build_mode_set(3)
        c = random_coefficients(ms, rng)
        grid = default_grid(3)
        got = decompose(lambda t, p: synthesize(c, t, p), ms, grid)
        assert np.max(np.abs(got.values - c.values)) < 1e-8 * np.max(np.abs(c.values))

    def test_dipole_structure(self):
        ms = build_mode_set(3)
        c = decompose(DipoleSpec().field(K), ms, default_grid(3))
        mags = np.abs(c.values)
        top = mags.max()
        dominant = ms.entries[int(np.argmax(mags))]
        assert (dominant.family, dominant.l, dominant.m) == ("E", 1, 0)
        magnetic = mags[ms.n_electric:]
        assert np.max(magnetic) < 1e-10 * top
        even_l = [m for m, e in zip(mags, ms.entries) if e.l == 2]
        assert np.max(even_l) < 1e-10 * top
        # third-degree content present per the tilted-spectrum structure
        assert abs(c.get("E", 3, 0)) > 1e-3 * top

    def test_tilted_dipole_spreads_azimuthal_orders(self):
        ms = build_mode_set(3, "odd", "electric")
        c = decompose(DipoleSpec(theta0=np.pi / 2, phi0=0.0).field(K), ms)
        top = np.max(np.abs(c.values))
        assert abs(c.get("E", 1, 1)) > 0.1 * top
        assert abs(c.get("E", 1, -1)) > 0.1 * top

    def test_convergence_warning_on_coarse_grid(self):
        ms = build_mode_set(3, "odd", "electric")
        with pytest.warns(ConvergenceWarning):
            decompose(DipoleSpec().field(K), ms, SphereGrid(5, 5), check_convergence=True)

    def test_no_warning_on_default_grid(self):
        ms = build_mode_set(3, "odd", "electric")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            decompose(DipoleSpec().field(K), ms, check_convergence=True)


class TestPower:
    def test_zero(self):
        assert radiated_power(VshCoefficients.zeros(build_mode_set(1)), K) == 0.0

    def test_single_mode_formula(self):
        ms = build_mode_set(1, multipole="electric")
        c = VshCoefficients.zeros(ms)
        c.values[0] = 1.0
        assert radiated_power(c, 2 * np.pi) == pytest.approx(
            1.0 / (2 * ETA0 * (2 * np.pi) ** 2), rel=1e-14
        )

    def test_half_wave_dipole_resistance(self):
        ms = build_mode_set(3, "odd", "electric")
        c = decompose(DipoleSpec().field(K), ms)
        r = radiation_resistance(radiated_power(c, K), 1.0)
        assert r == pytest.approx(73.1, abs=0.2)

    def test_resistance_arithmetic(self):
        assert radiation_resistance(36.55, 1.0) == pytest.approx(73.1)
        assert radiation_resistance(10.0, 2.0) == pytest.approx(5.0)
        assert radiation_resistance(0.0, 1.0) == 0.0
        with pytest.raises(ZeroDivisionError):
            radiation_resistance(1.0, 0.0)

    def test_parseval_against_quadrature(self):
        rng = np.random.default_rng(5)
        ms = build_mode_set(4)
        grid = default_grid(4)
        for _ in range(5):
            c = random_coefficients(ms, rng)
            f = synthesize_on_grid(c, grid)
            quad = grid.integrate(f.magnitude() ** 2) / (2 * ETA0 * K * K)
            assert radiated_power(c, K) == pytest.approx(quad, rel=1e-8)


class TestDirectivity:
    def test_half_wave_dipole(self):
        ms = build_mode_set(3, "odd", "electric")
        c = decompose(DipoleSpec().field(K), ms)
        d = directivity(c, K)
        assert d == pytest.approx(1.64, abs=0.01)

    def test_magnetic_dipole_mode(self):
        ms = build_mode_set(1, multipole="magnetic")
        c = VshCoefficients.zeros(ms)
        c.values[ms.index_of("M", 1, 0)] = 1.0
        assert directivity(c, K) == pytest.approx(1.5, abs=1e-6)

    def test_orientation_invariance(self):
        ms = build_mode_set(3, "odd", "electric")
        values = []
        for theta0, phi0 in [(0.0, 0.0), (np.pi / 3, 1.0), (1.2, 4.0)]:
            c = decompose(DipoleSpec(theta0=theta0, phi0=phi0).field(K), ms)
            values.append(directivity(c, K))
        assert max(values) - min(values) < 1e-6 * max(values)

    def test_lower_bound(self):
        rng = np.random.default_rng(2)
        ms = build_mode_set(2)
        for _ in range(5):
            assert directivity(random_coefficients(ms, rng), K) >= 1.0

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            directivity(VshCoefficients.zeros(build_mode_set(1)), K)

    def test_non_finite_power_rejected(self):
        ms = build_mode_set(1)
        for bad in (np.nan, np.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # refused before any peak search
                with pytest.raises(ValueError):
                    directivity(VshCoefficients(ms, np.full(ms.size, bad)), K)

    def test_field_route_rejects_non_finite_power(self):
        def nan_field(t, p):
            return TangentVector(np.full(np.shape(t), np.nan, dtype=complex), 0.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                field_radiation_summary(nan_field, default_grid(1), K, 1.0)

    @pytest.mark.parametrize(
        "axis",
        [(0, 0, 1), (0, 0, -1), (1, 0, 0), (1, 2, 3), (-0.3, 0.8, -0.5)],
        ids=["+z", "-z", "x", "oblique-1", "oblique-2"],
    )
    def test_huygens_source_closed_form(self, axis):
        c = decompose(huygens_field(axis), build_mode_set(1))
        assert directivity(c, K) == pytest.approx(3.0, rel=1e-10)

    def test_field_route_matches_expansion_route(self):
        spec = DipoleSpec(theta0=0.6, phi0=2.0)
        theory = field_radiation_summary(spec.field(K), default_grid(3), K, 1.0)
        assert theory.radiation_resistance == pytest.approx(73.079, abs=0.005)
        assert theory.directivity == pytest.approx(1.6409, abs=0.001)
        assert theory.directivity_db == pytest.approx(10 * math.log10(theory.directivity))


class TestPeakSearch:
    @pytest.mark.parametrize("theta0, phi0", [(0.973, 0.917), (0.813, 4.800)])
    def test_reconstruction_meets_rel_tol(self, paper_setup, theta0, phi0):
        # Tilted half-wave dipoles of the paper config: a ring-shaped ridge
        # that an alternating theta/phi line search stopped short on.
        cfg = paper_setup.config
        spec = DipoleSpec(cfg.test_length, theta0, phi0, cfg.test_current)
        voltages = probe_voltages(paper_setup.chamber, spec.field(cfg.k))
        coeffs = cli._reconstruct_voltages(paper_setup, voltages).coefficients
        assert directivity(coeffs, cfg.k) == pytest.approx(
            polished_directivity(coeffs, 1.0), rel=1e-9
        )

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(lambda_max=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_reaches_the_polished_dense_grid_maximum(self, lambda_max, seed):
        c = random_coefficients(build_mode_set(lambda_max), np.random.default_rng(seed))
        d = directivity(c, K)
        assert d >= 1.0
        assert d >= (1.0 - 1e-8) * polished_directivity(c, 0.5)

    def test_iteration_cap_warns_and_returns_best_seen(self):
        # A level that drifts upward between calls: every stencil gains, so
        # the search can never settle.
        seen = []

        def eval_sq(t, p):
            values = 1.0 + 1e-6 * len(seen) + 0.0 * np.asarray(t)
            seen.append(float(np.max(values)))
            return values

        with pytest.warns(ConvergenceWarning, match="cap"):
            peak = _max_magnitude_squared(eval_sq, eval_sq(_COARSE_THETA, _COARSE_PHI))
        assert peak == max(seen)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mesh_value_raises(self, bad):
        # Finite everywhere except at one node of the 1-degree mesh.
        def eval_sq(t, p):
            values = np.ones(np.shape(t))
            if values.shape == (181, 360):
                values[37, 211] = bad
            return values

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                _max_magnitude_squared(eval_sq, eval_sq(_COARSE_THETA, _COARSE_PHI))


def direct_coarse(coeffs, rows=20):
    """|E|^2 on the 1-degree mesh from the full basis, rows theta rows at a time."""
    out = np.empty(_COARSE_THETA.shape)
    for i in range(0, out.shape[0], rows):
        bt, bp = mode_basis(coeffs.mode_set, _COARSE_THETA[i : i + rows], _COARSE_PHI[i : i + rows])
        mag_sq = np.abs(coeffs.values @ bt) ** 2 + np.abs(coeffs.values @ bp) ** 2
        out[i : i + rows] = mag_sq.reshape(-1, out.shape[1])
    return out


class TestCoarseMesh:
    @pytest.mark.parametrize("parity", PARITY_FILTERS)
    @pytest.mark.parametrize("multipole", MULTIPOLE_FILTERS)
    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(keep=st.sampled_from([1.0, 0.4]), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_full_basis(self, parity, multipole, keep, seed):
        rng = np.random.default_rng(seed)
        for lambda_max in range(1, 7):
            # With keep < 1 random modes are dropped, so whole orders m may be missing.
            entries = build_mode_set(lambda_max, parity, multipole).entries
            entries = tuple(e for e in entries if rng.random() < keep)
            if not entries:
                continue
            c = random_coefficients(ModeSet(lambda_max, parity, multipole, entries), rng)
            direct = direct_coarse(c)
            mesh = _coarse_magnitude_squared(c)
            np.testing.assert_allclose(mesh, direct, rtol=0, atol=1e-13 * direct.max())

    def test_folds_harmonics_above_180(self):
        # |E|^2 of an order-95 set has phi harmonics up to 190, past the
        # 1-degree mesh's Nyquist harmonic 180.
        rng = np.random.default_rng(11)
        c = random_coefficients(build_mode_set(95, "odd", "electric"), rng)
        mesh = _coarse_magnitude_squared(c)
        i, j = rng.integers(0, 181, 200), rng.integers(0, 360, 200)
        f = synthesize(c, _COARSE_THETA[i, j], _COARSE_PHI[i, j])
        expected = np.abs(f.e_theta) ** 2 + np.abs(f.e_phi) ** 2
        np.testing.assert_allclose(mesh[i, j], expected, rtol=0, atol=1e-12 * mesh.max())

    def test_orders_180_match_synthesize(self):
        # Orders -180 and 180 beat at phi harmonic 360, which a 360-point
        # FFT cannot tell from harmonic 0; the trig table evaluates every
        # harmonic at the nodes themselves.
        rng = np.random.default_rng(12)
        ms = ModeSet(180, entries=(ModeEntry("E", 180, -180), ModeEntry("E", 180, 180)))
        c = random_coefficients(ms, rng)
        mesh = _coarse_magnitude_squared(c)
        i, j = rng.integers(0, 181, 200), rng.integers(0, 360, 200)
        f = synthesize(c, _COARSE_THETA[i, j], _COARSE_PHI[i, j])
        expected = np.abs(f.e_theta) ** 2 + np.abs(f.e_phi) ** 2
        np.testing.assert_allclose(mesh[i, j], expected, rtol=0, atol=1e-12 * mesh.max())

    def test_directivity_matches_the_full_basis_route(self, paper_setup):
        # The 16-antenna Fibonacci design over the sphere, reconstructed on
        # the paper config; the reference peak search starts from the mesh
        # computed on the full 1-degree basis.
        cfg = paper_setup.config
        golden = math.pi * (3.0 - math.sqrt(5.0))
        for i in range(16):
            theta0, phi0 = math.acos(1.0 - (2 * i + 1) / 16), (i * golden) % (2.0 * math.pi)
            spec = DipoleSpec(cfg.test_length, theta0, phi0, cfg.test_current)
            coeffs = cli._reconstruct_test(paper_setup, spec)[0].coefficients

            def eval_sq(t, p):
                f = synthesize(coeffs, t, p)
                return np.abs(f.e_theta) ** 2 + np.abs(f.e_phi) ** 2

            peak = _max_magnitude_squared(eval_sq, coarse=direct_coarse(coeffs))
            expected = 4.0 * math.pi * peak / float(np.sum(np.abs(coeffs.values) ** 2))
            assert directivity(coeffs, cfg.k) == pytest.approx(expected, rel=1e-12)

    def test_caches_only_the_theta_column(self, monkeypatch):
        points = []
        original = farfield.mode_basis

        def spy(mode_set, theta, phi):
            points.append(np.size(theta))
            return original(mode_set, theta, phi)

        monkeypatch.setattr(farfield, "mode_basis", spy)
        farfield._coarse_basis.cache_clear()
        c = random_coefficients(build_mode_set(15), np.random.default_rng(4))
        directivity(c, K)
        assert points[0] == 181 and max(points) <= 181
        # The column is kept: a second pattern of the set evaluates only stencils.
        calls = len(points)
        directivity(c.scaled(1j), K)
        assert 181 not in points[calls:] and max(points[calls:]) <= 9


class TestPatternError:
    """Numerically unusable patterns raise PatternError, a ValueError."""

    def test_zero_amplitude_sum(self):
        with pytest.raises(PatternError, match="squared amplitude sum"):
            directivity(VshCoefficients.zeros(build_mode_set(1)), K)

    def test_non_finite_mesh(self):
        coarse = np.ones(_COARSE_THETA.shape)
        coarse[90, 0] = np.nan
        with pytest.raises(PatternError, match="not finite"):
            _max_magnitude_squared(lambda t, p: np.ones(np.shape(t)), coarse)

    def test_field_power_integral(self):
        def zero_field(t, p):
            return TangentVector(np.zeros(np.shape(t), dtype=complex), 0.0)

        with pytest.raises(PatternError, match="power integral"):
            field_radiation_summary(zero_field, default_grid(1), K, 1.0)

    def test_all_zero_reference(self):
        with pytest.raises(PatternError, match="all-zero"):
            rms_field_error(np.zeros(4), np.ones(4))


class TestEnforceSymmetry:
    def test_direct_arithmetic(self):
        ms = build_mode_set(1, multipole="electric")
        c = VshCoefficients.zeros(ms)
        c.values[ms.index_of("E", 1, 1)] = 1 + 1j
        out = enforce_symmetry(c)
        assert out.get("E", 1, 1) == pytest.approx(0.5 + 0.5j)
        assert out.get("E", 1, -1) == pytest.approx(-(0.5 - 0.5j))

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        ms = build_mode_set(3)
        once = enforce_symmetry(random_coefficients(ms, rng))
        twice = enforce_symmetry(once)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_constraint_exact_and_m0_real(self):
        rng = np.random.default_rng(10)
        ms = build_mode_set(2)
        out = enforce_symmetry(random_coefficients(ms, rng))
        for family, l, m in ms.entries:
            if m == 0:
                assert out.get(family, l, 0).imag == 0.0
            elif m > 0:
                a = out.get(family, l, m)
                b = out.get(family, l, -m)
                assert b == (-1) ** m * np.conj(a)  # exact, not approximate

    def test_noisy_dipole_change_below_noise_floor(self):
        rng = np.random.default_rng(12)
        ms = build_mode_set(3, "odd", "electric")
        clean = decompose(DipoleSpec(theta0=0.9, phi0=0.4).field(K), ms)
        scale = np.max(np.abs(clean.values))
        noise = 1e-3 * scale * (rng.normal(size=ms.size) + 1j * rng.normal(size=ms.size))
        noisy = VshCoefficients(ms, clean.values + noise)
        repaired = enforce_symmetry(noisy)
        assert np.max(np.abs(repaired.values - noisy.values)) <= np.max(np.abs(noise))
        grid = default_grid(3)
        rms_noisy = rms_field_error(
            synthesize_on_grid(clean, grid).magnitude(),
            synthesize_on_grid(noisy, grid).magnitude(),
        )
        rms_repaired = rms_field_error(
            synthesize_on_grid(clean, grid).magnitude(),
            synthesize_on_grid(repaired, grid).magnitude(),
        )
        assert rms_repaired <= rms_noisy * 1.5  # repair never blows up the pattern

    def test_requires_partner_modes(self):
        # artificial mode set missing the -1 entry
        from multipat.vsh import ModeEntry, ModeSet

        broken = ModeSet(1, "all", "electric", (ModeEntry("E", 1, 0), ModeEntry("E", 1, 1)))
        c = VshCoefficients(broken, np.array([1.0, 2.0], dtype=complex))
        with pytest.raises(ValueError):
            enforce_symmetry(c)


class TestRmsFieldError:
    def test_identical_patterns(self):
        ref = np.ones((4, 8))
        assert rms_field_error(ref, ref) == 0.0

    def test_zero_reconstruction_of_constant(self):
        ref = np.full((4, 8), 2.5)
        assert rms_field_error(ref, np.zeros_like(ref)) == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            rms_field_error(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            rms_field_error(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            rms_field_error(np.ones((2, 2)), np.ones((2, 3)))


class TestAmplitudeVector:
    def test_round_trip_scaling(self):
        rng = np.random.default_rng(4)
        ms = build_mode_set(2)
        c = random_coefficients(ms, rng)
        back = VshCoefficients.from_amplitude_vector(ms, c.to_amplitude_vector())
        np.testing.assert_allclose(back.values, c.values, rtol=1e-15)
        vec = c.to_amplitude_vector()
        np.testing.assert_allclose(vec[: ms.n_electric], c.electric / -ETA0, rtol=1e-15)
        np.testing.assert_array_equal(vec[ms.n_electric:], c.magnetic)

    def test_summary_fields(self):
        ms = build_mode_set(3, "odd", "electric")
        c = decompose(DipoleSpec().field(K), ms)
        s = radiation_summary(c, K, 1.0)
        assert s.power > 0 and s.directivity >= 1.0
        assert s.directivity_db == pytest.approx(10 * math.log10(s.directivity))
        assert s.radiation_resistance == pytest.approx(2 * s.power)
