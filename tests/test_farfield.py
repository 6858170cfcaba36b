"""Synthesis/decomposition round trips, power, directivity, symmetry repair."""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar
from scipy.special import sici

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
    _angles,
    _chart,
    _coarse_magnitude_squared,
    _exact_model,
    _max_magnitude_squared,
    _order_sums,
    _tangent_frame,
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
    ELECTRIC,
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


def single_mode(ms, entry, value=1.0):
    """Coefficients over ms, zero but for value at the ModeEntry entry."""
    values = np.zeros(ms.size, dtype=complex)
    values[ms.entries.index(entry)] = value
    return VshCoefficients(ms, values)


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


def huygens_field(axis, toward=None, beta=1.0):
    """Crossed electric and magnetic dipoles radiating along `axis`: the
    cardioid |E|^2 = (1 + r_hat . n)^2, whose directivity is exactly 3.

    The electric dipole e lies along toward's part normal to axis, if
    given. A magnetic dipole beta times as strong keeps the peak (1 +
    beta)^2 along axis, anisotropic for beta != 1 with principal axes along
    e and axis x e, and the directivity 1.5 (1 + beta)^2 / (1 + beta^2).
    """
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    if toward is None:
        e = np.cross(n, [1.0, 0.0, 0.0] if abs(n[0]) < 0.9 else [0.0, 1.0, 0.0])
    else:
        e = np.asarray(toward, dtype=float) - (n @ toward) * n
    e /= np.linalg.norm(e)
    m = np.cross(n, e)

    def field(theta, phi):
        theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
        st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
        r = np.stack([st * cp, st * sp, ct], axis=-1)
        t_hat = np.stack([ct * cp, ct * sp, -st], axis=-1)
        p_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
        vec = beta * np.cross(r, m) - e  # the radial part of -e is dropped by the projections
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
        v = synthesize(VshCoefficients(ms, np.zeros(ms.size)), 0.7, 1.3)
        assert v.e_theta == 0 and v.e_phi == 0

    def test_single_magnetic_mode(self):
        c = single_mode(build_mode_set(1), ModeEntry("M", 1, 0))
        got = synthesize(c, np.pi / 2, 0.0)
        want = vsh_x((1, 0), np.pi / 2, 0.0)
        # one-term sum with the j^(l+1) = j^2 phase
        assert got.e_theta == pytest.approx(1j**2 * want.e_theta, abs=1e-15)
        assert got.e_phi == pytest.approx(1j**2 * want.e_phi, rel=1e-14, abs=0.0)

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
        assert abs(c.values[ms.entries.index(ModeEntry("E", 3, 0))]) > 1e-3 * top

    def test_tilted_dipole_spreads_azimuthal_orders(self):
        ms = build_mode_set(3, "odd", "electric")
        c = decompose(DipoleSpec(theta0=np.pi / 2, phi0=0.0).field(K), ms)
        top = np.max(np.abs(c.values))
        for m in (1, -1):
            assert abs(c.values[ms.entries.index(ModeEntry("E", 1, m))]) > 0.1 * top

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
        assert radiated_power(VshCoefficients(build_mode_set(1), np.zeros(6)), K) == 0.0

    def test_single_mode_formula(self):
        ms = build_mode_set(1, multipole="electric")
        c = single_mode(ms, ms.entries[0])
        assert radiated_power(c, 2 * np.pi) == pytest.approx(
            1.0 / (2 * ETA0 * (2 * np.pi) ** 2), rel=1e-14, abs=0.0
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
        c = single_mode(build_mode_set(1, multipole="magnetic"), ModeEntry("M", 1, 0))
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
            directivity(VshCoefficients(build_mode_set(1), np.zeros(6)), K)

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
                field_radiation_summary(nan_field, math.pi, K, 1.0)

    @pytest.mark.parametrize(
        "axis",
        [(0, 0, 1), (0, 0, -1), (1, 0, 0), (1, 2, 3), (-0.3, 0.8, -0.5)],
        ids=["+z", "-z", "x", "oblique-1", "oblique-2"],
    )
    def test_huygens_source_closed_form(self, axis):
        c = decompose(huygens_field(axis), build_mode_set(1))
        assert directivity(c, K) == pytest.approx(3.0, rel=1e-10)

    def test_one_synthesize_call_gives_the_value(self, monkeypatch):
        # The benchmark's traced run times farfield.synthesize by wrapping
        # the module attribute: directivity makes one call through it, at
        # the direction the peak search found, and returns |E|^2 from it.
        c = random_coefficients(build_mode_set(3), np.random.default_rng(21))
        expected = directivity(c, K)
        sums = _order_sums(c)
        _, at = _max_magnitude_squared(_exact_model(sums), _coarse_magnitude_squared(sums))
        calls = []

        def spy(coeffs, theta, phi, **kwargs):
            calls.append((theta, phi))
            f = synthesize(coeffs, theta, phi, **kwargs)
            return TangentVector(2.0 * f.e_theta, 2.0 * f.e_phi)

        monkeypatch.setattr(farfield, "synthesize", spy)
        assert directivity(c, K) == 4.0 * expected  # |2 E|^2, exact in binary
        assert calls == [at]

    def test_field_route_matches_expansion_route(self):
        # The upright half-wave dipole: R_r = 73.08 ohm, D = 1.641.
        theory = field_radiation_summary(DipoleSpec().field(K), math.pi, K, 1.0)
        assert theory.radiation_resistance == pytest.approx(73.079, abs=0.005)
        assert theory.directivity == pytest.approx(1.6409, abs=0.001)
        assert theory.directivity_db == pytest.approx(10 * math.log10(theory.directivity))


def dipole_resistance(length):
    """R_r of a centre-fed dipole of length wavelengths (C. A. Balanis,
    Antenna Theory, ch. 4): eta0 / (2 pi) times the integral of
    (cos(a u) - cos a)^2 / (1 - u^2) over u in [-1, 1], a = pi length. The
    Si/Ci form from 0.1 wavelengths; below, where its terms cancel, mpmath's
    quadrature at 30 digits."""
    kl = 2.0 * math.pi * length
    if length < 0.1:
        with mpmath.workdps(30):
            a = mpmath.pi * mpmath.mpf(length)
            integral = mpmath.quad(lambda u: (mpmath.cos(a * u) - mpmath.cos(a)) ** 2 / (1 - u * u),
                                   [-1, 0, 1])
            return float(ETA0 / (2 * mpmath.pi) * integral)
    (si, ci), (si2, ci2) = sici(kl), sici(2.0 * kl)
    euler = 0.5772156649015329
    return ETA0 / (2.0 * math.pi) * (
        euler + math.log(kl) - ci + 0.5 * math.sin(kl) * (si2 - 2.0 * si)
        + 0.5 * math.cos(kl) * (euler + math.log(kl / 2.0) + ci2 - 2.0 * ci))


def dipole_directivity(length):
    """D = eta0 max F / (pi R_r), F = ((cos(a cos theta) - cos a) / sin theta)^2,
    its maximum from a 200 000-interval theta mesh polished by a bounded 1-D
    search."""
    a = math.pi * length

    def pattern(theta):
        return ((np.cos(a * np.cos(theta)) - math.cos(a)) / np.sin(theta)) ** 2

    theta = np.linspace(0.0, math.pi, 200_001)[1:-1]
    i = int(np.argmax(pattern(theta)))
    res = minimize_scalar(lambda t: -pattern(t), bounds=(theta[i - 1], theta[i + 1]),
                          method="bounded", options={"xatol": 1e-13})
    return ETA0 * max(-res.fun, pattern(theta[i])) / (math.pi * dipole_resistance(length))


class TestFieldRadiationSummary:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(0.01, 3.0), st.floats(0.01, 100.0))
    @example(0.01, 1.0)
    @example(0.5, 1.0)
    @example(1.5, 1.0)
    @example(3.0, 1.0)
    def test_matches_the_closed_form(self, length, current):
        # The bracket cos(a g) - cos(a), about a^2 / 2 at its largest, loses
        # digits to cancellation on a short dipole (see fileio.DIPOLE_LENGTH_MIN).
        kl = 2.0 * math.pi * length
        summary = field_radiation_summary(DipoleSpec(length, current=current).field(K), kl, K,
                                          current)
        tol = 1e-14 + 4e-16 / (0.5 * (math.pi * length) ** 2)
        r_r = dipole_resistance(length)
        assert summary.radiation_resistance == pytest.approx(r_r, rel=tol, abs=0.0)
        assert summary.power == pytest.approx(0.5 * current**2 * r_r, rel=tol, abs=0.0)
        assert summary.directivity == pytest.approx(dipole_directivity(length), rel=2.0 * tol,
                                                    abs=0.0)

    def test_reads_only_the_theta_pattern(self):
        # One phi, 0, at every sample: the field is taken as symmetric about z.
        phis = []
        field = DipoleSpec(1.5).field(K)

        def spy(theta, phi):
            phis.append(np.unique(phi))
            return field(theta, phi)

        assert field_radiation_summary(spy, 3.0 * math.pi, K, 1.0) == field_radiation_summary(
            field, 3.0 * math.pi, K, 1.0)
        assert all(p.tolist() == [0.0] for p in phis)

    def test_non_finite_peak_raises(self):
        # Finite at every Gauss-Legendre node, NaN at the pole the mesh starts from.
        field = DipoleSpec().field(K)

        def nan_at_the_pole(theta, phi):
            f = field(theta, phi)
            return TangentVector(np.where(theta == 0.0, np.nan, f.e_theta), f.e_phi)

        with pytest.raises(PatternError, match="not finite"):
            field_radiation_summary(nan_at_the_pole, math.pi, K, 1.0)


class TestPeakSearch:
    @pytest.mark.parametrize("pole", [0.0, math.pi])
    @pytest.mark.parametrize("phi", [0.0, 1.0, -2.5])
    def test_angles_keep_their_digits_near_a_pole(self, pole, phi):
        # acos(z) is off by about 1e-16 / theta there: 1e-9 rad at 1e-7.
        offset = 1e-7
        theta = pole + offset if pole == 0.0 else pole - offset
        x = (math.sin(offset) * math.cos(phi), math.sin(offset) * math.sin(phi), math.cos(theta))
        got_theta, got_phi = _angles(x)
        assert got_theta == pytest.approx(theta, rel=1e-15, abs=0.0)
        assert got_phi == pytest.approx(phi, rel=1e-15, abs=1e-16)

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

    @pytest.mark.parametrize("axis, beta", [
        ((0.0, 0.0, 1.0), 0.5),
        ((0.0, 0.0, -1.0), 0.5),
        ((1e-7 * math.cos(1.0), 1e-7 * math.sin(1.0), 1.0), 0.5),
        ((1e-4 * math.cos(1.0), 1e-4 * math.sin(1.0), 1.0), 0.5),
        ((1e-7 * math.cos(4.0), 1e-7 * math.sin(4.0), -1.0), 0.5),
        ((1e-4 * math.cos(4.0), 1e-4 * math.sin(4.0), -1.0), 0.5),
        ((0.0, 0.0, 1.0), 1.0),
        ((3e-6, 0.0, 1.0), 1.0),
        ((1e-4, 0.0, -1.0), 1.0),
    ], ids=["north", "south", "1e-7-from-north", "1e-4-from-north", "1e-7-from-south",
            "1e-4-from-south", "cardioid-north", "cardioid-3e-6-from-north",
            "cardioid-1e-4-from-south"])
    def test_peak_at_or_near_a_pole(self, monkeypatch, axis, beta):
        # Crossed dipoles peaking on a pole or within 1e-4 rad of one, so
        # the mesh argmax lies on its theta = 0 or theta = pi row and the
        # exact model starts at the pole. With beta = 0.5 the peak is
        # anisotropic, its principal axes 30 degrees off the chart axes
        # there, so the pole model's cross derivative steers the search.
        c = decompose(huygens_field(axis, toward=(math.cos(math.pi / 6), math.sin(math.pi / 6), 0.0),
                                    beta=beta), build_mode_set(1))
        points = model_points(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = directivity(c, K)
        start = np.unravel_index(np.argmax(_coarse_magnitude_squared(_order_sums(c))),
                                 _COARSE_THETA.shape)
        assert start[0] in (0, 180) and _angles(points[0])[0] in (0.0, math.pi)
        t_hat = _tangent_frame(points[0])[0]
        off_axes = math.degrees(math.pi / 6 - math.atan2(t_hat[1], t_hat[0])) % 90.0
        assert 20.0 < off_axes < 70.0
        assert len(points) <= 8
        assert d == pytest.approx(polished_directivity(c, 1.0), rel=1e-12, abs=0.0)
        assert d == pytest.approx(1.5 * (1.0 + beta) ** 2 / (1.0 + beta**2), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("theta0, phi0", [(2.5665, 0.3678), (1.8046, 2.1221)])
    def test_step_is_clamped_to_twice_h(self, theta0, phi0):
        # f = x . p, the cosine of the angle to the peak p. In the gnomonic
        # chart at x it is (x . p + u theta-hat . p + v phi-hat . p) /
        # sqrt(1 + u^2 + v^2), whose Newton step lands on p; started 0.5 rad
        # away, the clamp holds each step to 2h, h the 1-degree mesh step.
        peak = (math.sin(theta0) * math.cos(phi0), math.sin(theta0) * math.sin(phi0),
                math.cos(theta0))
        points = []

        def model(x, frame):
            points.append(np.array(x))
            (tx, ty, tz), (px, py) = frame[:2]
            f = x[0] * peak[0] + x[1] * peak[1] + x[2] * peak[2]
            slope = (tx * peak[0] + ty * peak[1] + tz * peak[2], px * peak[0] + py * peak[1])
            return f, _angles(x), slope, (-f, 0.0, -f)

        coarse = np.zeros(_COARSE_THETA.shape)
        coarse[round(math.degrees(theta0 - 0.5)), round(math.degrees(phi0))] = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peak_value, _ = _max_magnitude_squared(model, coarse)
        assert peak_value == pytest.approx(1.0, rel=0.0, abs=1e-15)
        # Along a line through the chart's origin, a point at angle psi is tan(psi) away.
        steps = [math.tan(math.atan2(np.linalg.norm(np.cross(a, b)), a @ b))
                 for a, b in zip(points, points[1:])]
        h = math.radians(1.0)
        assert sum(step == pytest.approx(2.0 * h, rel=1e-9) for step in steps) >= 10
        assert max(steps) == pytest.approx(2.0 * h, rel=1e-9)  # and never longer

    def test_iteration_cap_warns_and_returns_best_seen(self):
        # A level that drifts upward between calls: every model value gains,
        # so the search can never settle.
        seen = []

        def model(x, frame):
            seen.append(1.0 + 1e-6 * len(seen))
            return seen[-1], _angles(x), (0.0, 0.0), (0.0, 0.0, 0.0)

        with pytest.warns(ConvergenceWarning, match="cap"):
            peak, _ = _max_magnitude_squared(model, np.ones(_COARSE_THETA.shape))
        assert len(seen) == farfield._NEWTON_MAX_ITER and peak == max(seen)

    @pytest.mark.parametrize("bad", [
        {(37, 211): np.nan},
        {(37, 211): np.inf},
        {(12, 5): 2.0, (37, 211): np.nan},  # a NaN after the finite maximum
        {(12, 5): np.inf, (37, 211): np.nan},
        {(12, 5): np.nan, (37, 211): np.inf},
    ], ids=["nan", "inf", "nan-after-the-maximum", "inf-then-nan", "nan-then-inf"])
    def test_non_finite_mesh_value_raises(self, bad):
        # Finite everywhere except at the nodes in bad of the 1-degree mesh.
        coarse = np.ones(_COARSE_THETA.shape)
        for node, value in bad.items():
            coarse[node] = value
        c = random_coefficients(build_mode_set(1), np.random.default_rng(5))
        model = _exact_model(_order_sums(c))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                _max_magnitude_squared(model, coarse)


class TestExactModel:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(1, 8),
        st.sampled_from(PARITY_FILTERS),
        st.sampled_from(MULTIPOLE_FILTERS),
        st.floats(-0.99, 0.99),
        st.floats(-math.pi, math.pi),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_central_differences_of_synthesize(
        self, lambda_max, parity, multipole, cos_theta, phi, seed
    ):
        # At an off-pole point: |E|^2 against synthesize, and the chart
        # gradient and Hessian against 4th-order central differences of
        # synthesize on a 5x5 chart stencil of step 1e-3, to 1e-6 of the
        # scale (2L)^k max |E|^2 of a k-th derivative.
        ms = build_mode_set(lambda_max, parity, multipole)
        if ms.size == 0:
            return
        c = random_coefficients(ms, np.random.default_rng(seed))
        s = math.sqrt(1.0 - cos_theta**2)
        x = (s * math.cos(phi), s * math.sin(phi), cos_theta)
        frame = _tangent_frame(x)
        f, at, gradient, hessian = _exact_model(_order_sums(c))(x, frame)
        scale = float(_coarse_magnitude_squared(_order_sums(c)).max())
        e = synthesize(c, *at)
        assert at == _angles(x)
        assert f == pytest.approx(e.magnitude() ** 2, rel=1e-14, abs=1e-14 * scale)
        sq, n = chart_differences(c, x, frame), 2 * lambda_max
        np.testing.assert_allclose(gradient, sq[0], rtol=1e-6, atol=1e-6 * n * scale)
        np.testing.assert_allclose(hessian, sq[1], rtol=1e-6, atol=1e-6 * n * n * scale)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.integers(1, 8),
        st.sampled_from(PARITY_FILTERS),
        st.sampled_from(MULTIPOLE_FILTERS),
        st.sampled_from([0.0, 1e-7, 9e-6]),
        st.booleans(),
        st.floats(-math.pi, math.pi),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_central_differences_at_a_pole(
        self, lambda_max, parity, multipole, offset, south, phi, seed
    ):
        # Within _POLE_SIN of a pole the model is the pole's, along its three
        # meridians, carried on to x: exact at the pole, its Hessian off by
        # about offset times a third derivative, (2L)^3 max |E|^2.
        ms = build_mode_set(lambda_max, parity, multipole)
        if ms.size == 0:
            return
        c = random_coefficients(ms, np.random.default_rng(seed))
        theta = math.pi - offset if south else offset
        x = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
        frame = _tangent_frame(x)
        f, at, gradient, hessian = _exact_model(_order_sums(c))(x, frame)
        scale = float(_coarse_magnitude_squared(_order_sums(c)).max())
        sq, n = chart_differences(c, x, frame), 2 * lambda_max
        e = synthesize(c, *at)
        assert f == pytest.approx(e.magnitude() ** 2, rel=0.0, abs=1e-12 * scale)
        np.testing.assert_allclose(gradient, sq[0], rtol=1e-6, atol=1e-6 * n * scale)
        tol = 1e-6 + offset * n
        np.testing.assert_allclose(hessian, sq[1], rtol=tol, atol=tol * n * n * scale)

    @pytest.mark.parametrize("length, theta0, phi0",
                             [(0.5, 0.0, 0.0), (0.5, 1.2, 4.0), (1.0, 1.0472, 1.0)])
    def test_axisymmetric_ridge_settles(self, monkeypatch, length, theta0, phi0):
        # A dipole's peak is a ring: along it the exact curvature is
        # rounding, which must not drive Newton steps along the ring.
        ms = build_mode_set(3, "odd", "electric")
        c = decompose(DipoleSpec(length, theta0, phi0).field(K), ms)
        points = model_points(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = polished_directivity(c, 1.0)
            assert directivity(c, K) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert len(points) <= 8


def model_points(monkeypatch):
    """The list of the points at which directivity's exact model is taken."""
    points = []
    original = farfield._exact_model

    def counted(coeffs):
        model = original(coeffs)

        def step(x, frame):
            points.append(x)
            return model(x, frame)

        return step

    monkeypatch.setattr(farfield, "_exact_model", counted)
    return points


def chart_differences(c, x, frame, h=1e-3):
    """4th-order central differences of |synthesize|^2 on a 5x5 chart
    stencil of step h at x: ((f_u, f_v), (f_uu, f_uv, f_vv)). The nodes'
    theta is atan2(rho, z), accurate near the poles, where acos(z) is not."""
    offsets = h * np.arange(-2, 3)
    nodes = np.array([_chart(x, frame, u, v) for u in offsets for v in offsets])
    e = synthesize(c, np.arctan2(np.hypot(nodes[:, 0], nodes[:, 1]), nodes[:, 2]),
                   np.arctan2(nodes[:, 1], nodes[:, 0]))
    sq = (np.abs(e.e_theta) ** 2 + np.abs(e.e_phi) ** 2).reshape(5, 5)  # [u, v]
    d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    d2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    return (d1 @ sq[:, 2], sq[2] @ d1), (d2 @ sq[:, 2], d1 @ sq @ d1, sq[2] @ d2)


def inversion_parity(entry):
    """(l + [electric]) mod 2: the mode is even (0) or odd (1) under r -> -r."""
    return (entry.l + (entry.family == ELECTRIC)) % 2


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
    @given(keep=st.sampled_from([1.0, 0.4]), seed=st.integers(0, 2**32 - 1), pick=st.none())
    # Order layouts lopsided about m = 0: only negative orders, no m = 0
    # mode, and a single mode of order -3.
    @example(keep=1.0, seed=1, pick=lambda es: [e for e in es if e.m < 0])
    @example(keep=1.0, seed=2, pick=lambda es: [e for e in es if e.m != 0])
    @example(keep=1.0, seed=3, pick=lambda es: [e for e in es if e.m == -3][:1])
    def test_matches_the_full_basis(self, parity, multipole, keep, seed, pick):
        rng = np.random.default_rng(seed)
        for lambda_max in range(1, 7):
            # With keep < 1 random modes are dropped, so whole orders m may be missing.
            entries = build_mode_set(lambda_max, parity, multipole).entries
            entries = tuple(pick(entries) if pick else (e for e in entries if rng.random() < keep))
            if not entries:
                continue
            c = random_coefficients(ModeSet(lambda_max, parity, multipole, entries), rng)
            direct = direct_coarse(c)
            mesh = _coarse_magnitude_squared(_order_sums(c))
            # A set of one inversion parity has only the theta <= 90 deg rows.
            np.testing.assert_allclose(mesh, direct[: mesh.shape[0]], rtol=0,
                                       atol=1e-13 * direct.max())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lambda_max=st.integers(1, 6), parity=st.sampled_from([0, 1, None]),
           keep=st.sampled_from([1.0, 0.5, 0.2]), seed=st.integers(0, 2**32 - 1))
    def test_one_inversion_parity_scans_the_north_half(self, lambda_max, parity, keep, seed):
        # parity None draws from every mode, so mostly a set of both parities.
        rng = np.random.default_rng(seed)
        entries = tuple(e for e in build_mode_set(lambda_max).entries if rng.random() < keep
                        and parity in (None, inversion_parity(e)))
        assume(entries)
        c = random_coefficients(ModeSet(lambda_max, entries=entries), rng)
        mesh = _coarse_magnitude_squared(_order_sums(c))
        if len({inversion_parity(e) for e in entries}) > 1:
            assert mesh.shape == (181, 360)
            return
        direct = direct_coarse(c)
        # Node (i, j) deg has its antipode at (180 - i, j + 180) deg.
        antipodes = np.roll(direct[::-1], 180, axis=1)
        np.testing.assert_allclose(direct, antipodes, rtol=0, atol=1e-13 * direct.max())
        assert mesh.shape == (91, 360)
        assert mesh.max() == pytest.approx(direct.max(), rel=1e-13, abs=0.0)

    def test_folds_harmonics_above_180(self):
        # |E|^2 of an order-95 set has phi harmonics up to 190, past the
        # 1-degree mesh's Nyquist harmonic 180.
        rng = np.random.default_rng(11)
        c = random_coefficients(build_mode_set(95, "odd", "electric"), rng)
        mesh = _coarse_magnitude_squared(_order_sums(c))
        i, j = rng.integers(0, mesh.shape[0], 200), rng.integers(0, 360, 200)
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
        mesh = _coarse_magnitude_squared(_order_sums(c))
        i, j = rng.integers(0, mesh.shape[0], 200), rng.integers(0, 360, 200)
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
            total = float(np.sum(np.abs(coeffs.values) ** 2))
            _, at = _max_magnitude_squared(_exact_model(_order_sums(coeffs)), direct_coarse(coeffs))
            expected = 4.0 * math.pi * synthesize(coeffs, *at).magnitude() ** 2 / total
            assert directivity(coeffs, cfg.k) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_caches_only_the_theta_column(self, monkeypatch):
        points = []
        original = farfield.mode_basis

        def spy(mode_set, theta, phi):
            points.append(np.size(theta))
            return original(mode_set, theta, phi)

        monkeypatch.setattr(farfield, "mode_basis", spy)
        farfield._theta_fourier.cache_clear()
        c = random_coefficients(build_mode_set(15), np.random.default_rng(4))
        directivity(c, K)
        # Only the (2L + 1)-node theta-Fourier column, once: the mesh reads its table.
        assert points == [31]
        # It is kept: a second pattern of the set evaluates no basis at all.
        del points[:]
        directivity(c.scaled(1j), K)
        assert points == []


class TestPatternError:
    """Numerically unusable patterns raise PatternError, a ValueError."""

    def test_zero_amplitude_sum(self):
        with pytest.raises(PatternError, match="squared amplitude sum"):
            directivity(VshCoefficients(build_mode_set(1), np.zeros(6)), K)

    def test_non_finite_mesh(self):
        coarse = np.ones(_COARSE_THETA.shape)
        coarse[90, 0] = np.nan
        c = random_coefficients(build_mode_set(1), np.random.default_rng(6))
        model = _exact_model(_order_sums(c))
        with pytest.raises(PatternError, match="not finite"):
            _max_magnitude_squared(model, coarse)

    def test_field_power_integral(self):
        def zero_field(t, p):
            return TangentVector(np.zeros(np.shape(t), dtype=complex), 0.0)

        with pytest.raises(PatternError, match="power integral"):
            field_radiation_summary(zero_field, math.pi, K, 1.0)

    def test_all_zero_reference(self):
        with pytest.raises(PatternError, match="all-zero"):
            rms_field_error(np.zeros(4), np.ones(4))


def per_entry_symmetry(coeffs):
    """enforce_symmetry's values as one Python pass over the entries computes
    them, every operation in the order enforce_symmetry keeps."""
    index = {entry: q for q, entry in enumerate(coeffs.mode_set.entries)}
    new = coeffs.values.copy()
    for (family, l, m), q in index.items():
        if m == 0:
            new[q] = complex(coeffs.values[q].real, 0.0)
        elif m > 0:
            partner = index[family, l, -m]
            sym = 0.5 * (coeffs.values[q] + (-1) ** m * np.conj(coeffs.values[partner]))
            new[q] = sym
            new[partner] = (-1) ** m * np.conj(sym)
    return new


# Every filter up to L = 8 that leaves a mode; entries from exact signed
# zeros, small integers and any finite float but a subnormal (see
# test_half_of_the_smallest_subnormal_keeps_its_sign).
SYMMETRY_MODE_SETS = st.builds(
    build_mode_set, st.integers(1, 8), st.sampled_from(PARITY_FILTERS),
    st.sampled_from(MULTIPOLE_FILTERS),
).filter(lambda ms: ms.size > 0)
SYMMETRY_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=False)


class TestEnforceSymmetry:
    def test_direct_arithmetic(self):
        ms = build_mode_set(1, multipole="electric")
        out = enforce_symmetry(single_mode(ms, ModeEntry("E", 1, 1), 1 + 1j))
        assert out.values[ms.entries.index(ModeEntry("E", 1, 1))] == pytest.approx(0.5 + 0.5j)
        assert out.values[ms.entries.index(ModeEntry("E", 1, -1))] == pytest.approx(-(0.5 - 0.5j))

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
        amplitude = dict(zip(ms.entries, out.values))
        for family, l, m in ms.entries:
            if m == 0:
                assert amplitude[family, l, 0].imag == 0.0
            elif m > 0:
                a = amplitude[family, l, m]
                b = amplitude[family, l, -m]
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

    def test_requires_the_plus_m_partner_too(self):
        from multipat.vsh import ModeSet

        broken = ModeSet(2, "all", "magnetic", (ModeEntry("M", 2, -2), ModeEntry("M", 2, 0)))
        c = VshCoefficients(broken, np.array([1.0, 2.0], dtype=complex))
        with pytest.raises(ValueError, match=r"\+m partner of \(M, 2, -2\)"):
            enforce_symmetry(c)

    def test_half_of_the_smallest_subnormal_keeps_its_sign(self):
        # The array step halves a sum of -5e-324j to -0j, as y / 2 rounds;
        # the per-entry loop's scalar complex product adds 0.0 * Re to the
        # half and gives +0j. So the property test below draws no subnormal.
        ms = build_mode_set(1, multipole="electric")
        q = ms.entries.index(ModeEntry("E", 1, 1))
        values = np.zeros(ms.size, dtype=complex)
        values[q] = complex(0.0, -5e-324)
        coeffs = VshCoefficients(ms, values)
        assert math.copysign(1.0, enforce_symmetry(coeffs).values[q].imag) == -1.0
        assert math.copysign(1.0, per_entry_symmetry(coeffs)[q].imag) == 1.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_equals_the_per_entry_loop_bitwise(self, data):
        ms = data.draw(SYMMETRY_MODE_SETS)
        parts = st.lists(SYMMETRY_PARTS, min_size=ms.size, max_size=ms.size)
        kind = data.draw(st.sampled_from(["complex", "real", "imaginary"]))
        values = np.zeros(ms.size, dtype=complex)
        if kind != "imaginary":
            values.real = data.draw(parts)
        if kind != "real":
            values.imag = data.draw(parts)
        coeffs = VshCoefficients(ms, values)
        assert enforce_symmetry(coeffs).values.tobytes() == per_entry_symmetry(coeffs).tobytes()


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
        np.testing.assert_allclose(vec[: ms.n_electric], c.values[: ms.n_electric] / -ETA0,
                                   rtol=1e-15)
        np.testing.assert_array_equal(vec[ms.n_electric:], c.values[ms.n_electric:])

    def test_summary_fields(self):
        ms = build_mode_set(3, "odd", "electric")
        c = decompose(DipoleSpec().field(K), ms)
        s = radiation_summary(c, K, 1.0)
        assert s.power > 0 and s.directivity >= 1.0
        assert s.directivity_db == pytest.approx(10 * math.log10(s.directivity))
        assert s.radiation_resistance == pytest.approx(2 * s.power)
