"""Mode budgets, information metrics, and the orientation optimizer."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multipat import farfield, planner
from multipat.dipole import DipoleSpec
from multipat.planner import (
    capacity_objective,
    dipole_coefficient_matrix,
    epsilon_entropy,
    fibonacci_orientations,
    lambda_jensen,
    lambda_simple,
    mode_count,
    nelder_mead,
    optimize_reference_orientations,
    plan_modes,
    wrap_orientation,
)
from multipat.vsh import build_mode_set


class TestModeCount:
    def test_reference_values(self):
        assert mode_count(2) == 16
        assert mode_count(4) == 48
        assert mode_count(1) == 6

    def test_strictly_monotone(self):
        counts = [mode_count(lam) for lam in range(1, 12)]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            mode_count(0)


class TestLambdaRules:
    def test_simple_ceiling(self):
        assert lambda_simple(2 * np.pi * 0.25) == 2  # half-wave dipole, R = lambda/4
        assert lambda_simple(3.0) == 3
        assert lambda_simple(30.0) == 30
        with pytest.raises(ValueError):
            lambda_simple(0.0)

    def test_jensen_large_antenna(self):
        # ceil(30 + 1.8 * 30^(1/3)) = ceil(35.593) = 36, inside validity: no warning
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lambda_jensen(30.0, -40.0) == 36

    def test_jensen_small_antenna_warns(self):
        with pytest.warns(UserWarning, match="validity"):
            assert lambda_jensen(2 * np.pi * 0.25, -40.0) == 4

    def test_jensen_reduces_to_simple(self):
        with pytest.warns(UserWarning):
            assert lambda_jensen(3.0, p_tr=0.0, p_r=0.0) == lambda_simple(3.0)

    def test_jensen_dominates_simple(self):
        import warnings

        for k_r in (2.0, 11.0, 30.0, 100.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert lambda_jensen(k_r, -40.0) >= lambda_simple(k_r)

    def test_plan_modes(self):
        budget = plan_modes(2 * np.pi * 0.25)
        assert (budget.lambda_max, budget.n_modes, budget.rule) == (2, 16, "simple-ceiling")
        with pytest.warns(UserWarning):
            budget = plan_modes(2 * np.pi * 0.25, p_tr=-40.0)
        assert (budget.lambda_max, budget.n_modes, budget.rule) == (4, 48, "jensen")


class TestEpsilonEntropy:
    def test_identity_is_zero_bits(self):
        assert epsilon_entropy(np.eye(5, dtype=complex), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_doubled_identity(self):
        assert epsilon_entropy(2.0 * np.eye(2, dtype=complex), 1.0) == pytest.approx(2.0)

    def test_determinant_identity_at_unit_epsilon(self):
        rng = np.random.default_rng(15)
        for n in (3, 5, 8):
            t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h1 = epsilon_entropy(t, 1.0)
            det = np.linalg.det(t @ t.conj().T).real
            assert h1 == pytest.approx(0.5 * np.log2(det), abs=1e-8)

    def test_epsilon_shift_law(self):
        rng = np.random.default_rng(16)
        t = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        for eps in (0.5, 2.0, 10.0):
            shift = epsilon_entropy(t, eps) - epsilon_entropy(t, 1.0)
            assert shift == pytest.approx(-6 * np.log2(eps), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            epsilon_entropy(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            epsilon_entropy(np.zeros((2, 2)), 1.0)


class TestCapacityObjective:
    def test_identity(self):
        assert capacity_objective(np.eye(4, dtype=complex)) == pytest.approx(-1.0)

    def test_singular(self):
        t = np.ones((3, 3), dtype=complex)
        assert capacity_objective(t) == pytest.approx(0.0, abs=1e-12)

    def test_matches_singular_value_product(self):
        rng = np.random.default_rng(17)
        t = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        sigma = np.linalg.svd(t, compute_uv=False)
        assert capacity_objective(t) == pytest.approx(-np.prod(sigma**2), rel=1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(18)
        t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert capacity_objective(q @ t) == pytest.approx(capacity_objective(t), rel=1e-9)
        assert capacity_objective(t @ q) == pytest.approx(capacity_objective(t), rel=1e-9)


class TestWrapAndSeeds:
    def test_wrap_orientation(self):
        t, p = wrap_orientation(-0.3, 0.0)
        assert 0 <= t <= np.pi and 0 <= p < 2 * np.pi
        assert t == pytest.approx(0.3)
        assert p == pytest.approx(np.pi)
        t, p = wrap_orientation(np.pi + 0.2, 1.0)
        assert t == pytest.approx(np.pi - 0.2)

    @settings(max_examples=300, derandomize=True)
    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @example(1.0, 2.0 * math.pi)
    @example(1.0, -1e-17)
    @example(1e-9, 1.0)
    def test_wrap_keeps_the_axis_in_the_canonical_ranges(self, theta, phi):
        t, p = wrap_orientation(theta, phi)
        assert 0.0 <= t <= math.pi and 0.0 <= p < 2.0 * math.pi

        def axis(t, p):
            return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])

        error = np.max(np.abs(axis(t, p) - axis(theta, phi)))
        # acos magnifies the rounding of cos(theta) by 1 / sin(theta) near the poles.
        assert error * abs(math.sin(theta)) <= 1e-15
        if abs(math.sin(theta)) >= 0.1:
            assert error <= 1e-15

    def test_fibonacci_upper_hemisphere(self):
        pts = fibonacci_orientations(10)
        assert len(pts) == 10
        assert all(0 < t < np.pi / 2 + 1e-9 for t, _ in pts)
        assert len({(round(t, 6), round(p, 6)) for t, p in pts}) == 10


class TestNelderMead:
    @staticmethod
    def quadratic(x):
        return float(np.sum((x - 1.5) ** 2))

    def test_zero_budget_returns_initial(self):
        x0 = np.array([0.0, 0.0])
        x, f, trace, evals = nelder_mead(self.quadratic, x0, budget=0)
        np.testing.assert_array_equal(x, x0)
        assert f == pytest.approx(self.quadratic(x0))
        assert evals == 0

    def test_converges_on_quadratic(self):
        x, f, trace, _ = nelder_mead(self.quadratic, np.zeros(3), budget=600)
        assert f < 1e-8

    def test_trace_monotone(self):
        _, _, trace, _ = nelder_mead(self.quadratic, np.zeros(4), budget=300)
        values = [v for _, v in trace]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_budget_respected(self):
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return self.quadratic(x)

        *_, evals = nelder_mead(counted, np.zeros(3), budget=50)
        assert calls["n"] <= 51  # baseline evaluation plus the budget
        assert evals == calls["n"] - 1


def quadrature_matrix(orientations, mode_set, length=0.5, current=1.0, grid=None, k=2 * math.pi):
    """Reference for dipole_coefficient_matrix: one decomposition per orientation
    on grid (default: farfield.default_grid)."""
    if grid is None:
        grid = farfield.default_grid(mode_set.lambda_max)
    return np.column_stack([
        farfield.decompose(DipoleSpec(length, t, p, current).field(k), mode_set, grid)
        .to_amplitude_vector()
        for t, p in orientations
    ])


class TestDipoleCoefficientMatrix:
    @pytest.mark.parametrize("length", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize(
        "mode_set",
        [build_mode_set(3, "odd", "electric"), build_mode_set(5)],
        ids=["L3-odd-electric", "L5-all-both"],
    )
    def test_closed_form_matches_quadrature(self, mode_set, length):
        rng = np.random.default_rng(8)
        orientations = [(0.0, 0.0), (np.pi, 0.0), (0.0, 2.1), (np.pi, 4.0)] + [
            (float(np.arccos(rng.uniform(-1, 1))), float(rng.uniform(0, 2 * np.pi)))
            for _ in range(8)
        ]
        closed = dipole_coefficient_matrix(orientations, mode_set, length, current=0.37)
        ref = quadrature_matrix(orientations, mode_set, length, current=0.37)
        assert np.max(np.abs(closed - ref)) <= 1e-11 * np.max(np.abs(ref))


class TestGramSeries:
    """The search evaluates the Gram series sum_l p_l P_l(x) by Horner's
    rule on its monomial coefficients, which leg2poly takes once per run."""

    @pytest.mark.parametrize("length", [0.1, 0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("lambda_max", [1, 3, 5, 7, 9, 15])
    def test_horner_equals_the_legendre_series(self, lambda_max, length):
        # The upright dipole's powers per degree, as the search builds them.
        ms = build_mode_set(lambda_max, "odd", "electric")
        upright = planner._upright_column(ms, length)
        powers = np.bincount([l for _, l, _ in ms.entries], abs(upright) ** 2) / (4 * math.pi)
        x = np.linspace(-1.0, 1.0, 4001)
        series = np.polynomial.legendre.legval(x, powers)
        horner = planner._horner(np.polynomial.legendre.leg2poly(powers)[::-1], x)
        assert np.max(np.abs(horner - series)) <= 1e-14 * np.max(np.abs(series))

    def test_horner_keeps_the_shape_and_leaves_x_alone(self):
        x = np.array([[0.5, -1.0], [1.0, 0.25]])
        kept = x.copy()
        # 2 x^2 - 3 x + 1
        assert planner._horner(np.array([2.0, -3.0, 1.0]), x).tolist() == [[0.0, 6.0], [0.0, 0.375]]
        assert np.array_equal(x, kept)


class TestOptimizeOrientations:
    def test_zero_budget_identity(self):
        ms = build_mode_set(1, multipole="electric")
        init = [(0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)]
        result = optimize_reference_orientations(init, mode_set=ms, budget=0)
        assert [(round(t, 12), round(p, 12)) for t, p in result.orientations] == [
            (round(t, 12), round(p, 12)) for t, p in init
        ]

    def test_never_worse_than_start(self):
        ms = build_mode_set(3, "odd", "electric")
        rng = np.random.default_rng(19)
        for _ in range(3):
            init = [(np.arccos(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi)) for _ in range(10)]
            start = float(np.linalg.cond(dipole_coefficient_matrix(init, ms)))
            result = optimize_reference_orientations(init, mode_set=ms, budget=60)
            assert result.objective_value <= start + 1e-12

    def test_orthogonal_triple_already_optimal(self):
        # the three orthogonal dipoles are a condition-1 basis for the three
        # first-degree electric modes; the optimizer cannot improve them
        ms = build_mode_set(1, multipole="electric")
        init = [(0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)]
        start = float(np.linalg.cond(dipole_coefficient_matrix(init, ms)))
        assert start == pytest.approx(1.0, abs=1e-6)
        result = optimize_reference_orientations(init, mode_set=ms, budget=200)
        assert result.objective_value >= start * (1 - 1e-6)
        assert abs(result.objective_value - start) / start < 0.01

    def test_exhaustive_scan_confirms_local_optimum(self):
        # move only the third dipole over a 5-degree grid: nothing beats the
        # orthogonal triple
        ms = build_mode_set(1, multipole="electric")
        fixed = [(0.0, 0.0), (np.pi / 2, 0.0)]
        best = np.inf
        for t in np.deg2rad(np.arange(5, 180, 5)):
            for p in np.deg2rad(np.arange(0, 360, 5)):
                cond = float(np.linalg.cond(dipole_coefficient_matrix(fixed + [(t, p)], ms)))
                best = min(best, cond)
        orthogonal = float(
            np.linalg.cond(dipole_coefficient_matrix(fixed + [(np.pi / 2, np.pi / 2)], ms))
        )
        assert orthogonal <= best + 1e-9

    def test_closed_form_follows_the_quadrature_optimizer(self):
        # The same simplex scored by a per-orientation quadrature of every
        # reference makes the same moves.
        ms = build_mode_set(3, "odd", "electric")
        init = fibonacci_orientations(10)
        closed = optimize_reference_orientations(init, mode_set=ms, budget=200)

        def unpack(x):
            return [wrap_orientation(x[2 * i], x[2 * i + 1]) for i in range(len(init))]

        x0 = np.array([a for pair in init for a in pair])
        best_x, _, trace, evals = nelder_mead(
            lambda x: float(np.linalg.cond(quadrature_matrix(unpack(x), ms))), x0, 200)
        assert closed.orientations == unpack(best_x)
        assert [n for n, _ in closed.trace] == [n for n, _ in trace]
        assert closed.evaluations == evals

    def test_upright_dipole_decomposed_once_per_run(self, monkeypatch):
        # The builder scores each search point of cond(A_R) > 100 when the
        # search meets it and every best-so-far point in one call at the
        # end, and the upright dipole is decomposed once per run.
        ms = build_mode_set(3, "odd", "electric")
        init = fibonacci_orientations(10)
        original, search = planner.dipole_coefficient_matrix, planner.nelder_mead
        evaluations, points = [], []

        def per_evaluation(pairs, mode_set, length, upright):
            # Decomposes the upright dipole again on every call.
            evaluations.append(pairs)
            return original(pairs, mode_set, length)

        with monkeypatch.context() as m:
            m.setattr(planner, "dipole_coefficient_matrix", per_evaluation)
            reference = optimize_reference_orientations(init, mode_set=ms, budget=60)
        calls = {"matrix": 0, "decompose": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def spied_search(fun, x0, budget):
            def spied(x):
                points.append(x.copy())
                return fun(x)
            return search(spied, x0, budget)

        with monkeypatch.context() as m:
            m.setattr(planner, "dipole_coefficient_matrix", counted("matrix", original))
            m.setattr(farfield, "decompose", counted("decompose", farfield.decompose))
            m.setattr(planner, "nelder_mead", spied_search)
            hoisted = optimize_reference_orientations(init, mode_set=ms, budget=60)
        ill = sum(np.linalg.cond(original(
            [wrap_orientation(x[2 * i], x[2 * i + 1]) for i in range(len(init))], ms)) > 100
            for x in points)
        assert ill > 0  # the start's simplex reaches one
        assert calls == {"matrix": 1 + ill, "decompose": 1}
        assert len(evaluations) == 1 + ill and len(reference.trace) > 1
        assert len(evaluations[-1]) == len(init) * len(reference.trace)
        assert hoisted.orientations == reference.orientations
        assert hoisted.trace == reference.trace

    @pytest.mark.parametrize("mode_set", [
        build_mode_set(2), build_mode_set(4, "all", "electric"), build_mode_set(3, "odd", "magnetic"),
    ], ids=["L2-all-both", "L4-all-electric", "L3-odd-magnetic"])
    def test_singular_mode_set_skips_the_search(self, mode_set, monkeypatch):
        # A centre-fed dipole radiates none of these sets' magnetic or
        # even-degree modes: the start comes back, scored, after no evaluation.
        init = fibonacci_orientations(mode_set.size + 1)
        wrapped = [wrap_orientation(t, p) for t, p in init]
        start = float(np.linalg.cond(dipole_coefficient_matrix(wrapped, mode_set)))
        monkeypatch.setattr(planner, "nelder_mead", lambda fun, x0, budget: pytest.fail("searched")
                            if budget else nelder_mead(fun, x0, budget))
        with pytest.warns(UserWarning) as record:
            result = optimize_reference_orientations(init, mode_set=mode_set, budget=100)
        assert len(record) == 1
        assert "search is skipped" in str(record[0].message) and "\n" not in str(record[0].message)
        assert result.orientations == wrapped
        assert result.objective_value == start and result.evaluations == 0
        assert result.trace == ([(0, start)] if start < math.inf else [])

    def test_capacity_objective_route(self):
        ms = build_mode_set(1, multipole="electric")
        init = [(0.3, 0.1), (1.2, 2.0), (0.9, 4.0)]
        result = optimize_reference_orientations(
            init, mode_set=ms, objective="capacity", budget=40
        )
        start = capacity_objective(dipole_coefficient_matrix(init, ms))
        assert result.objective_value <= start + 1e-12

    @pytest.mark.parametrize("points_per_block", [1, 3])
    @pytest.mark.parametrize("objective", ["cond-A", "capacity"])
    def test_trace_scored_in_blocks_equals_one_block(self, monkeypatch, objective, points_per_block):
        ms = build_mode_set(3, "odd", "electric")
        init = fibonacci_orientations(10)
        whole = optimize_reference_orientations(init, ms, objective, budget=200)
        original, sizes = planner.dipole_coefficient_matrix, []

        def sized(pairs, *args, **kwargs):
            sizes.append(len(pairs))
            return original(pairs, *args, **kwargs)

        # Room for points_per_block points of 10 orientations x 10 modes, and
        # not one more entry.
        monkeypatch.setattr(planner, "_TRACE_BLOCK", 100 * (points_per_block + 1) - 1)
        monkeypatch.setattr(planner, "dipole_coefficient_matrix", sized)
        blocked = optimize_reference_orientations(init, ms, objective, budget=200)
        assert blocked == whole
        full, rest = divmod(len(whole.trace), points_per_block)
        blocks = [10 * points_per_block] * full + ([10 * rest] if rest else [])
        assert full >= 4 and sizes[-len(blocks):] == blocks

    def test_validation(self, monkeypatch):
        ms = build_mode_set(3, "odd", "electric")
        with pytest.raises(ValueError, match="cannot span"):
            optimize_reference_orientations([(0.1, 0.2)], mode_set=ms, budget=10)
        with pytest.raises(TypeError):
            optimize_reference_orientations([(0.1, 0.2)], budget=10)  # no mode set
        # An unknown objective is refused before any matrix is built.
        monkeypatch.setattr(planner, "dipole_coefficient_matrix",
                            lambda *args, **kwargs: pytest.fail("matrix built"))
        monkeypatch.setattr(farfield, "decompose",
                            lambda *args, **kwargs: pytest.fail("upright decomposed"))
        with pytest.raises(ValueError, match="unknown objective"):
            optimize_reference_orientations(
                fibonacci_orientations(ms.size), mode_set=ms, objective="magic", budget=1
            )
