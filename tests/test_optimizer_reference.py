"""The reference-orientation optimizer against the search it replaced.

The reference below is the earlier optimize_reference_orientations: a
Nelder-Mead simplex kept in Python lists, every evaluation scored by
np.linalg.cond (or capacity_objective) of dipole_coefficient_matrix at the
wrapped orientations. The optimizer now ranks its points by the Gram
matrix of the addition theorem where cond(A_R) <= 100, and through
dipole_coefficient_matrix elsewhere and at its best-so-far points. The Gram
score is the exact one to rounding that grows as eps cond(A_R)^2, about
1e-12 relative at 100, so from any start of an odd-electric mode set both
searches make the same comparisons and return the same result:
orientations, trace, objective and evaluations.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipat import farfield, planner
from multipat.planner import (
    OptimizationResult,
    capacity_objective,
    dipole_coefficient_matrix,
    optimize_reference_orientations,
    wrap_orientation,
)
from multipat.vsh import build_mode_set

STEP, FTOL_REL = 0.25, 1e-6  # the simplex edge and the relative spread that ends it
GRAM_REL_TOL = 1e-10


def reference_nelder_mead(fun, x0, budget):
    """The list-simplex Nelder-Mead that planner.nelder_mead replaced."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    evals = 0
    trace = []
    best_x, best_f = x0.copy(), math.inf

    def record(x, f):
        nonlocal best_x, best_f
        if f < best_f:
            best_x, best_f = x.copy(), f
            trace.append((evals, f))

    def call(x):
        nonlocal evals
        evals += 1
        f = fun(x)
        record(x, f)
        return f

    f0 = fun(x0)
    record(x0, f0)
    if budget <= 0:
        return best_x, best_f, trace, evals
    simplex = [x0.copy()]
    fvals = [f0]
    for i in range(n):
        if evals >= budget:
            return best_x, best_f, trace, evals
        xi = x0.copy()
        xi[i] += STEP
        simplex.append(xi)
        fvals.append(call(xi))
    while evals < budget:
        order = np.argsort(fvals)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if fvals[-1] - fvals[0] <= FTOL_REL * max(abs(fvals[0]), 1e-300):
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        fr = call(reflected)
        if fr < fvals[0]:
            if evals < budget:
                expanded = centroid + 2.0 * (centroid - simplex[-1])
                fe = call(expanded)
                if fe < fr:
                    simplex[-1], fvals[-1] = expanded, fe
                    continue
            simplex[-1], fvals[-1] = reflected, fr
            continue
        if fr < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, fr
            continue
        if evals >= budget:
            break
        if fr < fvals[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
            fc = call(contracted)
            if fc <= fr:
                simplex[-1], fvals[-1] = contracted, fc
                continue
        else:
            contracted = centroid - 0.5 * (centroid - simplex[-1])
            fc = call(contracted)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, fc
                continue
        for i in range(1, n + 1):
            if evals >= budget:
                break
            simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
            fvals[i] = call(simplex[i])
    return best_x, best_f, trace, evals


def exact_score(objective):
    if objective == "cond-A":
        return lambda m: float(np.linalg.cond(m))
    return capacity_objective


def reference_optimize(initial, mode_set, objective, budget, length, grid=None):
    """Every evaluation scores dipole_coefficient_matrix at the wrapped orientations."""
    score = exact_score(objective)
    upright = planner._upright_column(mode_set, length, grid=grid)
    n = len(initial)

    def unpack(x):
        return [wrap_orientation(x[2 * i], x[2 * i + 1]) for i in range(n)]

    def fun(x):
        return score(dipole_coefficient_matrix(unpack(x), mode_set, length, upright=upright))

    x0 = np.array([a for pair in initial for a in pair], dtype=float)
    best_x, best_f, trace, evals = reference_nelder_mead(fun, x0, budget)
    return OptimizationResult(unpack(best_x), best_f, trace, evals)


def random_start(n, seed):
    """n random upper-hemisphere reference axes."""
    rng = np.random.default_rng(seed)
    return [(float(np.arccos(rng.uniform(0.0, 1.0))), float(rng.uniform(0.0, 2 * np.pi)))
            for _ in range(n)]


@st.composite
def optimizer_cases(draw):
    """An odd-electric mode set of degree 1, 3 or 5, k to k + 3 references of
    one length in [0.1, 1.5] from a random start, either objective and a
    budget of 0 to 1500 evaluations. Short dipoles put so little power in
    the top degree that many starts have cond(A_R) far above 100."""
    mode_set = build_mode_set(draw(st.sampled_from([5, 3, 1])), "odd", "electric")
    n = mode_set.size + draw(st.integers(0, 3))
    length = draw(st.floats(0.1, 1.5))
    initial = random_start(n, draw(st.integers(0, 2**32 - 1)))
    budget = draw(st.sampled_from([1500, 0, 1]) | st.integers(0, 1500))
    return initial, mode_set, draw(st.sampled_from(["cond-A", "capacity"])), budget, length


def assert_same_result(initial, mode_set, objective, budget, length):
    reference = reference_optimize(initial, mode_set, objective, budget, length)
    assert optimize_reference_orientations(initial, mode_set, objective, budget, length) == reference


@settings(max_examples=40, deadline=None, derandomize=True)
@given(optimizer_cases())
def test_same_result_as_the_exact_search(case):
    assert_same_result(*case)


# Full budgets at the largest degree, which the drawn cases reach rarely:
# the first two start at cond 410 and 516 and end below 100; the others
# start above 1e8 and end above 1e6.
@pytest.mark.parametrize("objective", ["cond-A", "capacity"])
@pytest.mark.parametrize("n, length, seed", [(21, 1.5, 1), (24, 1.0, 2), (21, 0.1, 3), (35, 0.01, 4)])
def test_same_result_at_degree_5(n, length, seed, objective):
    mode_set = build_mode_set(5, "odd", "electric")
    assert_same_result(random_start(n, seed), mode_set, objective, 1500, length)


@pytest.mark.parametrize("lambda_max, n, length", [(5, 21, 0.1), (5, 35, 0.01), (3, 10, 0.001)])
def test_ill_conditioned_start_improves_strictly(lambda_max, n, length):
    # Far above cond 100 the Gram eigenvalues are rounding noise; the search
    # still moves, its exact trace falls strictly from the start, and the
    # objective is the exact score of the orientations returned.
    mode_set = build_mode_set(lambda_max, "odd", "electric")
    initial = planner.fibonacci_orientations(n)
    upright = planner._upright_column(mode_set, length)
    wrapped = [wrap_orientation(t, p) for t, p in initial]
    start = np.linalg.cond(dipole_coefficient_matrix(wrapped, mode_set, length, upright=upright))
    assert start > 1e5
    result = optimize_reference_orientations(initial, mode_set, "cond-A", 300, length)
    values = [f for _, f in result.trace]
    assert result.evaluations == 300 and len(values) > 1
    assert values[0] == start and all(a > b for a, b in zip(values, values[1:]))
    assert result.objective_value == values[-1] < start
    assert result.objective_value == np.linalg.cond(
        dipole_coefficient_matrix(result.orientations, mode_set, length, upright=upright))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(optimizer_cases())
def test_gram_score_matches_the_exact_score(case):
    # Spy on the scorer the search calls, then score its points exactly.
    initial, mode_set, objective, budget, length = case
    seen = []
    search = planner.nelder_mead

    def spying_search(fun, x0, budget):
        def spied(x):
            f = fun(x)
            seen.append((x.copy(), f))
            return f
        return search(spied, x0, budget)

    planner.nelder_mead = spying_search
    try:
        optimize_reference_orientations(initial, mode_set, objective, min(budget, 200), length)
    finally:
        planner.nelder_mead = search
    upright = planner._upright_column(mode_set, length)
    score = exact_score(objective)
    for x, gram in seen[:: max(1, len(seen) // 40)]:
        exact = score(dipole_coefficient_matrix(
            [wrap_orientation(x[2 * i], x[2 * i + 1]) for i in range(len(initial))], mode_set, length,
            upright=upright))
        assert gram == exact or abs(gram - exact) <= GRAM_REL_TOL * abs(exact), (gram, exact)


def test_paper_run_is_pinned(paper_config, paper_setup):
    result = paper_setup.optimization
    assert result.objective_value == 37.72994718889448
    assert result.evaluations == 1500 and len(result.trace) == 173
    reference = reference_optimize(
        planner.fibonacci_orientations(paper_config.ref_count), paper_config.mode_set(),
        paper_config.optimize_objective, paper_config.optimize_budget, paper_config.ref_length,
        grid=farfield.SphereGrid(paper_config.n_theta, paper_config.n_phi))
    assert result == reference
