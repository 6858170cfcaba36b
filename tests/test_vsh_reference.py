"""The basis evaluators against the per-order implementation they
replaced, compared byte for byte (signed zeros included).

The reference below is the earlier mode_components() and
spherical_harmonics(): one recurrence per order and one write per row,
and mode_basis() as that mode_components() times j^(l+1) afterwards.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multipat.farfield import SphereGrid, default_grid, mode_basis
from multipat.vsh import (
    MAGNETIC,
    MULTIPOLE_FILTERS,
    PARITY_FILTERS,
    build_mode_set,
    mode_components,
    spherical_harmonics,
)


def _sectoral(s, m_max):
    p_diag = np.full_like(s, 1.0 / math.sqrt(4.0 * math.pi))
    yield 0, p_diag
    for m in range(1, m_max + 1):
        u_diag = -math.sqrt((2 * m + 1) / (2 * m)) * p_diag
        yield m, u_diag
        p_diag = s * u_diag


def _raise_degree(x, m, seed, l_max):
    v_prev, v = np.zeros_like(x), seed
    for l in range(m, l_max + 1):
        if l == m + 1:
            v_prev, v = v, math.sqrt(2 * m + 3) * x * v
        elif l > m + 1:
            a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
            b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
            v_prev, v = v, a * (x * v - b * v_prev)
        yield l, v, v_prev


def _by_order(modes, min_order):
    rows = {}
    for q, (l, m) in enumerate(modes):
        rows.setdefault(max(abs(m), min_order), {}).setdefault(l, []).append((q, m))
    return rows


def reference_spherical_harmonics(modes, theta, phi):
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    x, s = np.cos(theta), np.sin(theta)
    legendre = np.empty((len(modes), theta.size))
    rows = _by_order(modes, 0)
    for m, seed in _sectoral(s, max(rows, default=0)):
        if m not in rows:
            continue
        for l, v, _ in _raise_degree(x, m, seed, max(rows[m])):
            if l not in rows[m]:
                continue
            p = s * v if m else v
            for q, mq in rows[m][l]:
                legendre[q] = -p if mq < 0 and m % 2 else p
    orders = np.array([m for _, m in modes], dtype=float)
    return legendre * np.exp(1j * orders[:, None] * phi)


def _write(row, real, phase, const):
    np.multiply(phase, real, out=row)
    if const != 1:
        row *= const


def reference_mode_components(entries, theta, phi):
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    x, s = np.cos(theta), np.sin(theta)
    out_t = np.empty((len(entries), theta.size), dtype=complex)
    out_p = np.empty_like(out_t)
    rows = _by_order([(l, m) for _, l, m in entries], 1)
    for m, u_diag in _sectoral(s, max(rows, default=0)):
        if m not in rows:
            continue
        e = np.exp(1j * m * phi)
        phases = {m: e, -m: e.conj(), 0: 1.0}
        sign = (-1) ** (m + 1)
        for l, u, u_prev in _raise_degree(x, m, u_diag, max(rows[m])):
            if l not in rows[m]:
                continue
            n = math.sqrt(l * (l + 1))
            c = math.sqrt((2 * l + 1) * (l * l - m * m) / (2 * l - 1))
            x_theta = (-m / n) * u
            x_phi = (l * x * u - c * u_prev) / n
            for q, mq in rows[m][l]:
                if mq == 0:
                    comp_t, comp_p, const_t, const_p = np.zeros_like(u), s * u, 1, -1j
                elif mq > 0:
                    comp_t, comp_p, const_t, const_p = x_theta, x_phi, 1, -1j
                else:
                    comp_t, comp_p, const_t, const_p = x_theta, x_phi, sign, sign * 1j
                if entries[q][0] == MAGNETIC:
                    _write(out_t[q], comp_t, phases[mq], const_t)
                    _write(out_p[q], comp_p, phases[mq], const_p)
                else:
                    _write(out_t[q], comp_p, phases[mq], -const_p)
                    _write(out_p[q], comp_t, phases[mq], const_t)
    return out_t, out_p


def reference_mode_basis(ms, theta, phi):
    bt, bp = reference_mode_components(ms.entries, theta, phi)
    phase = np.array([1j ** (e.l + 1) for e in ms.entries])[:, None]
    bt *= phase
    bp *= phase
    return bt, bp


def _assert_same_bytes(ours, reference):
    assert ours.shape == reference.shape and ours.dtype == reference.dtype
    assert ours.tobytes() == reference.tobytes()


angles = st.floats(0.0, math.pi)
phis = st.floats(-2 * math.pi, 4 * math.pi)


def _with_phis(thetas):
    return st.tuples(st.just(thetas), st.lists(phis, min_size=len(thetas), max_size=len(thetas)))


def _table_nodes(degree):
    # The nodes theta_j = 2 pi j / (2L + 1) that farfield._theta_fourier samples.
    n = 2 * degree + 1
    return list(2.0 * np.pi * np.arange(n) / n)


def _grid_mesh(n_theta, n_phi):
    grid = SphereGrid(n_theta, n_phi)
    return list(grid.theta_mesh.ravel()), list(grid.phi_mesh.ravel())


# 1-point sets (a pole or not); 9-point sets, the size of a peak-search
# stencil, that hold both poles; angles past pi, where the theta-Fourier
# table samples, and its own nodes; and a quadrature grid's flattened mesh.
points = st.one_of(
    st.tuples(st.one_of(st.sampled_from([0.0, math.pi]), angles)).map(list).flatmap(_with_phis),
    st.lists(angles, min_size=7, max_size=7).map(lambda ts: [0.0, math.pi] + ts).flatmap(_with_phis),
    st.lists(st.floats(math.pi, 2 * math.pi, exclude_min=True), min_size=1, max_size=9)
    .flatmap(_with_phis),
    st.integers(1, 12).map(_table_nodes).flatmap(_with_phis),
    st.tuples(st.integers(2, 12), st.integers(2, 25)).map(lambda n: _grid_mesh(*n)),
)
mode_sets = st.builds(
    build_mode_set,
    st.integers(1, 12),
    st.sampled_from(PARITY_FILTERS),
    st.sampled_from(MULTIPOLE_FILTERS),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mode_sets, points)
def test_mode_components_and_basis_match_the_per_row_reference(ms, pts):
    theta, phi = np.array(pts[0]), np.array(pts[1])
    for ours, reference in zip(mode_components(ms.entries, theta, phi),
                               reference_mode_components(ms.entries, theta, phi)):
        _assert_same_bytes(ours, reference)
    for ours, reference in zip(mode_basis(ms, theta, phi), reference_mode_basis(ms, theta, phi)):
        _assert_same_bytes(ours, reference)


# A signed-zero imaginary part: at phi = -0.0 (conjugated phases would
# flip it on m < 0 rows) and where Pbar sin(m phi) underflows (phase times
# Pbar, rather than Pbar times phase, would flip it).
@settings(max_examples=150, deadline=None, derandomize=True)
@given(mode_sets, points)
@example(build_mode_set(6), ([0.0], [-0.0]))
@example(build_mode_set(6), ([math.nextafter(math.pi, 4)], [3.79e-262]))
def test_spherical_harmonics_matches_the_per_row_reference(ms, pts):
    theta, phi = np.array(pts[0]), np.array(pts[1])
    _assert_same_bytes(spherical_harmonics(ms.entries, theta, phi),
                       reference_spherical_harmonics([(l, m) for _, l, m in ms.entries], theta, phi))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    mode_sets.filter(lambda ms: ms.size > 0).flatmap(
        lambda ms: st.lists(st.sampled_from(ms.entries), min_size=1, max_size=12, unique=True)
    ),
    points,
)
def test_any_ordered_subset_of_modes_matches_the_reference(entries, pts):
    theta, phi = np.array(pts[0]), np.array(pts[1])
    for ours, reference in zip(mode_components(entries, theta, phi),
                               reference_mode_components(entries, theta, phi)):
        _assert_same_bytes(ours, reference)
    _assert_same_bytes(spherical_harmonics(entries, theta, phi),
                       reference_spherical_harmonics([(l, m) for _, l, m in entries], theta, phi))


@pytest.mark.parametrize("parity", PARITY_FILTERS)
@pytest.mark.parametrize("multipole", MULTIPOLE_FILTERS)
@pytest.mark.parametrize("lambda_max", [1, 3, 5, 12])
def test_table_nodes_and_default_grid_match_the_reference(lambda_max, parity, multipole):
    ms = build_mode_set(lambda_max, parity, multipole)
    nodes = np.array(_table_nodes(lambda_max))
    grid = default_grid(lambda_max)
    for theta, phi in [(nodes, np.zeros_like(nodes)), (nodes, nodes),
                       (grid.theta_mesh.ravel(), grid.phi_mesh.ravel())]:
        for ours, reference in zip(mode_basis(ms, theta, phi), reference_mode_basis(ms, theta, phi)):
            _assert_same_bytes(ours, reference)
