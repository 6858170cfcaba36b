"""synthesize from the cached theta-Fourier table against the evaluation it
replaced, one mode_basis call at the points themselves.

The reference below is the earlier synthesize(): the basis of every mode at
the broadcast points, contracted with the coefficients. The two sum the
same trigonometric polynomials in a different order, so they agree to
rounding, checked relative to the largest |E| of the point set.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multipat.farfield import VshCoefficients, _order_sums, mode_basis, synthesize
from multipat.vsh import MULTIPOLE_FILTERS, PARITY_FILTERS, ModeSet, build_mode_set

REL_TOL = 1e-13
# Interior directions added to every point set's scale, so a set whose
# points all sit where the field vanishes (a pole, say) still has one.
_SCALE_THETA, _SCALE_PHI = np.array([1.0, 2.0, 0.3]), np.array([0.5, 4.0, 2.2])


def reference_synthesize(coeffs, theta, phi):
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    bt, bp = mode_basis(coeffs.mode_set, th.ravel(), ph.ravel())
    return (coeffs.values @ bt).reshape(th.shape), (coeffs.values @ bp).reshape(th.shape)


def assert_matches_reference(coeffs, theta, phi):
    ours = synthesize(coeffs, theta, phi)
    ref_t, ref_p = reference_synthesize(coeffs, theta, phi)
    assert np.shape(ours.e_theta) == ref_t.shape and np.shape(ours.e_phi) == ref_p.shape
    if ref_t.shape == ():
        assert isinstance(ours.e_theta, complex) and isinstance(ours.e_phi, complex)
    scale_t, scale_p = reference_synthesize(coeffs, _SCALE_THETA, _SCALE_PHI)
    scale = max(np.max(np.abs(ref_t), initial=0.0), np.max(np.abs(ref_p), initial=0.0),
                np.max(np.abs(scale_t), initial=0.0), np.max(np.abs(scale_p), initial=0.0))
    error = max(np.max(np.abs(ours.e_theta - ref_t), initial=0.0),
                np.max(np.abs(ours.e_phi - ref_p), initial=0.0))
    assert error <= REL_TOL * scale, (error, scale)


@st.composite
def coefficient_sets(draw):
    """Coefficients over a filtered mode set of degree 1..15, or over a
    subset of it in mode-set order that may miss whole orders."""
    full = build_mode_set(draw(st.integers(1, 15)), draw(st.sampled_from(PARITY_FILTERS)),
                          draw(st.sampled_from(MULTIPOLE_FILTERS)))
    entries = full.entries
    if entries and draw(st.booleans()):
        orders = sorted({e.m for e in entries})
        dropped = draw(st.sets(st.sampled_from(orders), max_size=len(orders)))
        keep = draw(st.lists(st.booleans(), min_size=len(entries), max_size=len(entries)))
        entries = tuple(e for e, k in zip(entries, keep) if k and e.m not in dropped)
    ms = ModeSet(full.lambda_max, full.parity, full.multipole, entries)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return VshCoefficients(ms, rng.normal(size=ms.size) + 1j * rng.normal(size=ms.size))


angles = st.floats(0.0, math.pi)
phis = st.floats(-2 * math.pi, 4 * math.pi)
# 9-point sets holding both poles.
stencils = st.tuples(
    st.lists(angles, min_size=7, max_size=7).map(lambda ts: np.array([0.0, math.pi] + ts)),
    st.lists(phis, min_size=9, max_size=9).map(np.array),
)


def lopsided(keep, seed):
    """Coefficients over the L = 4 modes that keep(entries) picks."""
    full = build_mode_set(4)
    ms = ModeSet(4, entries=tuple(keep(full.entries)))
    rng = np.random.default_rng(seed)
    return VshCoefficients(ms, rng.normal(size=ms.size) + 1j * rng.normal(size=ms.size))


STENCIL = (np.array([0.0, math.pi, 0.3, 1.0, 1.6, 2.2, 2.9, 0.7, 1.3]),
           np.array([0.0, 1.0, -2.0, 3.5, 6.0, 9.0, 0.2, 4.4, -5.5]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coefficient_sets(), stencils)
# Order layouts lopsided about m = 0: only negative orders, no m = 0 mode,
# and a single mode of order -3.
@example(lopsided(lambda es: [e for e in es if e.m < 0], 1), STENCIL)
@example(lopsided(lambda es: [e for e in es if e.m != 0], 2), STENCIL)
@example(lopsided(lambda es: [e for e in es if e.m == -3][:1], 3), STENCIL)
def test_stencils_match_the_basis_evaluation(coeffs, pts):
    assert_matches_reference(coeffs, *pts)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coefficient_sets(), st.one_of(st.sampled_from([0.0, math.pi]), angles), phis)
def test_scalar_points_match_the_basis_evaluation(coeffs, theta, phi):
    assert_matches_reference(coeffs, theta, phi)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coefficient_sets(), st.lists(angles, min_size=1, max_size=4),
       st.lists(phis, min_size=1, max_size=5))
def test_broadcast_points_match_the_basis_evaluation(coeffs, thetas, phi_list):
    # A (k, 1) column of theta against a (j,) row of phi, poles included.
    theta = np.array([0.0, math.pi] + thetas)[:, None]
    assert_matches_reference(coeffs, theta, np.array(phi_list))
    assert_matches_reference(coeffs, theta[1:2, 0], np.array(phi_list))  # a pole, many phi


def test_empty_entry_set_gives_a_zero_field():
    coeffs = VshCoefficients(ModeSet(3), np.zeros(0))
    scalar = synthesize(coeffs, 0.4, 1.1)
    assert scalar.e_theta == 0 and scalar.e_phi == 0 and isinstance(scalar.e_theta, complex)
    field = synthesize(coeffs, np.array([[0.0], [math.pi]]), np.array([0.1, 0.2, 0.3]))
    for component in (field.e_theta, field.e_phi):
        assert component.shape == (2, 3) and not np.any(component)


def broadcast_synthesize(coeffs, theta, phi):
    """synthesize as it was before it took sums: every input broadcast, its own order sums."""
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    g, jp, jm = _order_sums(coeffs)[:3]
    e_t, e_p = (g @ np.exp(jp * th.ravel()) * np.exp(jm * ph.ravel())).sum(axis=0)
    return e_t.reshape(th.shape), e_p.reshape(th.shape)


def as_bytes(component) -> bytes:
    return np.asarray(component, dtype=complex).tobytes()


POINT_KINDS = {
    "float": lambda t, p: (float(t[0]), float(p[0])),
    "numpy-scalar": lambda t, p: (np.float64(t[0]), np.float64(p[0])),
    "0-d-array": lambda t, p: (np.array(t[0]), np.array(p[0])),
    "float-and-array": lambda t, p: (float(t[0]), p),
    "equal-shapes": lambda t, p: (t, p[: len(t)]),
    "broadcast": lambda t, p: (t[:, None], p),
}


@pytest.mark.parametrize("kind", POINT_KINDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.sampled_from([("all", "both"), ("odd", "electric")]),
       st.integers(0, 2**32 - 1),
       st.lists(st.one_of(st.sampled_from([0.0, math.pi]), angles), min_size=4, max_size=4),
       st.lists(phis, min_size=5, max_size=5))
def test_given_sums_keep_the_bytes(kind, lambda_max, filters, seed, thetas, phi_list):
    # directivity passes the order sums it took to its trailing synthesize
    # call; given or not, and broadcast or not, the bytes are those of the
    # formula that broadcast every input.
    ms = build_mode_set(lambda_max, *filters)
    rng = np.random.default_rng(seed)
    coeffs = VshCoefficients(ms, rng.normal(size=ms.size) + 1j * rng.normal(size=ms.size))
    theta, phi = POINT_KINDS[kind](np.array(thetas), np.array(phi_list))
    given_sums = synthesize(coeffs, theta, phi, sums=_order_sums(coeffs))
    own = synthesize(coeffs, theta, phi)
    expected = broadcast_synthesize(coeffs, theta, phi)
    for got in (given_sums, own):
        assert np.shape(got.e_theta) == np.shape(expected[0])
        assert isinstance(got.e_theta, complex) == (expected[0].shape == ())
        assert as_bytes(got.e_theta) == as_bytes(expected[0])
        assert as_bytes(got.e_phi) == as_bytes(expected[1])
