"""Vector spherical harmonics on the far-field sphere.

X_{l,m} is the tangential harmonic built from the angular-momentum operator
acting on Y_{l,m}; r_hat x X_{l,m} is its 90-degree tangent-plane rotation.
mode_components() runs the orthonormal associated-Legendre recurrence
once, all orders climbing in degree together and carried as
P_l^m / sin(theta), so that no expression divides by sin(theta) and the
poles need no special case. At each degree its entries use it forms the
real parts of the orders they read and writes each row as exp(j m phi)
times a real part, times the row's constant. vsh_x() and r_cross_x() are
single-mode views of it, and spherical_harmonics() writes the scalar
Y_{l,m} of the same entries from the same pass and cached plan. Mode
bookkeeping (the flat q <-> (family, l, m) ordering used by every matrix
in the toolkit) lives here as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

ELECTRIC = "E"
MAGNETIC = "M"

PARITY_FILTERS = ("all", "odd", "even")
MULTIPOLE_FILTERS = ("both", "electric", "magnetic")


@dataclass
class TangentVector:
    """Tangential field vector: complex theta and phi components.

    Components may be scalars or broadcast numpy arrays; the radial
    component is identically zero by construction.
    """

    e_theta: complex | np.ndarray
    e_phi: complex | np.ndarray

    def magnitude(self):
        return np.sqrt(np.abs(self.e_theta) ** 2 + np.abs(self.e_phi) ** 2)


def scratch(workspace: dict, name: str, shape: tuple, dtype=float):
    """workspace[name] as an uninitialized array of this shape and dtype,
    allocated only when the entry is missing or its shape or dtype differs.

    A caller that runs one formula many times keeps its workspace across the
    calls and allocates its buffers once; a fresh {} gives fresh buffers.
    """
    buffer = workspace.get(name)
    if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
        buffer = workspace[name] = np.empty(shape, dtype)
    return buffer


class ModeEntry(NamedTuple):
    family: str  # ELECTRIC or MAGNETIC
    l: int
    m: int


@dataclass(frozen=True)
class ModeSet:
    """Ordered, filtered collection of (family, l, m) modes.

    The ordering is the file-format and matrix contract: electric block
    first, then magnetic, each sorted by (l ascending, m ascending).
    """

    lambda_max: int
    parity: str = "all"
    multipole: str = "both"
    entries: tuple[ModeEntry, ...] = field(default=())

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def n_electric(self) -> int:
        return sum(1 for e in self.entries if e.family == ELECTRIC)


def _filtered_degrees(lambda_max: int, parity: str):
    for l in range(1, lambda_max + 1):
        if parity == "odd" and l % 2 == 0:
            continue
        if parity == "even" and l % 2 == 1:
            continue
        yield l


def build_mode_set(lambda_max: int, parity: str = "all", multipole: str = "both") -> ModeSet:
    """Construct the deterministic mode ordering for a truncation order.

    With parity "all" and multipole "both" the size is 2*L*(L+2). The l = 0
    mode never appears: a radiating antenna has no monopole term.
    """
    if lambda_max < 1:
        raise ValueError(f"lambda_max must be >= 1, got {lambda_max}")
    if parity not in PARITY_FILTERS:
        raise ValueError(f"parity must be one of {PARITY_FILTERS}, got {parity!r}")
    if multipole not in MULTIPOLE_FILTERS:
        raise ValueError(f"multipole must be one of {MULTIPOLE_FILTERS}, got {multipole!r}")
    entries: list[ModeEntry] = []
    if multipole in ("both", "electric"):
        for l in _filtered_degrees(lambda_max, parity):
            for m in range(-l, l + 1):
                entries.append(ModeEntry(ELECTRIC, l, m))
    if multipole in ("both", "magnetic"):
        for l in _filtered_degrees(lambda_max, parity):
            for m in range(-l, l + 1):
                entries.append(ModeEntry(MAGNETIC, l, m))
    return ModeSet(lambda_max, parity, multipole, tuple(entries))


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


def _raising(high: int, top: int) -> tuple:
    """The steps of _legendre_rows for orders 0..high and degrees 0..top:
    per degree l, (a, b, first, seed).

    a and b are the (orders, 1) columns of the three-term recurrence for
    the orders 0..min(l-2, high); first = sqrt(2l+1) raises order l-1
    from its seed, and seed = -sqrt((2l+1)/(2l)) gives the order-l seed
    from the order-(l-1) one; None where the order is out of range.
    """
    steps = []
    for l in range(top + 1):
        ms = range(min(l - 2, high) + 1)
        steps.append((
            _column([math.sqrt((4 * l * l - 1) / (l * l - m * m)) for m in ms]),
            _column([math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1)) for m in ms]),
            math.sqrt(2 * l + 1) if 0 <= l - 1 <= high else None,
            -math.sqrt((2 * l + 1) / (2 * l)) if 0 < l <= high else None,
        ))
    return tuple(steps)


def _legendre_rows(x: np.ndarray, s: np.ndarray, high: int, steps: tuple):
    """Yield (l, v, v_prev) for the degrees l = 0..top of
    steps = _raising(high, top), each of shape (high + 1, npts).

    Row m of v is v_l^m: Pbar_l^0 for m = 0, Pbar_l^m / sin(theta) for
    m >= 1, and 0 for m > l; v_prev holds v_{l-1} alike.

    All orders climb in degree together, one degree per step. The order-l
    seed is a constant times s^(l-1), taken from the order-(l-1) seed, so
    nothing overflows at high order and the poles are ordinary points;
    order l-1 is raised from its seed, and the lower orders follow the
    orthonormal three-term recurrence in l. The arrays are reused: each is
    valid until the generator resumes.
    """
    v_prev2, v_prev, v = np.zeros((3, high + 1, x.size))
    p_diag = np.full_like(s, 1.0 / math.sqrt(4.0 * math.pi))  # Pbar_{l-1}^{l-1}
    for l, (a, b, first, seed) in enumerate(steps):
        if len(a):
            t = x * v_prev[: len(a)]
            t -= b * v_prev2[: len(a)]
            np.multiply(a, t, out=v[: len(a)])
        if first is not None:
            np.multiply(first * x, v_prev[l - 1], out=v[l - 1])
        if l == 0:
            v[0] = p_diag
        elif seed is not None:
            np.multiply(seed, p_diag, out=v[l])
            p_diag = s * v[l]
        yield l, v, v_prev
        v_prev2, v_prev, v = v_prev, v, v_prev2


class _Plan(NamedTuple):
    high: int  # highest order, at least 1
    steps: tuple  # _raising(high, highest degree)
    degrees: dict  # degree -> ((row, magnetic, m), ...)


@lru_cache(maxsize=32)
def _plan(entries: tuple) -> _Plan:
    """The rows of mode_components() and spherical_harmonics() grouped by
    degree, and the recurrence steps that reach them."""
    degrees: dict[int, list] = {}
    for q, (family, l, m) in enumerate(entries):
        degrees.setdefault(l, []).append((q, family == MAGNETIC, m))
    high = max([1] + [abs(m) for _, _, m in entries])
    return _Plan(
        high,
        _raising(high, max(degrees, default=0)),
        {l: tuple(degrees[l]) for l in sorted(degrees)},
    )


def spherical_harmonics(entries, theta, phi) -> np.ndarray:
    """Y_{l,m}(theta, phi) of every (family, l, m) entry at flat points,
    shape (len(entries), npts); the family is not read.

    Orthonormal over the sphere, with the Condon-Shortley phase:
    Y_{l,m} = Pbar_l^m(cos theta) e^{j m phi} and
    Y_{l,-m} = (-1)^m conj(Y_{l,m}). Each row's Pbar_l^|m| is written
    during the recurrence pass of mode_components(), from its plan.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    plan = _plan(tuple(entries))
    legendre = np.empty((len(entries), theta.size))
    x, s = np.cos(theta), np.sin(theta)
    for l, v, _ in _legendre_rows(x, s, plan.high, plan.steps):
        for q, _, m in plan.degrees.get(l, ()):
            if m:
                np.multiply(s, v[abs(m)], out=legendre[q])  # Pbar_l^|m| = s v_l^|m|
            else:
                legendre[q] = v[0]
            if m < 0 and m % 2:
                np.negative(legendre[q], out=legendre[q])
    return legendre * np.exp(1j * _column([m for _, _, m in entries]) * phi)


def _write(row: np.ndarray, real: np.ndarray, phase, const) -> None:
    np.multiply(phase, real, out=row)
    if const != 1:
        row *= const


def mode_components(entries, theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """Theta and phi components of every mode at flat points, each of shape
    (len(entries), npts): X_{l,m} for magnetic entries, r_hat x X_{l,m} =
    (-X_phi, X_theta) for electric ones.

    With Pbar_l^m the orthonormal associated Legendre function (Condon-
    Shortley phase), x = cos(theta), s = sin(theta), n = sqrt(l(l+1)) and
    u_l^m = Pbar_l^m / s, the recurrence of _legendre_rows gives

      X_theta = -(m/n) u_l^m e^{j m phi}
      X_phi   = (-j/n) dPbar_l^m/dtheta e^{j m phi}
      dPbar_l^m/dtheta = l x u_l^m - sqrt((2l+1)(l^2-m^2)/(2l-1)) u_{l-1}^m
      dPbar_l^0/dtheta = n s u_l^1

    and X_{l,-m} = (-1)^(m+1) conj(X_{l,m}).

    The recurrence makes one pass over the degrees, all orders at once. At
    each degree the entries use (_plan, cached per entries tuple), the
    real parts of each order the rows read are formed once, and every row
    is written as its phase exp(j m phi) times a real part, times its
    constant.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    plan = _plan(tuple(entries))
    out_t = np.empty((len(entries), theta.size), dtype=complex)
    out_p = np.empty_like(out_t)
    x, s = np.cos(theta), np.sin(theta)
    phases = {0: 1.0}
    for m in range(1, plan.high + 1):
        phases[m] = np.exp(1j * m * phi)
        phases[-m] = phases[m].conj()
    for l, v, v_prev in _legendre_rows(x, s, plan.high, plan.steps):
        rows = plan.degrees.get(l)
        if rows is None:
            continue
        n = math.sqrt(l * (l + 1))
        parts = {}
        for q, magnetic, m in rows:
            k = abs(m)
            if k not in parts:
                if k == 0:
                    parts[0] = np.zeros_like(s), s * v[1]
                else:
                    c = math.sqrt((2 * l + 1) * (l * l - k * k) / (2 * l - 1))
                    parts[k] = (-k / n) * v[k], (l * x * v[k] - c * v_prev[k]) / n
            real_t, real_p = parts[k]
            if m >= 0:
                const_t, const_p = 1, -1j
            else:
                sign = (-1) ** (k + 1)
                const_t, const_p = sign, sign * 1j
            if magnetic:
                _write(out_t[q], real_t, phases[m], const_t)
                _write(out_p[q], real_p, phases[m], const_p)
            else:
                _write(out_t[q], real_p, phases[m], -const_p)
                _write(out_p[q], real_t, phases[m], const_t)
    return out_t, out_p


def _single_mode(family: str, mode, theta, phi) -> TangentVector:
    l, m = mode
    if l < 1 or abs(m) > l:
        raise ValueError(f"vector spherical harmonics need l >= 1 and |m| <= l, got {mode}")
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    bt, bp = mode_components((ModeEntry(family, l, m),), th, ph)
    return TangentVector(bt[0].reshape(th.shape)[()], bp[0].reshape(th.shape)[()])


def vsh_x(mode, theta, phi) -> TangentVector:
    """Vector spherical harmonic X_{l,m} at (theta, phi); l >= 1 required."""
    return _single_mode(MAGNETIC, mode, theta, phi)


def r_cross_x(mode, theta, phi) -> TangentVector:
    """r_hat x X_{l,m}: the tangent-plane rotation (-X_phi, X_theta)."""
    return _single_mode(ELECTRIC, mode, theta, phi)
