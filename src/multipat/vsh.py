"""Vector spherical harmonics on the far-field sphere.

X_{l,m} is the tangential harmonic built from the angular-momentum operator
acting on Y_{l,m}; r_hat x X_{l,m} is its 90-degree tangent-plane rotation.
mode_components() evaluates every mode of a set in one pass: one
orthonormal associated-Legendre recurrence per order m, carried as
P_l^m / sin(theta) so that no expression divides by sin(theta) and the
poles need no special case. vsh_x() and r_cross_x() are single-mode views
of it, and spherical_harmonics() gives the scalar Y_{l,m} from the same
recurrence. Mode bookkeeping (the flat q <-> (family, l, m) ordering used by
every matrix in the toolkit) lives here as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    def index_of(self, family: str, l: int, m: int) -> int:
        for q, entry in enumerate(self.entries):
            if entry == (family, l, m):
                return q
        raise KeyError(f"mode ({family}, {l}, {m}) not in set")


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


def _sectoral(s: np.ndarray, m_max: int):
    """Yield (0, Pbar_0^0), then (m, Pbar_m^m / sin(theta)) for m = 1..m_max.

    The seed of order m >= 1 is a constant times s^(m-1): nothing overflows
    at high order and the poles are ordinary points.
    """
    p_diag = np.full_like(s, 1.0 / math.sqrt(4.0 * math.pi))  # Pbar_{m-1}^{m-1}
    yield 0, p_diag
    for m in range(1, m_max + 1):
        u_diag = -math.sqrt((2 * m + 1) / (2 * m)) * p_diag
        yield m, u_diag
        p_diag = s * u_diag


def _raise_degree(x: np.ndarray, m: int, seed: np.ndarray, l_max: int):
    """Yield (l, v_l, v_{l-1}) for l = m..l_max, where v_l = Pbar_l^m / f
    for any f that does not depend on l, seeded with v_m (v_{m-1} = 0).

    The orthonormal three-term recurrence in l at fixed order m; it is
    linear, so it carries Pbar_l^m and Pbar_l^m / sin(theta) alike.
    """
    v_prev, v = np.zeros_like(x), seed
    for l in range(m, l_max + 1):
        if l == m + 1:
            v_prev, v = v, math.sqrt(2 * m + 3) * x * v
        elif l > m + 1:
            a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
            b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
            v_prev, v = v, a * (x * v - b * v_prev)
        yield l, v, v_prev


def _by_order(modes, min_order: int) -> dict[int, dict[int, list[tuple[int, int]]]]:
    """Row indices of (l, m) pairs grouped as
    {max(|m|, min_order): {l: [(q, m), ...]}}."""
    rows: dict[int, dict[int, list[tuple[int, int]]]] = {}
    for q, (l, m) in enumerate(modes):
        rows.setdefault(max(abs(m), min_order), {}).setdefault(l, []).append((q, m))
    return rows


def spherical_harmonics(modes, theta, phi) -> np.ndarray:
    """Y_{l,m}(theta, phi) of every (l, m) pair in modes at flat points,
    shape (len(modes), npts).

    Orthonormal over the sphere, with the Condon-Shortley phase:
    Y_{l,m} = Pbar_l^m(cos theta) e^{j m phi} and
    Y_{l,-m} = (-1)^m conj(Y_{l,m}). Pbar comes from the same per-order
    recurrence as mode_components().
    """
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    x, s = np.cos(theta), np.sin(theta)
    legendre = np.empty((len(modes), theta.size))  # Pbar_l^|m| (-1)^m for m < 0
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


def _write(row: np.ndarray, real: np.ndarray, phase, const: complex) -> None:
    """row = const * real * phase, in place."""
    np.multiply(phase, real, out=row)
    if const != 1:
        row *= const


def mode_components(entries, theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """Theta and phi components of every mode at flat points, each of shape
    (len(entries), npts): X_{l,m} for magnetic entries, r_hat x X_{l,m} =
    (-X_phi, X_theta) for electric ones.

    With Pbar_l^m the orthonormal associated Legendre function (Condon-
    Shortley phase), x = cos(theta), s = sin(theta), n = sqrt(l(l+1)) and
    u_l^m = Pbar_l^m / s, one upward recurrence per order m >= 1 gives

      X_theta = -(m/n) u_l^m e^{j m phi}
      X_phi   = (-j/n) dPbar_l^m/dtheta e^{j m phi}
      dPbar_l^m/dtheta = l x u_l^m - sqrt((2l+1)(l^2-m^2)/(2l-1)) u_{l-1}^m
      dPbar_l^0/dtheta = n s u_l^1

    and X_{l,-m} = (-1)^(m+1) conj(X_{l,m}). The seed u_m^m is a constant
    times s^(m-1), so nothing overflows at high degree and the poles are
    ordinary points. Rows are written in place; the temporaries are
    O(npts).
    """
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    x, s = np.cos(theta), np.sin(theta)
    out_t = np.empty((len(entries), theta.size), dtype=complex)
    out_p = np.empty_like(out_t)
    # Order-0 modes come out of the order-1 recurrence.
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
            x_phi = (l * x * u - c * u_prev) / n  # X_phi without its -j
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
