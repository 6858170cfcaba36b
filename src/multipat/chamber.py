"""Random multipath chamber simulation.

Each probe sees a sum over propagation paths; a path samples the antenna's
modified far field at a random launch direction, mixes the two
polarizations through a random angle, and applies a complex gain. The
whole chamber is a pure function of its seed, so experiments replay
exactly. A ChamberModel takes its launch trig once, when built (.trig), and
probe_voltages takes a field sampled from it as well as a field callable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .farfield import VshCoefficients, mode_basis
from .vsh import ModeSet


@dataclass
class ChamberModel:
    """Per-probe, per-path random parameters (all arrays N_s x N_p, the angles read-only)."""

    n_probes: int
    n_paths: int
    sigma_rho: float
    seed: int
    rho: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        shape = (self.n_probes, self.n_paths)
        for name in ("rho", "theta", "phi", "alpha"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
        self.cos_alpha, self.sin_alpha = np.cos(self.alpha), np.sin(self.alpha)  # read per antenna
        self.trig = np.sin(self.theta), np.cos(self.theta), np.sin(self.phi), np.cos(self.phi)
        for arr in (self.theta, self.phi, self.alpha, self.cos_alpha, self.sin_alpha, *self.trig):
            arr.flags.writeable = False  # an in-place write would leave the trig stale


def sample_chamber(seed: int, n_probes: int, n_paths: int, sigma_rho: float = 0.001) -> ChamberModel:
    """Draw a chamber realization.

    Draw order is fixed (rho real, rho imaginary, launch theta, launch phi,
    polarization alpha) from a single PCG64 stream, so a seed pins the model.
    Gains are complex normal; theta is uniform on (0, pi) as specified by
    the path model, not cosine-weighted.
    """
    if n_probes < 1 or n_paths < 1:
        raise ValueError("need at least one probe and one path")
    if not 0.0 < sigma_rho < math.inf:
        raise ValueError("sigma_rho must be positive and finite")
    rng = np.random.default_rng(seed)
    shape = (n_probes, n_paths)
    rho_re = rng.normal(0.0, sigma_rho, shape)
    rho_im = rng.normal(0.0, sigma_rho, shape)
    theta = rng.uniform(0.0, np.pi, shape)
    phi = rng.uniform(0.0, 2.0 * np.pi, shape)
    alpha = rng.uniform(0.0, 2.0 * np.pi, shape)
    return ChamberModel(
        n_probes=n_probes,
        n_paths=n_paths,
        sigma_rho=sigma_rho,
        seed=int(seed),
        rho=rho_re + 1j * rho_im,
        theta=theta,
        phi=phi,
        alpha=alpha,
    )


def probe_voltages(chamber: ChamberModel, field) -> np.ndarray:
    """Voltages at every probe for a radiating field: a callable (theta, phi)
    -> TangentVector, or a TangentVector sampled at the launch directions
    (dipole.grid_field(spec, chamber, k)) whose shape ends in N_s x N_p.

    v_k = sum_n rho_kn [E_theta(launch_kn) cos(alpha_kn)
                        + E_phi(launch_kn) sin(alpha_kn)]

    The sum runs over the last (path) axis, so a field with leading antenna
    axes gives one row of probe voltages per antenna from one call.
    """
    sampled = field(chamber.theta, chamber.phi) if callable(field) else field
    shapes = np.shape(sampled.e_theta), np.shape(sampled.e_phi)
    if not callable(field) and any(shape[-2:] != chamber.rho.shape for shape in shapes):
        raise ValueError(f"field shapes {shapes} must end in (N_s, N_p) = {chamber.rho.shape}")
    mixed = np.add(np.multiply(sampled.e_theta, chamber.cos_alpha),
                   np.multiply(sampled.e_phi, chamber.sin_alpha))
    return np.sum(np.multiply(chamber.rho, mixed), axis=-1)


@dataclass
class ChannelMatrix:
    """Linear map from multipole amplitude vectors to probe voltages. cond is
    taken once at construction; recon's solves check it against COND_ERROR."""

    entries: np.ndarray  # complex, N_s x mode_set.size
    mode_set: ModeSet
    cond: float = field(init=False)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.shape[1] != self.mode_set.size:
            raise ValueError(
                f"channel must be N_s x {self.mode_set.size}, got {self.entries.shape}"
            )
        self.cond = float(np.linalg.cond(self.entries))


def analytic_channel(chamber: ChamberModel, mode_set: ModeSet) -> ChannelMatrix:
    """Channel matrix built directly from the path parameters.

    Column q is the synthesis basis B_q at the launch directions, mixed and
    summed like probe_voltages, times the amplitude scale of mode q (-eta0
    for electric modes, 1 for magnetic ones):

      T[k, q] = scale_q sum_n rho_kn [B_q,theta cos(alpha) + B_q,phi sin(alpha)]

    Applied to an unscaled amplitude vector it reproduces probe_voltages of
    the truncated field exactly; against the exact field it differs by the
    truncation residual.
    """
    bt, bp = mode_basis(mode_set, chamber.theta, chamber.phi)
    mixed = bt * chamber.cos_alpha.ravel() + bp * chamber.sin_alpha.ravel()
    summed = np.einsum("qkn,kn->kq", mixed.reshape(mode_set.size, *chamber.rho.shape), chamber.rho)
    scale = VshCoefficients.from_amplitude_vector(mode_set, np.ones(mode_set.size)).values
    return ChannelMatrix(summed * scale, mode_set)


@dataclass
class ChamberSelection:
    """select_chamber's pick and its ranking: every candidate's cond(V_R),
    in seed order, and the index of the selected one."""

    chamber: ChamberModel
    voltage_matrix: np.ndarray  # the V_R the chamber was ranked by
    cond_v: list[float]
    index: int


def select_chamber(
    seeds,
    voltage_builder,
    n_probes: int,
    n_paths: int,
    sigma_rho: float = 0.001,
) -> ChamberSelection:
    """The candidate chamber with the best-conditioned reference voltages,
    the voltage matrix it was ranked by, and every candidate's cond(V_R).

    voltage_builder(chamber) returns the chamber's N_s x N_R reference
    voltage matrix as a fresh array; the set-up's builder is the closed form
    dipole.reference_voltages, bound to the reference axes and to scratch
    buffers that every candidate reuses. Candidates are built one at a time.
    Ties keep the earliest seed, so selection is deterministic.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one candidate seed")
    cond_v: list[float] = []
    best: tuple[int, ChamberModel, np.ndarray] | None = None
    for index, seed in enumerate(seeds):
        chamber = sample_chamber(seed, n_probes, n_paths, sigma_rho)
        v_matrix = voltage_builder(chamber)
        cond_v.append(float(np.linalg.cond(v_matrix)))
        if best is None or cond_v[-1] < cond_v[best[0]]:
            best = (index, chamber, v_matrix)
    index, chamber, v_matrix = best
    return ChamberSelection(chamber, v_matrix, cond_v, index)
