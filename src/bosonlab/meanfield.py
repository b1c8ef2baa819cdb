"""Lattice Hartree dynamics of the condensate and its derived fields.

The condensate obeys  i d/dt phi = (-Lap + V_ext(t) + vbar - mu) phi  with
vbar the interaction smeared by |phi|^2 and mu a real phase fixing constant.
Two private array primitives define this generator once: ``_mean_field``
gives (vbar, mu) from one |phi|^2 and ``_slope`` gives h[phi] phi = h0 phi +
(vbar - mu) phi, with no M x M table beyond h0.  The fixed-step classical
fourth-order march ``hartree_evolve`` calls them directly, folds -i into its
step scalars, builds no per-stage object, and writes phi at every grid time
and the four stage condensates of every step into one (steps + 1, 4, M)
buffer, of which ``phis`` and ``stage_phis`` are read-only views, so that all
N-body evolutions consume the identical trajectory and its stages
(``HartreeTrajectory.stage_phis`` and ``stage_times``) without stepping phi
again; a norm that drifts by more than ``DRIFT_ABORT`` or is not finite
aborts the march.  The diagnostics mu and the Sobolev proxy along it are
computed on demand.  ``condensate_at`` adds vbar and mu to one condensate
or to a stack (S, M) of them at S times."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IntegratorError
from .model import Model, _read_only, grid_index

__all__ = [
    "Condensate",
    "HartreeTrajectory",
    "condensate_at",
    "hartree_evolve",
    "hartree_energy",
    "hk_proxy",
    "one_body_norm",
]

DRIFT_ABORT = 1e-6


def one_body_norm(phi: np.ndarray, cell: float) -> float:
    return float(np.sqrt(cell * np.vdot(phi, phi).real))


def _mean_field(phi: np.ndarray, wmat: np.ndarray, cell: float):
    """(vbar, mu) of one condensate or of each row of a stack (S, M), both
    from one |phi|^2: the mean-field potential vbar = w * |phi|^2, a min-image
    lattice convolution, and the phase-fixing constant mu, half the
    interaction energy of the density; mu is a float, or (S,) for a stack."""
    # ndarray.dot: the BLAS call of @ (same bits) at half its overhead at small M
    density = np.abs(phi) ** 2
    if density.ndim == 1:
        vb = cell * wmat.dot(density)
        return vb, float(0.5 * cell * density.dot(vb))
    vb = cell * (density @ wmat.T)
    return vb, 0.5 * cell * np.einsum("sm,sm->s", density, vb)


def _slope(h0: np.ndarray, phi: np.ndarray, vb: np.ndarray, mu: float) -> np.ndarray:
    """h[phi] phi = h0 phi + (vbar - mu) phi of one condensate."""
    return h0.dot(phi) + (vb - mu) * phi


@dataclass(frozen=True)
class Condensate:
    """Condensate amplitudes at a time stamp with their mean field and mu.

    A stack of stage condensates holds phi and vbar as (S, M) arrays and t
    and mu as (S,) arrays.
    """

    phi: np.ndarray
    t: float
    vbar: np.ndarray
    mu: float


def condensate_at(phi: np.ndarray, t, model: Model) -> Condensate:
    """The condensate phi at time t, or a stack of them: phi (S, M), t (S,)."""
    phi = np.asarray(phi, dtype=np.complex128)
    return Condensate(phi, t, *_mean_field(phi, model.pair, model.cell))


@dataclass(frozen=True)
class HartreeTrajectory:
    """Condensate and its norm stored at every grid time, and the four RK4
    stage condensates of every step.

    Stage j of step k, the condensate at which the march evaluated its j-th
    slope, is row 4k + j of ``stage_phis``, at time ``stage_times[4k + j]``;
    row 4k is phi_k, since both arrays are views of one buffer.
    ``mus`` and ``hk`` (the discrete Sobolev proxy) are per-step diagnostics
    that the flow itself does not need; each is computed from ``phis`` on
    first access and kept.
    """

    model: Model
    times: np.ndarray
    phis: np.ndarray     # (steps+1, M)
    norms: np.ndarray
    stage_phis: np.ndarray  # (4 steps, M)

    @cached_property
    def mus(self) -> np.ndarray:
        return np.array([_mean_field(phi, self.model.pair, self.model.cell)[1] for phi in self.phis])

    @cached_property
    def hk(self) -> np.ndarray:
        return np.array([hk_proxy(phi, self.model) for phi in self.phis])

    @property
    def dt(self) -> float:
        return self.model.config.dt

    @property
    def stage_times(self) -> np.ndarray:
        """The time of each row of ``stage_phis``: t_k + (0, dt/2, dt/2, dt)."""
        return (self.times[:-1, None] + self.dt * np.array([0.0, 0.5, 0.5, 1.0])).ravel()

    def index_of(self, t: float) -> int:
        """The grid index of time t, which must be stored there; else ``ValueError``."""
        i = grid_index(t, self.dt)
        if not 0 <= i < len(self.times) or grid_index(self.times[i], self.dt) != i:
            raise ValueError(f"time {t} is not on the stored grid")
        return i

    def phi(self, i: int) -> np.ndarray:
        return self.phis[i]

    def hk_integral(self) -> float:
        """Trapezoid of the Sobolev proxy over the stored window [0, t_end]."""
        return float(np.trapezoid(self.hk, dx=self.dt))


def hartree_evolve(phi0: np.ndarray, t0: float, t1: float, model: Model) -> HartreeTrajectory:
    """Integrate the Hartree equation over the global grid, storing every step
    and its four stage condensates.

    No renormalisation is applied; the norm drift is a diagnostic, aborting
    above 1e-6 or when the norm is not finite.  A time off the grid raises
    ``ValueError``, and so does a start other than t0 = 0: a trajectory
    counts its grid indices from 0 (``HartreeTrajectory.index_of``, ``phi``).
    """
    cfg = model.config
    dt = cfg.dt
    if grid_index(t0, dt) != 0:
        raise ValueError(f"a Hartree trajectory starts at t0 = 0, got t0={t0}")
    steps = grid_index(t1, dt)
    if steps < 0:
        raise ValueError("t1 must be >= t0")
    # row k holds phi_k and the three later stage condensates of step k, so
    # the stage rows 4k..4k+3 of ``stage_phis`` start with phi_k itself
    m = np.size(phi0)
    buf = np.empty((steps + 1, 4, m), dtype=np.complex128)
    phis = buf[:, 0]
    norms = np.empty(steps + 1)
    phis[0] = phi0
    phi = phis[0]

    wmat, cell, h0 = model.pair, model.cell, model.h0
    norm0 = one_body_norm(phi, cell)
    for k in range(steps + 1):
        t = k * dt
        norms[k] = one_body_norm(phi, cell)
        if not abs(norms[k] - norm0) <= DRIFT_ABORT:
            if not np.isfinite(norms[k]):
                raise IntegratorError(f"non-finite condensate amplitudes at t={t:.6g}")
            raise IntegratorError(
                f"condensate norm drift {abs(norms[k] - norm0):.3e} at t={t:.6g} exceeds {DRIFT_ABORT}"
            )
        if k < steps:
            stages = buf[k]
            h_mid = h0(t + 0.5 * dt)
            k1 = _slope(h0(t), phi, *_mean_field(phi, wmat, cell))
            stage = np.add(phi, -0.5j * dt * k1, out=stages[1])
            k2 = _slope(h_mid, stage, *_mean_field(stage, wmat, cell))
            stage = np.add(phi, -0.5j * dt * k2, out=stages[2])
            k3 = _slope(h_mid, stage, *_mean_field(stage, wmat, cell))
            stage = np.add(phi, -1j * dt * k3, out=stages[3])
            k4 = _slope(h0(t + dt), stage, *_mean_field(stage, wmat, cell))
            phi = np.add(phi, ((-1j * dt) / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=phis[k + 1])

    _read_only(buf)  # so that a symmetric sector knows each stage build's condensates by identity
    times = np.arange(steps + 1) * dt
    return HartreeTrajectory(model, times, buf[:, 0], norms, buf[:-1].reshape(4 * steps, m))


def hk_proxy(phi: np.ndarray, model: Model) -> float:
    """Discrete Sobolev diagnostic sum_k (1 + |k|^2)^s |phi_hat(k)|^2, s = ceil(d/2).

    Normalised so that the s = 0 value equals the squared lattice norm; this
    is a proxy only, no continuum-equivalence claim is attached to it.
    """
    cfg = model.config
    L, d, h = cfg.sites_per_dim, cfg.dimension, cfg.spacing
    grid = np.asarray(phi, dtype=np.complex128).reshape((L,) * d)
    phat = np.fft.fftn(grid) * (h**d / np.sqrt(cfg.torus_length**d))
    k1 = 2.0 * np.pi * np.fft.fftfreq(L, d=h)
    if d == 1:
        ksq = k1**2
    else:
        ka, kb = np.meshgrid(k1, k1, indexing="ij")
        ksq = ka**2 + kb**2
    s = (d + 1) // 2
    return float(np.sum((1.0 + ksq) ** s * np.abs(phat) ** 2))


def hartree_energy(phi: np.ndarray, t: float, model: Model) -> float:
    """Energy proxy <phi, (-Lap + V_ext) phi> + mu (reported in trace CSVs)."""
    kin = model.cell * np.vdot(phi, model.h0(t) @ phi).real
    return float(kin + _mean_field(phi, model.pair, model.cell)[1])
