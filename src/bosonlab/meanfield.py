"""Lattice Hartree dynamics of the condensate and its derived fields.

The condensate obeys  i d/dt phi = (-Lap + V_ext(t) + vbar - mu) phi  with
vbar the interaction smeared by |phi|^2 and mu a real phase fixing constant.
``hartree_rhs`` is the one definition of this generator and builds no M x M
table beyond h0.  The fixed-step classical fourth-order integrator stores phi
and its norm at every grid time so that all N-body evolutions can consume
the identical trajectory; the diagnostics mu and the Sobolev proxy along the
trajectory are computed on demand.  ``condensate_at`` and ``hartree_rhs``
also take a stack (S, M) of condensates at S times, and ``rk4_stages``
gives the four stage condensates of a step, or of many steps in one
vectorised pass: the auxiliary flow and the correction hierarchy take their
stage condensates from it instead of stepping phi along.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IntegratorError
from .model import Model, grid_index

__all__ = [
    "Condensate",
    "HartreeTrajectory",
    "vbar",
    "mu",
    "condensate_at",
    "hartree_rhs",
    "rk4_stages",
    "hartree_evolve",
    "hk_proxy",
    "one_body_norm",
]

DRIFT_ABORT = 1e-6


def one_body_norm(phi: np.ndarray, cell: float) -> float:
    return float(np.sqrt(cell * np.vdot(phi, phi).real))


def vbar(phi: np.ndarray, pair, cell: float) -> np.ndarray:
    """Mean-field potential (w * |phi|^2)(x) as a min-image lattice convolution,
    of one condensate or of each row of a stack (S, M)."""
    wmat = np.asarray(getattr(pair, "mat", pair))
    density = np.abs(np.asarray(phi)) ** 2
    return cell * (wmat @ density if density.ndim == 1 else density @ wmat.T)


def _mu(phi: np.ndarray, vb: np.ndarray, cell: float):
    if phi.ndim == 1:
        return float(0.5 * cell * np.dot(np.abs(phi) ** 2, vb))
    return 0.5 * cell * np.einsum("sm,sm->s", np.abs(phi) ** 2, vb)


def mu(phi: np.ndarray, pair, cell: float) -> float:
    """Phase-fixing constant: half the interaction energy of the density."""
    return _mu(phi, vbar(phi, pair, cell), cell)


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
    vb = vbar(phi, model.pair, model.cell)
    return Condensate(phi=phi, t=t, vbar=vb, mu=_mu(phi, vb, model.cell))


def hartree_rhs(cond: Condensate, model: Model) -> np.ndarray:
    """Right-hand side -i h[phi](t) phi = -i (h0(t) phi + (vbar - mu) phi).

    The only definition of the condensate's generator, for one condensate or
    a stack of them (each with h0 at its own time).  It builds no M x M
    table beyond h0.
    """
    h0, phi = model.h0(cond.t), cond.phi
    if phi.ndim == 1:
        return -1j * (h0 @ phi + (cond.vbar - cond.mu) * phi)
    h0_phi = phi @ h0.T if h0.ndim == 2 else np.matmul(h0, phi[..., None])[..., 0]
    return -1j * (h0_phi + (cond.vbar - cond.mu[:, None]) * phi)


def rk4_stages(phi: np.ndarray, t, dt: float, model: Model):
    """The four stage condensates of one classical RK4 step of the Hartree
    flow from phi at t, at phi, phi + dt/2 k1, phi + dt/2 k2 and phi + dt k3,
    and the slopes (k1, k2, k3).

    phi may be a stack (S, M) of grid condensates at the times t (S,): one
    vectorised pass then gives the stages of S steps.
    """
    c1 = condensate_at(phi, t, model)
    k1 = hartree_rhs(c1, model)
    c2 = condensate_at(phi + 0.5 * dt * k1, t + 0.5 * dt, model)
    k2 = hartree_rhs(c2, model)
    c3 = condensate_at(phi + 0.5 * dt * k2, t + 0.5 * dt, model)
    k3 = hartree_rhs(c3, model)
    c4 = condensate_at(phi + dt * k3, t + dt, model)
    return (c1, c2, c3, c4), (k1, k2, k3)


def _rk4_phi(phi: np.ndarray, t: float, dt: float, model: Model) -> np.ndarray:
    stages, (k1, k2, k3) = rk4_stages(phi, t, dt, model)
    k4 = hartree_rhs(stages[3], model)
    return phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class HartreeTrajectory:
    """Condensate and its norm stored at every grid time.

    ``mus`` and ``hk`` (the discrete Sobolev proxy) are per-step diagnostics
    that the flow itself does not need; each is computed from ``phis`` on
    first access and kept.
    """

    model: Model
    times: np.ndarray
    phis: np.ndarray     # (steps+1, M)
    norms: np.ndarray

    @cached_property
    def mus(self) -> np.ndarray:
        return np.array([mu(phi, self.model.pair, self.model.cell) for phi in self.phis])

    @cached_property
    def hk(self) -> np.ndarray:
        return np.array([hk_proxy(phi, self.model) for phi in self.phis])

    @property
    def dt(self) -> float:
        return self.model.config.dt

    def index_of(self, t: float) -> int:
        """The grid index of time t, which must be stored there; else ``ValueError``."""
        i = grid_index(t, self.dt)
        if not 0 <= i < len(self.times) or grid_index(self.times[i], self.dt) != i:
            raise ValueError(f"time {t} is not on the stored grid")
        return i

    def phi(self, i: int) -> np.ndarray:
        return self.phis[i]

    def condensate(self, i: int) -> Condensate:
        return condensate_at(self.phis[i], float(self.times[i]), self.model)

    def hk_integral(self, i0: int, i1: int) -> float:
        """Trapezoid of the Sobolev proxy over [t_i0, t_i1]."""
        if i1 == i0:
            return 0.0
        seg = self.hk[i0 : i1 + 1]
        return float(np.trapezoid(seg, dx=self.dt))


def hartree_evolve(phi0: np.ndarray, t0: float, t1: float, model: Model) -> HartreeTrajectory:
    """Integrate the Hartree equation over the global grid, storing every step.

    No renormalisation is applied; the norm drift is a diagnostic, aborting
    above 1e-6.  A time off the grid raises ``ValueError``, and so does a
    start other than t0 = 0: a trajectory counts its grid indices from 0
    (``HartreeTrajectory.index_of``, ``phi``).
    """
    cfg = model.config
    dt = cfg.dt
    if grid_index(t0, dt) != 0:
        raise ValueError(f"a Hartree trajectory starts at t0 = 0, got t0={t0}")
    steps = grid_index(t1, dt)
    if steps < 0:
        raise ValueError("t1 must be >= t0")
    phi = np.asarray(phi0, dtype=np.complex128).copy()
    m = phi.size
    phis = np.empty((steps + 1, m), dtype=np.complex128)
    norms = np.empty(steps + 1)

    norm0 = one_body_norm(phi, model.cell)
    for k in range(steps + 1):
        t = k * dt
        phis[k] = phi
        norms[k] = one_body_norm(phi, model.cell)
        if abs(norms[k] - norm0) > DRIFT_ABORT:
            raise IntegratorError(
                f"condensate norm drift {abs(norms[k] - norm0):.3e} at t={t:.6g} exceeds {DRIFT_ABORT}"
            )
        if k < steps:
            phi = _rk4_phi(phi, t, dt, model)
            if not np.all(np.isfinite(phi)):
                raise IntegratorError(f"non-finite condensate amplitudes after step at t={t:.6g}")

    times = np.arange(steps + 1) * dt
    return HartreeTrajectory(model=model, times=times, phis=phis, norms=norms)


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
    return float(kin + mu(phi, model.pair, model.cell))
