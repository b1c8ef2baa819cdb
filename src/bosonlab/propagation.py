"""Shared fixed-step propagator for the full and auxiliary evolutions.

One classical explicit fourth-order kernel (``rk4_step``) and one grid loop
(``march``) drive the plain Schroedinger flow, the mean-field-coupled
auxiliary flow and the quadrature oracle's transports between nodes; the
correction hierarchy runs the same kernel and the same guard
(``check_state``) in its own loop.  Composite states are plain lists whose
leaves support ``+`` and scalar ``*``; the condensate rides along as the
first leaf wherever the generator depends on it, stepped by
``meanfield.hartree_rhs``, so stage values of phi and of the N-body state
stay synchronous within a step.  The lead state, whose norm drift is
guarded, is the state itself or the leaf right behind the condensate.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegratorError
from .hamiltonians import apply_H, apply_stage, pieces_at
from .meanfield import DRIFT_ABORT, HartreeTrajectory, hartree_rhs
from .model import Model

__all__ = ["rk4_step", "check_state", "march", "evolve_full", "evolve_aux"]


def _axpy(y, a, k):
    if isinstance(y, list):
        return [_axpy(yi, a, ki) for yi, ki in zip(y, k)]
    return y + a * k


def _leaf_finite(y) -> bool:
    if isinstance(y, list):
        return all(_leaf_finite(yi) for yi in y)
    amps = getattr(y, "amps", y)
    return bool(np.all(np.isfinite(amps)))


def _lead(y):
    return y[1] if isinstance(y, list) else y


def rk4_step(rhs, t: float, y, dt: float):
    """One classical fourth-order step of y' = rhs(t, y) on a state tree."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, _axpy(y, 0.5 * dt, k1))
    k3 = rhs(t + 0.5 * dt, _axpy(y, 0.5 * dt, k2))
    k4 = rhs(t + dt, _axpy(y, dt, k3))
    out = _axpy(y, dt / 6.0, k1)
    out = _axpy(out, dt / 3.0, k2)
    out = _axpy(out, dt / 3.0, k3)
    return _axpy(out, dt / 6.0, k4)


def check_state(y, t: float, norm0: float):
    """Abort unless every leaf of ``y`` is finite and the lead state's norm
    lies within ``DRIFT_ABORT`` of ``norm0``."""
    if not _leaf_finite(y):
        raise IntegratorError(f"non-finite amplitudes at t={t:.6g}")
    drift = abs(_lead(y).norm() - norm0)
    if drift > DRIFT_ABORT:
        raise IntegratorError(f"norm drift {drift:.3e} at t={t:.6g} exceeds {DRIFT_ABORT}")


def march(rhs, y, i0: int, i1: int, dt: float, observer=None):
    """Advance y' = rhs(t, y) from grid index i0 to i1 in steps of dt.

    The state is guarded by ``check_state`` against the lead norm at i0 and
    then passed to ``observer(i, t, y)`` at every grid index including both
    endpoints.  Returns the state at i1.
    """
    norm0 = _lead(y).norm()
    for i in range(i0, i1 + 1):
        t = i * dt
        check_state(y, t, norm0)
        if observer is not None:
            observer(i, t, y)
        if i < i1:
            y = rk4_step(rhs, t, y, dt)
    return y


def evolve_full(psi0, t1: float, model: Model, t0: float = 0.0, observer=None):
    """Propagate under the full Hamiltonian from t0 to t1 on the global grid.

    ``observer(i, t, psi)`` is called at every stored grid index including the
    endpoints.  Returns the final state; cumulative norm drift beyond
    ``DRIFT_ABORT`` aborts.
    """
    dt = model.config.dt
    i0, i1 = int(round(t0 / dt)), int(round(t1 / dt))
    if i1 < i0:
        raise ValueError("t1 must be >= t0")
    return march(lambda t, y: -1j * apply_H(t, y, model), psi0.copy(), i0, i1, dt, observer)


def evolve_aux(psi0, s: float, t: float, trajectory: HartreeTrajectory):
    """Auxiliary evolution from time s to t, restarting phi from the trajectory.

    The condensate leaf evolves by its own Hartree flow (``hartree_rhs``)
    inside the same staged step, so it agrees with the stored trajectory at
    every grid time up to roundoff.
    """
    i0 = trajectory.index_of(s)
    i1 = trajectory.index_of(t)
    if i1 < i0:
        raise ValueError("t must be >= s")
    model = trajectory.model

    def rhs(time, y):
        phi, psi = y
        pieces = pieces_at(phi, time, model)
        return [hartree_rhs(pieces.cond, model), *apply_stage(pieces, [psi], [(None, None)], model)]

    y = march(rhs, [trajectory.phi(i0).copy(), psi0.copy()], i0, i1, trajectory.dt)
    return y[1]
