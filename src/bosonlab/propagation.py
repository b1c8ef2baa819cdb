"""Shared fixed-step propagator for the full and auxiliary evolutions.

One classical explicit fourth-order kernel (``rk4_step``) and one grid loop
(``march``) drive the plain Schroedinger flow, the mean-field-coupled
auxiliary flow and the quadrature oracle's transports between nodes; the
correction hierarchy runs the same kernel and the same guard
(``check_state``) in its own loop.  Composite states are plain lists whose
leaves support ``+`` and scalar ``*``; the lead state, whose norm drift is
guarded, is the state itself or the first leaf.

The auxiliary flow and the hierarchy step only their N-body members.  The
condensate their generator needs at each RK4 stage never depends on the
members, so ``stage_rhs`` takes it from the Hartree trajectory: for a chunk
of grid steps one vectorised ``meanfield.rk4_stages`` pass gives the four
stage condensates of each step from its grid phi, and
``hamiltonians.stage_pieces`` builds their pieces ``stage_batch`` stages at
a time.  The right-hand side consumes them in stage order and refuses a
stage whose time is not the one it is called at.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, IntegratorError
from .hamiltonians import apply_H, apply_stage, stage_batch, stage_pieces
from .meanfield import DRIFT_ABORT, Condensate, HartreeTrajectory, rk4_stages
from .model import Model

__all__ = ["rk4_step", "check_state", "march", "stage_rhs", "evolve_full", "evolve_aux"]


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
    return y[0] if isinstance(y, list) else y


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


# Steps per ``rk4_stages`` pass at least.  A pass costs ~25 small numpy calls
# however many steps it covers: at M = 9, one stage per build, the stage
# condensates of a 20-step hierarchy took 2.9 ms one step at a time and
# 0.6 ms eight at a time (best of 3 in one process, shared 2-core VM).
SCHEDULE_STEPS = 8


def _stage_schedule(trajectory: HartreeTrajectory, i0: int, i1: int, particles: int):
    """The pieces of the four RK4 stages of each grid step i0 .. i1-1, in
    stage order.  The stage condensates of a chunk of steps come from one
    ``rk4_stages`` pass over their grid phis; a chunk is a multiple of
    ``stage_batch`` steps, so its 4 x chunk stages make whole builds."""
    model, dt = trajectory.model, trajectory.dt
    batch = stage_batch(model.config.site_count)
    chunk = batch * -(-SCHEDULE_STEPS // batch)
    for lo in range(i0, i1, chunk):
        hi = min(lo + chunk, i1)
        stages, _ = rk4_stages(trajectory.phis[lo:hi], np.arange(lo, hi) * dt, dt, model)
        # one stage axis in stage order: stage j of step i is entry 4 i + j
        phi, t, vbar, mu = (np.stack(values, axis=1).reshape(-1, *values[0].shape[1:])
                            for values in zip(*((c.phi, c.t, c.vbar, c.mu) for c in stages)))
        for part in (slice(s, s + batch) for s in range(0, len(t), batch)):
            yield from stage_pieces(Condensate(phi[part], t[part], vbar[part], mu[part]), model, particles)


def stage_rhs(trajectory: HartreeTrajectory, i0: int, i1: int, particles: int, sources: list):
    """The right-hand side -i [Htilde psi_i + C psi_c(i) + Q psi_q(i)] of a
    list of members for ``rk4_step`` over the grid steps i0 .. i1-1.

    ``sources`` is as in ``hamiltonians.apply_stage``.  The pieces of the
    stages come precomputed from the trajectory, so the right-hand side
    must be called once per stage, in order; a call at another time than
    the next stage's raises ``ConsistencyError``.
    """
    schedule = _stage_schedule(trajectory, i0, i1, particles)
    model = trajectory.model

    def rhs(time, members):
        pieces = next(schedule, None)
        if pieces is None or abs(pieces.cond.t - time) > 1e-12:
            expected = "no further stage" if pieces is None else f"the stage at t={pieces.cond.t}"
            raise ConsistencyError(f"stage right-hand side called at t={time}, expected {expected}")
        return apply_stage(pieces, members, sources, model)

    return rhs


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
    """Auxiliary evolution from time s to t under Htilde, whose condensate
    at each stage is taken from the trajectory (``stage_rhs``)."""
    i0 = trajectory.index_of(s)
    i1 = trajectory.index_of(t)
    if i1 < i0:
        raise ValueError("t must be >= s")
    rhs = stage_rhs(trajectory, i0, i1, psi0.particles, [(None, None)])
    return march(rhs, [psi0.copy()], i0, i1, trajectory.dt)[0]
