"""Shared fixed-step propagator for the full and auxiliary evolutions.

One classical explicit fourth-order kernel (``rk4_step``) and one grid loop
(``march``) drive the plain Schroedinger flow, the mean-field-coupled
auxiliary flow and the quadrature oracle's transports between nodes; the
correction hierarchy runs the same kernel and the same guard
(``check_state``) in its own loop.  It steps i y' = rhs(t, y) with -i in its
step scalars, so a right-hand side is the generator's action, as the
equations read.  Every evolution steps one block, a state whose amplitudes
carry a leading member axis (one row for the full and auxiliary flows); the
guard requires every member to be finite and the lead, row 0, to keep its
norm.  Each step writes a fresh block, so a row handed out as a state is
never overwritten.

The auxiliary flow and the hierarchy step only their N-body members.  The
condensate their generator needs at each RK4 stage never depends on the
members, so ``stage_rhs`` takes it from the Hartree trajectory, which
stores the four stage condensates of each step (``stage_phis``, at
``stage_times``): ``hamiltonians.stage_pieces`` builds their pieces
``stage_batch`` stages at a time, with vbar and mu from one
``condensate_at`` per build, of only the split kernels the flow consumes
(Htilde, with C at order 2, all three from order 3).  The right-hand side
consumes them in stage order and refuses a stage whose time is not the one
it is called at.  The gather table of the full flow's ``apply_H`` is built
on first use.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, IntegratorError
from .hamiltonians import apply_H, apply_stage, stage_batch, stage_entries, stage_pieces
from .meanfield import DRIFT_ABORT, HartreeTrajectory, condensate_at
from .model import Model, grid_index

__all__ = ["rk4_step", "check_state", "march", "stage_rhs", "evolve_full", "evolve_aux"]


def _lead(y):
    """Row 0 of a block, its lead, as a state."""
    return y.with_amps(y.amps[0])


def rk4_step(rhs, t: float, y, dt: float):
    """One classical fourth-order step of i y' = rhs(t, y), -i folded into the
    step scalars, on a block ``y`` (amplitudes with a leading member axis).
    ``rhs`` maps a block to one of the same shape; the step returns a fresh block."""
    h = -1j * dt
    k = rhs(t, y).amps
    out = y.amps + (h / 6.0) * k
    for frac, weight in ((0.5, h / 3.0), (0.5, h / 3.0), (1.0, h / 6.0)):
        k = rhs(t + frac * dt, y.with_amps(y.amps + (frac * h) * k)).amps
        out += weight * k
    return y.with_amps(out)


def check_state(y, t: float, norm0: float):
    """Abort unless every member of the block ``y`` is finite and its lead,
    row 0, has a finite norm (as a state) within ``DRIFT_ABORT`` of ``norm0``."""
    if not np.isfinite(y.amps).all():
        raise IntegratorError(f"non-finite amplitudes at t={t:.6g}")
    drift = abs(_lead(y).norm() - norm0)
    if not drift <= DRIFT_ABORT:  # a NaN drift aborts too
        raise IntegratorError(f"norm drift {drift:.3e} at t={t:.6g} exceeds {DRIFT_ABORT}")


def march(rhs, y, i0: int, i1: int, dt: float, observer=None):
    """Advance the block i y' = rhs(t, y) from grid index i0 to i1 in steps of dt.

    The block is guarded by ``check_state`` against its lead's norm at i0
    and then passed to ``observer(i, t, y)`` at every grid index including
    both endpoints.  Returns the block at i1; i1 < i0 raises ``ValueError``.
    """
    if i1 < i0:
        raise ValueError(f"cannot march back from grid index {i0} to {i1}")
    norm0 = _lead(y).norm()
    for i in range(i0, i1 + 1):
        t = i * dt
        check_state(y, t, norm0)
        if observer is not None:
            observer(i, t, y)
        if i < i1:
            y = rk4_step(rhs, t, y, dt)
    return y


def _stage_schedule(trajectory: HartreeTrajectory, i0: int, i1: int, kernels: int):
    """The pieces of the four RK4 stages of each grid step i0 .. i1-1, in
    stage order, with the first ``kernels`` split kernels, built from the
    trajectory's stored stage condensates as they are asked for."""
    model = trajectory.model
    phis = trajectory.stage_phis[4 * i0 : 4 * i1]
    times = trajectory.stage_times[4 * i0 : 4 * i1]
    batch = stage_batch(model.config.site_count, kernels)
    for s in range(0, len(times), batch):
        yield from stage_pieces(condensate_at(phis[s : s + batch], times[s : s + batch], model), model, kernels)


def stage_rhs(trajectory: HartreeTrajectory, i0: int, i1: int, sources: list):
    """The hierarchy equation's right-hand side Htilde psi_i + C psi_c(i) +
    Q psi_q(i) of a block of members for ``rk4_step`` over grid steps i0 .. i1-1.

    ``sources`` is as in ``hamiltonians.stage_entries``.  The pieces of the
    stages come precomputed from the trajectory, for any N, so the right-
    hand side must be called once per stage, in order; a call at another
    time than the next stage's raises ``ConsistencyError``.
    """
    entries = stage_entries(sources)
    # the entries' operators index the kernels, Htilde first: build the run they reach
    schedule = _stage_schedule(trajectory, i0, i1, 1 + max(op for row in entries for op, _ in row))

    def rhs(time, members):
        pieces = next(schedule, None)
        if pieces is None or abs(pieces.cond.t - time) > 1e-12:
            expected = "no further stage" if pieces is None else f"the stage at t={pieces.cond.t}"
            raise ConsistencyError(f"stage right-hand side called at t={time}, expected {expected}")
        return apply_stage(pieces, members, entries)

    return rhs


def evolve_full(psi0, t1: float, model: Model, t0: float = 0.0, observer=None):
    """Propagate under the full Hamiltonian from t0 to t1 on the global grid.

    ``observer(i, t, psi)`` is called at every stored grid index including the
    endpoints.  Returns the final state; cumulative norm drift beyond
    ``DRIFT_ABORT`` aborts, and a time off the grid raises ``ValueError``.
    """
    dt = model.config.dt
    i0, i1 = grid_index(t0, dt), grid_index(t1, dt)
    watch = None if observer is None else lambda i, t, y: observer(i, t, _lead(y))
    return _lead(march(lambda t, y: apply_H(t, y, model), psi0.with_amps(psi0.amps[None].copy()),
                       i0, i1, dt, watch))


def evolve_aux(psi0, s: float, t: float, trajectory: HartreeTrajectory):
    """Auxiliary evolution from time s to t under Htilde, whose condensate
    at each stage is taken from the trajectory (``stage_rhs``)."""
    i0 = trajectory.index_of(s)
    i1 = trajectory.index_of(t)
    rhs = stage_rhs(trajectory, i0, i1, [(None, None)])
    return _lead(march(rhs, psi0.with_amps(psi0.amps[None].copy()), i0, i1, trajectory.dt))
