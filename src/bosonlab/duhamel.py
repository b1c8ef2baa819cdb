"""Correction hierarchy on top of the auxiliary evolution.

The order-a approximant is a sum of iterated-integral terms T_n^(k), one per
n-tuple over {cubic, quartic} insertions whose labels add to k.  Instead of
nested simplex integrals, the terms are realised as one coupled linear ODE
system

    i dPhi_n^(k)/dt = Htilde(t) Phi_n^(k) + C(t) Phi_{n-1}^(k-1) + Q(t) Phi_{n-1}^(k-2),

with Phi_0^(0)(0) = psi_0 and every other member starting at zero; the
simplex integrals satisfy exactly this recursion, so the hierarchy equals the
integral definition.  The members are the rows of one block, Phi_0^(0)
first; the condensate is not stepped along.  Each stage's right-hand side
(``propagation.stage_rhs``) is one ``hamiltonians.apply_stage`` over the
block with the pieces of that stage, whose condensate comes from the
Hartree trajectory and whose Htilde, C and Q kernels are built for many
stages at once; in the occupation basis it lifts h1 over the block in one
call and pair-annihilates it in one gather.  The system is stepped by the
shared one-step kernel and guarded after every step by the shared
``check_state``: every member must stay finite and Phi_0^(0), the lead,
must keep its norm.  Nested composite-trapezoid quadrature over the ordered
simplex is kept as an independent oracle for n <= 2; it transports between
its nodes with ``evolve_aux``.  ``correction_error`` is the one place that measures the
approximants against the full evolution, which with a zero pair table is
the hierarchy's lead, since Htilde = H there exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .hamiltonians import apply_C, apply_Q, pieces_at
from .meanfield import HartreeTrajectory, hartree_evolve
from .model import Model, check_correction_window
from .propagation import check_state, evolve_aux, evolve_full, rk4_step, stage_rhs

__all__ = [
    "tuple_set",
    "hierarchy_indices",
    "Hierarchy",
    "hierarchy_evolve",
    "assemble",
    "quadrature_Tnk",
    "first_order_defect_quadrature",
    "correction_error",
    "CorrectionResult",
]


def tuple_set(n: int, k: int) -> list[tuple[int, ...]]:
    """All n-tuples over {1, 2} whose entries sum to k; empty off n <= k <= 2n."""
    if n < 0:
        raise ValueError("tuple length must be nonnegative")
    if n == 0:
        return [()] if k == 0 else []
    if k < n or k > 2 * n:
        return []
    out = []
    for twos in combinations(range(n), k - n):
        entry = [1] * n
        for pos in twos:
            entry[pos] = 2
        out.append(tuple(entry))
    return out


def hierarchy_indices(order: int) -> list[tuple[int, int]]:
    """(n, k) pairs stored by an order-a hierarchy: n <= k <= min(2n, a-1)."""
    out = []
    for n in range(order):
        for k in range(n, min(2 * n, order - 1) + 1):
            out.append((n, k))
    return out


@dataclass
class Hierarchy:
    """Coupled family of correction terms advanced to a common time."""

    order: int
    entries: dict

    def norms(self) -> dict:
        return {key: state.norm() for key, state in self.entries.items()}


def hierarchy_evolve(psi0, order: int, t: float, trajectory: HartreeTrajectory) -> Hierarchy:
    """Advance the full hierarchy from 0 to t as one synchronous staged system.

    Source states enter each stage at the same internal stage values as the
    states they feed, preserving fourth-order accuracy of the coupled system;
    the stage condensates are those of the trajectory's own RK4 steps.
    """
    if order < 1:
        raise ValueError("hierarchy order must be >= 1")
    indices = hierarchy_indices(order)
    pos = {key: i for i, key in enumerate(indices)}
    # (0, 0) comes first in ``indices``, so it is the lead, row 0 of the block.
    amps = np.zeros((len(indices), *psi0.amps.shape), dtype=np.complex128)
    amps[0] = psi0.amps
    y = psi0.with_amps(amps)

    sources = [(pos.get((n - 1, k - 1)), pos.get((n - 1, k - 2))) for n, k in indices]
    dt = trajectory.dt
    i1 = trajectory.index_of(t)
    rhs = stage_rhs(trajectory, 0, i1, sources)
    norm0 = psi0.norm()
    for i in range(i1):
        y = rk4_step(rhs, i * dt, y, dt)
        check_state(y, (i + 1) * dt, norm0)

    entries = {key: y.with_amps(row) for key, row in zip(indices, y.amps)}
    return Hierarchy(order=order, entries=entries)


def assemble(hierarchy: Hierarchy, order: int):
    """Partial sum psi^(a) = sum_{k=0}^{a-1} sum_{n=ceil(k/2)}^{k} T_n^(k).

    The result is a raw Duhamel partial sum; no normalisation is applied.  A
    hierarchy that lacks a member of the sum raises ValueError.
    """
    if order < 1 or order > hierarchy.order:
        raise ValueError(f"order {order} exceeds hierarchy order {hierarchy.order}")
    total = None
    for k in range(order):
        for n in range((k + 1) // 2, k + 1):
            if (n, k) not in hierarchy.entries:
                raise ValueError(f"hierarchy has no member (n, k) = {(n, k)} for order {order}")
            state = hierarchy.entries[(n, k)]
            total = state.copy() if total is None else total + state
    return total


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _insertion(label: int, pieces, state):
    return apply_C(pieces, state) if label == 1 else apply_Q(pieces, state)


def _node_indices(i_end: int, stride: int) -> list[int]:
    if stride < 1:
        raise ValueError(f"quadrature stride must be a positive number of grid steps, got {stride}")
    if i_end % stride != 0:
        raise ValueError(f"quadrature stride {stride} must divide {i_end} grid steps")
    return list(range(0, i_end + 1, stride))


def _trap_weights(count: int, delta: float) -> np.ndarray:
    w = np.full(count, delta)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _collect_chi(psi0, nodes, trajectory):
    """Carry psi0 under the auxiliary flow from node to node, storing each."""
    dt = trajectory.dt
    stored = {nodes[0]: psi0.copy()}
    for i, j in zip(nodes, nodes[1:]):
        stored[j] = evolve_aux(stored[i], i * dt, j * dt, trajectory)
    return stored


def _accumulate_to_end(contribs: dict, nodes, trajectory, transport):
    """Propagate node-attached contributions to the final time, from node to
    node by ``transport(state, t0, t1, trajectory)``."""
    dt = trajectory.dt
    acc = 0.0 * next(iter(contribs.values()))
    for pos, i in enumerate(nodes):
        if i in contribs:
            acc = acc + contribs[i]
        if pos < len(nodes) - 1:
            acc = transport(acc, i * dt, nodes[pos + 1] * dt, trajectory)
    return acc


def quadrature_Tnk(n: int, k: int, t: float, psi0, trajectory: HartreeTrajectory, stride: int = 4):
    """Direct composite-trapezoid evaluation of T_n^(k) for n in {1, 2}.

    Independent of the hierarchy: insertions are sampled only at quadrature
    nodes and transported between nodes by the plain auxiliary flow, so the
    error is governed by the trapezoid rule, not the stepper.
    """
    if n not in (1, 2):
        raise ValueError("quadrature oracle covers n in {1, 2} only")
    model = trajectory.model
    dt = trajectory.dt
    i_end = trajectory.index_of(t)
    tuples = tuple_set(n, k)
    if not tuples or i_end == 0:
        return 0.0 * psi0

    nodes = _node_indices(i_end, stride)
    delta = stride * dt
    outer_w = _trap_weights(len(nodes), delta)
    chi = _collect_chi(psi0, nodes, trajectory)
    node_pieces = {i: pieces_at(trajectory.phi(i), i * dt, model) for i in nodes}

    contribs: dict = {}

    def add(i, value):
        contribs[i] = contribs[i] + value if i in contribs else value

    if n == 1:
        (label,) = tuples[0]
        for pos, i in enumerate(nodes):
            add(i, outer_w[pos] * (-1j) * _insertion(label, node_pieces[i], chi[i]))
        return _accumulate_to_end(contribs, nodes, trajectory, evolve_aux)

    # The inner trapezoid from node i weighs the insertion at a later node
    # j by delta (delta/2 at the last node, and at j = i unless i is last),
    # so by linearity of the flow one running sum R_j = sum_{i < j} w_i
    # U(j, i) inner_i serves every outer node: node j inserts into
    # delta R_j + delta/2 w_j inner_j, or delta/2 R_j at the last node.
    last = len(nodes) - 1
    for j1, j2 in tuples:
        running = 0.0 * psi0
        for pos, i in enumerate(nodes):
            if pos == last:
                add(i, (-1j) * _insertion(j2, node_pieces[i], 0.5 * delta * running))
                break
            inner = outer_w[pos] * (-1j) * _insertion(j1, node_pieces[i], chi[i])
            add(i, (-1j) * _insertion(j2, node_pieces[i], delta * running + 0.5 * delta * inner))
            running = evolve_aux(running + inner, i * dt, nodes[pos + 1] * dt, trajectory)
    return _accumulate_to_end(contribs, nodes, trajectory, evolve_aux)


def first_order_defect_quadrature(psi0, t: float, trajectory: HartreeTrajectory, stride: int = 4):
    """Quadrature of -i int_0^t U(t,s) (C + Q)(s) Utilde(s,0) psi0 ds.

    Node contributions are transported to the final time by the *full*
    evolution, providing an independent check of psi(t) - psi^(1)(t).
    """
    model = trajectory.model
    dt = trajectory.dt
    i_end = trajectory.index_of(t)
    if i_end == 0:
        return 0.0 * psi0
    nodes = _node_indices(i_end, stride)
    outer_w = _trap_weights(len(nodes), stride * dt)
    chi = _collect_chi(psi0, nodes, trajectory)
    contribs = {}
    for w, i in zip(outer_w, nodes):
        pieces = pieces_at(trajectory.phi(i), i * dt, model)
        contribs[i] = w * (-1j) * (apply_C(pieces, chi[i]) + apply_Q(pieces, chi[i]))
    return _accumulate_to_end(contribs, nodes, trajectory,
                              lambda state, t0, t1, _: evolve_full(state, t1, model, t0=t0))


# ---------------------------------------------------------------------------
# correction error
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrectionResult:
    """||psi(t) - psi^(a)(t)|| and ||psi^(a)(t)|| for a = 1..order, and the
    norm of every hierarchy member (n, k); the properties read the top order."""

    errors: tuple
    correction_norms: tuple
    term_norms: dict

    @property
    def error(self) -> float:
        return self.errors[-1]

    @property
    def error_sq(self) -> float:
        return self.error**2

    @property
    def correction_norm(self) -> float:
        return self.correction_norms[-1]


def correction_error(
    psi0,
    phi0: np.ndarray,
    order: int,
    t: float,
    model: Model,
    trajectory: HartreeTrajectory | None = None,
) -> CorrectionResult:
    """Norm distance between the true evolution and each approximant a = 1..order,
    from one hierarchy of ``order`` and one full evolution, which with a zero
    pair table is the hierarchy's lead (vbar = mu = 0, so Htilde = H).  A
    ``psi0`` of another particle or site count than ``model.config``, or a
    ``trajectory`` evolved under another config or from a condensate other
    than ``phi0``, raises ``ValueError``: the hierarchy follows the
    trajectory's model, so its errors would measure the mismatch."""
    cfg = model.config
    check_correction_window(cfg.beta, cfg.gamma, cfg.dimension)
    if (psi0.particles, psi0.sites) != (cfg.particles, cfg.site_count):
        raise ValueError(f"psi0 holds N={psi0.particles} on M={psi0.sites} sites, "
                         f"the model config N={cfg.particles} on M={cfg.site_count}")
    if trajectory is None:
        trajectory = hartree_evolve(phi0, 0.0, t, model)
    elif trajectory.model.config != model.config:
        raise ValueError("the trajectory was evolved under another model config")
    elif not np.array_equal(trajectory.phis[0], phi0):
        raise ValueError("the trajectory does not start at phi0")
    hierarchy = hierarchy_evolve(psi0, order, t, trajectory)
    full = hierarchy.entries[(0, 0)] if model.free else evolve_full(psi0, t, model)
    approx = [assemble(hierarchy, a) for a in range(1, order + 1)]
    return CorrectionResult(
        errors=tuple((full - state).norm() for state in approx),
        correction_norms=tuple(state.norm() for state in approx),
        term_norms=hierarchy.norms(),
    )
