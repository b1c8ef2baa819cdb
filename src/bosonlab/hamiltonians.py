"""Many-body Hamiltonian, its quadratic effective part, and the remainders.

The full generator splits exactly, at each condensate time stamp, into

    H(t) = Htilde(t) + C(t) + Q(t),

where Htilde keeps at most two complement projectors q, C carries three, and
Q four.  Every projected two-body operator is a weighted sum of terms built
from the rank-one site expansion of the position-diagonal kernel,

    sum_{i != j} (A E_r C)_i (B E_s D)_j kernel[r, s].

``_split_sums`` is the one path to Htilde, C and Q.  It maps a block of
members, a state whose amplitudes carry a leading member axis, to a block;
``apply_stage``, the generator of a hierarchy stage and of the auxiliary
flow, calls it with entries built once by ``stage_entries``, and
``apply_Htilde``, ``apply_C`` and ``apply_Q`` call it on one row.  On a
symmetric occupation sector the tables of a whole stage build are checked
for invariance once (``EffectivePieces.batch``).  The occupation route lifts
h1 over the whole block in one call and reaches the two-body part through
one stage-form ``projected_pair_sum`` over the (P, P) kernels of the
P = M(M+1)/2 unordered pair channels, with 1/(N-1) folded in
(``EffectivePieces.ladder_kernels``); the tensor route, its cross-check,
works row by row and takes 2M + 1 one-body lifts per term and scales by
1/(N-1).  ``stage_pieces`` builds h1 (h0 at each stage's time) and the
kernels of up to ``stage_batch`` stages in one ``fockstate.pair_kernels``
call; ``pieces_at`` builds one condensate's pieces, its kernels on first
use.  The prefactor lives in this module and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fockstate as fs
from . import tensorstate as ts
from .errors import ConfigError, ConsistencyError
from .meanfield import Condensate, condensate_at
from .model import Model

__all__ = [
    "EffectivePieces",
    "pieces_at",
    "stage_pieces",
    "stage_batch",
    "apply_H",
    "apply_Htilde",
    "apply_C",
    "apply_Q",
    "apply_stage",
    "stage_entries",
    "decomposition_residual",
    "one_body_lift",
    "projected_pair_sum",
    "interaction_sum",
]


def one_body_lift(mat, state):
    """sum_j (mat on coordinate j), dispatched on the representation."""
    if isinstance(state, ts.TensorState):
        return ts.apply_one_body_sum(mat, state)
    return fs.dgamma_apply(mat, state)


def projected_pair_sum(state, pairs):
    """Projected pair sums, in one of two forms.

    Stage form, occupation route: ``state`` is a block (members, dim) and
    ``pairs`` holds, per output, a list of (kernel, source) entries with
    (P, P) kernels (``EffectivePieces.ladder_kernels``); output row i sums
    a^+ a^+ (K . a a state[source]) over its entries, with one pair gather
    each way for the block (``fockstate.two_body_sums``).

    Tensor route, the cross-check: ``pairs`` is a sequence of terms
    (weight, kernel, A, C, B, D) applied to one tensor state; per term and
    r it lifts G_r = B diag(kernel[r, :]) D, then the rank-one A E_r C, and
    subtracts the coincidence lift of A (kernel o C B) D.
    """
    if isinstance(state, fs.FockState):
        return fs.two_body_sums(state, pairs)
    acc = 0.0 * state
    for weight, kernel, a, c, b, d in pairs:
        term = 0.0 * state
        for r in range(kernel.shape[0]):
            u = ts.apply_one_body_sum(b @ (kernel[r][:, None] * d), state)
            term = term + ts.apply_one_body_sum(np.outer(a[:, r], c[r, :]), u)
        correction = a @ (kernel * (c @ b)) @ d
        acc = acc + weight * (term - ts.apply_one_body_sum(correction, state))
    return acc


def interaction_sum(state, model: Model):
    """sum_{i<j} w(x_i - x_j) applied to ``state`` (no prefactor)."""
    if isinstance(state, ts.TensorState):
        return ts.apply_pair_diagonal(model.pair, state)
    diag = fs.pair_diagonal(state.space, model.pair)
    return fs.FockState(diag * state.amps, state.space)


# Byte bound on the temporaries of one ``stage_pieces`` build (``stage_batch``):
# 16 stages at M = 4, 1 at M = 9.  Building the stages of the 200 steps of
# the N = 12, M = 4 benchmark solve took 27-32 ms at this bound, 41-47 ms at
# 256 kB (8 stages) and 172-192 ms one stage at a time (best of 7 in one
# process, three runs, shared 2-core VM).  At 768 kB (24 stages) it took
# 26-29 ms, but glibc then grows and trims its heap around the larger
# temporaries: ~1975 minor faults per fresh-process solve against ~57 here.
STAGE_BATCH_BYTES = 512 * 1024


def stage_batch(sites: int) -> int:
    """Stages per ``stage_pieces`` build: as many as keep its temporaries
    within ``STAGE_BATCH_BYTES``, and at least one.

    Per stage, in complex entries: three factor outer products, the four
    AC they feed to k^T AC, the four k^T AC and one block's summed left
    factor, right-hand side and weighted term, (M, M^2) each; the ordered
    product and its second block, (M^2, M^2) each; three kernels and one
    fold gather, (P, P) each; and fifteen (M, M) tables (h1, p, q, the
    centred kernels, the transposed kernels and the factor pairs).
    """
    m, p = sites, sites * (sites + 1) // 2
    per_stage = 16 * (14 * m**3 + 2 * m**4 + 4 * p * p + 15 * m * m)
    return max(1, STAGE_BATCH_BYTES // per_stage)


def _h1(cond: Condensate, h0: np.ndarray) -> np.ndarray:
    """-Lap + V_ext(t) + diag(vbar) - mu at one condensate, or (S, M, M) at
    each of a stack, from h0 = model.h0(cond.t) at each one's time."""
    diag = np.arange(cond.phi.shape[-1])
    h1 = np.empty(cond.phi.shape + diag.shape, dtype=np.complex128)
    h1[...] = h0
    h1[..., diag, diag] += cond.vbar
    h1[..., diag, diag] -= np.asarray(cond.mu)[..., None]
    return h1


def _pair_terms(cond: Condensate, model: Model) -> tuple:
    """The pair terms of Htilde, C and Q without the 1/(N-1) prefactor, at
    one condensate, or with factors p, q and the centred kernels stacked
    (S, M, M) over a stack of them; w is shared."""
    p, q = ts.projector_matrices(cond.phi, model.cell)
    w = model.pair.mat
    z_no_mu = w - cond.vbar[..., :, None] - cond.vbar[..., None, :]
    z = z_no_mu + 2.0 * np.asarray(cond.mu)[..., None, None]
    return (
        # p_i q_j v q_i p_j summed with its adjoint over ordered pairs; then
        # p_i p_j v q_i q_j and its adjoint, each symmetric under i <-> j
        ((1.0, w, p, q, q, p), (0.5, w, p, q, p, q), (0.5, w, q, p, q, p)),
        ((1.0, z_no_mu, q, q, q, p), (1.0, z_no_mu, q, q, p, q)),
        ((0.5, z, q, q, q, q),),
    )


@dataclass(frozen=True)
class EffectivePieces:
    """The one-body generator and pair terms at one condensate time stamp.

    ``h1`` is the mean-field one-body generator
    -Lap + V_ext(t) + diag(vbar) - mu, the one M x M Hartree table, built
    here because the N-body lift in Htilde needs it.  ``_terms`` holds the
    pair terms of Htilde, C and Q, in that order, without the 1/(N-1)
    prefactor, built from ``cond`` on first use.  Q uses the centred kernel
    w(r-s) - vbar(r) - vbar(s) + 2 mu; C uses it without the 2 mu shift,
    which two orthogonal projector pairs annihilate anyway.

    ``batch`` lets a symmetric occupation space check the tables of a whole
    ``stage_pieces`` build at once: (table, kind, parts) triples for
    ``FockSpace.require_invariant``, whose parts, the h1 tables and kernels
    of the build's pieces, are invariant when the tables are: the pair
    table, h0 and the stack of stage condensates.
    """

    cond: Condensate
    h1: np.ndarray
    model: Model = field(repr=False)
    _kernels: dict = field(default_factory=dict, repr=False)
    batch: tuple = field(default=(), repr=False)

    @cached_property
    def _terms(self) -> tuple:
        return _pair_terms(self.cond, self.model)

    def ladder_kernels(self, particles: int) -> tuple:
        """The (P, P) kernels of Htilde, C and Q on ``particles`` bosons with
        the 1/(N-1) prefactor folded in, from one ``fockstate.pair_kernels``
        build on first use (``stage_pieces`` builds them for a whole batch),
        kept for later calls."""
        kernels = self._kernels.get(particles)
        if kernels is None:
            kernels = fs.pair_kernels(self._terms, 1.0 / (particles - 1))
            self._kernels[particles] = kernels
        return kernels


def stage_pieces(cond: Condensate, model: Model, particles: int) -> list:
    """The pieces of every stage of a stacked condensate (phi (S, M)), in
    order, with the ladder kernels on ``particles`` bosons built for all S
    stages in one ``fockstate.pair_kernels`` call.

    S should not exceed ``stage_batch``.  Below two particles there is no
    1/(N-1) and ``ConfigError`` is raised.
    """
    _require_pairs(particles)
    h0 = model.h0(cond.t)
    h1s = tuple(_h1(cond, h0))
    stages = list(zip(*fs.pair_kernels(_pair_terms(cond, model), 1.0 / (particles - 1))))
    # h1 and the kernels are functions of h0, the pair table and the stage
    # condensates (vbar and mu follow from phi), so they are invariant under
    # a lattice symmetry when those are
    batch = ((model.pair.mat, "table", ()), (h0, "table", ()),
             (cond.phi, "vector", (*h1s, *(kernel for stage in stages for kernel in stage))))
    return [
        EffectivePieces(Condensate(phi, t, vb, mu), table, model, {particles: stage}, batch)
        for phi, t, vb, mu, table, stage in zip(
            cond.phi, cond.t.tolist(), cond.vbar, cond.mu.tolist(), h1s, stages)
    ]


def pieces_at(phi: np.ndarray, t: float, model: Model) -> EffectivePieces:
    """The pieces at one condensate, with the ladder kernels built on first use."""
    cond = condensate_at(phi, t, model)
    return EffectivePieces(cond, _h1(cond, model.h0(cond.t)), model)


def _require_pairs(particles: int):
    if particles < 2:
        raise ConfigError("the effective decomposition needs at least two particles")


def apply_H(t: float, state, model: Model):
    """Full generator: kinetic + external one-body sum + scaled pair interaction."""
    out = one_body_lift(model.h0(t), state)
    n = state.particles
    if n >= 2 and not model.pair.is_zero:
        out = out + (1.0 / (n - 1)) * interaction_sum(state, model)
    return out


# The operators of ``_split_sums`` entries, indices into ``EffectivePieces._terms``
# and ``EffectivePieces.ladder_kernels``.
_HTILDE, _C, _Q = range(3)


def _split_sums(pieces: EffectivePieces, members, entries, model: Model):
    """Row i of the result sums operator op (``_HTILDE``, ``_C`` or ``_Q``)
    applied to row j of the block ``members`` over the (op, j) in
    ``entries[i]``.  Htilde acts on an output's own member, as its first
    entry, and on every output or on none.  The occupation route lifts h1
    over the block in one call and adds one stage-form
    ``projected_pair_sum`` over ``pieces.ladder_kernels``; the tensor route
    adds the entries row by row, each through the pair terms times 1/(N-1).
    """
    free = model.pair.is_zero
    if isinstance(members, ts.TensorState):
        rows = [members.with_amps(amps) for amps in members.amps]
        n = rows[0].particles
        _require_pairs(n)

        def part(op, psi):
            pair = 0.0 * psi if free else (1.0 / (n - 1)) * projected_pair_sum(psi, pieces._terms[op])
            return one_body_lift(pieces.h1, psi) + pair if op == _HTILDE else pair

        parts = [[part(op, rows[j]) for op, j in row] for row in entries]
        return members.with_amps(np.stack([sum(row[1:], row[0]).amps for row in parts]))
    n = members.particles
    _require_pairs(n)
    for stack, kind, views in pieces.batch:
        members.space.require_invariant(stack, kind, parts=views)
    out = one_body_lift(pieces.h1, members) if entries[0][0] == (_HTILDE, 0) else 0.0 * members
    if not free:
        kernels = pieces.ladder_kernels(n)
        out.amps += projected_pair_sum(members, [[(kernels[op], j) for op, j in row]
                                                 for row in entries]).amps
    return out


def _one_member(pieces: EffectivePieces, state, op: int, model: Model):
    """Operator op of ``_split_sums`` applied to one state, a block of one row."""
    out = _split_sums(pieces, state.with_amps(state.amps[None]), (((op, 0),),), model)
    return out.with_amps(out.amps[0])


def apply_Htilde(pieces: EffectivePieces, state, model: Model):
    """Quadratic effective generator: mean-field one-body sum plus the
    pair terms that exchange exactly two particles with the condensate."""
    return _one_member(pieces, state, _HTILDE, model)


def apply_C(pieces: EffectivePieces, state, model: Model):
    """Cubic remainder: three complement projectors around the centred kernel."""
    return _one_member(pieces, state, _C, model)


def apply_Q(pieces: EffectivePieces, state, model: Model):
    """Quartic remainder: four complement projectors around the full kernel."""
    return _one_member(pieces, state, _Q, model)


def stage_entries(sources: list) -> tuple:
    """The (operator, source) entries of each member's stage derivative for
    ``apply_stage``: (Htilde, i), then (C, c(i)) and (Q, q(i)) where member
    i has them; ``sources[i]`` is the pair (c(i), q(i)) of member indices,
    None where member i has no such source.  A hierarchy's sources do not
    change, so ``propagation.stage_rhs`` builds its entries once."""
    return tuple(tuple((op, j) for op, j in ((_HTILDE, i), (_C, c), (_Q, q)) if j is not None)
                 for i, (c, q) in enumerate(sources))


def apply_stage(pieces: EffectivePieces, members, entries: tuple, model: Model):
    """-i [Htilde psi_i + C psi_c(i) + Q psi_q(i)] for every member psi_i of a
    hierarchy stage, the rows of the block ``members``, from their
    ``stage_entries``, as one block (``_split_sums``)."""
    out = _split_sums(pieces, members, entries, model)
    out.amps *= -1j
    return out


def decomposition_residual(t: float, cond: Condensate, state, model: Model) -> float:
    """Relative residual of H = Htilde + C + Q at the condensate time stamp.

    The identity is exact on the lattice; anything above 1e-10 indicates an
    implementation defect, not a discretisation artefact.
    """
    if abs(cond.t - t) > 1e-12:
        raise ConsistencyError(
            f"stale condensate cache: stamped t={cond.t}, requested t={t}"
        )
    pieces = EffectivePieces(cond, _h1(cond, model.h0(cond.t)), model)
    lhs = apply_H(t, state, model)
    rhs = apply_Htilde(pieces, state, model) + apply_C(pieces, state, model) + apply_Q(
        pieces, state, model
    )
    return (lhs - rhs).norm() / state.norm()
