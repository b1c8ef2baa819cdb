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
``apply_Htilde``, ``apply_C`` and ``apply_Q`` call it on one row.  It reaches
the representation only through the state methods: ``admit`` for the
invariance of a stage build's tables (``EffectivePieces.batch``), ``lift``
for h1 and ``pair_sums`` (``projected_pair_sum``) for the pair terms, whose
pieces offer both the (P, P) pair-channel kernels (``EffectivePieces.kernels``)
and the terms themselves (``EffectivePieces.terms``), neither with the
1/(N-1) that ``_split_sums`` applies once, so pieces serve any N.
``stage_pieces``, the one builder of pieces, builds h1 (h0 at each stage's
time) and the kernels of up to ``stage_batch`` stages in one closed-form
build from the rank-one condensate projector (``_ladder_kernels``);
``pieces_at`` is a one-stage build.  ``apply_H`` computes the coupling
1/(N-1) and calls the state's ``generator``.
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
    "projected_pair_sum",
]


def projected_pair_sum(block, pieces, entries):
    """Row i of the result sums the pair part of operator op (``_HTILDE``,
    ``_C`` or ``_Q``) of ``pieces`` applied to row j of ``block`` over the
    (op, j) in ``entries[i]``, without the 1/(N-1) (``pair_sums``)."""
    return block.pair_sums(pieces, entries)


# Byte bound on the temporaries of one ``stage_pieces`` build (``stage_batch``).
# At 768 kB glibc grew and trimmed its heap around an earlier build's
# temporaries: ~1975 minor faults per fresh-process N = 12, M = 4 solve
# against ~57 at this bound.
STAGE_BATCH_BYTES = 512 * 1024


def stage_batch(sites: int) -> int:
    """Stages per ``stage_pieces`` build: as many as keep its temporaries
    within ``STAGE_BATCH_BYTES``, and at least one.

    Per stage, what ``_ladder_kernels`` holds at its product, its peak, in
    complex entries: three (P, P) kernels, the two factors, 3 x (2(M+1), P)
    each, G^ (M+1, P), R 3 x (M+1, M+1) and the real tables 3 x (M, M), at
    half the bytes; h1 (M, M); and 4 kB for the pieces' small arrays and
    Python objects (measured with ``tracemalloc``: 21 kB per stage at M = 4,
    207 kB at M = 9).
    """
    m, p = sites, sites * (sites + 1) // 2
    per_stage = 16 * (3 * p * p + 13 * (m + 1) * p + 3 * (m + 1) ** 2 + 3 * m * m) + 4096
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


# The pair terms of Htilde, C and Q without the 1/(N-1) prefactor, as
# (weight, AB, CD): weight * (A (x) B) diag(k) (C (x) D) on two particles,
# summed over ordered pairs, with k = w, z0 and z in turn (``_tables``).
_SPLIT = (
    # p_i q_j v q_i p_j summed with its adjoint over ordered pairs; then
    # p_i p_j v q_i q_j and its adjoint, each symmetric under i <-> j
    ((1.0, "pq", "qp"), (0.5, "pp", "qq"), (0.5, "qq", "pp")),
    ((1.0, "qq", "qp"), (1.0, "qp", "qq")),
    ((0.5, "qq", "qq"),),
)

# (a, b1, b2, b3) of S(A (x) B) = a S + G (b1 E1^H + b2 E2^H) + b3 g e^H
_EXPANSION = {"pp": (0, 0, 0, 1), "pq": (0, 1, 0, -1), "qp": (0, 0, 1, -1), "qq": (1, -1, -1, 1)}

# c0 .. c9 of each operator (``_ladder_kernels``), (10, 3, 1)
_SCALARS = np.array([sum(weight * np.array([a * c, a * (d1 + d2), a * d3, c * (b1 + b2), c * b3,
                                            b1 * d1 + b2 * d2, b1 * d2 + b2 * d1, (b1 + b2) * d3,
                                            b3 * (d1 + d2), b3 * d3])
                         for weight, ab, cd in op
                         for (a, b1, b2, b3), (c, d1, d2, d3) in [(_EXPANSION[ab], _EXPANSION[cd])])
                     for op in _SPLIT]).T[..., None]


def _tables(cond: Condensate, model: Model) -> np.ndarray:
    """The kernels w, z0 and z of Htilde, C and Q, (3, M, M), or (S, 3, M, M)
    over a stack of condensates: the pair table and the centred kernel
    w(r-s) - vbar(r) - vbar(s) without and with 2 mu."""
    w, vbar = model.pair.mat, cond.vbar
    k = np.empty((*vbar.shape[:-1], 3, *w.shape))
    k[..., 0, :, :] = w
    k[..., 1, :, :] = w - vbar[..., :, None] - vbar[..., None, :]
    k[..., 2, :, :] = k[..., 1, :, :] + 2.0 * np.asarray(cond.mu)[..., None, None]
    return k


def _pair_terms(cond: Condensate, model: Model) -> tuple:
    """The pair terms (weight, k, A, C, B, D) of Htilde, C and Q without the
    1/(N-1) prefactor, at one condensate, or with factors p, q and kernels
    stacked (S, M, M) over a stack of them."""
    p, q = ts.projector_matrices(cond.phi, model.cell)
    factor, k = {"p": p, "q": q}, _tables(cond, model)
    return tuple(tuple((weight, k[..., i, :, :], factor[ab[0]], factor[cd[0]], factor[ab[1]], factor[cd[1]])
                       for weight, ab, cd in op)
                 for i, op in enumerate(_SPLIT))


def _ladder_kernels(cond: Condensate, model: Model) -> np.ndarray:
    """The (P, P) pair-channel kernels of Htilde, C and Q without the 1/(N-1),
    (3, P, P) at one condensate or (S, 3, P, P) over a stack, in closed form.

    u = sqrt(cell) phi gives p = u u^H, normalised or not.  S maps ordered
    site pairs to the channels c = (s <= t), m_c = 2 for s < t and 1 for
    s = t; G = S(u (x) 1) = S(1 (x) u) has G[c] = u_s e_t + u_t e_s (the
    second for s < t) and g = S(u (x) u) = G u.  A term's kernel is
    S (A (x) B) diag(k) (C (x) D) S^T, each factor pair expanding as in
    ``_EXPANSION`` with E1 = u (x) 1, E2 = 1 (x) u and e = u (x) u.  For
    real symmetric k (an even pair table, which ``validate_config``
    requires) the pieces between are closed, with n = |u|^2:
    S k S^T = diag(m_c k_st), S k E_i = diag(k_st) G, S k e = diag(k_st) g,
    E_i^H k E_i = diag(k n), E1^H k E2 = (u u^H) o k, E_i^H k e = u o (k n)
    and e^H k e = n^T k n.  So an operator's kernel is

        diag(c0 m_c k_st) + [X + G^ M^ | G^] @ [G^H ; Y],  G^ = [G | g],

    with X = diag(k_st) G^ diag(c1, .., c1, c2), Y = diag(c3, .., c3, c4)
    G^H diag(k_st), M^ = [[c5 diag(k n) + c6 (u u^H) o k, c7 u o (k n)],
    [c8 conj(u o (k n))^T, c9 n^T k n]] and ``_SCALARS`` c0 .. c9.  As
    g = G u, G^ M^ = G (M^[:M] + u M^[M]), two rows per channel.  One
    stacked product (``fockstate._product``) gives every kernel; nothing
    is (M^2, M^2) and nothing is folded.
    """
    m = cond.phi.shape[-1]
    s, t = fs._channels(m)
    p, lead, c = len(s), cond.phi.shape[:-1], _SCALARS
    u = np.sqrt(model.cell) * cond.phi
    n = (u * u.conj()).real
    first, second = u[..., s], u[..., t] * (s != t)  # G[c] = first e_t + second e_s
    hat = np.zeros((*lead, m + 1, p), dtype=np.complex128)  # G^ transposed
    hat.reshape(*lead, -1)[..., t * p + np.arange(p)] = first
    hat.reshape(*lead, -1)[..., s * p + np.arange(p)] += second
    hat[..., m, :] = first * u[..., t] + second * u[..., s]
    k = _tables(cond, model)
    kc = k[..., None, s, t]  # (..., 3, 1, P)
    kn = (k * n[..., None, None, :]).sum(axis=-1)
    rows = np.zeros((*k.shape[:-2], m + 1, m + 1), dtype=np.complex128)  # R transposed, a zero column last
    rows[..., :m, :m] = (c[6, :, :, None] * k + c[8, :, :, None] * kn[..., :, None]) * u.conj()[..., None, :, None]
    rows[..., m, :m] = c[7] * kn + c[9] * (kn * n[..., None, :]).sum(axis=-1, keepdims=True)
    rows[..., :m] *= u[..., None, None, :]
    rows.reshape(*rows.shape[:-2], -1)[..., : m * (m + 2) : m + 2] += c[5] * kn
    last = (np.arange(m + 1) == m)[:, None]  # the g row of G^ transposed
    left = np.empty((*k.shape[:-2], 2 * m + 2, p), dtype=np.complex128)  # transposed
    np.multiply(rows.take(t, axis=-1), first[..., None, None, :], out=left[..., : m + 1, :])
    left[..., : m + 1, :] += rows.take(np.where(s != t, s, m), axis=-1) * second[..., None, None, :]
    left[..., : m + 1, :] += np.where(last, c[2, :, :, None], c[1, :, :, None]) * kc * hat[..., None, :, :]
    left[..., m + 1:, :] = hat[..., None, :, :]
    right = np.empty_like(left)
    right[..., : m + 1, :] = hat.conj()[..., None, :, :]
    right[..., m + 1:, :] = np.where(last, c[4, :, :, None], c[3, :, :, None]) * kc * right[..., : m + 1, :]
    out = np.empty((*k.shape[:-2], p, p), dtype=np.complex128)
    fs._product(np.swapaxes(left, -1, -2), right, out)
    out.reshape(*out.shape[:-2], -1)[..., :: p + 1] += c[0] * np.where(s == t, 1.0, 2.0) * kc[..., 0, :]
    return out


@dataclass(frozen=True)
class EffectivePieces:
    """The one-body generator and pair terms at one condensate time stamp.

    ``h1`` is the mean-field one-body generator
    -Lap + V_ext(t) + diag(vbar) - mu, the one M x M Hartree table, built
    here because the N-body lift in Htilde needs it.  ``kernels`` holds the
    (P, P) kernels of Htilde, C and Q (``_ladder_kernels``) and ``terms``
    their pair terms, built from ``cond`` on first use for the tensor grid,
    both without the 1/(N-1) prefactor, so the pieces serve any N.  Q uses
    the centred kernel w(r-s) - vbar(r) - vbar(s) + 2 mu; C uses it without
    the 2 mu shift, which two orthogonal projector pairs annihilate anyway.

    ``batch`` lets a symmetric occupation space check the tables of a whole
    ``stage_pieces`` build at once: (table, kind, parts) triples for
    ``FockSpace.require_invariant``, whose parts, the h1 tables and kernels
    of the build's pieces, are invariant when the tables are: the pair
    table, h0 and the stack of stage condensates.
    """

    cond: Condensate
    h1: np.ndarray
    kernels: tuple = field(repr=False)
    model: Model = field(repr=False)
    batch: tuple = field(repr=False)

    @cached_property
    def terms(self) -> tuple:
        return _pair_terms(self.cond, self.model)


def stage_pieces(cond: Condensate, model: Model) -> list:
    """The pieces of every stage of a stacked condensate (phi (S, M)), in
    order, with the ladder kernels built for all S stages in one
    ``_ladder_kernels`` call; S should not exceed ``stage_batch``.  The
    pieces do not depend on the number of particles."""
    h0 = model.h0(cond.t)
    h1s = tuple(_h1(cond, h0))
    stages = [tuple(stage) for stage in _ladder_kernels(cond, model)]
    # h1 and the kernels are functions of h0, the pair table and the stage
    # condensates (vbar and mu follow from phi), so they are invariant under
    # a lattice symmetry when those are
    batch = ((model.pair.mat, "table", ()), (h0, "table", ()),
             (cond.phi, "vector", (*h1s, *(kernel for stage in stages for kernel in stage))))
    return [
        EffectivePieces(Condensate(phi, t, vb, mu), table, stage, model, batch)
        for phi, t, vb, mu, table, stage in zip(
            cond.phi, cond.t.tolist(), cond.vbar, cond.mu.tolist(), h1s, stages)
    ]


def pieces_at(phi: np.ndarray, t: float, model: Model) -> EffectivePieces:
    """The pieces at one condensate: a one-stage ``stage_pieces`` build."""
    return stage_pieces(condensate_at(np.asarray(phi)[None], np.array([float(t)]), model), model)[0]


def apply_H(t: float, state, model: Model):
    """Full generator dGamma(h0(t)) + sum_{i<j} w(x_i - x_j) / (N - 1) on a
    state or a block (``generator``), with the hops of the Laplacian, which
    no potential changes."""
    n = state.particles
    coupling = 1.0 / (n - 1) if n >= 2 and not model.pair.is_zero else 0.0
    return state.generator(model.lap.mat, model.h0(t), model.pair, coupling)


# The operators of ``_split_sums`` entries, indices into ``EffectivePieces.terms``
# and ``EffectivePieces.kernels``.
_HTILDE, _C, _Q = range(3)


def _split_sums(pieces: EffectivePieces, members, entries, model: Model):
    """Row i of the result sums operator op (``_HTILDE``, ``_C`` or ``_Q``)
    applied to row j of the block ``members`` over the (op, j) in
    ``entries[i]``.  Htilde acts on an output's own member, as its first
    entry, and on every output or on none: h1 is lifted over the block in
    one call, and the pair parts of every entry come from one
    ``projected_pair_sum``, times 1/(N-1) (``ConfigError`` below N = 2)."""
    if members.particles < 2:
        raise ConfigError("the effective decomposition needs at least two particles")
    members.admit(pieces.batch)
    out = members.lift(pieces.h1) if entries[0][0] == (_HTILDE, 0) else 0.0 * members
    if not model.pair.is_zero:
        out.amps += projected_pair_sum(members, pieces, entries).amps / (members.particles - 1)
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
    pieces = pieces_at(cond.phi, cond.t, model)
    lhs = apply_H(t, state, model)
    rhs = apply_Htilde(pieces, state, model) + apply_C(pieces, state, model) + apply_Q(
        pieces, state, model
    )
    return (lhs - rhs).norm() / state.norm()
