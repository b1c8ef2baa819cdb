"""Many-body Hamiltonian, its quadratic effective part, and the remainders.

The full generator splits exactly, at each condensate time stamp, into

    H(t) = Htilde(t) + C(t) + Q(t),

where Htilde keeps at most two complement projectors q, C carries three, and
Q four.  Every projected two-body operator is a weighted sum of terms built
from the rank-one site expansion of the position-diagonal kernel,

    sum_{i != j} (A E_r C)_i (B E_s D)_j kernel[r, s].

``apply_stage`` is the one path to Htilde, C and Q.  It maps a block of
members, a state whose amplitudes carry a leading member axis, to a block by
(op, member) entries, built once for a hierarchy stage by ``stage_entries``
(Htilde psi_i + C psi_c(i) + Q psi_q(i)); ``apply_Htilde``, ``apply_C`` and
``apply_Q`` call it on one row.  It reaches the representation only through
the state methods: ``lift`` for h1 and ``pair_sums`` with the same entries
for the pair terms: the stage's kernel stack, one (count, P, P)
array indexed by op (``EffectivePieces.kernels``), or the terms
(``EffectivePieces.terms``), neither with the 1/(N-1) that ``apply_stage``
applies once, so pieces serve any N and carry the model they were built
from.  ``stage_pieces``, the one builder of pieces, builds h1 (h0 at each
stage's time) and the kernel stacks of up to ``_stage_batch`` stages in one
closed-form build from the rank-one condensate projector (``_ladder_kernels``,
from ``_plan``), of only the kernels its flow consumes, a leading run of
Htilde, C and Q, read-only; ``pieces_at`` is a one-stage build of all three.
``apply_H`` computes the coupling 1/(N-1) and calls the state's ``generator``.
``pair_sums`` checks the entries against the operators of the kernel stack
and, on a symmetric sector, admits the stage build's tables
(``EffectivePieces.batch``).

The auxiliary flow and the hierarchy step only their N-body members.  The
condensate their generator needs at each RK4 stage never depends on the
members, so ``stage_rhs`` takes it from the Hartree trajectory, which
stores the four stage condensates of each step (``stage_phis``, at
``stage_times``): ``stage_pieces`` builds their pieces ``_stage_batch``
stages at a time, with vbar and mu from one ``condensate_at`` per build,
of only the split kernels the flow consumes (Htilde, with C at order 2,
all three from order 3).  The right-hand side consumes them in stage
order and refuses a stage whose time is not the one it is called at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import fockstate as fs
from . import tensorstate as ts
from .errors import ConfigError, ConsistencyError
from .meanfield import Condensate, HartreeTrajectory, condensate_at
from .model import Model, _read_only

__all__ = [
    "EffectivePieces",
    "pieces_at",
    "stage_pieces",
    "apply_H",
    "apply_Htilde",
    "apply_C",
    "apply_Q",
    "apply_stage",
    "stage_entries",
    "stage_rhs",
    "decomposition_residual",
    "projected_pair_sum",
]


def projected_pair_sum(block, pieces, entries):
    """Row i of the result sums the pair part of operator op (``_HTILDE``,
    ``_C`` or ``_Q``) of ``pieces`` applied to row j of ``block`` over the
    (op, j) in ``entries[i]``, without the 1/(N-1) (``pair_sums``)."""
    return block.pair_sums(pieces, entries)


# Byte bound on the temporaries of one ``stage_pieces`` build (``_stage_batch``).
# At 768 kB glibc grew and trimmed its heap around an earlier build's
# temporaries: ~1975 minor faults per fresh-process N = 12, M = 4 solve
# against ~57 at this bound.
STAGE_BATCH_BYTES = 512 * 1024


def _stage_batch(sites: int, kernels: int) -> int:
    """Stages per ``stage_pieces`` build of ``kernels`` kernels: as many as
    keep its temporaries within ``STAGE_BATCH_BYTES``, and at least one.

    Per stage, what ``_ladder_kernels`` holds at its second product, its
    peak, in complex entries: per kernel, the (P, P) kernel, the two factors
    2(M+1) x P each, R (M+1, M+1) and the real table and k n (M, M) at half
    the bytes; G^ (M+1, P); and 4 kB for h1, small arrays and Python
    objects (``tracemalloc`` per stage at one, two and three kernels: 8, 15
    and 21 kB at M = 4, 75, 140 and 205 kB at M = 9).
    """
    m, p = sites, sites * (sites + 1) // 2
    per_stage = 16 * (kernels * (p * p + 4 * (m + 1) * p + (m + 1) ** 2 + m * m) + (m + 1) * p) + 4096
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


def _tables(cond: Condensate, model: Model, count: int = 3) -> np.ndarray:
    """The first ``count`` kernels w, z0 and z of Htilde, C and Q, (count, M, M)
    or (S, count, M, M) over a stack of condensates: the pair table and the
    centred kernel w(r-s) - vbar(r) - vbar(s) without and with 2 mu."""
    w, vbar = model.pair, cond.vbar
    k = np.empty((*vbar.shape[:-1], count, *w.shape))
    k[..., 0, :, :] = w
    k[..., 1:, :, :] = (w - vbar[..., :, None] - vbar[..., None, :])[..., None, :, :]
    k[..., 2:, :, :] += 2.0 * np.asarray(cond.mu)[..., None, None, None]
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


@lru_cache(maxsize=8)
def _plan(sites: int) -> tuple:
    """The read-only lattice constants of ``_ladder_kernels`` at M sites: s, t,
    the flat positions of G^'s two entries, s != t, the scalar columns of X
    and Y (3, M+1, 1) and c0 m_c (3, P)."""
    s, t = fs._channels(sites)
    p, c, last = len(s), _SCALARS, (np.arange(sites + 1) == sites)[:, None]
    out = (s, t, t * p + np.arange(p), s * p + np.arange(p), s != t,
           np.where(last, c[2, :, :, None], c[1, :, :, None]),
           np.where(last, c[4, :, :, None], c[3, :, :, None]), c[0] * np.where(s == t, 1.0, 2.0))
    for arr in out:
        arr.flags.writeable = False
    return out


def _ladder_kernels(cond: Condensate, model: Model, count: int) -> np.ndarray:
    """The (P, P) pair-channel kernels of the first ``count`` of Htilde, C and Q
    without the 1/(N-1), (count, P, P) or (S, count, P, P) over a stack, in closed form.

    u = sqrt(cell) phi gives p = u u^H, normalised or not.  S maps ordered
    site pairs to the channels c = (s <= t), m_c = 2 for s < t and 1 for
    s = t; G = S(u (x) 1) = S(1 (x) u) has G[c] = u_s e_t + u_t e_s (the
    second for s < t) and g = S(u (x) u) = G u.  A term's kernel is
    S (A (x) B) diag(k) (C (x) D) S^T, each factor pair expanding as in
    ``_EXPANSION`` with E1 = u (x) 1, E2 = 1 (x) u and e = u (x) u.  For
    real symmetric k (an even pair table, which ``ModelConfig``
    requires) the pieces between are closed, with n = |u|^2:
    S k S^T = diag(m_c k_st), S k E_i = diag(k_st) G, S k e = diag(k_st) g,
    E_i^H k E_i = diag(k n), E1^H k E2 = (u u^H) o k, E_i^H k e = u o (k n)
    and e^H k e = n^T k n.  So an operator's kernel is

        diag(c0 m_c k_st) + [X + G^ M^ | G^] @ [G^H ; Y],  G^ = [G | g],

    with X = diag(k_st) G^ diag(c1, .., c1, c2), Y = diag(c3, .., c3, c4)
    G^H diag(k_st), M^ = [[c5 diag(k n) + c6 (u u^H) o k, c7 u o (k n)],
    [c8 conj(u o (k n))^T, c9 n^T k n]] and ``_SCALARS`` c0 .. c9.  As
    g = G u, G^ M^ = G (M^[:M] + u M^[M]) = G^ R with R's last row zero.
    Two stacked products (``fockstate._product``) give every kernel, one of
    R^T and G^T for the left factor and one of the factors; nothing is
    (M^2, M^2) and nothing is folded.
    """
    m = cond.phi.shape[-1]
    s, t, at_first, at_second, distinct, left_ends, right_ends, diagonal = _plan(m)
    p, lead, c = len(s), cond.phi.shape[:-1], _SCALARS[:, :count]
    u = np.sqrt(model.cell) * cond.phi
    n = (u * u.conj()).real
    first, second = u[..., s], u[..., t] * distinct  # G[c] = first e_t + second e_s
    hat = np.zeros((*lead, m + 1, p), dtype=np.complex128)  # G^ transposed
    hat.reshape(*lead, -1)[..., at_first] = first
    hat.reshape(*lead, -1)[..., at_second] += second
    hat[..., m, :] = first * u[..., t] + second * u[..., s]
    k = _tables(cond, model, count)
    kc = k[..., None, s, t]  # (..., count, 1, P)
    kn = (k * n[..., None, None, :]).sum(axis=-1)
    rows = np.zeros((*k.shape[:-2], m + 1, m + 1), dtype=np.complex128)  # R transposed, a zero column last
    rows[..., :m, :m] = (c[6, :, :, None] * k + c[8, :, :, None] * kn[..., :, None]) * u.conj()[..., None, :, None]
    rows[..., m, :m] = c[7] * kn + c[9] * (kn * n[..., None, :]).sum(axis=-1, keepdims=True)
    rows[..., :m] *= u[..., None, None, :]
    rows.reshape(*rows.shape[:-2], -1)[..., : m * (m + 2) : m + 2] += c[5] * kn
    left = np.empty((*k.shape[:-2], 2 * m + 2, p), dtype=np.complex128)  # transposed
    fs._product(rows, hat[..., None, :, :], left[..., : m + 1, :])
    left[..., : m + 1, :] += left_ends[:count] * kc * hat[..., None, :, :]
    left[..., m + 1:, :] = hat[..., None, :, :]
    right = np.empty_like(left)
    right[..., : m + 1, :] = hat.conj()[..., None, :, :]
    right[..., m + 1:, :] = right_ends[:count] * kc * right[..., : m + 1, :]
    out = np.empty((*k.shape[:-2], p, p), dtype=np.complex128)
    fs._product(np.swapaxes(left, -1, -2), right, out)
    out.reshape(*out.shape[:-2], -1)[..., :: p + 1] += diagonal[:count] * kc[..., 0, :]
    return out


@dataclass(frozen=True)
class EffectivePieces:
    """The one-body generator and pair terms at one condensate time stamp.

    ``h1`` is the mean-field one-body generator
    -Lap + V_ext(t) + diag(vbar) - mu, the one M x M Hartree table, built
    here because the N-body lift in Htilde needs it.  ``kernels`` is the
    stage's kernel stack (``_ladder_kernels``), (count, P, P), a leading run
    of Htilde, C and Q, and ``terms`` the pair terms of all three, built
    from ``cond`` on first use for the tensor grid, both without the
    1/(N-1) prefactor, so the pieces serve any N.  Q uses the centred kernel
    w(r-s) - vbar(r) - vbar(s) + 2 mu; C uses it without the 2 mu shift,
    which two orthogonal projector pairs annihilate anyway.

    ``batch`` lets a symmetric occupation space check the tables of a whole
    ``stage_pieces`` build at once, in ``FockState.pair_sums``: (table,
    kind, parts) triples for ``FockSpace.require_invariant``, whose parts,
    the h1 tables and the kernel stacks of the build, are invariant when
    the tables are: the pair table, h0 and the stack of stage condensates.
    """

    cond: Condensate
    h1: np.ndarray
    kernels: np.ndarray = field(repr=False)
    model: Model = field(repr=False)
    batch: tuple = field(repr=False)

    @cached_property
    def terms(self) -> tuple:
        return _pair_terms(self.cond, self.model)


def stage_pieces(cond: Condensate, model: Model, kernels: int = len(_SPLIT)) -> list:
    """The pieces of every stage of a stacked condensate (phi (S, M)), in
    order, with the kernel stacks of the first ``kernels`` of Htilde, C and
    Q built for all S stages in one ``_ladder_kernels`` call; S should not
    exceed ``_stage_batch``.  The pieces do not depend on N."""
    h0 = model.h0(cond.t)
    h1s = tuple(_read_only(_h1(cond, h0)))
    stacks = tuple(_read_only(_ladder_kernels(cond, model, kernels)))
    # h1 and the kernels are functions of h0, the pair table and the stage
    # condensates (vbar and mu follow from phi), so they are invariant under
    # a lattice symmetry when those are; read-only, they stay known by identity
    batch = ((model.pair, "table", ()), (h0, "table", ()), (cond.phi, "vector", h1s + stacks))
    return [
        EffectivePieces(Condensate(phi, t, vb, mu), table, stack, model, batch)
        for phi, t, vb, mu, table, stack in zip(
            cond.phi, cond.t.tolist(), cond.vbar, cond.mu.tolist(), h1s, stacks)
    ]


def pieces_at(phi: np.ndarray, t: float, model: Model) -> EffectivePieces:
    """The pieces at one condensate: a one-stage ``stage_pieces`` build."""
    return stage_pieces(condensate_at(np.asarray(phi)[None], np.array([float(t)]), model), model)[0]


def apply_H(t: float, state, model: Model):
    """Full generator dGamma(h0(t)) + sum_{i<j} w(x_i - x_j) / (N - 1) on a
    state or a block (``generator``), which knows the model's read-only
    tables by identity; a zero pair table adds exactly 0.0."""
    n = state.particles
    return state.generator(model.h0(t), model.pair, 1.0 / (n - 1) if n >= 2 else 0.0)


# The operators of stage entries, indices into ``EffectivePieces.kernels``
# and ``EffectivePieces.terms``.
_HTILDE, _C, _Q = range(3)


def _one_member(pieces: EffectivePieces, state, op: int):
    """Operator op of ``apply_stage`` applied to one state, a block of one row."""
    out = apply_stage(pieces, state.with_amps(state.amps[None]), (((op, 0),),))
    return out.with_amps(out.amps[0])


def apply_Htilde(pieces: EffectivePieces, state):
    """Quadratic effective generator: mean-field one-body sum plus the
    pair terms that exchange exactly two particles with the condensate."""
    return _one_member(pieces, state, _HTILDE)


def apply_C(pieces: EffectivePieces, state):
    """Cubic remainder: three complement projectors around the centred kernel."""
    return _one_member(pieces, state, _C)


def apply_Q(pieces: EffectivePieces, state):
    """Quartic remainder: four complement projectors around the full kernel."""
    return _one_member(pieces, state, _Q)


def stage_entries(sources: list) -> tuple:
    """The (operator, source) entries of each member's stage derivative for
    ``apply_stage``: (Htilde, i), then (C, c(i)) and (Q, q(i)) where member
    i has them; ``sources[i]`` is the pair (c(i), q(i)) of member indices,
    None where member i has no such source.  A hierarchy's sources do not
    change, so ``stage_rhs`` builds its entries once."""
    return tuple(tuple((op, j) for op, j in ((_HTILDE, i), (_C, c), (_Q, q)) if j is not None)
                 for i, (c, q) in enumerate(sources))


def apply_stage(pieces: EffectivePieces, members, entries: tuple):
    """Row i of the result sums operator op (``_HTILDE``, ``_C`` or ``_Q``)
    applied to row j of the block ``members`` over the (op, j) in
    ``entries[i]``, as ``stage_entries`` builds them for a hierarchy stage:
    Htilde psi_i + C psi_c(i) + Q psi_q(i).  Htilde acts on an output's own
    member, as its first entry, and on every output or on none: the pair
    parts of every entry come from one ``projected_pair_sum``, which checks
    the entries and, on a sector, admits the build's read-only tables, then
    h1 is lifted over the block in one call, and the pair parts are added
    times 1/(N-1) (``ConfigError`` below N = 2; exactly 0.0 for a zero pair
    table).  ``ValueError`` refuses an empty block or another row count
    than the block's and names a row that breaks this layout or
    ``check_entries``."""
    if members.particles < 2:
        raise ConfigError("the effective decomposition needs at least two particles")
    rows = len(members.amps)
    if not rows:
        raise ValueError("a stage block needs at least one member")
    if len(entries) != rows:
        raise ValueError(f"{len(entries)} stage entry rows for a block of {rows} members")
    lifted = entries[0][:1] == ((_HTILDE, 0),)
    for i, row in enumerate(entries):
        if [op for op, _ in row].count(_HTILDE) != lifted or lifted and row[0] != (_HTILDE, i):
            raise ValueError(f"stage entry row {i} {row}: Htilde must come first, on member {i}, "
                             f"in every row or in none")
    pairs = projected_pair_sum(members, pieces, entries)
    out = members.lift(pieces.h1) if lifted else 0.0 * members
    out.amps += pairs.amps / (members.particles - 1)
    return out


def stage_rhs(trajectory: HartreeTrajectory, i0: int, i1: int, sources: list):
    """The hierarchy equation's right-hand side Htilde psi_i + C psi_c(i) +
    Q psi_q(i) of a block of members for ``propagation.rk4_step`` over grid
    steps i0 .. i1-1.

    ``sources`` is as in ``stage_entries``.  The pieces of the four RK4
    stages of each step come in stage order from the trajectory's stored
    stage condensates (``stage_phis`` at ``stage_times``), ``_stage_batch``
    stages per ``stage_pieces`` build, each with one ``condensate_at``, of
    the leading run of kernels the entries reach.  Each piece is consumed
    once, so the right-hand side must be called once per stage, in order; a
    call at another time than the next stage's raises ``ConsistencyError``.
    """
    entries = stage_entries(sources)
    # the entries' operators index the kernels, Htilde first: build the run they reach
    kernels, model = 1 + max(op for row in entries for op, _ in row), trajectory.model
    batch = _stage_batch(model.config.site_count, kernels)
    phis, times = trajectory.stage_phis[4 * i0 : 4 * i1], trajectory.stage_times[4 * i0 : 4 * i1]
    schedule = (pieces for s in range(0, len(times), batch) for pieces in stage_pieces(
        condensate_at(phis[s : s + batch], times[s : s + batch], model), model, kernels))

    def rhs(time, members):
        pieces = next(schedule, None)
        if pieces is None or abs(pieces.cond.t - time) > 1e-12:
            expected = "no further stage" if pieces is None else f"the stage at t={pieces.cond.t}"
            raise ConsistencyError(f"stage right-hand side called at t={time}, expected {expected}")
        return apply_stage(pieces, members, entries)

    return rhs


def decomposition_residual(phi: np.ndarray, t: float, state, model: Model) -> float:
    """Relative residual of H = Htilde + C + Q at the condensate phi at time t
    (``pieces_at``).

    The identity is exact on the lattice; anything above 1e-10 indicates an
    implementation defect, not a discretisation artefact.
    """
    pieces = pieces_at(phi, t, model)
    lhs = apply_H(t, state, model)
    rhs = apply_Htilde(pieces, state) + apply_C(pieces, state) + apply_Q(pieces, state)
    return (lhs - rhs).norm() / state.norm()
