"""Many-body Hamiltonian, its quadratic effective part, and the remainders.

The full generator splits exactly, at each condensate time stamp, into

    H(t) = Htilde(t) + C(t) + Q(t),

where Htilde keeps at most two complement projectors q, C carries three, and
Q four.  Every projected two-body operator is a weighted sum of terms built
from the rank-one site expansion of the position-diagonal kernel,

    sum_{i != j} (A E_r C)_i (B E_s D)_j kernel[r, s].

The tensor route takes 2M + 1 one-body lifts per term (two per r and one
coincidence correction).  The occupation route sums an operator's terms into
one (P, P) kernel over the P = M(M+1)/2 unordered pair channels
(``fockstate.pair_kernels``) and applies it with one pair gather down and one
up.  ``apply_stage``, the generator of a whole hierarchy stage and of the
auxiliary flow, takes the Htilde, C and Q kernels that ``EffectivePieces``
builds once, in one pass, with 1/(N-1) folded in; it annihilates each member
once and creates each derivative with one gather up.  The per-operator
applies ``apply_Htilde``, ``apply_C`` and ``apply_Q`` keep one kernel per
``PairTerms`` and scale the result by 1/(N-1).  The prefactor lives in this
module and nowhere else.
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
    "PairTerms",
    "pieces_at",
    "pieces_from",
    "apply_H",
    "apply_Htilde",
    "apply_C",
    "apply_Q",
    "apply_stage",
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


@dataclass(frozen=True, eq=False)
class PairTerms:
    """One operator's terms (weight, kernel, A, C, B, D), each standing for
    weight * sum_{i != j} (A E_r C)_i (B E_s D)_j kernel[r, s] with E_r = |r><r|;
    the occupation route's summed kernel is built on first use and kept."""

    terms: tuple

    @cached_property
    def ladder_kernel(self) -> np.ndarray:
        return fs.pair_kernels((self.terms,))[0]


def projected_pair_sum(state, pairs):
    """The weighted sum of ``pairs.terms`` applied to ``state``.

    Stage form, occupation route only: ``state`` is the list of a stage's
    members and ``pairs`` holds, per output, a list of (kernel, source)
    entries with (P, P) kernels (``EffectivePieces.ladder_kernels``);
    output i sums a^+ a^+ (K . a a members[source]) over its entries, with
    one pair gather down per member and one up per output
    (``fockstate.two_body_sums``).

    The tensor route below is the occupation route's cross-check: per term
    and r it lifts G_r = B diag(kernel[r, :]) D, then the rank-one A E_r C,
    and subtracts the coincidence lift of A (kernel o C B) D.
    """
    if isinstance(state, list):
        return fs.two_body_sums(state, pairs)
    if not isinstance(state, ts.TensorState):
        return fs.two_body_apply(pairs.ladder_kernel, state)
    acc = 0.0 * state
    for weight, kernel, a, c, b, d in pairs.terms:
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


@dataclass(frozen=True)
class EffectivePieces:
    """The one-body generator and pair terms at one condensate time stamp.

    ``cond`` is the condensate they were built from, which a stage that
    also steps phi reuses.  ``h1`` is the mean-field one-body generator
    -Lap + V_ext(t) + diag(vbar) - mu, the one M x M Hartree table, built
    here because the N-body lift in Htilde needs it.  The ``*_pairs``
    fields hold the pair terms of Htilde, C and Q without the 1/(N-1)
    prefactor.  Q uses the centred kernel w(r-s) - vbar(r) - vbar(s) + 2 mu;
    C uses it without the 2 mu shift, which two orthogonal projector pairs
    annihilate anyway.
    """

    cond: Condensate
    h1: np.ndarray
    htilde_pairs: PairTerms
    cubic_pairs: PairTerms
    quartic_pairs: PairTerms
    _kernels: dict = field(default_factory=dict, repr=False, compare=False)

    def ladder_kernels(self, particles: int) -> tuple:
        """The (P, P) kernels of Htilde, C and Q on ``particles`` bosons with
        the 1/(N-1) prefactor folded in, from one ``fockstate.pair_kernels``
        build on first use, kept for later calls."""
        kernels = self._kernels.get(particles)
        if kernels is None:
            operators = (self.htilde_pairs.terms, self.cubic_pairs.terms, self.quartic_pairs.terms)
            kernels = fs.pair_kernels(operators, 1.0 / (particles - 1))
            self._kernels[particles] = kernels
        return kernels


def pieces_from(cond: Condensate, model: Model) -> EffectivePieces:
    p, q = ts.projector_matrices(cond.phi, model.cell)
    w = model.pair.mat
    z_no_mu = w - cond.vbar[:, None] - cond.vbar[None, :]
    z = z_no_mu + 2.0 * cond.mu
    h1 = (model.h0(cond.t) + np.diag(cond.vbar).astype(np.complex128)
          - cond.mu * np.eye(cond.phi.size))
    return EffectivePieces(
        cond=cond,
        h1=h1,
        # p_i q_j v q_i p_j summed with its adjoint over ordered pairs; then
        # p_i p_j v q_i q_j and its adjoint, each symmetric under i <-> j
        htilde_pairs=PairTerms(((1.0, w, p, q, q, p), (0.5, w, p, q, p, q), (0.5, w, q, p, q, p))),
        cubic_pairs=PairTerms(((1.0, z_no_mu, q, q, q, p), (1.0, z_no_mu, q, q, p, q))),
        quartic_pairs=PairTerms(((0.5, z, q, q, q, q),)),
    )


def pieces_at(phi: np.ndarray, t: float, model: Model) -> EffectivePieces:
    return pieces_from(condensate_at(phi, t, model), model)


def _require_pairs(state):
    if state.particles < 2:
        raise ConfigError("the effective decomposition needs at least two particles")


def apply_H(t: float, state, model: Model):
    """Full generator: kinetic + external one-body sum + scaled pair interaction."""
    out = one_body_lift(model.h0(t), state)
    n = state.particles
    if n >= 2 and not model.pair.is_zero:
        out = out + (1.0 / (n - 1)) * interaction_sum(state, model)
    return out


def apply_Htilde(pieces: EffectivePieces, state, model: Model):
    """Quadratic effective generator: mean-field one-body sum plus the
    pair terms that exchange exactly two particles with the condensate."""
    _require_pairs(state)
    out = one_body_lift(pieces.h1, state)
    if model.pair.is_zero:
        return out
    n = state.particles
    return out + (1.0 / (n - 1)) * projected_pair_sum(state, pieces.htilde_pairs)


def apply_C(pieces: EffectivePieces, state, model: Model):
    """Cubic remainder: three complement projectors around the centred kernel."""
    _require_pairs(state)
    if model.pair.is_zero:
        return 0.0 * state
    n = state.particles
    return (1.0 / (n - 1)) * projected_pair_sum(state, pieces.cubic_pairs)


def apply_Q(pieces: EffectivePieces, state, model: Model):
    """Quartic remainder: four complement projectors around the full kernel."""
    _require_pairs(state)
    if model.pair.is_zero:
        return 0.0 * state
    n = state.particles
    return (1.0 / (n - 1)) * projected_pair_sum(state, pieces.quartic_pairs)


def apply_stage(pieces: EffectivePieces, members: list, sources: list, model: Model) -> list:
    """-i [Htilde psi_i + C psi_c(i) + Q psi_q(i)] for every member psi_i of a
    hierarchy stage; ``sources[i]`` is the pair (c(i), q(i)) of member
    indices, None where member i has no such source.

    The occupation route lifts h1 once per member and reaches the two-body
    part through one stage-form ``projected_pair_sum``: each member is
    pair-annihilated once and each derivative created with one gather up,
    through the Htilde, C and Q kernels of ``pieces.ladder_kernels``.  The
    tensor route sums the per-operator applies, its cross-check.
    """
    _require_pairs(members[0])
    if isinstance(members[0], ts.TensorState):
        out = []
        for psi, (c, q) in zip(members, sources):
            acc = apply_Htilde(pieces, psi, model)
            if c is not None:
                acc = acc + apply_C(pieces, members[c], model)
            if q is not None:
                acc = acc + apply_Q(pieces, members[q], model)
            out.append(-1j * acc)
        return out
    out = [one_body_lift(pieces.h1, psi) for psi in members]
    if not model.pair.is_zero:
        k_htilde, k_cubic, k_quartic = pieces.ladder_kernels(members[0].particles)
        entries = [
            [(k_htilde, i)] + [(kern, j) for kern, j in ((k_cubic, c), (k_quartic, q)) if j is not None]
            for i, (c, q) in enumerate(sources)
        ]
        for lift, pair in zip(out, projected_pair_sum(members, entries)):
            lift.amps += pair.amps
    for lift in out:
        lift.amps *= -1j
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
    pieces = pieces_from(cond, model)
    lhs = apply_H(t, state, model)
    rhs = apply_Htilde(pieces, state, model) + apply_C(pieces, state, model) + apply_Q(
        pieces, state, model
    )
    return (lhs - rhs).norm() / state.norm()
