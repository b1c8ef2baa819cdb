"""Many-body Hamiltonian, its quadratic effective part, and the remainders.

The full generator splits exactly, at each condensate time stamp, into

    H(t) = Htilde(t) + C(t) + Q(t),

where Htilde keeps at most two complement projectors q, C carries three, and
Q four.  Every projected two-body term is assembled from the rank-one site
expansion of the position-diagonal kernel,

    sum_{i != j} (A E_r C)_i (B E_s D)_j kernel[r, s],

which reduces to one-body lifts.  The tensor route takes 2M + 1 of them per
term (two per r and one coincidence correction).  The occupation route
(``fockstate.projected_pair_apply``) takes M + 1 hop gathers: one shared by
the M + 1 first-layer lifts, which then cost a single BLAS product, and one
per rank-one second-layer lift.  The 1/(N-1) mean-field prefactor lives here
and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fockstate as fs
from . import tensorstate as ts
from .errors import ConfigError, ConsistencyError
from .meanfield import Condensate, condensate_at
from .model import Model

__all__ = [
    "EffectivePieces",
    "pieces_at",
    "pieces_from",
    "apply_H",
    "apply_Htilde",
    "apply_C",
    "apply_Q",
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


def projected_pair_sum(state, kernel: np.ndarray, a, c, b, d):
    """sum_{i != j} (A E_r C)_i (B E_s D)_j kernel[r, s] applied to ``state``.

    E_r is the site indicator |r><r|.  Grouping the s-sum per r gives
    G_r = B diag(kernel[r, :]) D, so each r costs two one-body lifts; the
    coincidence correction is a single lift of A (kernel o C B) D.  Occupation
    states take the batched ``fockstate.projected_pair_apply``; the per-r loop
    below is the tensor route and its cross-check.
    """
    if not isinstance(state, ts.TensorState):
        return fs.projected_pair_apply(kernel, a, c, b, d, state)
    m = kernel.shape[0]
    acc = 0.0 * state
    for r in range(m):
        g_r = b @ (kernel[r][:, None] * d)
        u = ts.apply_one_body_sum(g_r, state)
        x_r = np.outer(a[:, r], c[r, :])
        acc = acc + ts.apply_one_body_sum(x_r, u)
    correction = a @ (kernel * (c @ b)) @ d
    return acc - ts.apply_one_body_sum(correction, state)


def interaction_sum(state, model: Model):
    """sum_{i<j} w(x_i - x_j) applied to ``state`` (no prefactor)."""
    if isinstance(state, ts.TensorState):
        return ts.apply_pair_diagonal(model.pair, state)
    diag = fs.pair_diagonal(state.space, model.pair)
    return fs.FockState(diag * state.amps, state.space)


@dataclass(frozen=True)
class EffectivePieces:
    """Projectors and kernels derived from one condensate time stamp.

    ``z`` is the centred kernel w(r-s) - vbar(r) - vbar(s) + 2 mu; the cubic
    remainder uses it without the 2 mu shift, which two orthogonal projector
    pairs annihilate anyway.
    """

    t: float
    phi: np.ndarray
    p: np.ndarray
    q: np.ndarray
    vbar: np.ndarray
    mu: float
    h1: np.ndarray
    wker: np.ndarray
    z: np.ndarray
    z_no_mu: np.ndarray


def pieces_from(cond: Condensate, model: Model) -> EffectivePieces:
    p, q = ts.projector_matrices(cond.phi, model.cell)
    w = model.pair.mat
    vb = cond.vbar
    z_no_mu = w - vb[:, None] - vb[None, :]
    return EffectivePieces(
        t=cond.t,
        phi=cond.phi,
        p=p,
        q=q,
        vbar=vb,
        mu=cond.mu,
        h1=cond.hmat,
        wker=w,
        z=z_no_mu + 2.0 * cond.mu,
        z_no_mu=z_no_mu,
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
    if n >= 2 and not model.pair.is_zero():
        out = out + (1.0 / (n - 1)) * interaction_sum(state, model)
    return out


def apply_Htilde(pieces: EffectivePieces, state, model: Model):
    """Quadratic effective generator: mean-field one-body sum plus the
    pair terms that exchange exactly two particles with the condensate."""
    _require_pairs(state)
    out = one_body_lift(pieces.h1, state)
    if model.pair.is_zero():
        return out
    n = state.particles
    p, q, w = pieces.p, pieces.q, pieces.wker
    # p_i q_j v q_i p_j summed with its adjoint over ordered pairs
    t1 = projected_pair_sum(state, w, p, q, q, p)
    # p_i p_j v q_i q_j and the adjoint, each symmetric under i <-> j
    t2 = projected_pair_sum(state, w, p, q, p, q)
    t3 = projected_pair_sum(state, w, q, p, q, p)
    return out + (1.0 / (n - 1)) * (t1 + 0.5 * (t2 + t3))


def apply_C(pieces: EffectivePieces, state, model: Model):
    """Cubic remainder: three complement projectors around the centred kernel."""
    _require_pairs(state)
    if model.pair.is_zero():
        return 0.0 * state
    n = state.particles
    p, q, z = pieces.p, pieces.q, pieces.z_no_mu
    t1 = projected_pair_sum(state, z, q, q, q, p)
    t2 = projected_pair_sum(state, z, q, q, p, q)
    return (1.0 / (n - 1)) * (t1 + t2)


def apply_Q(pieces: EffectivePieces, state, model: Model):
    """Quartic remainder: four complement projectors around the full kernel."""
    _require_pairs(state)
    if model.pair.is_zero():
        return 0.0 * state
    n = state.particles
    q, z = pieces.q, pieces.z
    return (0.5 / (n - 1)) * projected_pair_sum(state, z, q, q, q, q)


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
