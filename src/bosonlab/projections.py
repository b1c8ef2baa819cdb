"""Excitation-number projections, weight operators, and moment functionals.

For a normalised condensate phi, P_k projects an N-body state onto the
sector with exactly k particles outside phi, i.e. onto the eigenspace k of
the excitation-number observable S = sum_j q_j = dGamma(q), the one-body lift
of q = 1 - p, whose spectrum is {0, ..., N}.

Every function of S is read in the condensate frame (the excitation map of
Lewin-Nam-Serfaty-Solovej): over a one-body basis whose mode 0 is u =
sqrt(cell) phi, k is the number of particles outside mode 0, so P_k is a
mask on the amplitudes that ``to_frame`` gives and ``from_frame`` maps back,
exact to roundoff at any N.  Each call checks the weights' total and first
two moments (``_frame``).  The subset-sum definition (all placements of k
complement projectors) is retained only as a small-N oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from . import tensorstate as ts
from .errors import ConsistencyError

# Largest accepted gap of a weight moment a = 0, 1, 2 per max(1, N)^a max(1, ||psi||^2).
SUM_RULE_TOL = 1e-8

__all__ = [
    "WeightFunction",
    "SpectralWeights",
    "weight_values",
    "number_apply",
    "apply_Pk",
    "apply_Pk_subset",
    "spectral_weights",
    "apply_weight",
    "qchain_expectation",
    "excitation_extract",
]


def number_apply(state, q: np.ndarray):
    """Apply S = sum_j q_j = dGamma(q), the lift of q = 1 - p (p the condensate's)."""
    return state.lift(q)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """Finite nonnegative weight k -> f(k) with an integer shift for the hatted family.

    The shifted operator substitutes f(n + shift) on the sector P_n, summing
    over n in [-shift, N - shift] intersected with [0, N].
    """

    fn: Callable[[int], float]
    shift: int = 0

    def shifted(self, offset: int) -> "WeightFunction":
        return WeightFunction(self.fn, self.shift + offset)


def weight_values(f: WeightFunction | Callable, n_particles: int) -> np.ndarray:
    """Per-sector values g(n) = f(n + shift) over n = 0..N, zero off-window;
    ``ValueError`` for a negative or non-finite value."""
    if not isinstance(f, WeightFunction):
        f = WeightFunction(f)
    vals = np.zeros(n_particles + 1)
    for n in range(n_particles + 1):
        arg = n + f.shift
        if 0 <= arg <= n_particles:
            v = float(f.fn(arg))
            if not 0 <= v < math.inf:
                raise ValueError(f"weight value f({arg}) = {v} is negative or not finite")
            vals[n] = v
    return vals


# ---------------------------------------------------------------------------
# spectral projectors
# ---------------------------------------------------------------------------

def _frame(phi: np.ndarray, psi) -> tuple:
    """(c, k, w): psi's frame amplitudes and excitation numbers (``to_frame``)
    and the weights w_k, the sums of |c|^2 by k, whose moments a = 0, 1 and 2
    must match ||psi||^2, then <psi, S psi> and ||S psi||^2 from one lift of
    S, to SUM_RULE_TOL max(1, N)^a max(1, ||psi||^2), or ConsistencyError.
    The lift refuses a condensate of another length with ``ValueError``."""
    ts.check_normalised(phi, psi.cell)
    n, lifted = psi.particles, number_apply(psi, ts.projector_matrices(phi, psi.cell)[1])
    amps, k = psi.to_frame(phi)
    w = np.bincount(np.ravel(k), (amps * amps.conj()).real.ravel(), minlength=n + 1)
    norm_sq = psi.norm() ** 2
    for a, name, want in ((0, "||psi||^2", norm_sq), (1, "<psi, S psi>", psi.inner(lifted).real),
                          (2, "||S psi||^2", lifted.norm() ** 2)):
        got = float(np.arange(n + 1) ** a @ w)
        if not abs(got - want) <= SUM_RULE_TOL * max(1, n) ** a * max(1.0, norm_sq):
            raise ConsistencyError(f"the weights give sum_k k^{a} w_k = {got!r}, not {name} = {want!r} "
                                   f"at N={n}; the excitation-number spectrum is inconsistent")
    return amps, k, w


def apply_Pk(k: int, phi: np.ndarray, state):
    """Project onto the k-excitation sector; zero state for k outside [0, N]."""
    return apply_weight(lambda j: float(j == k), phi, state)


def apply_Pk_subset(k: int, phi: np.ndarray, psi: ts.TensorState) -> ts.TensorState:
    """Subset-sum definition of P_k; O(C(N,k)) chains, small-N oracle only."""
    n = psi.particles
    if k < 0 or k > n:
        return 0.0 * psi
    acc = 0.0 * psi
    for excited in combinations(range(n), k):
        pattern = ["q" if j in excited else "p" for j in range(n)]
        acc = acc + ts.apply_projector_chain(pattern, phi, psi)
    return acc


@dataclass(frozen=True)
class SpectralWeights:
    """Distribution w_k = ||P_k psi||^2 over the excitation number k = 0..N.

    Every excitation statistic of psi is read from this one array, so a
    moment cannot be paired with weights of another state or particle count.
    """

    weights: np.ndarray

    @property
    def particles(self) -> int:
        return len(self.weights) - 1

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def moment(self, a: int) -> float:
        """sum_k k^a w_k, the a-th moment of the excitation number."""
        k = np.arange(len(self.weights))
        return float(np.sum(k**a * self.weights))

    def m_moment(self, a: int) -> float:
        """||m_hat^a psi||^2 = sum_k ((k+1)/N)^a w_k."""
        k = np.arange(len(self.weights))
        return float(np.sum(((k + 1) / self.particles) ** a * self.weights))

    def n_moment(self, a: int) -> float:
        """||n_hat^a psi||^2 = sum_k (k/N)^a w_k."""
        k = np.arange(len(self.weights))
        return float(np.sum((k / self.particles) ** a * self.weights))

    def qchain(self, a: int) -> float:
        """<psi, q_1...q_a psi> = sum_k w_k k!/(k-a)! / (N!/(N-a)!), for 0 <= a <= N."""
        n = self.particles
        if not 0 <= a <= n:
            raise ValueError(f"chain length a={a} out of range 0..{n}")
        coeff = np.array([math.perm(k, a) / math.perm(n, a) for k in range(n + 1)])
        return float(np.dot(coeff, self.weights))

    def budget(self, a: int, gamma: float) -> float:
        """c_a = ||m_hat^a psi||^2 N^(gamma a), the initial-data budget of order a."""
        return self.m_moment(a) * float(self.particles) ** (gamma * a)

    def gamma_max(self, order_cap: int) -> float:
        """The largest gamma in (0, 1] at which c_a <= 1 for every a = 1..order_cap;
        0.0 when no gamma qualifies.  An order above N raises ``ValueError``."""
        n = self.particles
        if order_cap > n:
            raise ValueError(f"moment order {order_cap} exceeds particle count {n}")
        gmax = 1.0
        for a in range(1, order_cap + 1):
            mom = self.m_moment(a)
            if mom <= 0:
                continue
            if n > 1:
                gmax = min(gmax, math.log(1.0 / mom) / (a * math.log(n)))
            elif mom > 1.0:  # N^(gamma a) = 1, so c_a = mom at every gamma
                gmax = 0.0
        return max(gmax, 0.0)


def spectral_weights(psi, phi: np.ndarray) -> SpectralWeights:
    """||P_k psi||^2 for every k; entries are nonnegative and sum to ||psi||^2.

    The squared amplitudes of psi in the condensate frame, summed by k
    (``_frame``, whose moment checks raise ConsistencyError, exit 1); exact to
    roundoff at any N.  An asymmetric state or a bad condensate raises ``ValueError``.
    """
    if not psi.asymmetry() <= 1e-8:
        raise ValueError("spectral weights require a symmetric state")
    return SpectralWeights(weights=_frame(phi, psi)[2])


def apply_weight(f: WeightFunction | Callable, phi: np.ndarray, psi):
    """Weight operator sum_k f(k) P_k applied to psi, as f(k) on its checked frame amplitudes."""
    amps, k, _ = _frame(phi, psi)
    return psi.from_frame(phi, amps * weight_values(f, psi.particles)[k])


# ---------------------------------------------------------------------------
# q-chains and excitation vectors
# ---------------------------------------------------------------------------

def qchain_expectation(a: int, phi: np.ndarray, psi) -> float:
    """<psi, q_1...q_a psi> for symmetric psi from its spectral weights by the
    falling-factorial rule, cross-checked by the state's
    ``chain_expectation`` (on the tensor grid, the direct slot projection;
    disagreement beyond 1e-8 is an internal consistency failure)."""
    if not 1 <= a <= psi.particles:
        raise ValueError(f"chain length a={a} out of range 1..{psi.particles}")
    return psi.chain_expectation(a, phi, spectral_weights(psi, phi).qchain(a))


def excitation_extract(k: int, phi: np.ndarray, psi: ts.TensorState) -> ts.TensorState:
    """k-particle excitation vector from a symmetric tensor state.

    Contracts psi against the condensate on N - k coordinates, projects the
    rest onto the complement of phi, and scales by sqrt(C(N, k)); the result
    is orthogonal to phi in every coordinate and its squared norm equals
    ||P_k psi||^2.
    """
    n = psi.particles
    if not 0 <= k <= n:
        raise ValueError(f"excitation order k={k} out of range 0..{n}")
    if n > 8:
        raise ValueError("excitation extraction is limited to N <= 8")
    ts.check_normalised(phi, psi.cell)
    phi = np.asarray(phi, dtype=np.complex128)
    amps = psi.amps
    for _ in range(n - k):
        amps = psi.cell * np.tensordot(amps, phi.conj(), axes=([amps.ndim - 1], [0]))
    out = ts.TensorState(np.asarray(amps, dtype=np.complex128), psi.cell)
    if k > 0:
        _, q = ts.projector_matrices(phi, psi.cell)
        for slot in range(k):
            out = ts.apply_factor(q, slot, out)
    return math.sqrt(math.comb(n, k)) * out
