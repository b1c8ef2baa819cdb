"""Excitation-number projections, weight operators, and moment functionals.

For a normalised condensate phi, P_k projects an N-body state onto the
sector with exactly k particles outside phi.  P_k is evaluated as a Lagrange
polynomial in the excitation-number observable S = sum_j q_j, whose spectrum
is {0, ..., N}:

    P_k = prod_{l != k} (S - l) / (k - l),

applied by repeated action of S.  Factors are consumed in ascending |k - l|
order to limit cancellation at large N.  The subset-sum definition (all
placements of k complement projectors) is retained only as a small-N oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from . import fockstate as fs
from . import tensorstate as ts
from .errors import ConsistencyError

# Largest accepted |sum_k ||P_k psi||^2 - ||psi||^2|, relative to max(1, ||psi||^2).
SUM_RULE_TOL = 1e-8

__all__ = [
    "WeightFunction",
    "SpectralWeights",
    "weight_m",
    "weight_n",
    "weight_w_lambda",
    "weight_values",
    "number_apply",
    "apply_Pk",
    "apply_Pk_subset",
    "spectral_weights",
    "apply_weight",
    "weight_expectation",
    "m_moment",
    "n_moment",
    "qchain_expectation",
    "qchain_spectral",
    "excitation_extract",
    "excitation_moment",
    "falling_factorial",
    "a3_report",
    "A3Report",
    "state_norm",
    "state_inner",
]


# ---------------------------------------------------------------------------
# representation-neutral helpers
# ---------------------------------------------------------------------------

def state_norm(state) -> float:
    return state.norm()


def state_inner(a, b) -> complex:
    if isinstance(a, ts.TensorState):
        return ts.inner(a, b)
    return fs.inner(a, b)


def _check_phi(phi: np.ndarray, cell: float):
    norm = np.sqrt(cell * np.vdot(phi, phi).real)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"condensate must be normalised, |norm - 1| = {abs(norm - 1.0):.3g}")


def number_apply(state, phi: np.ndarray):
    """Apply S = sum_j q_j = N - (one-body lift of p)."""
    p, _ = ts.projector_matrices(phi, state.cell)
    if isinstance(state, ts.TensorState):
        lift = ts.apply_one_body_sum(p, state)
    else:
        lift = fs.dgamma_apply(p, state)
    return state.particles * state - lift


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative weight k -> f(k) with an integer shift for the hatted family.

    The shifted operator substitutes f(n + shift) on the sector P_n, summing
    over n in [-shift, N - shift] intersected with [0, N].
    """

    fn: Callable[[int], float]
    shift: int = 0

    def shifted(self, offset: int) -> "WeightFunction":
        return WeightFunction(self.fn, self.shift + offset)


def weight_n(n_particles: int) -> WeightFunction:
    return WeightFunction(lambda k: math.sqrt(k / n_particles))


def weight_m(n_particles: int) -> WeightFunction:
    return WeightFunction(lambda k: math.sqrt((k + 1) / n_particles))


def weight_w_lambda(lam: float, n_particles: int) -> WeightFunction:
    """Capped linear family: (k+1)/N^lam below the cap index, 1 beyond."""
    cap = n_particles**lam
    return WeightFunction(lambda k: (k + 1) / cap if k <= cap - 1 else 1.0)


def weight_values(f: WeightFunction | Callable, n_particles: int) -> np.ndarray:
    """Per-sector values g(n) = f(n + shift) over n = 0..N, zero off-window."""
    if not isinstance(f, WeightFunction):
        f = WeightFunction(f)
    vals = np.zeros(n_particles + 1)
    for n in range(n_particles + 1):
        arg = n + f.shift
        if 0 <= arg <= n_particles:
            v = float(f.fn(arg))
            if v < 0:
                raise ValueError(f"negative weight value f({arg}) = {v}")
            vals[n] = v
    return vals


# ---------------------------------------------------------------------------
# spectral projectors
# ---------------------------------------------------------------------------

def apply_Pk(k: int, phi: np.ndarray, state):
    """Project onto the k-excitation sector; zero state for k outside [0, N]."""
    _check_phi(phi, state.cell)
    n = state.particles
    if k < 0 or k > n:
        return 0.0 * state
    out = state
    for l in sorted((l for l in range(n + 1) if l != k), key=lambda l: (abs(l - k), l)):
        out = (number_apply(out, phi) - l * out) * (1.0 / (k - l))
    return out


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
    """Distribution ||P_k psi||^2 over the excitation number k = 0..N."""

    weights: np.ndarray

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def moment(self, a: int) -> float:
        k = np.arange(len(self.weights))
        return float(np.sum(k**a * self.weights))


def spectral_weights(psi, phi: np.ndarray) -> SpectralWeights:
    """||P_k psi||^2 for every k; entries are nonnegative and sum to ||psi||^2.

    The Lagrange P_k lose accuracy as N grows (the resolution-of-identity
    defect is ~1e-13 at N=16, ~1e-10 at N=20 and ~1e-5 at N=30 for M=3), so
    the sum rule is checked and a violation raises ConsistencyError.
    """
    _check_phi(phi, psi.cell)
    if isinstance(psi, ts.TensorState) and ts.transposition_residual(psi) > 1e-8:
        raise ValueError("spectral weights require a symmetric state")
    n = psi.particles
    w = np.empty(n + 1)
    for k in range(n + 1):
        w[k] = state_norm(apply_Pk(k, phi, psi)) ** 2
    norm_sq = state_norm(psi) ** 2
    defect = abs(w.sum() - norm_sq)
    if defect > SUM_RULE_TOL * max(1.0, norm_sq):
        raise ConsistencyError(
            f"spectral weights sum to {w.sum()!r}, not ||psi||^2 = {norm_sq!r} "
            f"(defect {defect:.3g}); the Lagrange P_k are inaccurate at N={n}"
        )
    return SpectralWeights(weights=w)


def apply_weight(f: WeightFunction | Callable, phi: np.ndarray, psi):
    """Weight operator sum_k f(k) P_k applied to psi."""
    vals = weight_values(f, psi.particles)
    out = 0.0 * psi
    for k, v in enumerate(vals):
        if v != 0.0:
            out = out + v * apply_Pk(k, phi, psi)
    return out


def weight_expectation(f: WeightFunction | Callable, phi: np.ndarray, psi) -> float:
    """<psi, f_hat psi> = sum_k f(k) ||P_k psi||^2."""
    vals = weight_values(f, psi.particles)
    return float(np.dot(vals, spectral_weights(psi, phi).weights))


def m_moment(a: int, phi: np.ndarray, psi, weights: SpectralWeights | None = None) -> float:
    """||m_hat^a psi||^2 = sum_k ((k+1)/N)^a ||P_k psi||^2."""
    if weights is None:
        weights = spectral_weights(psi, phi)
    n = psi.particles
    k = np.arange(n + 1)
    return float(np.sum(((k + 1) / n) ** a * weights.weights))


def n_moment(a: int, phi: np.ndarray, psi, weights: SpectralWeights | None = None) -> float:
    """||n_hat^a psi||^2 = sum_k (k/N)^a ||P_k psi||^2."""
    if weights is None:
        weights = spectral_weights(psi, phi)
    n = psi.particles
    k = np.arange(n + 1)
    return float(np.sum((k / n) ** a * weights.weights))


# ---------------------------------------------------------------------------
# q-chains and excitation vectors
# ---------------------------------------------------------------------------

def falling_factorial(x: int, a: int) -> float:
    out = 1.0
    for j in range(a):
        out *= x - j
    return out


def qchain_spectral(a: int, weights: SpectralWeights, n_particles: int) -> float:
    """<psi, q_1...q_a psi> from spectral weights via the falling-factorial rule."""
    k = np.arange(n_particles + 1)
    coeff = np.array([falling_factorial(int(kk), a) for kk in k]) / falling_factorial(n_particles, a)
    return float(np.dot(coeff, weights.weights))


def qchain_expectation(a: int, phi: np.ndarray, psi) -> float:
    """<psi, q_1...q_a psi> for symmetric psi, cross-checked along two routes.

    Tensor states compute both the direct slot projection and the spectral
    falling-factorial value; disagreement beyond 1e-8 is an internal
    consistency failure.  Occupation states use the spectral route.
    """
    if not 1 <= a <= psi.particles:
        raise ValueError(f"chain length a={a} out of range 1..{psi.particles}")
    spectral = qchain_spectral(a, spectral_weights(psi, phi), psi.particles)
    if isinstance(psi, fs.FockState):
        return spectral
    if ts.transposition_residual(psi) > 1e-8:
        raise ValueError("q-chain expectation requires a symmetric state")
    pattern = ["q"] * a + ["id"] * (psi.particles - a)
    direct = state_inner(psi, ts.apply_projector_chain(pattern, phi, psi)).real
    if abs(direct - spectral) > 1e-8:
        raise ConsistencyError(
            f"q-chain routes disagree: direct={direct!r}, spectral={spectral!r}"
        )
    return direct


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
    _check_phi(phi, psi.cell)
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


def excitation_moment(a: int, phi: np.ndarray, psi, weights: SpectralWeights | None = None) -> float:
    """a-th moment sum_k k^a ||P_k psi||^2 of the excitation number."""
    if weights is None:
        weights = spectral_weights(psi, phi)
    return weights.moment(a)


# ---------------------------------------------------------------------------
# initial-data diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class A3Report:
    """Moment-budget table for an initial state at a given gamma.

    Rows carry, per order a: the m-weight moment and its constant
    c_a = moment * N^(gamma a), the q-chain analogue c'_a, and the raw
    excitation moment with its constant c''_a = moment * N^(-(1-gamma) a).
    """

    gamma: float
    cap: float
    orders: np.ndarray
    m_moments: np.ndarray
    c_a: np.ndarray
    qchain: np.ndarray
    c_a_prime: np.ndarray
    exc_moments: np.ndarray
    c_a_dprime: np.ndarray
    gamma_max: float

    def rows(self):
        for i, a in enumerate(self.orders):
            yield (
                int(a),
                self.m_moments[i],
                self.c_a[i],
                self.qchain[i],
                self.c_a_prime[i],
                self.exc_moments[i],
                self.c_a_dprime[i],
            )


def a3_report(psi0, phi0: np.ndarray, gamma: float, order_cap: int, cap: float = 1.0) -> A3Report:
    """Tabulate initial-excitation constants for a = 0..order_cap.

    The verdict ``gamma_max`` is the largest gamma in (0, 1] at which every
    c_a stays below ``cap``; 0.0 means no admissible gamma.
    """
    n = psi0.particles
    if order_cap > n:
        raise ValueError(f"moment order {order_cap} exceeds particle count {n}")
    w = spectral_weights(psi0, phi0)
    orders = np.arange(order_cap + 1)
    m_moms = np.array([m_moment(int(a), phi0, psi0, weights=w) for a in orders])
    qvals = np.array(
        [1.0] + [qchain_spectral(int(a), w, n) for a in orders[1:]]
    )
    evals = np.array([w.moment(int(a)) for a in orders])
    c_a = m_moms * float(n) ** (gamma * orders)
    c_p = qvals * float(n) ** (gamma * orders)
    c_pp = evals * float(n) ** (-(1.0 - gamma) * orders)

    logn = math.log(n) if n > 1 else 1.0
    gmax = 1.0
    for a, mom in zip(orders[1:], m_moms[1:]):
        if mom <= 0:
            continue
        bound = math.log(cap / mom) / (a * logn)
        gmax = min(gmax, bound)
    gamma_max = float(min(max(gmax, 0.0), 1.0))

    return A3Report(
        gamma=gamma,
        cap=cap,
        orders=orders,
        m_moments=m_moms,
        c_a=c_a,
        qchain=qvals,
        c_a_prime=c_p,
        exc_moments=evals,
        c_a_dprime=c_pp,
        gamma_max=gamma_max,
    )
