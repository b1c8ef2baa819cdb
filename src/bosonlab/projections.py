"""Excitation-number projections, weight operators, and moment functionals.

For a normalised condensate phi, P_k projects an N-body state onto the
sector with exactly k particles outside phi, i.e. onto the eigenspace k of
the excitation-number observable S = sum_j q_j, whose spectrum is {0, ..., N}.

Every function of S applied to one state goes through a single Lanczos pass
of S from that state.  Because S has at most N + 1 distinct eigenvalues, at
most N + 1 steps (N + 1 one-body lifts) span an S-invariant Krylov space, on
which the tridiagonal Ritz values are the sector labels k and the squared
first components of its eigenvectors are the weights ||P_k psi||^2 / ||psi||^2
(Golub-Welsch).  The basis is fully reorthogonalised, so the weights are exact
to roundoff at any N; the Krylov rows cost O((N + 1) * dim) complex entries
of memory.  A Ritz value off the integers that carries weight is an
inconsistency and raises ConsistencyError.  The subset-sum definition (all
placements of k complement projectors) is retained only as a small-N oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from . import tensorstate as ts
from .errors import ConsistencyError

# Largest accepted |sum_k ||P_k psi||^2 - ||psi||^2|, relative to max(1, ||psi||^2).
SUM_RULE_TOL = 1e-8
# The Lanczos pass stops once the residual norm is below this times max(1, N).
KRYLOV_STOP = 1e-12
# A Ritz value farther than RITZ_TOL from an integer in 0..N that carries more
# than WEIGHT_FLOOR * max(1, ||psi||^2) raises ConsistencyError.
RITZ_TOL = 1e-8
WEIGHT_FLOOR = 1e-14

__all__ = [
    "WeightFunction",
    "SpectralWeights",
    "weight_w_lambda",
    "weight_values",
    "number_apply",
    "apply_Pk",
    "apply_Pk_subset",
    "spectral_weights",
    "apply_weight",
    "m_moment",
    "n_moment",
    "qchain_expectation",
    "qchain_spectral",
    "excitation_extract",
    "excitation_moment",
    "falling_factorial",
    "a3_report",
    "A3Report",
]


def number_apply(state, p: np.ndarray):
    """Apply S = sum_j q_j = N - (one-body lift of the condensate projector p)."""
    return state.particles * state - state.lift(p)


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

def _sector_krylov(phi: np.ndarray, psi):
    """Lanczos pass of S from psi / ||psi||: the spectral data of S seen by psi.

    Returns ``(labels, carried, rows, ritz)``: the integer label round(theta_j)
    of each Ritz value, the weight ||psi||^2 ritz[0, j]^2 each Ritz pair
    carries, the orthonormal Krylov rows (flattened amplitudes, one per step)
    and the eigenvectors of the tridiagonal matrix as columns of ``ritz``.  It
    stops after N + 1 steps, or earlier once the residual is roundoff; every
    step lifts the one projector p built for the pass, so a symmetric sector
    checks p once.  The rows hold O((N + 1) * dim) complex entries (263 KB
    at N = 16, dim 969).
    Raises ConsistencyError when a Ritz value that carries weight lies off the
    integers 0..N, i.e. when S does not have the spectrum it must have.
    """
    ts.check_normalised(phi, psi.cell)
    n = psi.particles
    flat = psi.amps.reshape(-1)
    scale = np.linalg.norm(flat)
    if scale == 0.0:
        return np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, flat.size)), np.zeros((0, 0))
    p, _ = ts.projector_matrices(phi, psi.cell)
    rows = np.zeros((n + 1, flat.size), dtype=np.complex128)
    rows[0] = flat / scale
    alpha = np.zeros(n + 1)
    beta = np.zeros(n)
    steps = n + 1
    for j in range(n + 1):
        r = number_apply(psi.with_amps(rows[j].reshape(psi.amps.shape)), p).amps.reshape(-1)
        # two classical Gram-Schmidt passes; einsum, not a BLAS gemv, because
        # (j + 1) * dim above 4096 entries wakes OpenBLAS's thread pool
        for _ in range(2):
            c = np.einsum("ij,j->i", rows[: j + 1], r.conj()).conj()
            r = r - np.einsum("i,ij->j", c, rows[: j + 1])
            alpha[j] += c[j].real
        if j == n:
            break
        beta[j] = np.linalg.norm(r)
        if beta[j] <= KRYLOV_STOP * max(1, n):
            steps = j + 1
            break
        rows[j + 1] = r / beta[j]
    off_diag = beta[: steps - 1]
    ritz_values, ritz = np.linalg.eigh(
        np.diag(alpha[:steps]) + np.diag(off_diag, 1) + np.diag(off_diag, -1)
    )
    norm_sq = psi.norm() ** 2
    carried = norm_sq * ritz[0] ** 2
    labels = np.rint(ritz_values)
    off = (np.abs(ritz_values - labels) > RITZ_TOL) | (labels < 0) | (labels > n)
    if np.any(off & (carried > WEIGHT_FLOOR * max(1.0, norm_sq))):
        bad = ritz_values[off][np.argmax(carried[off])]
        raise ConsistencyError(
            f"S = sum_j q_j has a Ritz value {bad!r} off the integers 0..{n} "
            f"that carries weight; the excitation-number spectrum is inconsistent"
        )
    return np.clip(labels, 0, n).astype(int), carried, rows[:steps], ritz


def _apply_sector_values(vals: np.ndarray, phi: np.ndarray, psi):
    """sum_k vals[k] P_k psi, rebuilt as ||psi|| V Y diag(vals[k_j]) Y[0]."""
    labels, _, rows, ritz = _sector_krylov(phi, psi)
    out = 0.0 * psi
    if len(labels):
        coeff = np.linalg.norm(psi.amps) * (ritz @ (vals[labels] * ritz[0]))
        out.amps[...] = np.einsum("i,ij->j", coeff, rows).reshape(psi.amps.shape)
    return out


def apply_Pk(k: int, phi: np.ndarray, state):
    """Project onto the k-excitation sector; zero state for k outside [0, N]."""
    n = state.particles
    if k < 0 or k > n:
        ts.check_normalised(phi, state.cell)
        return 0.0 * state
    return _apply_sector_values(np.eye(n + 1)[k], phi, state)


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

    One Lanczos pass of S from psi (at most N + 1 lifts, see
    ``_sector_krylov``) gives each weight as the sum of the Ritz weights with
    label k; it matches a dense eigendecomposition of S to roundoff at any N
    and holds (N + 1) * dim complex entries while it runs.  A Ritz value off
    the integers that carries weight, or a sum-rule defect above
    SUM_RULE_TOL, raises ConsistencyError (exit 1).
    """
    if psi.asymmetry() > 1e-8:
        raise ValueError("spectral weights require a symmetric state")
    n = psi.particles
    labels, carried, _, _ = _sector_krylov(phi, psi)
    w = np.zeros(n + 1)
    np.add.at(w, labels, carried)
    norm_sq = psi.norm() ** 2
    defect = abs(w.sum() - norm_sq)
    if defect > SUM_RULE_TOL * max(1.0, norm_sq):
        raise ConsistencyError(
            f"spectral weights sum to {w.sum()!r}, not ||psi||^2 = {norm_sq!r} "
            f"(defect {defect:.3g}) at N={n}"
        )
    return SpectralWeights(weights=w)


def apply_weight(f: WeightFunction | Callable, phi: np.ndarray, psi):
    """Weight operator sum_k f(k) P_k applied to psi."""
    return _apply_sector_values(weight_values(f, psi.particles), phi, psi)


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


def qchain_expectation(a: int, phi: np.ndarray, psi, weights: SpectralWeights | None = None) -> float:
    """<psi, q_1...q_a psi> for symmetric psi from the spectral weights by the
    falling-factorial rule, cross-checked by the state's
    ``chain_expectation`` (on the tensor grid, the direct slot projection;
    disagreement beyond 1e-8 is an internal consistency failure)."""
    if not 1 <= a <= psi.particles:
        raise ValueError(f"chain length a={a} out of range 1..{psi.particles}")
    if weights is None:
        weights = spectral_weights(psi, phi)
    spectral = qchain_spectral(a, weights, psi.particles)
    return psi.chain_expectation(a, phi, spectral)


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
