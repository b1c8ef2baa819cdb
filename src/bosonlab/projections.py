"""Excitation-number projections, weight operators, and moment functionals.

For a normalised condensate phi, P_k projects an N-body state onto the
sector with exactly k particles outside phi, i.e. onto the eigenspace k of
the excitation-number observable S = sum_j q_j = dGamma(q), the one-body lift
of q = 1 - p, whose spectrum is {0, ..., N}.

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
from .fockstate import SERIAL_MATVEC

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
    "weight_values",
    "number_apply",
    "apply_Pk",
    "apply_Pk_subset",
    "spectral_weights",
    "apply_weight",
    "qchain_expectation",
    "excitation_extract",
    "falling_factorial",
]


def number_apply(state, q: np.ndarray):
    """Apply S = sum_j q_j = dGamma(q), the lift of q = 1 - p (p the condensate's)."""
    return state.lift(q)


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
    step lifts the one complement q built for the pass, so a symmetric
    sector checks q once.  The rows and their conjugates hold 2 (N + 1) * dim
    complex entries (527 KB at N = 16, dim 969).
    Raises ConsistencyError when a Ritz value that carries weight lies off the
    integers 0..N, i.e. when S does not have the spectrum it must have.
    """
    ts.check_normalised(phi, psi.cell)
    n = psi.particles
    flat = psi.amps.reshape(-1)
    scale = np.linalg.norm(flat)
    if scale == 0.0:
        return np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, flat.size)), np.zeros((0, 0))
    _, q = ts.projector_matrices(phi, psi.cell)
    rows = np.zeros((n + 1, flat.size), dtype=np.complex128)
    rows[0] = flat / scale
    conj = rows.conj()
    alpha = np.zeros(n + 1)
    beta = np.zeros(n)
    steps = n + 1
    for j in range(n + 1):
        r = number_apply(psi.with_amps(rows[j].reshape(psi.amps.shape)), q).amps.reshape(-1)
        # two classical Gram-Schmidt passes, c = conj(V) r and r -= c V, as BLAS
        # matrix-vector products of at most fockstate.SERIAL_MATVEC entries
        width = max(1, SERIAL_MATVEC // (j + 1))
        blocks = [(rows[: j + 1, b], conj[: j + 1, b], r[b])
                  for b in (slice(lo, lo + width) for lo in range(0, flat.size, width))]
        for _ in range(2):
            c = sum(np.matmul(dual, part) for _, dual, part in blocks)
            for basis, _, part in blocks:
                part -= np.matmul(c, basis)
            alpha[j] += c[j].real
        if j == n:
            break
        beta[j] = np.linalg.norm(r)
        if beta[j] <= KRYLOV_STOP * max(1, n):
            steps = j + 1
            break
        np.divide(r, beta[j], out=rows[j + 1])
        np.conjugate(rows[j + 1], out=conj[j + 1])
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
        coeff = np.array([falling_factorial(k, a) for k in range(n + 1)]) / falling_factorial(n, a)
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

    One Lanczos pass of S from psi (at most N + 1 lifts, see
    ``_sector_krylov``) gives each weight as the sum of the Ritz weights with
    label k; it matches a dense eigendecomposition of S to roundoff at any N
    and holds 2 (N + 1) * dim complex entries while it runs.  A Ritz value off
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


# ---------------------------------------------------------------------------
# q-chains and excitation vectors
# ---------------------------------------------------------------------------

def falling_factorial(x: int, a: int) -> float:
    out = 1.0
    for j in range(a):
        out *= x - j
    return out


def qchain_expectation(a: int, phi: np.ndarray, psi, weights: SpectralWeights | None = None) -> float:
    """<psi, q_1...q_a psi> for symmetric psi from the spectral weights by the
    falling-factorial rule, cross-checked by the state's
    ``chain_expectation`` (on the tensor grid, the direct slot projection;
    disagreement beyond 1e-8 is an internal consistency failure)."""
    if not 1 <= a <= psi.particles:
        raise ValueError(f"chain length a={a} out of range 1..{psi.particles}")
    if weights is None:
        weights = spectral_weights(psi, phi)
    elif weights.particles != psi.particles:
        raise ValueError(
            f"weights over N={weights.particles} do not belong to a state of N={psi.particles}"
        )
    return psi.chain_expectation(a, phi, weights.qchain(a))


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
