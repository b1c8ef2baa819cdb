"""Occupation-number representation of the symmetric N-boson subspace.

States are expansion coefficients over the orthonormal basis |n_1 ... n_M>
built from the site modes e_r = delta_r / cell**(1/2).  In that basis the
matrix elements of any one-body lift equal the raw M x M coefficient table,
so tables pass between representations unchanged.  The compressed dimension
C(N+M-1, N) is what makes particle numbers beyond the dense tensor ceiling
reachable.

Operators act in normal-ordered ladder form.  The annihilators are one
gather to the (N-1)-particle basis, (a_s psi)[u] = sqrt(u_s + 1) psi[u + e_s],
and the creators one gather back up with the same weights.  A one-body lift
dGamma(h) = sum h[r, s] a_r^+ a_s is two O(dim M) gathers around one M x M
product; a two-body operator is a^+ a^+ (K . a a psi) with one normal-ordered
(M^2, M^2) kernel K (``pair_kernel``), so an operator built from several
projected pair terms costs one application.  The scratch buffers belong to
the FockSpace, which makes a FockSpace single-threaded; worker processes
such as those of ``sweep --jobs`` each build their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensorstate import TensorState, transposition_residual

__all__ = [
    "OccupationBasis",
    "Ladder",
    "FockSpace",
    "FockState",
    "enumerate_basis",
    "dgamma_apply",
    "pair_kernel",
    "two_body_apply",
    "pair_apply",
    "embed",
    "extract",
    "inner",
    "product_fock",
    "random_fock",
    "pair_diagonal",
]

BASIS_CEILING = 2_000_000


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _rank(occ: np.ndarray, particles: int) -> np.ndarray:
    """Basis index of each occupation vector along the last axis, all summing to N.

    A composition precedes n in descending-lexicographic order when, at the
    first part j where they differ, its part exceeds n_j; with
    rest_j = N - 1 - (n_0 + ... + n_j) there are C(rest_j + M - 1 - j, M - 1 - j)
    such compositions, none when rest_j < 0.  counts[a, k] = C(a + k, k).
    """
    sites = occ.shape[-1]
    counts = np.ones((max(particles, 1), sites), dtype=np.int64)
    for k in range(1, sites):
        counts[:, k] = np.cumsum(counts[:, k - 1])
    rest = particles - 1 - np.cumsum(occ[..., :-1], axis=-1)
    parts = np.arange(sites - 1, 0, -1)
    return np.where(rest >= 0, counts[np.maximum(rest, 0), parts], 0).sum(axis=-1)


@dataclass(frozen=True)
class OccupationBasis:
    """Deterministic (lexicographically descending) occupation-vector basis."""

    occupations: np.ndarray  # (dim, M) int64, each row sums to N
    particles: int
    sites: int

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def index_of(self, occ) -> int:
        row = np.asarray(occ, dtype=np.int64)
        if row.shape != (self.sites,) or row.min() < 0 or row.sum() != self.particles:
            raise KeyError(tuple(int(x) for x in row.ravel()))
        return int(_rank(row, self.particles))


def enumerate_basis(sites: int, particles: int, ceiling: int = BASIS_CEILING) -> OccupationBasis:
    """All occupation vectors (n_1 ... n_M) with sum N, descending lexicographic."""
    if sites < 1 or particles < 0:
        raise ConfigError(f"invalid basis request M={sites}, N={particles}")
    dim = math.comb(particles + sites - 1, particles)
    if dim > ceiling:
        raise ConfigError(
            f"occupation basis dimension C({particles + sites - 1},{particles}) = {dim} "
            f"exceeds ceiling {ceiling}"
        )
    occ = np.array(list(_compositions(particles, sites)), dtype=np.int64).reshape(dim, sites)
    return OccupationBasis(occupations=occ, particles=particles, sites=sites)


class Ladder:
    """Annihilation and creation gathers between a basis and the one a particle lower.

    For mode s and lower row u, ``annihilate[s, u]`` is the upper index of
    u + e_s and ``factor[s, u]`` is sqrt(u_s + 1), stored complex so that
    weighting needs no cast.  For mode r and upper row t, ``create[r, t]`` is
    the position r * dim_lower + (index of t - e_r) in ``_pad``, or its zero
    last slot when t_r = 0; ``src`` is the view of ``_pad`` without that
    slot.  The scratch arrays carry ``batch`` leading axes.
    """

    def __init__(self, upper: OccupationBasis, batch: tuple = ()):
        m, n = upper.sites, upper.particles
        empty = OccupationBasis(np.zeros((0, m), dtype=np.int64), n - 1, m)
        self.lower = lower = enumerate_basis(m, n - 1) if n > 0 else empty
        size = lower.dim
        self.annihilate = _rank(lower.occupations + np.eye(m, dtype=np.int64)[:, None, :], n)
        self.factor = np.sqrt(lower.occupations.T + 1.0).astype(np.complex128)
        self.create = np.full((m, upper.dim), m * size, dtype=np.int64)
        self.create[np.repeat(np.arange(m), size), self.annihilate.ravel()] = np.arange(m * size)
        self._down = np.empty(batch + (m, size), dtype=np.complex128)
        self._pad = np.zeros(batch + (m * size + 1,), dtype=np.complex128)
        self.src = self._pad[..., :-1].reshape(batch + (m, size))
        self._up = np.empty(batch + (m, upper.dim), dtype=np.complex128)

    def annihilated(self, amps) -> np.ndarray:
        """(a_s amps)[..., s, u], in the ladder's scratch."""
        amps = np.asarray(amps, dtype=np.complex128)
        amps.take(self.annihilate, axis=-1, out=self._down, mode="clip")
        self._down *= self.factor
        return self._down

    def created(self, out=None) -> np.ndarray:
        """sum_r a_r^+ src[..., r, :], for creation sources already written to ``src``."""
        self.src *= self.factor
        self._pad.take(self.create, axis=-1, out=self._up, mode="clip")
        return np.sum(self._up, axis=-2, out=out)


class FockSpace:
    """Occupation basis plus the ladders down to N - 1 and N - 2 particles.

    ``ladders[1]`` carries one batch axis, the first annihilated mode.  The
    ladders' scratch makes a FockSpace unsafe to share between threads;
    worker processes each hold their own copy.  Pickling rebuilds the space:
    a copied ``src`` would no longer be a view of its ``_pad``.
    """

    def __init__(self, basis: OccupationBasis, cell: float):
        self.basis = basis
        self.cell = float(cell)
        self.particles = basis.particles
        self.sites = basis.sites
        one = Ladder(basis)
        self.ladders = (one, Ladder(one.lower, (basis.sites,)))
        self._pair_diagonal = (None, None)

    def __reduce__(self):
        return FockSpace, (self.basis, self.cell)

    def zero_state(self) -> "FockState":
        return FockState(np.zeros(self.basis.dim, dtype=np.complex128), self)


@dataclass
class FockState:
    amps: np.ndarray
    space: FockSpace

    @property
    def particles(self) -> int:
        return self.space.particles

    @property
    def sites(self) -> int:
        return self.space.sites

    @property
    def cell(self) -> float:
        return self.space.cell

    def copy(self) -> "FockState":
        return FockState(self.amps.copy(), self.space)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __add__(self, other: "FockState") -> "FockState":
        return FockState(self.amps + other.amps, self.space)

    def __sub__(self, other: "FockState") -> "FockState":
        return FockState(self.amps - other.amps, self.space)

    def __mul__(self, scalar) -> "FockState":
        return FockState(self.amps * scalar, self.space)

    __rmul__ = __mul__


def inner(a: FockState, b: FockState) -> complex:
    if a.amps.shape != b.amps.shape:
        raise ValueError("occupation states live on different bases")
    return complex(np.vdot(a.amps, b.amps))


def _table(op, space: FockSpace) -> np.ndarray:
    mat = np.asarray(getattr(op, "mat", op), dtype=np.complex128)
    if mat.shape != (space.sites, space.sites):
        raise ValueError(f"table shape {mat.shape} does not match M={space.sites}")
    return mat


def dgamma_apply(op, state: FockState) -> FockState:
    """Second-quantised lift of a one-body table: sum_j op acting on slot j."""
    one = state.space.ladders[0]
    np.matmul(_table(op, state.space), one.annihilated(state.amps), out=one.src)
    return FockState(one.created(), state.space)


def pair_kernel(terms) -> np.ndarray:
    """Normal-ordered kernel of weighted terms (weight, k, A, C, B, D), each
    weight * sum_{i != j} (A E_r C)_i (B E_s D)_j k[r, s] with E_r = |r><r|.
    K[(rho', rho), (s', s)] multiplies a_rho'^+ a_rho^+ a_s' a_s:

        K[(rho', rho), (s', s)] = sum_{r, q} weight B[rho', q] A[rho, r] k[r, q] D[q, s'] C[r, s].

    Per q this is the outer product of B[:, q] D[q, :] and A diag(k[:, q]) C,
    one (M^2, M) @ (M, M^2) product per term; at M = 9 one product over all
    stacked terms is large enough for OpenBLAS to use its thread pool.
    """
    kern = 0.0
    for weight, k, a, c, b, d in terms:
        a, c, b, d = (np.asarray(x, dtype=np.complex128) for x in (a, c, b, d))
        m = a.shape[0]
        right = b.T[:, :, None] * d[:, None, :]  # [q, rho', s']
        left = weight * ((a * np.asarray(k).T[:, None, :]) @ c)  # [q, rho, s]
        kern = kern + right.reshape(m, m * m).T @ left.reshape(m, m * m)
    return kern.reshape(m, m, m, m).transpose(0, 2, 1, 3).reshape(m * m, m * m)


def two_body_apply(kernel, state: FockState) -> FockState:
    """a^+ a^+ (K . a a psi) for a normal-ordered (M^2, M^2) kernel K (see ``pair_kernel``).

    Annihilators commute, so the pair amplitudes may come out in (s, s')
    order.  The product runs as M batches of (M, M^2) @ (M^2, dim_{N-2}),
    each a smaller BLAS call than the whole product.  Below two particles
    it is zero.
    """
    m = state.sites
    one, two = state.space.ladders
    pairs = two.annihilated(one.annihilated(state.amps))
    kern = np.asarray(kernel, dtype=np.complex128).reshape(m, m, m * m)
    np.matmul(kern, pairs.reshape(m * m, -1), out=two.src)
    two.created(out=one.src)
    return FockState(one.created(), state.space)


def pair_apply(x, y, state: FockState) -> FockState:
    """sum_{i != j} X_i Y_j; ordered pairs counted."""
    xmat, ymat = _table(x, state.space), _table(y, state.space)
    return two_body_apply(np.einsum("ac,bd->abcd", ymat, xmat), state)  # K as (M, M, M, M)


def pair_diagonal(space: FockSpace, pair) -> np.ndarray:
    """Diagonal of sum_{i<j} w(x_i - x_j) over the occupation basis, read-only.

    The position-diagonal kernel expands over rank-one site projectors, so
    the lift is (1/2) (n^T W n - sum_r W_rr n_r) per basis vector.  The
    space keeps the diagonal of the last ``pair`` it was asked for, keyed by
    identity, so a pair table must not be modified in place.
    """
    if space._pair_diagonal[0] is not pair:
        wmat = np.asarray(getattr(pair, "mat", pair), dtype=float)
        occ = space.basis.occupations.astype(float)
        diag = 0.5 * (np.einsum("bm,mn,bn->b", occ, wmat, occ) - occ @ np.diag(wmat))
        diag.flags.writeable = False
        space._pair_diagonal = (pair, diag)
    return space._pair_diagonal[1]


def _multiset_permutations(items):
    """Distinct permutations of a sorted tuple, lexicographic order."""
    items = list(items)
    if not items:
        yield ()
        return
    seen = set()
    for i, head in enumerate(items):
        if head in seen:
            continue
        seen.add(head)
        for rest in _multiset_permutations(items[:i] + items[i + 1 :]):
            yield (head,) + rest


def _occupation_sqrt_factor(occ) -> float:
    num = math.factorial(int(sum(occ)))
    den = 1
    for n in occ:
        den *= math.factorial(int(n))
    return math.sqrt(num / den)


def _representative(occ) -> tuple:
    sites = []
    for r, n in enumerate(occ):
        sites.extend([r] * int(n))
    return tuple(sites)


def embed(state: FockState) -> TensorState:
    """Expand an occupation state onto the dense tensor grid (norm preserving)."""
    space = state.space
    n, m, cell = space.particles, space.sites, space.cell
    amps = np.zeros((m,) * n, dtype=np.complex128)
    scale = cell ** (-n / 2)
    for b, occ in enumerate(space.basis.occupations):
        coeff = state.amps[b]
        if coeff == 0:
            continue
        value = coeff * scale / _occupation_sqrt_factor(occ)
        for arrangement in _multiset_permutations(_representative(occ)):
            amps[arrangement] = value
    return TensorState(amps, cell)


def extract(psi: TensorState, space: FockSpace) -> FockState:
    """Compress a symmetric tensor state onto the occupation basis."""
    if psi.particles != space.particles or psi.sites != space.sites:
        raise ValueError("tensor state does not match the occupation basis")
    if transposition_residual(psi) > 1e-10:
        raise ValueError("extract requires a symmetric tensor state")
    n, cell = space.particles, space.cell
    scale = cell ** (n / 2)
    amps = np.empty(space.basis.dim, dtype=np.complex128)
    for b, occ in enumerate(space.basis.occupations):
        rep = _representative(occ)
        amps[b] = psi.amps[rep] * _occupation_sqrt_factor(occ) * scale
    return FockState(amps, space)


def product_fock(phi: np.ndarray, space: FockSpace) -> FockState:
    """Occupation coefficients of the pure condensate phi^(x)N."""
    phi_modes = np.sqrt(space.cell) * np.asarray(phi, dtype=np.complex128)
    occ = space.basis.occupations
    monomials = np.prod(phi_modes[None, :] ** occ, axis=1)
    weights = np.array([_occupation_sqrt_factor(row) for row in occ])
    return FockState(weights * monomials, space)


def random_fock(space: FockSpace, rng: np.random.Generator) -> FockState:
    raw = rng.standard_normal(space.basis.dim) + 1j * rng.standard_normal(space.basis.dim)
    raw /= np.linalg.norm(raw)
    return FockState(raw, space)
