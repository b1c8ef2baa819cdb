"""Occupation-number representation of the symmetric N-boson subspace.

States are expansion coefficients over the orthonormal basis |n_1 ... n_M>
built from the site modes e_r = delta_r / cell**(1/2).  In that basis the
matrix elements of any one-body lift equal the raw M x M coefficient table,
so tables pass between representations unchanged.  The compressed dimension
C(N+M-1, N) is what makes particle numbers beyond the dense tensor ceiling
reachable.

One-body lifts run in gather form.  Since <t| a_r^+ a_s |b> is nonzero only
for b = t - e_r + e_s, every output amplitude is a weighted sum of M^2 input
amplitudes,

    dGamma(h) psi [t] = sum_{r,s} h[r, s] * weights[t, rs] * psi[sources[t, rs]],

so a lift is one hop gather of the input into a (dim, M^2) scratch buffer
followed by one BLAS contraction with the flattened table.  The projected
pair sums of the effective Hamiltonian share that gather across all their
first-layer lifts (``projected_pair_apply``).  The buffer belongs to the
FockSpace, which makes a FockSpace single-threaded; worker processes such as
those of ``sweep --jobs`` each build their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensorstate import TensorState, transposition_residual

__all__ = [
    "OccupationBasis",
    "FockSpace",
    "FockState",
    "enumerate_basis",
    "dgamma_apply",
    "pair_apply",
    "projected_pair_apply",
    "embed",
    "extract",
    "inner",
    "product_fock",
    "random_fock",
    "pair_diagonal",
]

BASIS_CEILING = 2_000_000

# OpenBLAS runs a complex matrix-vector product on the calling thread only
# while the matrix has fewer entries than this (its matrix-matrix limit is
# higher); above it, it wakes its thread pool, and each wake-up costs
# milliseconds when another process holds a core.  Lifts therefore contract
# the gathered rows in blocks below this size, all in one batched matmul.
SERIAL_BLAS_ENTRIES = 4096


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _composition_counts(particles: int, sites: int) -> np.ndarray:
    """table[a, k] = C(a + k, k), the number of compositions of a into k + 1 parts."""
    table = np.ones((max(particles, 1), sites), dtype=np.int64)
    for k in range(1, sites):
        table[:, k] = np.cumsum(table[:, k - 1])
    return table


def _rank_terms(rest: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Compositions that precede a vector at each part j, from rest_j = N - 1 - (n_0 + ... + n_j).

    A composition precedes n in descending-lexicographic order when, at the
    first part j where they differ, its part exceeds n_j; there are
    C(rest_j + M - 1 - j, M - 1 - j) such compositions, none when rest_j < 0.
    """
    parts = np.arange(rest.shape[-1], 0, -1)
    return np.where(rest >= 0, counts[np.maximum(rest, 0), parts], 0)


def _rest(occ: np.ndarray, particles: int) -> np.ndarray:
    return particles - 1 - np.cumsum(occ[..., :-1], axis=-1)


def _hop_sources(occ: np.ndarray, particles: int) -> np.ndarray:
    """sources[t, r, s] = basis index of occ[t] - e_r + e_s, or 0 when occ[t, r] = 0.

    The hop lowers rest_j by one for s <= j < r and raises it by one for
    r <= j < s, so the index moves from t by a difference of prefix sums of
    the per-part rank changes.
    """
    dim, m = occ.shape
    counts = _composition_counts(particles + 1, m)
    rest = _rest(occ, particles)
    here = _rank_terms(rest, counts)
    up = np.zeros((dim, m), dtype=np.int64)
    down = np.zeros((dim, m), dtype=np.int64)
    np.cumsum(_rank_terms(rest + 1, counts) - here, axis=1, out=up[:, 1:])
    np.cumsum(here - _rank_terms(rest - 1, counts), axis=1, out=down[:, 1:])
    raising = np.arange(m)[:, None] < np.arange(m)  # [r, s]: r < s
    shift = np.where(raising, up[:, None, :] - up[:, :, None], down[:, None, :] - down[:, :, None])
    return np.where(occ[:, :, None] > 0, np.arange(dim)[:, None, None] + shift, 0)


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
        counts = _composition_counts(self.particles, self.sites)
        return int(_rank_terms(_rest(row, self.particles), counts).sum())


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


class FockSpace:
    """Occupation basis plus gather-form hop tables for one-body lifts.

    For basis row t and modes (r, s), flattened to column r * M + s,
    ``sources[t, rs]`` is the basis index of t - e_r + e_s and
    ``weights[t, rs]`` the matrix element sqrt(t_r * (t_s + 1 - delta_rs)) of
    a_r^+ a_s between them.  Hops that need t_r = 0 carry weight 0 and
    source 0.

    Lifts gather into one (dim, M^2) complex scratch buffer owned by the
    space, so a FockSpace must not be shared between threads; worker
    processes each hold their own copy.  The buffer and the tables carry a
    few zero rows of padding so that the rows split into equal blocks of
    fewer than SERIAL_BLAS_ENTRIES entries.
    """

    def __init__(self, basis: OccupationBasis, cell: float):
        self.basis = basis
        self.cell = float(cell)
        self.particles = basis.particles
        self.sites = basis.sites
        dim, m = basis.dim, basis.sites
        occ = basis.occupations
        blocks = -(-dim // max(1, (SERIAL_BLAS_ENTRIES - 1) // (m * m)))
        rows = blocks * -(-dim // blocks)  # dim rounded up to equal blocks
        eye = np.eye(m, dtype=np.int64)
        sources = np.zeros((rows, m, m), dtype=np.int64)
        sources[:dim] = _hop_sources(occ, self.particles)
        # Each weight is stored twice, for the real and the imaginary part of
        # the gathered amplitude, so that weighting is a real product.
        weights = np.zeros((rows, m, m, 2))
        weights[:dim] = np.sqrt(occ[:, :, None] * (occ[:, None, :] + 1 - eye))[..., None]
        shape = (blocks, rows // blocks, m * m)
        self._sources = sources.reshape(shape)
        self._weights = weights.reshape(shape[:2] + (2 * m * m,))
        self._buffer = np.empty(shape, dtype=np.complex128)
        self.sources = sources.reshape(rows, m * m)[:dim]
        self.weights = weights[:dim, :, :, 0].reshape(dim, m * m)

    def _lift(self, amps: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """One-body lifts of flattened tables, (M^2,) -> (dim,) or (M^2, J) -> (dim, J)."""
        buf = self._buffer
        np.asarray(amps, dtype=np.complex128).take(self._sources, out=buf, mode="clip")
        parts = buf.view(np.float64)
        np.multiply(parts, self._weights, out=parts)
        out = np.matmul(buf, tables)
        return out.reshape((-1,) + tables.shape[1:])[: self.basis.dim]

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
    space = state.space
    return FockState(space._lift(state.amps, _table(op, space).ravel()), space)


def pair_apply(x, y, state: FockState) -> FockState:
    """sum_{i != j} X_i Y_j, via dG(X) dG(Y) - dG(XY); ordered pairs counted."""
    xmat, ymat = _table(x, state.space), _table(y, state.space)
    return dgamma_apply(xmat, dgamma_apply(ymat, state)) - dgamma_apply(xmat @ ymat, state)


def projected_pair_apply(kernel, a, c, b, d, state: FockState) -> FockState:
    """sum_{i != j} (A E_r C)_i (B E_s D)_j kernel[r, s] on an occupation state.

    E_r is the site indicator |r><r|.  Grouping the s-sum per r gives
    G_r = B diag(kernel[r, :]) D and the rank-one X_r = A E_r C, so the sum
    is sum_r dG(X_r) dG(G_r) - dG(A (kernel o CB) D).  The M + 1 first-layer
    lifts act on the same input and share one hop gather and one BLAS
    product; the M second-layer lifts take one gather each.
    """
    space = state.space
    m = space.sites
    kernel, a, c, b, d = (_table(x, space) for x in (kernel, a, c, b, d))
    first = np.empty((m + 1, m, m), dtype=np.complex128)
    first[:m] = b @ (kernel[:, :, None] * d)
    first[m] = a @ (kernel * (c @ b)) @ d
    lifted = space._lift(state.amps, first.reshape(m + 1, m * m).T)
    second = a.T[:, :, None] * c[:, None, :]  # X_r = outer(a[:, r], c[r, :])
    out = space._lift(lifted[:, 0], second[0].ravel())
    for r in range(1, m):
        out += space._lift(lifted[:, r], second[r].ravel())
    out -= lifted[:, m]
    return FockState(out, space)


def pair_diagonal(space: FockSpace, pair) -> np.ndarray:
    """Diagonal of sum_{i<j} w(x_i - x_j) over the occupation basis.

    The position-diagonal kernel expands over rank-one site projectors, so
    the lift is (1/2) (n^T W n - sum_r W_rr n_r) per basis vector.
    """
    wmat = np.asarray(getattr(pair, "mat", pair), dtype=float)
    occ = space.basis.occupations.astype(float)
    quad = np.einsum("bm,mn,bn->b", occ, wmat, occ)
    lin = occ @ np.diag(wmat)
    return 0.5 * (quad - lin)


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
    return TensorState(amps, cell, symmetric=True)


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
