"""Dense first-quantised N-body states on the full tensor grid.

Amplitudes live on an (M,)*N complex array; the inner product carries the
volume element ``cell = h**d`` once per particle coordinate.  All operator
applications are matrix-free slot loops: an M x M table is contracted
against one tensor leg at a time, never materialising M^N x M^N matrices.
A block of states carries a leading member axis.  ``TensorState`` answers
the state methods of ``fockstate.FockState`` with the grid's own
algorithms, which cross-check the occupation basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ConsistencyError

__all__ = [
    "TensorState",
    "apply_factor",
    "apply_one_body_sum",
    "apply_pair_diagonal",
    "apply_projector_chain",
    "apply_two_slot",
    "symmetrize",
    "transposition_residual",
    "pair_diagonal_field",
    "product_state",
    "random_symmetric",
    "projector_matrices",
    "check_normalised",
]


@dataclass
class TensorState:
    """N-body amplitude tensor, or a block of them, with its coordinate
    volume element.

    ``particles`` is N, the number of trailing coordinate axes: ``amps.ndim``
    unless carried over from the state whose ``with_amps`` made a block.
    Symmetry is not tracked per state; ``asymmetry`` measures it on demand.
    """

    amps: np.ndarray
    cell: float
    particles: int = None

    def __post_init__(self):
        if self.particles is None:
            self.particles = np.ndim(self.amps)

    @property
    def sites(self) -> int:
        return self.amps.shape[-1] if self.particles else 1

    def copy(self) -> "TensorState":
        return self.with_amps(self.amps.copy())

    def with_amps(self, amps) -> "TensorState":
        """This grid's state, or block of states, with amplitudes ``amps``."""
        return TensorState(amps, self.cell, self.particles)

    def norm(self) -> float:
        return float(np.sqrt(self.cell**self.particles * np.vdot(self.amps, self.amps).real))

    def __add__(self, other: "TensorState") -> "TensorState":
        return self.with_amps(self.amps + other.amps)

    def __sub__(self, other: "TensorState") -> "TensorState":
        return self.with_amps(self.amps - other.amps)

    def __mul__(self, scalar) -> "TensorState":
        return self.with_amps(self.amps * scalar)

    __rmul__ = __mul__

    def inner(self, other: "TensorState") -> complex:
        """Weighted sesquilinear product, conjugate-linear in this state."""
        if self.amps.shape != other.amps.shape or self.cell != other.cell:
            raise ValueError("states live on different grids")
        return complex(self.cell**self.particles * np.vdot(self.amps, other.amps))

    def lift(self, op) -> "TensorState":
        """The one-body sum of ``op`` over the coordinates (``apply_one_body_sum``)."""
        return apply_one_body_sum(op, self)

    def generator(self, hops, h0, pair, coupling: float) -> "TensorState":
        """dGamma(h0) plus ``coupling`` times the pair diagonal; h0 is lifted
        whole, so ``hops``, which the occupation gather tabulates, is unused."""
        out = apply_one_body_sum(h0, self)
        return out + coupling * apply_pair_diagonal(pair, self) if coupling else out

    def pair_sums(self, pieces, entries) -> "TensorState":
        """Row i sums the pair part of operator op applied to row j of this
        block over the (op, j) in ``entries[i]``, through the pair terms
        (weight, kernel, A, C, B, D) of ``pieces.terms[op]``, without the
        1/(N-1).  Per term and r it lifts G_r = B diag(kernel[r, :]) D, then
        the rank-one A E_r C, and subtracts the coincidence lift of
        A (kernel o C B) D: 2M + 1 lifts per term, each on the whole block."""
        done = {}
        for op in {op for row in entries for op, _ in row}:
            acc = 0.0 * self
            for weight, kernel, a, c, b, d in pieces.terms[op]:
                term = 0.0 * self
                for r in range(kernel.shape[0]):
                    u = apply_one_body_sum(b @ (kernel[r][:, None] * d), self)
                    term = term + apply_one_body_sum(np.outer(a[:, r], c[r, :]), u)
                correction = a @ (kernel * (c @ b)) @ d
                acc = acc + weight * (term - apply_one_body_sum(correction, self))
            done[op] = acc.amps
        return self.with_amps(np.stack([sum(done[op][j] for op, j in row) for row in entries]))

    def admit(self, batch) -> None:
        """Nothing to check: a tensor grid has no symmetry sector."""

    def asymmetry(self) -> float:
        """The deviation under coordinate swaps (``transposition_residual``)."""
        return transposition_residual(self)

    def chain_expectation(self, a: int, phi: np.ndarray, spectral: float) -> float:
        """<psi, q_1...q_a psi> by direct slot projection, checked against the
        spectral value ``spectral``; disagreement beyond 1e-8 raises
        ``ConsistencyError``."""
        pattern = ["q"] * a + ["id"] * (self.particles - a)
        direct = self.inner(apply_projector_chain(pattern, phi, self)).real
        if abs(direct - spectral) > 1e-8:
            raise ConsistencyError(f"q-chain routes disagree: direct={direct!r}, spectral={spectral!r}")
        return direct


def _as_matrix(op) -> np.ndarray:
    return np.asarray(getattr(op, "mat", op), dtype=np.complex128)


def apply_factor(op, slot: int, psi: TensorState) -> TensorState:
    """Apply a one-body table on coordinate ``slot`` (0-based), identity elsewhere."""
    n = psi.particles
    if not 0 <= slot < n:
        raise IndexError(f"slot {slot} out of range for {n} particles")
    mat = _as_matrix(op)
    m = psi.sites
    work = np.moveaxis(psi.amps, slot, 0).reshape(m, -1)
    out = mat @ work
    out = np.moveaxis(out.reshape((m,) + psi.amps.shape[:slot] + psi.amps.shape[slot + 1 :]), 0, slot)
    return TensorState(np.ascontiguousarray(out), psi.cell)


def apply_one_body_sum(op, psi: TensorState) -> TensorState:
    """Sum of the one-body table over the N coordinates of a state, or of
    every state of a block: one contraction per trailing axis."""
    mat = _as_matrix(op)
    out = np.zeros_like(psi.amps)
    for axis in range(psi.amps.ndim - psi.particles, psi.amps.ndim):
        out += np.moveaxis(np.tensordot(psi.amps, mat, axes=([axis], [1])), -1, axis)
    return psi.with_amps(out)


def apply_two_slot(mat2, i: int, j: int, psi: TensorState) -> TensorState:
    """Apply an M^2 x M^2 table on the ordered coordinate pair (i, j)."""
    if i == j:
        raise IndexError("two-slot operator needs distinct coordinates")
    n, m = psi.particles, psi.sites
    work = np.moveaxis(psi.amps, (i, j), (0, 1)).reshape(m * m, -1)
    out = np.asarray(mat2, dtype=np.complex128) @ work
    rest = tuple(psi.amps.shape[k] for k in range(n) if k not in (i, j))
    out = np.moveaxis(out.reshape((m, m) + rest), (0, 1), (i, j))
    return TensorState(np.ascontiguousarray(out), psi.cell)


def pair_diagonal_field(pair, n_particles: int) -> np.ndarray:
    """Multiplicative field sum_{i<j} w(x_i - x_j) on the (M,)*N grid."""
    wmat = np.asarray(getattr(pair, "mat", pair))
    m = wmat.shape[0]
    shape = (m,) * n_particles
    total = np.zeros(shape)
    for i in range(n_particles):
        for j in range(i + 1, n_particles):
            view = [1] * n_particles
            view[i] = m
            view[j] = m
            total = total + wmat.reshape(view)
    return total


def apply_pair_diagonal(pair, psi: TensorState) -> TensorState:
    """Multiply amplitudes by sum_{i<j} w(x_i - x_j); no mean-field prefactor."""
    return psi.with_amps(psi.amps * pair_diagonal_field(pair, psi.particles))


def projector_matrices(phi: np.ndarray, cell: float):
    """Rank-one condensate projector p = |phi><phi| and its complement q, of
    one condensate or of each row of a stack (S, M)."""
    phi = np.asarray(phi, dtype=np.complex128)
    p = cell * (phi[..., :, None] * phi.conj()[..., None, :])
    q = np.eye(phi.shape[-1], dtype=np.complex128) - p
    return p, q


def check_normalised(phi: np.ndarray, cell: float):
    """Raise ValueError unless the condensate phi has unit lattice norm (to 1e-10)."""
    norm = np.sqrt(cell * np.vdot(phi, phi).real)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"condensate must be normalised, |norm - 1| = {abs(norm - 1.0):.3g}")


def apply_projector_chain(pattern, phi: np.ndarray, psi: TensorState) -> TensorState:
    """Apply p, q, or identity per coordinate according to ``pattern``.

    ``pattern`` is a length-N sequence over {'p', 'q', 'id'}.
    """
    if len(pattern) != psi.particles:
        raise ValueError(f"pattern length {len(pattern)} != particle count {psi.particles}")
    check_normalised(phi, psi.cell)
    p, q = projector_matrices(phi, psi.cell)
    out = psi
    for slot, tag in enumerate(pattern):
        if tag == "p":
            out = apply_factor(p, slot, out)
        elif tag == "q":
            out = apply_factor(q, slot, out)
        elif tag != "id":
            raise ValueError(f"pattern entry must be 'p', 'q' or 'id', got {tag!r}")
    return out


def _canonical_index(shape, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat index of the sorted-digit representative for every grid tuple."""
    n = len(shape)
    dim = m**n
    idx = np.arange(dim)
    digits = np.empty((dim, n), dtype=np.int64)
    rem = idx
    for pos in range(n - 1, -1, -1):
        digits[:, pos] = rem % m
        rem = rem // m
    digits.sort(axis=1)
    powers = m ** np.arange(n - 1, -1, -1)
    canon = digits @ powers
    counts = np.bincount(canon, minlength=dim)
    return canon, counts


def symmetrize(psi: TensorState) -> TensorState:
    """Average over all coordinate permutations.

    Implemented by sorting-based canonicalisation: every grid tuple is mapped
    to its sorted representative, amplitudes are averaged per orbit, and the
    orbit mean is scattered back.  Equivalent to the explicit N!-term average
    and idempotent by construction.
    """
    m, n = psi.sites, psi.particles
    if n <= 1:
        return TensorState(psi.amps.copy(), psi.cell)
    flat = psi.amps.ravel()
    canon, counts = _canonical_index(psi.amps.shape, m)
    dim = flat.size
    sums = np.bincount(canon, weights=flat.real, minlength=dim) + 1j * np.bincount(
        canon, weights=flat.imag, minlength=dim
    )
    safe = np.where(counts > 0, counts, 1)
    mean = sums / safe
    return TensorState(mean[canon].reshape(psi.amps.shape), psi.cell)


def symmetrize_reference(psi: TensorState) -> TensorState:
    """Explicit N!-permutation average; small-N oracle for :func:`symmetrize`."""
    n = psi.particles
    acc = np.zeros_like(psi.amps)
    count = 0
    for perm in permutations(range(n)):
        acc += np.transpose(psi.amps, perm)
        count += 1
    return TensorState(acc / count, psi.cell)


def transposition_residual(psi: TensorState) -> float:
    """Max relative deviation under adjacent coordinate swaps (generators of S_N)."""
    n = psi.particles
    if n <= 1:
        return 0.0
    norm = np.linalg.norm(psi.amps.ravel())
    if norm == 0:
        return 0.0
    worst = 0.0
    for i in range(n - 1):
        swapped = np.swapaxes(psi.amps, i, i + 1)
        worst = max(worst, float(np.linalg.norm((psi.amps - swapped).ravel()) / norm))
    return worst


def product_state(phi: np.ndarray, n_particles: int, cell: float) -> TensorState:
    """phi tensored with itself N times; symmetric by construction."""
    phi = np.asarray(phi, dtype=np.complex128)
    amps = phi
    for _ in range(n_particles - 1):
        amps = np.multiply.outer(amps, phi)
    if n_particles == 0:
        amps = np.array(1.0 + 0.0j)
    return TensorState(amps, cell)


def random_symmetric(m: int, n_particles: int, cell: float, rng: np.random.Generator) -> TensorState:
    """Normalised random state in the symmetric subspace."""
    shape = (m,) * n_particles
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sym = symmetrize(TensorState(raw.astype(np.complex128), cell))
    return (1.0 / sym.norm()) * sym
