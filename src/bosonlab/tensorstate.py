"""Dense first-quantised N-body states on the full tensor grid.

Amplitudes live on an (M,)*N complex array; the inner product carries the
volume element ``cell = h**d`` once per particle coordinate.  All operator
applications are matrix-free slot loops: an (M^k, M^k) table is contracted
against k tensor legs at a time, never materialising M^N x M^N matrices.
A block of states carries a leading member axis.  ``TensorState`` answers
the state methods of ``fockstate.FockState`` with the grid's own
algorithms, which cross-check the occupation basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

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
    "symmetrize_reference",
    "transposition_residual",
    "pair_diagonal_field",
    "product_state",
    "random_symmetric",
    "projector_matrices",
    "check_normalised",
    "check_entries",
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

    def _grid_amps(self, other: "TensorState") -> np.ndarray:
        """The amplitudes of ``other``; ``ValueError`` unless it lives on this grid."""
        if (self.amps.shape, self.cell, self.particles) != (other.amps.shape, other.cell, other.particles):
            raise ValueError("states live on different grids")
        return other.amps

    def __add__(self, other: "TensorState") -> "TensorState":
        return self.with_amps(self.amps + self._grid_amps(other))

    def __sub__(self, other: "TensorState") -> "TensorState":
        return self.with_amps(self.amps - self._grid_amps(other))

    def __mul__(self, scalar) -> "TensorState":
        return self.with_amps(self.amps * scalar)

    __rmul__ = __mul__

    def inner(self, other: "TensorState") -> complex:
        """Weighted sesquilinear product, conjugate-linear in this state."""
        return complex(self.cell**self.particles * np.vdot(self.amps, self._grid_amps(other)))

    def lift(self, op) -> "TensorState":
        """The one-body sum of ``op`` over the coordinates (``apply_one_body_sum``)."""
        return apply_one_body_sum(op, self)

    def generator(self, h0, pair, coupling: float) -> "TensorState":
        """dGamma(h0) plus ``coupling`` times the pair diagonal."""
        return apply_one_body_sum(h0, self) + coupling * apply_pair_diagonal(pair, self)

    def pair_sums(self, pieces, entries) -> "TensorState":
        """Row i sums the pair part of operator op applied to row j of this
        block over the (op, j) in ``entries[i]``, without the 1/(N-1), each
        operator on the sub-block of the members it names: one (M^2, M^2)
        table T, weight (A (x) B) diag(vec kernel) (C (x) D) summed over
        ``pieces.terms[op]``: T on (i, j) plus T on (j, i) is T plus its slot
        swap on (i, j), one contraction per unordered coordinate pair.  The
        entries may name only the operators the build made, those of
        ``pieces.kernels`` (``check_entries``)."""
        check_entries(entries, len(pieces.kernels), len(self.amps))
        done = {}
        for op in {op for row in entries for op, _ in row}:
            named = sorted({j for row in entries for o, j in row if o == op})
            members = self.with_amps(self.amps[named])
            table = sum(weight * np.kron(a, b) @ (kernel.reshape(-1, 1) * np.kron(c, d))
                        for weight, kernel, a, c, b, d in pieces.terms[op])
            m = self.sites
            table = table + table.reshape((m,) * 4).transpose(1, 0, 3, 2).reshape(m * m, m * m)
            acc = sum((_apply_slots(table, pair, members).amps for pair in combinations(range(self.particles), 2)),
                      np.zeros_like(members.amps))
            done.update(zip(((op, j) for j in named), acc))
        return self.with_amps(np.stack([sum((done[e] for e in row), 0.0 * self.amps[0]) for row in entries]))

    def to_frame(self, phi) -> tuple:
        """(cell^(N/2) W^(x)N psi, the legs off mode 0 at each point) for the W of ``_frame_legs``."""
        n = self.particles
        return self.cell ** (n / 2) * _frame_legs(self, phi).amps, (np.indices((self.sites,) * n) != 0).sum(axis=0)

    def from_frame(self, phi, amps) -> "TensorState":
        """The state whose ``to_frame`` amplitudes are ``amps``."""
        return _frame_legs(self.with_amps(amps * self.cell ** (-self.particles / 2)), phi)

    def asymmetry(self) -> float:
        """The deviation under coordinate swaps (``transposition_residual``)."""
        return transposition_residual(self)

    def chain_expectation(self, a: int, phi: np.ndarray, spectral: float) -> float:
        """<psi, q_1...q_a psi> by direct slot projection, checked against the
        spectral value ``spectral``; disagreement beyond 1e-8 raises
        ``ConsistencyError``."""
        pattern = ["q"] * a + ["id"] * (self.particles - a)
        direct = self.inner(apply_projector_chain(pattern, phi, self)).real
        if not abs(direct - spectral) <= 1e-8:
            raise ConsistencyError(f"q-chain routes disagree: direct={direct!r}, spectral={spectral!r}")
        return direct


def _frame_legs(psi: TensorState, phi: np.ndarray) -> TensorState:
    """psi with every leg reflected by W = 1 - 2 v v^H / |v|^2, v = u + e^(i arg u_0) e_0,
    which takes u = sqrt(cell) phi to mode 0 and is its own inverse (Householder)."""
    v = np.sqrt(psi.cell) * np.asarray(phi, dtype=np.complex128)
    v[0] += np.exp(1j * np.angle(v[0]))
    w = np.eye(len(v)) - 2 * np.outer(v, v.conj()) / np.vdot(v, v).real
    for slot in range(psi.particles):
        psi = apply_factor(w, slot, psi)
    return psi


def _apply_slots(table, slots, psi: TensorState) -> TensorState:
    """Apply an (M^k, M^k) table on k distinct coordinate ``slots``, 0-based from
    the first particle axis, of a state or of every state of a block."""
    n, k = psi.particles, len(slots)
    if len(set(slots)) < k or not all(0 <= slot < n for slot in slots):
        raise IndexError(f"slots {slots} need distinct coordinates in 0..{n - 1}")
    axes = tuple(psi.amps.ndim - n + slot for slot in slots)
    table = np.asarray(table, dtype=np.complex128).reshape((psi.sites,) * 2 * k)
    out = np.tensordot(table, psi.amps, axes=(range(k, 2 * k), axes))
    return psi.with_amps(np.ascontiguousarray(np.moveaxis(out, range(k), axes)))


def apply_factor(op, slot: int, psi: TensorState) -> TensorState:
    """Apply a one-body table on coordinate ``slot`` (0-based), identity elsewhere."""
    return _apply_slots(op, (slot,), psi)


def apply_one_body_sum(op, psi: TensorState) -> TensorState:
    """Sum of the one-body table over the N coordinates of a state, or of
    every state of a block: one contraction per trailing axis."""
    mat = np.asarray(op, dtype=np.complex128)
    out = np.zeros_like(psi.amps)
    for axis in range(psi.amps.ndim - psi.particles, psi.amps.ndim):
        out += np.moveaxis(np.tensordot(psi.amps, mat, axes=([axis], [1])), -1, axis)
    return psi.with_amps(out)


def apply_two_slot(mat2, i: int, j: int, psi: TensorState) -> TensorState:
    """Apply an M^2 x M^2 table on the ordered pair (i, j) of distinct coordinates."""
    return _apply_slots(mat2, (i, j), psi)


def pair_diagonal_field(pair, n_particles: int) -> np.ndarray:
    """Multiplicative field sum_{i<j} w(x_i - x_j) on the (M,)*N grid."""
    wmat = np.asarray(pair)
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
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"condensate must be normalised, |norm - 1| = {abs(norm - 1.0):.3g}")


def check_entries(entries, operators: int, members: int) -> None:
    """Raise ``ValueError`` naming the first row of the (op, member) rows
    ``entries`` with an op outside 0..operators-1 or a member outside
    0..members-1, which an index would otherwise wrap or read past."""
    for i, row in enumerate(entries):
        for op, j in row:
            if not (0 <= op < operators and 0 <= j < members):
                raise ValueError(f"entry row {i} {row} needs operators in 0..{operators - 1} "
                                 f"and members in 0..{members - 1}")


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


def _canonical_index(shape) -> tuple[np.ndarray, np.ndarray]:
    """Flat index of the sorted-digit representative for every grid tuple,
    and the size of each representative's orbit."""
    digits = np.sort(np.indices(shape).reshape(len(shape), -1), axis=0)
    canon = np.ravel_multi_index(digits, shape)
    return canon, np.bincount(canon, minlength=canon.size)


def symmetrize(psi: TensorState) -> TensorState:
    """Average over all coordinate permutations.

    Implemented by sorting-based canonicalisation: every grid tuple is mapped
    to its sorted representative, amplitudes are averaged per orbit, and the
    orbit mean is scattered back.  Equivalent to the explicit N!-term average
    and idempotent by construction.
    """
    if psi.particles <= 1:
        return TensorState(psi.amps.copy(), psi.cell)
    flat = psi.amps.ravel()
    canon, counts = _canonical_index(psi.amps.shape)
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
    """Max relative deviation under adjacent coordinate swaps (generators of S_N);
    NaN for non-finite amplitudes, whose every deviation is NaN."""
    n = psi.particles
    if n <= 1:
        return 0.0
    norm = np.linalg.norm(psi.amps.ravel())
    if norm == 0:
        return 0.0
    return max(float(np.linalg.norm((psi.amps - np.swapaxes(psi.amps, i, i + 1)).ravel()) / norm)
               for i in range(n - 1))


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
