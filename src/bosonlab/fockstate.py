"""Occupation-number representation of the symmetric N-boson subspace.

States are expansion coefficients over the orthonormal basis |n_1 ... n_M>
built from the site modes e_r = delta_r / cell**(1/2).  In that basis the
matrix elements of any one-body lift equal the raw M x M coefficient table,
so tables pass between representations unchanged.  The compressed dimension
C(N+M-1, N) is what makes particle numbers beyond the dense tensor ceiling
reachable.

Operators act in normal-ordered ladder form.  A ``Ladder`` is a gather down
to the basis with fewer particles and one back up, one row per occupation
move: (a_s psi)[u] = sqrt(u_s + 1) psi[u + e_s] for the one-body ladder, and
for the pair ladder one row per unordered pair channel s <= s',

    (a_s a_s' psi)[v] = sqrt((v_s + 1)(v_s' + 1 + delta_ss')) psi[v + e_s + e_s'],

of which there are P = M(M+1)/2, because annihilators commute.  A one-body
lift dGamma(h) = sum h[r, s] a_r^+ a_s is two O(dim M) gathers around one
M x M product.  A two-body operator a^+ a^+ (K . a a psi) is one pair gather
down, one (P, P) product and one gather up: its kernel is folded over the
orderings of each pair (``fold_kernel``), so an operator built from several
projected pair terms costs one application.  ``pair_kernels`` builds the
kernels of several such operators in one pass, with any prefactor folded in
and each factor outer product computed once.  ``two_body_sums`` applies
kernels to several states with one pair gather down per state and one up
per output, whatever the number of kernels an output sums.  Products run
in blocks small enough that OpenBLAS keeps them on the calling thread
(``SERIAL_PRODUCT``).  The scratch buffers belong to the FockSpace, which
makes a FockSpace single-threaded; worker processes such as those of
``sweep --jobs`` each build their own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

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
    "fold_kernel",
    "pair_kernels",
    "two_body_sums",
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

# Largest m*n*k of one complex matrix product.  OpenBLAS (0.3.31 as bundled
# with numpy) runs a larger zgemm on its thread pool, which stalls the caller
# for milliseconds when another process holds the other core.  Measured at
# M=9 on a 2-core VM with a busy loop on the other core, 3000 calls in each
# of three fresh processes: (45, 45) @ (45, 45) (m*n*k = 91125) and
# (36, 45) @ (45, 45) (72900) took over 1 ms in 17-29 calls, up to 16 ms;
# (32, 45) @ (45, 45) (64800) in at most one, and so did the (45, 45)
# product in blocks, at p50 31-42 us against 25 us unblocked.
SERIAL_PRODUCT = 65536


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


@lru_cache(maxsize=8)
def _channels(sites: int) -> tuple:
    """The pair channels s <= s' of M sites in channel order, as read-only
    arrays: the modes s and s', the fold indices and the (P, P) weights,
    1/2 per diagonal channel.

    The fold indices are four (P, P) tables of flat positions in an ordered
    kernel laid out as [(rho', s'), (rho, s)], the layout of the product in
    ``pair_kernels``: entry [(a, a'), (b, b')] of each table reads one of the
    orderings (rho', rho) in {(a, a'), (a', a)}, (s', s) in {(b, b'), (b', b)}.
    """
    s, t = np.triu_indices(sites)
    half = np.where(s == t, 0.5, 1.0)
    m2 = sites * sites
    fold = np.stack([
        (lead * sites)[:, None] * m2 + (trail * sites)[:, None] + first[None, :] * m2 + second[None, :]
        for lead, trail in ((s, t), (t, s))
        for first, second in ((s, t), (t, s))
    ])
    out = (s, t, fold, np.outer(half, half))
    for arr in out:
        arr.flags.writeable = False
    return out


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
    """All occupation vectors (n_1 ... n_M) with sum N, descending lexicographic.

    Stars and bars: the M - 1 bar positions among N + M - 1 slots, in
    ascending lexicographic order, give the parts as the gaps between bars
    in ascending order; reversing the rows makes them descend.
    """
    if sites < 1 or particles < 0:
        raise ConfigError(f"invalid basis request M={sites}, N={particles}")
    dim = math.comb(particles + sites - 1, particles)
    if dim > ceiling:
        raise ConfigError(
            f"occupation basis dimension C({particles + sites - 1},{particles}) = {dim} "
            f"exceeds ceiling {ceiling}"
        )
    bars = sites - 1
    slots = itertools.combinations(range(particles + bars), bars)
    edges = np.empty((dim, sites + 1), dtype=np.int64)
    edges[:, 0], edges[:, -1] = -1, particles + bars
    edges[::-1, 1:-1] = np.fromiter(
        itertools.chain.from_iterable(slots), dtype=np.int64, count=dim * bars
    ).reshape(dim, bars)
    occ = np.diff(edges, axis=1) - 1
    return OccupationBasis(occupations=occ, particles=particles, sites=sites)


class Ladder:
    """Annihilation and creation gathers between a basis and a lower one,
    one row per occupation move.

    ``moves`` is a (rows, M) table of occupation vectors with a common sum,
    the number of particles the ladder removes: the unit vectors e_s for the
    one-body ladder (N -> N-1), e_s + e_s' for the pair channels s <= s'
    (N -> N-2).  For move p and lower row v, ``annihilate[p, v]`` is the
    upper index of v + moves[p] and ``factor[p, v]`` the matrix element of
    the move's annihilators, sqrt(v_s + 1) or sqrt((v_s + 1)(v_s' + 1 + delta_ss')),
    stored complex so that weighting needs no cast.  For move p and upper
    row t, ``create[p, t]`` is the position p * dim_lower + (index of
    t - moves[p]) in ``_pad``, or its zero last slot when t - moves[p] has a
    negative part; ``src`` is the view of ``_pad`` without that slot.
    """

    def __init__(self, upper: OccupationBasis, moves):
        moves = np.asarray(moves, dtype=np.int64)
        rows, m = moves.shape
        drop = int(moves[0].sum())
        n = upper.particles - drop
        empty = OccupationBasis(np.zeros((0, m), dtype=np.int64), n, m)
        self.lower = lower = enumerate_basis(m, n) if n >= 0 else empty
        size = lower.dim
        self.annihilate = _rank(lower.occupations + moves[:, None, :], upper.particles)
        # each move's annihilated modes in ascending order; the i-th of them
        # sees its mode's occupation raised by the earlier ones in the move
        modes = np.repeat(np.tile(np.arange(m), rows), moves.ravel()).reshape(rows, drop)
        earlier = np.tril(modes[:, :, None] == modes[:, None, :], -1).sum(axis=-1)
        raised = lower.occupations.T[modes] + (1 + earlier)[:, :, None]
        self.factor = np.sqrt(raised.prod(axis=1)).astype(np.complex128)
        self.create = np.full((rows, upper.dim), rows * size, dtype=np.int64)
        self.create[np.repeat(np.arange(rows), size), self.annihilate.ravel()] = np.arange(rows * size)
        self._down = np.empty((rows, size), dtype=np.complex128)
        self._pad = np.zeros(rows * size + 1, dtype=np.complex128)
        self.src = self._pad[:-1].reshape(rows, size)
        self._up = np.empty((rows, upper.dim), dtype=np.complex128)

    def annihilated(self, amps, out=None) -> np.ndarray:
        """(a^moves[p] amps)[p, v], in ``out`` or else in the ladder's scratch."""
        out = self._down if out is None else out
        np.asarray(amps, dtype=np.complex128).take(self.annihilate, out=out, mode="clip")
        out *= self.factor
        return out

    def created(self) -> np.ndarray:
        """sum_p (a^moves[p])^+ src[p, :], for creation sources already written to ``src``."""
        self.src *= self.factor
        self._pad.take(self.create, out=self._up, mode="clip")
        return self._up.sum(axis=0)


class FockSpace:
    """Occupation basis plus its one-body ladder (N -> N-1) and its pair
    ladder (N -> N-2, one row per pair channel).

    The ladders' scratch makes a FockSpace unsafe to share between threads;
    worker processes each hold their own copy.  Pickling rebuilds the space:
    a copied ``src`` would no longer be a view of its ``_pad``.
    """

    def __init__(self, basis: OccupationBasis, cell: float):
        self.basis = basis
        self.cell = float(cell)
        self.particles = basis.particles
        self.sites = basis.sites
        unit = np.eye(basis.sites, dtype=np.int64)
        s, t = _channels(basis.sites)[:2]
        self.ladders = (Ladder(basis, unit), Ladder(basis, unit[s] + unit[t]))
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


def _blocks(total: int, most: int) -> list:
    """Slices of one length, at most ``most``, that cover range(total); the
    last one moves back to stay full, overlapping its neighbour."""
    size = -(-total // -(-total // most))
    return [slice(lo, lo + size) for lo in (*range(0, total - size, size), total - size)]


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b in blocks of at most SERIAL_PRODUCT multiply-adds per matrix.

    Leading stage axes broadcast as in ``np.matmul``, which runs one BLAS
    call per matrix of the stack, so the bound holds for each of them.
    Rows are split first, then columns.  A block keeps at least two rows
    and two columns, because numpy runs a one-row or one-column product as
    a matrix-vector call, which OpenBLAS threads from m * n = 9216 on.
    """
    (m, k), n = a.shape[-2:], b.shape[-1]
    if m * k * n <= SERIAL_PRODUCT:
        np.matmul(a, b, out=out)
        return
    rows = min(m, max(2, SERIAL_PRODUCT // max(1, k * n)))
    cols = min(n, max(2, SERIAL_PRODUCT // max(1, rows * k)))
    for i in _blocks(m, rows):
        for j in _blocks(n, cols):
            np.matmul(a[..., i, :], b[..., :, j], out=out[..., i, j])


def dgamma_apply(op, state: FockState) -> FockState:
    """Second-quantised lift of a one-body table: sum_j op acting on slot j."""
    one = state.space.ladders[0]
    _product(_table(op, state.space), one.annihilated(state.amps), one.src)
    return FockState(one.created(), state.space)


def _fold(raw: np.ndarray) -> np.ndarray:
    """The (P, P) pair-channel form of an ordered kernel laid out as
    [(rho', s'), (rho, s)], or of each kernel of a stack of them: four
    gathers through the fold tables of ``_channels``, weighted by 1/2 per
    diagonal channel index.

    Every temporary is (P, P) per kernel: one (4, P, P) gather (130 kB at
    M = 9) made glibc grow and trim its heap on every build, thousands of
    fresh-page faults per 2D solve; for the same reason the builds of one
    ``pair_kernels`` call share one product buffer."""
    _, _, fold, weight = _channels(math.isqrt(raw.shape[-1]))
    flat = raw.reshape(*raw.shape[:-2], -1)
    out = flat.take(fold[0], axis=-1)
    for index in fold[1:]:
        out += flat.take(index, axis=-1)
    out *= weight
    return out


def fold_kernel(kernel) -> np.ndarray:
    """The (P, P) pair-channel form of an ordered (M^2, M^2) kernel.

    K[(rho', rho), (s', s)] multiplies a_rho'^+ a_rho^+ a_s' a_s.  Both
    orderings of a pair give the same operator, so the entry of channels
    (rho <= rho', s <= s') sums K over the orderings of both index pairs;
    a diagonal pair has one ordering, which that sum counts twice, hence
    a factor 1/2 on each diagonal index.  Any other shape, an already
    folded kernel among them, raises ``ValueError``.
    """
    kern = np.asarray(kernel, dtype=np.complex128)
    m = math.isqrt(kern.shape[0]) if kern.ndim == 2 else 0
    if m == 0 or kern.shape != (m * m, m * m):
        raise ValueError(f"an ordered pair kernel has shape (M^2, M^2), not {kern.shape}")
    return _fold(kern.reshape(m, m, m, m).transpose(0, 2, 1, 3).reshape(m * m, m * m))


def pair_kernels(operators, scale: float = 1.0) -> tuple:
    """(P, P) pair-channel kernels, one per operator.  An operator is a
    sequence of terms (weight, k, A, C, B, D), each standing for

        scale * weight * sum_{i != j} (A E_r C)_i (B E_s D)_j k[r, s],  E_r = |r><r|.

    The factors A, C, B, D of all terms share one shape: (M, M), or
    (S, M, M) with a leading stage axis, and each kernel k is then either
    stacked too or one (M, M) table for every stage; each returned kernel
    is (S, P, P), one per stage.

    With the factor outer products XY[r, (rho, s)] = X[rho, r] Y[r, s], a
    term's ordered kernel in the layout [(rho', s'), (rho, s)] is

        sum_{r, q} B[rho', q] A[rho, r] k[r, q] D[q, s'] C[r, s] = BD^T (k^T AC).

    Factors and kernels are told apart by object identity.  Every distinct
    factor pair gets its outer product once, and every distinct (k, AC) its
    right-hand side k^T AC once, for all operators.  Within an operator the
    weighted right-hand sides of terms that share (B, D) are summed, and the
    left factors BD of sums that come out equal are summed as well; the
    products BD^T (sum), in serial blocks (``_product``), accumulate into
    the ordered kernel, which ``_fold`` folds straight from that layout.
    """
    factors, factor_at = [], {}  # (X, Y) of each outer product XY; (id X, id Y) -> index
    rights, right_at = [], {}  # (k, index of AC) of each k^T AC; (id k, index of AC) -> index
    plans = []  # per operator: (BD indices, ((right-hand side, weight), ...)) per block

    def position(found, at, key, item):
        if key not in at:
            at[key] = len(found)
            found.append(item)
        return at[key]

    for op in operators:
        sums: dict = {}  # BD index -> {right-hand side: summed weight}
        for weight, k, a, c, b, d in op:
            ac = position(factors, factor_at, (id(a), id(c)), (a, c))
            bd = position(factors, factor_at, (id(b), id(d)), (b, d))
            j = position(rights, right_at, (id(k), ac), (k, ac))
            acc = sums.setdefault(bd, {})
            acc[j] = acc.get(j, 0.0) + scale * weight
        lefts: dict = {}  # equal weighted sums -> the BD indices they multiply
        for bd, acc in sums.items():
            lefts.setdefault(tuple(sorted(acc.items())), []).append(bd)
        plans.append([(bds, acc) for acc, bds in lefts.items()])

    xy = np.array(factors, dtype=np.complex128)  # (outer products, 2, *lead, M, M)
    lead, m = xy.shape[2:-2], xy.shape[-1]
    outer = (np.swapaxes(xy[:, 0], -1, -2)[..., None] * xy[:, 1, ..., None, :]).reshape(
        len(factors), *lead, m, m * m)
    kt = np.empty((len(rights), *lead, m, m), dtype=np.complex128)
    for (k, _), out in zip(rights, kt):
        out[...] = np.swapaxes(k, -1, -2)
    kac = np.empty((len(rights), *lead, m, m * m), dtype=np.complex128)
    _product(kt, outer[[ac for _, ac in rights]], kac)

    raw = np.empty((*lead, m * m, m * m), dtype=np.complex128)
    extra = None
    kernels = []
    for plan in plans:
        for n, (bds, acc) in enumerate(plan):
            left = outer[bds[0]]
            for f in bds[1:]:
                left = left + outer[f]
            (j, weight), *rest = acc
            right = weight * kac[j]
            for j, weight in rest:
                right += weight * kac[j]
            if n == 0:
                _product(np.swapaxes(left, -1, -2), right, raw)
                continue
            if extra is None:
                extra = np.empty_like(raw)
            _product(np.swapaxes(left, -1, -2), right, extra)
            raw += extra
        kernels.append(_fold(raw))
    return tuple(kernels)


def two_body_sums(states, terms) -> list:
    """Output i is sum over (K, j) in terms[i] of a^+ a^+ (K . a a states[j]),
    for (P, P) pair-channel kernels K (``fold_kernel``, ``pair_kernels``)
    and states on one space.

    Each state is pair-annihilated to N - 2 particles once and each output
    is created with one gather back up, whatever the number of terms; the
    (P, P) @ (P, dim_{N-2}) products run in serial blocks
    (``SERIAL_PRODUCT``).  Below two particles every output is zero.  A
    kernel of another shape raises ``ValueError``.
    """
    space = states[0].space
    pair = space.ladders[1]
    shape = (pair.factor.shape[0],) * 2
    down = np.empty((len(states), *pair.src.shape), dtype=np.complex128)
    for psi, slot in zip(states, down):
        if psi.space is not space:
            raise ValueError("two-body sums need states on one space")
        pair.annihilated(psi.amps, out=slot)
    extra = None
    out = []
    for entries in terms:
        if not entries:
            pair.src.fill(0.0)
        for n, (kernel, j) in enumerate(entries):
            if kernel.shape != shape:
                raise ValueError(f"pair kernel shape {kernel.shape} does not match {shape} "
                                 f"of the M={space.sites} pair channels")
            if n == 0:
                _product(kernel, down[j], pair.src)
                continue
            if extra is None:
                extra = np.empty_like(pair.src)
            _product(kernel, down[j], extra)
            pair.src += extra
        out.append(FockState(pair.created(), space))
    return out


def two_body_apply(kernel, state: FockState) -> FockState:
    """a^+ a^+ (K . a a psi) for a (P, P) pair-channel kernel K (``fold_kernel``).

    One pair gather down to N - 2 particles, one (P, P) @ (P, dim_{N-2})
    product in serial blocks (``SERIAL_PRODUCT``) and one gather back
    up, P * dim_{N-2} + P * dim_N gathered entries in all: the one-state
    case of ``two_body_sums``.  Below two particles it is zero.
    """
    return two_body_sums([state], [[(np.asarray(kernel), 0)]])[0]


def pair_apply(x, y, state: FockState) -> FockState:
    """sum_{i != j} X_i Y_j; ordered pairs counted."""
    xmat, ymat = _table(x, state.space), _table(y, state.space)
    return two_body_apply(fold_kernel(np.kron(ymat, xmat)), state)


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
