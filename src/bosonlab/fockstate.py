"""Occupation-number representation of the symmetric N-boson subspace.

States are expansion coefficients over the orthonormal basis |n_1 ... n_M>
built from the site modes e_r = delta_r / cell**(1/2).  In that basis the
matrix elements of any one-body lift equal the raw M x M coefficient table,
so tables pass between representations unchanged.  The compressed dimension
C(N+M-1, N) is what makes particle numbers beyond the dense tensor ceiling
reachable.

A basis may also carry a group of site permutations (``enumerate_basis``'s
``symmetry``): its states then live in the fully symmetric sector and are
coefficients over the orthonormal orbit states |o> = |o|^(-1/2) sum_{t in o}
|t>, one per orbit of occupation vectors, each represented by its first
member in site order.  Tables stay in the site basis, so the position-
diagonal pair sum stays diagonal; only the ladders' index tables change
(``Ladder``), and the trivial group gives the plain basis's tables.  With
reflection-symmetric inputs the sector is 252 of 455 vectors at M = 4,
N = 12 (Z2), 525 of 969 at N = 16, and 84 of 495 on the 3 x 3 lattice at
N = 4 (D4), which shrinks every gather, product and state vector alike.
Every table that acts on a sector state must be invariant under its group,
and states of different sectors do not combine (``ValueError`` both).
``embed``, ``extract`` and ``FockSpace.site_amplitudes`` expand through the
orbits, so the tensor grid and snapshots see the site basis.

Operators act in normal-ordered ladder form.  A ``Ladder`` is a gather down
to the basis with fewer particles and one back up, one row per occupation
move: (a_s psi)[u] = sqrt(u_s + 1) psi[u + e_s] for the one-body ladder, and
for the pair ladder one row per unordered pair channel s <= s',

    (a_s a_s' psi)[v] = sqrt((v_s + 1)(v_s' + 1 + delta_ss')) psi[v + e_s + e_s'],

of which there are P = M(M+1)/2, because annihilators commute.  A one-body
lift dGamma(h) = sum h[r, s] a_r^+ a_s is two O(dim M) gathers around one
M x M product.  A two-body operator a^+ a^+ (K . a a psi) is one pair gather
down, one (P, P) product and one gather up: its kernel sums over the
orderings of each pair, so an operator built from several
projected pair terms costs one application; ``hamiltonians`` builds the
kernels of its split operators in that form directly.  ``two_body_sums`` is
the only two-body apply: it applies kernels to a block of states, one
(members, dim) array, with one pair gather down and one up, whatever the
number of kernels an output sums; ``dgamma_apply`` also lifts a whole
block at once.  ``generator_table`` composes the full generator once from
the one-body ladder's tables into one slot-major gather, the diagonal one
of its slots, which the space keeps.  Products run in blocks small enough
that OpenBLAS keeps them on the calling thread (``SERIAL_PRODUCT``).  The
scratch buffers belong to the FockSpace, which makes a FockSpace
single-threaded; worker processes such as those of ``sweep --jobs`` each
build their own.  ``FockState`` reaches these functions through the state
methods that ``tensorstate.TensorState`` also answers.
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
    "two_body_sums",
    "embed",
    "extract",
    "product_fock",
    "random_fock",
    "pair_diagonal",
    "generator_table",
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

# Largest asymmetry of a table that acts on a symmetric sector, relative to
# the table's norm (``FockSpace.require_invariant``).  Tables built from an
# invariant condensate differ from invariant by roundoff, ~1e-16.
SYMMETRY_TOL = 1e-12


def _rank(occ: np.ndarray, particles: int) -> np.ndarray:
    """Basis index of each occupation vector along the last axis, all summing to N.

    A composition precedes n in descending-lexicographic order when, at the
    first part j where they differ, its part exceeds n_j; with
    rest_j = N - 1 - (n_0 + ... + n_j) there are C(rest_j + M - 1 - j, M - 1 - j)
    such compositions, none when rest_j < 0.  counts[a + 1, k] = C(a + k, k)
    and counts[0] = 0 cover rest_j >= -1, and one flat gather reads them.
    """
    sites = occ.shape[-1]
    rest = particles - np.cumsum(occ[..., :-1], axis=-1)  # rest_j + 1
    return _counts(particles, sites).take(rest * sites + np.arange(sites - 1, 0, -1)).sum(axis=-1)


@lru_cache(maxsize=32)
def _counts(particles: int, sites: int) -> np.ndarray:
    """The table of ``_rank``, flattened and read-only."""
    counts = np.zeros((particles + 1, sites), dtype=np.int64)
    counts[1:] = 1
    for k in range(1, sites):
        counts[1:, k] = np.cumsum(counts[1:, k - 1])
    counts.flags.writeable = False
    return counts.ravel()


@lru_cache(maxsize=8)
def _channels(sites: int) -> tuple:
    """The modes s and s' of the pair channels s <= s' of M sites in channel
    order, as read-only arrays."""
    out = np.triu_indices(sites)
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def _group(generators: tuple, sites: int) -> tuple:
    """The group of site permutations that ``generators`` generate, and the
    generators that were needed.

    A permutation pi acts on occupation vectors as n -> n[pi], so applying
    rho and then pi is the permutation rho[pi].  The group is the sorted
    tuple of its elements, which puts the identity first; a generator that
    already lies in the group of the ones before it is dropped.
    """
    identity = tuple(range(sites))
    group, kept = {identity}, []
    for gen in generators:
        if sorted(gen) != list(identity):
            raise ValueError(f"{gen} is not a permutation of the {sites} sites")
        if gen in group:
            continue
        kept.append(gen)
        frontier = list(group)
        while frontier:
            frontier = list({tuple(rho[i] for i in pi) for rho in frontier for pi in kept} - group)
            group.update(frontier)
    return tuple(sorted(group)), tuple(kept)


@dataclass(frozen=True)
class OccupationBasis:
    """Orbit basis of the occupation vectors with sum N under a group of
    site permutations.

    ``full`` holds every occupation vector in lexicographically descending
    order (site order).  The basis vectors are the normalised orbit sums
    |o> = |o|^(-1/2) sum_{t in o} |t>, one per orbit, each represented by
    its first member in site order; ``occupations`` holds the
    representatives, in site order.  For the vector at full index f,
    ``orbit[f]`` is its orbit and ``group[to_rep[f]]`` a permutation that
    takes it to its orbit's representative; ``sizes`` are the orbit sizes.
    Without a group (the default) every orbit is one vector and
    ``occupations`` is ``full``.
    """

    occupations: np.ndarray  # (dim, M) int64, each row sums to N
    particles: int
    sites: int
    group: tuple = None  # site permutations, the identity first
    generators: tuple = ()
    full: np.ndarray = None  # (C(N+M-1, N), M) int64
    orbit: np.ndarray = None
    to_rep: np.ndarray = None
    sizes: np.ndarray = None

    def __post_init__(self):
        if self.group is None:
            dim = self.occupations.shape[0]
            for name, value in (("group", (tuple(range(self.sites)),)), ("full", self.occupations),
                                ("orbit", np.arange(dim)), ("to_rep", np.zeros(dim, dtype=np.int64)),
                                ("sizes", np.ones(dim, dtype=np.int64))):
                object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def index_of(self, occ) -> int:
        """The basis index of the orbit of an occupation vector."""
        row = np.asarray(occ, dtype=np.int64)
        if row.shape != (self.sites,) or row.min() < 0 or row.sum() != self.particles:
            raise KeyError(tuple(int(x) for x in row.ravel()))
        return int(self.orbit[_rank(row, self.particles)])


def enumerate_basis(sites: int, particles: int, ceiling: int = BASIS_CEILING,
                    symmetry=()) -> OccupationBasis:
    """All occupation vectors (n_1 ... n_M) with sum N, descending
    lexicographic, and their orbits under the group that the site
    permutations ``symmetry`` generate.

    Stars and bars: the M - 1 bar positions among N + M - 1 slots, in
    ascending lexicographic order, give the parts as the gaps between bars
    in ascending order; reversing the rows makes them descend.  The orbits
    come from one ``_rank`` pass over the stacked images pi . n of every
    vector: its representative is the image of least index.
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
    group, generators = _group(tuple(tuple(int(i) for i in gen) for gen in symmetry), sites)
    if len(group) == 1:
        return OccupationBasis(occupations=occ, particles=particles, sites=sites)
    images = _rank(occ[:, np.array(group)], particles)  # (dim, G): index of pi . n
    to_rep = images.argmin(axis=1)
    reps = np.flatnonzero(to_rep == 0)
    orbit = np.searchsorted(reps, images[np.arange(dim), to_rep])
    sizes = len(group) // (images[reps] == reps[:, None]).sum(axis=1)
    return OccupationBasis(occ[reps], particles, sites, group, generators, occ, orbit, to_rep, sizes)


class Ladder:
    """Annihilation and creation gathers between an orbit basis and the one
    with fewer particles under the same group, one row per occupation move.

    ``moves`` is a (rows, M) table of occupation vectors with a common sum,
    the number of particles the ladder removes: the unit vectors e_s for the
    one-body ladder (N -> N-1), e_s + e_s' for the pair channels s <= s'
    (N -> N-2).  The lower rows are the lower basis's representatives.

    For move p and lower row v, ``annihilate[p, v]`` is the orbit of
    v + moves[p] and ``factor[p, v]`` the matrix element of the move's
    annihilators, sqrt(v_s + 1) or sqrt((v_s + 1)(v_s' + 1 + delta_ss')),
    over the square root of that orbit's size, stored complex so that
    weighting needs no cast.  For move p and upper row u, ``create[p, u]`` is
    the flat position of the source slot (pi . p, rep(u - moves[p])) in the
    (rows, lower dim) creation sources, pi = group[to_rep] taking
    u - moves[p] to its representative, or the zero pad slot after them when
    u - moves[p] has a negative part.  ``moved[g, p]`` is the row of the
    move group[g] . moves[p].  Both gathers act on the last axis, so a block
    of states moves in one gather each way.

    On invariant states and tables this is exact: a lowered amplitude at
    pi^-1 . v for move p equals the one at v for move pi . p, and every
    created output is scaled by its orbit size (``scale``), which turns the
    site amplitude times |o|^(-1/2) into the orbit coefficient.  For the
    trivial group these are the tables of the plain occupation basis and
    nothing is scaled.
    """

    def __init__(self, upper: OccupationBasis, moves):
        moves = np.asarray(moves, dtype=np.int64)
        rows, m = moves.shape
        drop = int(moves[0].sum())
        n = upper.particles - drop
        empty = OccupationBasis(np.zeros((0, m), dtype=np.int64), n, m)
        self.lower = lower = enumerate_basis(m, n, symmetry=upper.generators) if n >= 0 else empty
        size = lower.dim
        row_of = np.zeros(math.comb(drop + m - 1, drop), dtype=np.int64)
        row_of[_rank(moves, drop)] = np.arange(rows)
        self.moved = row_of[_rank(moves[:, np.array(upper.group)], drop).T]
        raised = _rank(lower.full + moves[:, None, :], upper.particles)  # upper index of w + move
        self.annihilate = upper.orbit[raised[:, lower.to_rep == 0]]
        # each move's annihilated modes in ascending order; the i-th of them
        # sees its mode's occupation raised by the earlier ones in the move
        modes = np.repeat(np.tile(np.arange(m), rows), moves.ravel()).reshape(rows, drop)
        earlier = np.tril(modes[:, :, None] == modes[:, None, :], -1).sum(axis=-1)
        product = (lower.occupations.T[modes] + (1 + earlier)[:, :, None]).prod(axis=1)
        self.factor = np.sqrt(product / upper.sizes[self.annihilate]).astype(np.complex128)
        self.create = np.full((rows, upper.dim), rows * size, dtype=np.int64)
        p, w = np.nonzero(upper.to_rep[raised] == 0)  # w + moves[p] is a representative
        self.create[p, upper.orbit[raised[p, w]]] = self.moved[lower.to_rep[w], p] * size + lower.orbit[w]
        self.scale = None if len(upper.group) == 1 else upper.sizes.astype(np.float64)
        self._scratch = {}  # leading shape -> (down, src, pad, up), made on first use

    def scratch(self, lead: tuple) -> tuple:
        """(down, src, pad, up) for amplitudes of leading shape ``lead``: lowered
        rows and creation sources (*lead, rows, lower dim), ``src`` being ``pad``
        without the zero last slot that impossible moves read, and raised rows."""
        if lead not in self._scratch:
            rows, size = self.annihilate.shape
            pad = np.zeros((*lead, rows * size + 1), dtype=np.complex128)
            self._scratch[lead] = (np.empty((*lead, rows, size), dtype=np.complex128),
                                   pad[..., :-1].reshape(*lead, rows, size), pad,
                                   np.empty((*lead, *self.create.shape), dtype=np.complex128))
        return self._scratch[lead]

    def annihilated(self, amps) -> np.ndarray:
        """(a^moves[p] amps)[..., p, v] for amplitudes (..., upper dim), in the
        ``down`` scratch of their leading shape."""
        amps = np.asarray(amps, dtype=np.complex128)
        out = self.scratch(amps.shape[:-1])[0]
        amps.take(self.annihilate, axis=-1, out=out, mode="clip")
        out *= self.factor
        return out

    def created(self, lead: tuple) -> np.ndarray:
        """sum_p (a^moves[p])^+ src[..., p, :] for creation sources written to the
        ``src`` scratch of ``lead``, as fresh amplitudes (*lead, upper dim)."""
        _, src, pad, up = self.scratch(lead)
        src *= self.factor
        pad.take(self.create, axis=-1, out=up, mode="clip")
        out = up.sum(axis=-2)
        if self.scale is not None:
            out *= self.scale
        return out


class FockSpace:
    """Orbit basis plus its one-body ladder (N -> N-1) and its pair ladder
    (N -> N-2, one row per pair channel).

    ``sector`` is (M, N, group): states of two spaces combine only when
    their sectors agree.  On a space with a nontrivial group every table,
    kernel and condensate that acts on its states must be invariant under
    the group, or ``ValueError`` is raised (``require_invariant``).  A
    table is checked once and then known by identity, so it must not be
    modified in place.

    The ladders' scratch makes a FockSpace unsafe to share between threads;
    worker processes each hold their own copy.  Pickling rebuilds the space
    from its basis, which carries the group, and leaves the scratch behind.
    """

    def __init__(self, basis: OccupationBasis, cell: float):
        self.basis = basis
        self.cell = float(cell)
        self.particles = basis.particles
        self.sites = m = basis.sites
        self.sector = (m, basis.particles, basis.group)
        unit = np.eye(m, dtype=np.int64)
        s, t = _channels(m)
        self.ladders = (Ladder(basis, unit), Ladder(basis, unit[s] + unit[t]))
        self._pair_diagonal = (None, None)
        self._generator = (None,) * 6  # hops, sources, values, h0, pair, coupling
        self._invariant = {}  # id -> a table known to be invariant
        self._batch = {}  # the same for the last table checked with its parts
        self._probes = None
        if basis.generators:
            sites = np.array(basis.generators)
            channels = self.ladders[1].moved[[basis.group.index(g) for g in basis.generators]]
            self._probes = {"vector": _probe(sites, False), "table": _probe(sites, True),
                            "kernel": _probe(channels, True)}

    def __reduce__(self):
        return FockSpace, (self.basis, self.cell)

    def require_invariant(self, table, kind: str, values=None, parts=()) -> None:
        """Raise ``ValueError`` unless ``table`` (its array ``values``, if
        given) is invariant under the group: a site ``"vector"``, an (M, M)
        ``"table"`` or a (P, P) pair-channel ``"kernel"``, or a stack of them
        along leading axes.  The asymmetry is read through ``_probe`` and
        must stay within ``SYMMETRY_TOL`` of the norm.  ``table`` is then
        known by identity, and so are ``parts``, tables whose invariance
        follows from its own, until the next check with parts: a stack of
        tables is checked in one pass, and no more than one stack and eight
        tables are kept alive."""
        if self._probes is None or self._known(table):
            return
        probe = self._probes[kind]
        flat = np.asarray(table if values is None else values).reshape(-1, probe.shape[0])
        seen = flat @ probe
        gap = np.vdot(seen, seen).real / max(np.vdot(flat, flat).real, 1e-300)
        if gap > SYMMETRY_TOL**2:
            raise ValueError(f"a table with asymmetry {math.sqrt(gap):.3g} under the symmetry group "
                             f"of the occupation space cannot act on its sector")
        if parts:
            self._batch = {id(t): t for t in (table, *parts)}
            return
        if len(self._invariant) >= 8:
            self._invariant.clear()
        self._invariant[id(table)] = table

    def _known(self, table) -> bool:
        return self._batch.get(id(table)) is table or self._invariant.get(id(table)) is table

    def site_amplitudes(self, amps) -> np.ndarray:
        """The amplitudes over every occupation vector (``basis.full``) of
        the state with orbit coefficients ``amps``."""
        basis = self.basis
        return np.asarray(amps)[basis.orbit] / np.sqrt(basis.sizes)[basis.orbit]

    def orbit_amplitudes(self, site) -> np.ndarray:
        """The orbit coefficients of the state with amplitudes ``site`` over
        every occupation vector; ``ValueError`` unless the state is
        invariant under the group to 1e-10 of its largest amplitude."""
        basis, site = self.basis, np.asarray(site, dtype=np.complex128)
        reps = site[basis.to_rep == 0]
        if np.abs(site - reps[basis.orbit]).max(initial=0.0) > 1e-10 * np.abs(site).max(initial=0.0):
            raise ValueError("the state is not invariant under the symmetry group of the occupation space")
        return np.sqrt(basis.sizes) * reps


def _probe(perms: np.ndarray, square: bool) -> np.ndarray:
    """Unit probe columns, one per permutation sigma of ``perms``, for the
    invariance of a vector x (x[sigma] = x) or of a square table T
    (T[sigma][:, sigma] = T): for fixed irregular u and z (Weyl sequences),
    column u - u[sigma^-1], or u z^T - u[sigma^-1] z[sigma^-1]^T flattened,
    whose product with x or T vanishes on invariant ones.  On any other it
    is u^T (x - x[sigma]) or u^T (T - T[sigma][:, sigma]) z, one linear
    condition on the asymmetry that a table not built against u and z meets
    with probability zero."""
    steps = np.arange(1, perms.shape[1] + 1)
    u, z = (steps * math.sqrt(2) % 1 - 0.5, steps * (math.sqrt(5) - 1) / 2 % 1 - 0.5)
    back = np.argsort(perms, axis=1)
    cols = (u[None, :, None] * z[None, None, :] - u[back][:, :, None] * z[back][:, None, :]
            if square else u[None, :] - u[back]).reshape(len(perms), -1)
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    return np.ascontiguousarray(cols.T).astype(np.complex128)


def _joint(a: FockSpace, b: FockSpace) -> FockSpace:
    """``a``, the space of a result of states on ``a`` and ``b``; ValueError
    unless their sectors agree."""
    if a is not b and a.sector != b.sector:
        (m, n, group), (m2, n2, group2) = a.sector, b.sector
        raise ValueError(f"occupation states live in different sectors: M={m}, N={n} with a "
                         f"group of order {len(group)} and M={m2}, N={n2} with one of order "
                         f"{len(group2)}")
    return a


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

    def with_amps(self, amps) -> "FockState":
        """This space's state, or block of states, with amplitudes ``amps``."""
        return FockState(amps, self.space)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __add__(self, other: "FockState") -> "FockState":
        space = _joint(self.space, other.space)
        return FockState(self.amps + other.amps, space)

    def __sub__(self, other: "FockState") -> "FockState":
        space = _joint(self.space, other.space)
        return FockState(self.amps - other.amps, space)

    def __mul__(self, scalar) -> "FockState":
        return FockState(self.amps * scalar, self.space)

    __rmul__ = __mul__

    def inner(self, other: "FockState") -> complex:
        """Sesquilinear product, conjugate-linear in this state."""
        _joint(self.space, other.space)
        return complex(np.vdot(self.amps, other.amps))

    def lift(self, op) -> "FockState":
        """The one-body lift of ``op`` (``dgamma_apply``)."""
        return dgamma_apply(op, self)

    def generator(self, hops, h0, pair, coupling: float) -> "FockState":
        """dGamma(h0) plus ``coupling`` times the pair diagonal, one gather
        through the space's ``generator_table`` with the off-diagonal ``hops``."""
        sources, values = generator_table(self.space, hops, h0, pair, coupling)
        gathered = self.amps.take(sources, axis=-1)
        gathered *= values
        return self.with_amps(gathered.sum(axis=-2))

    def pair_sums(self, pieces, entries) -> "FockState":
        """Row i sums the pair part of operator op applied to row j of this
        block over the (op, j) in ``entries[i]``, without the 1/(N-1): one
        ``two_body_sums`` over the (P, P) kernels ``pieces.kernels``."""
        return two_body_sums(self, [[(pieces.kernels[op], j) for op, j in row] for row in entries])

    def admit(self, batch) -> None:
        """Check a stage build's (table, kind, parts) triples for invariance
        once (``FockSpace.require_invariant``)."""
        for table, kind, parts in batch:
            self.space.require_invariant(table, kind, parts=parts)

    def asymmetry(self) -> float:
        """Zero: occupation states are symmetric by construction."""
        return 0.0

    def chain_expectation(self, a: int, phi: np.ndarray, spectral: float) -> float:
        """<psi, q_1...q_a psi>, which is the spectral value ``spectral``."""
        return spectral


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
    """Second-quantised lift of a one-body table: sum_j op acting on slot j,
    of one state or of every row of a block (members, dim) at once."""
    space, mat = state.space, np.asarray(getattr(op, "mat", op), dtype=np.complex128)
    if mat.shape != (space.sites, space.sites):
        raise ValueError(f"table shape {mat.shape} does not match M={space.sites}")
    space.require_invariant(op, "table", mat)
    one, lead = space.ladders[0], state.amps.shape[:-1]
    _product(mat, one.annihilated(state.amps), one.scratch(lead)[1])
    return FockState(one.created(lead), space)


def two_body_sums(block: FockState, terms) -> FockState:
    """Row i of the result is the sum over (K, j) in terms[i] of
    a^+ a^+ (K . a a block[j]), for (P, P) pair-channel kernels K
    (``hamiltonians.EffectivePieces.kernels``) and a block of states
    (members, dim).

    The block is pair-annihilated to N - 2 particles in one gather and the
    outputs are created in one gather back up, whatever the number of terms;
    the (P, P) @ (P, dim_{N-2}) products run in serial blocks
    (``SERIAL_PRODUCT``).  Below two particles every output is zero.  A
    kernel of another shape and, on a symmetric sector, a kernel that is not
    invariant raise ``ValueError``.
    """
    space = block.space
    pair = space.ladders[1]
    shape = (pair.factor.shape[0],) * 2
    lead = (len(terms),)
    down, src = pair.annihilated(block.amps), pair.scratch(lead)[1]
    extra = None
    for out, entries in zip(src, terms):
        if not entries:
            out.fill(0.0)
        for n, (kernel, j) in enumerate(entries):
            if kernel.shape != shape:
                raise ValueError(f"pair kernel shape {kernel.shape} does not match {shape} "
                                 f"of the M={space.sites} pair channels")
            space.require_invariant(kernel, "kernel")
            if n == 0:
                _product(kernel, down[j], out)
                continue
            if extra is None:
                extra = np.empty_like(out)
            _product(kernel, down[j], extra)
            out += extra
    return FockState(pair.created(lead), space)


def pair_diagonal(space: FockSpace, pair) -> np.ndarray:
    """Diagonal of sum_{i<j} w(x_i - x_j) over the occupation basis, read-only.

    The position-diagonal kernel expands over rank-one site projectors, so
    the lift is (1/2) (n^T W n - sum_r W_rr n_r) per basis vector.  The
    space keeps the diagonal of the last ``pair`` it was asked for, keyed by
    identity, so a pair table must not be modified in place.  The pair
    table must be invariant under the space's group.
    """
    if space._pair_diagonal[0] is not pair:
        wmat = np.asarray(getattr(pair, "mat", pair), dtype=float)
        space.require_invariant(pair, "table", wmat)
        occ = space.basis.occupations.astype(float)
        diag = 0.5 * (np.einsum("bm,mn,bn->b", occ, wmat, occ) - occ @ np.diag(wmat))
        diag.flags.writeable = False
        space._pair_diagonal = (pair, diag)
    return space._pair_diagonal[1]


def generator_table(space: FockSpace, hops, h0, pair, coupling: float) -> tuple:
    """Slot-major (sources, values), (slots, dim), of H = dGamma(h0) + coupling
    sum_{i<j} w(x_i - x_j): (H psi)[u] = sum_k values[k, u] psi[sources[k, u]].
    Slot 0 is the diagonal, the rest the off-diagonal of dGamma(hops), which
    must be h0's.  The space keeps the last table, keyed by the identity of
    the (invariant, on a sector) tables, which must not change in place; a
    new h0, as a tabulated potential gives, rewrites slot 0 in O(M dim)."""
    old, sources, values, *diagonal = space._generator
    if old is not hops:
        space.require_invariant(hops, "table")
        sources, values = _hop_slots(space.ladders[0], space.basis.dim, hops * (1 - np.eye(space.sites)))
        diagonal = (None,) * 3
    if diagonal[0] is not h0 or diagonal[1] is not pair or diagonal[2] != coupling:
        space.require_invariant(h0, "table")
        values[0] = space.basis.occupations @ np.diagonal(h0)
        if coupling:
            values[0] += coupling * pair_diagonal(space, pair)
    space._generator = (hops, sources, values, h0, pair, coupling)
    return sources, values


def _hop_slots(one: Ladder, dim: int, hops: np.ndarray) -> tuple:
    """(sources, values) of dGamma(hops), zero-diagonal hops, after an empty
    slot 0.  As in ``dgamma_apply``, output u, move r and mode s with (r', v)
    = divmod(create[r, u], lower dim) read annihilate[s, v] times
    scale[u] factor[r', v] factor[s, v] hops[r', s].  Values of one output
    and source are summed, zero sums dropped, and the rest fill slots 1, 2,
    ..; an unused slot reads its own output with value 0."""
    (m, size), pad = one.annihilate.shape, one.create == one.annihilate.size
    count = max(1, int(np.count_nonzero(hops, axis=1).max()))
    moved, v = np.divmod(np.where(pad, 0, one.create), size)  # r' and v of (r, u), (M, dim)
    modes = np.argsort(hops == 0, axis=1, kind="stable")[:, :count].T[:, moved]  # s, (count, M, dim)
    at = modes * size + v
    value = one.factor.take(at) * hops[moved, modes] * one.factor.take(moved * size + v) * ~pad
    if one.scale is not None:
        value *= one.scale
    key = (np.arange(dim) * dim + one.annihilate.take(at)).ravel()
    order = key.argsort()
    key, value = key[order], value.ravel()[order]
    first = np.append(True, key[1:] != key[:-1])
    group = first.cumsum() - 1
    merged = np.bincount(group, value.real) + 1j * np.bincount(group, value.imag)
    kept = merged != 0
    out, source = np.divmod(key[first][kept], dim)
    slot = 1 + np.arange(len(out)) - np.searchsorted(out, out)
    sources = np.tile(np.arange(dim), (slot.max(initial=0) + 1, 1))
    values = np.zeros(sources.shape, dtype=np.complex128)
    sources[slot, out], values[slot, out] = source, merged[kept]
    return sources, values


def _sqrt_multinomials(occ) -> np.ndarray:
    """sqrt(N! / prod_r n_r!) of each occupation vector, a row of ``occ``."""
    return np.array([math.sqrt(math.factorial(int(sum(row)))
                               / math.prod(math.factorial(int(k)) for k in row)) for row in occ])


def _grid_orbits(space: FockSpace) -> np.ndarray:
    """The full-basis index of the occupation vector of each tuple of the
    (M,)*N tensor grid, in row-major order."""
    m, n = space.sites, space.particles
    sites = np.indices((m,) * n).reshape(n, m**n)
    return _rank((sites[:, :, None] == np.arange(m)).sum(axis=0), n)


def embed(state: FockState) -> TensorState:
    """Expand an occupation state onto the dense tensor grid (norm preserving),
    through the amplitudes of every occupation vector of its orbits."""
    space = state.space
    n, cell = space.particles, space.cell
    site = space.site_amplitudes(state.amps) * cell ** (-n / 2) / _sqrt_multinomials(space.basis.full)
    return TensorState(site[_grid_orbits(space)].reshape((space.sites,) * n), cell)


def extract(psi: TensorState, space: FockSpace) -> FockState:
    """Compress a symmetric tensor state onto the occupation basis, reading
    each occupation vector at its sorted grid tuple; on a symmetric sector
    the state must also be invariant under its group."""
    if psi.particles != space.particles or psi.sites != space.sites:
        raise ValueError("tensor state does not match the occupation basis")
    if transposition_residual(psi) > 1e-10:
        raise ValueError("extract requires a symmetric tensor state")
    _, first = np.unique(_grid_orbits(space), return_index=True)  # the sorted tuples
    site = psi.amps.reshape(-1)[first] * _sqrt_multinomials(space.basis.full)
    site *= space.cell ** (space.particles / 2)
    return FockState(space.orbit_amplitudes(site), space)


def product_fock(phi: np.ndarray, space: FockSpace) -> FockState:
    """Occupation coefficients of the pure condensate phi^(x)N; on a
    symmetric sector phi must be invariant under its group."""
    phi_modes = np.sqrt(space.cell) * np.asarray(phi, dtype=np.complex128)
    space.require_invariant(phi, "vector", phi_modes)
    occ = space.basis.occupations
    monomials = np.prod(phi_modes[None, :] ** occ, axis=1)
    weights = _sqrt_multinomials(occ) * np.sqrt(space.basis.sizes)
    return FockState(weights * monomials, space)


def random_fock(space: FockSpace, rng: np.random.Generator) -> FockState:
    raw = rng.standard_normal(space.basis.dim) + 1j * rng.standard_normal(space.basis.dim)
    raw /= np.linalg.norm(raw)
    return FockState(raw, space)
