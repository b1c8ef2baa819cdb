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
diagonal pair sum stays diagonal; only the ladders' tables change
(``Ladder``): the trivial group gives the plain basis's, scaled by ones.  With
reflection-symmetric inputs the sector is 252 of 455 vectors at M = 4,
N = 12 (Z2), 525 of 969 at N = 16, and 84 of 495 on the 3 x 3 lattice at
N = 4 (D4), which shrinks every gather, product and state vector alike.
The orbits and the ladders' channel moves are ranked (``_rank``, down
site-major rows) under the kept generators only; every other element's image
table is one gather, composed along the closure walk of ``_group``.
Every table that acts on a sector state must be invariant under its group,
and states of different sectors do not combine (``ValueError`` both); the
check reads the exact gap ||x - x_sigma|| / ||x|| (``invariance_gap``).
``embed``, ``extract`` and ``FockSpace.site_amplitudes`` expand through the
orbits, so the tensor grid and snapshots see the site basis.

Operators act in normal-ordered ladder form.  A ``Ladder`` is a gather down
to the basis with fewer particles, one row per occupation move, and one back
up, whose slots list for each output only the moves that can create it:
(a_s psi)[u] = sqrt(u_s + 1) psi[u + e_s] for the one-body ladder, and for
the pair ladder one row per unordered pair channel s <= s',

    (a_s a_s' psi)[v] = sqrt((v_s + 1)(v_s' + 1 + delta_ss')) psi[v + e_s + e_s'],

of which there are P = M(M+1)/2, because annihilators commute.  A one-body
lift dGamma(h) = sum h[r, s] a_r^+ a_s is two O(dim M) gathers around one
M x M product.  A two-body operator a^+ a^+ (K . a a psi) is one pair gather
down, one (P, P) product and one gather up: its kernel sums over the
orderings of each pair, so an operator built from several projected pair
terms costs one application; ``hamiltonians`` builds the kernels of its
split operators in that form, one (count, P, P) stack per stage.
``two_body_sums`` is the only two-body apply: it applies a stack to a block
of states, one (members, dim) array, by (op, member) entries, with one pair
gather down and one up, whatever the number of kernels an output sums;
``dgamma_apply`` also lifts a whole block at once.  ``generator_table``
composes the full generator from h0 and the pair table alone into one
slot-major gather, its hops read off h0's off-diagonal and its diagonal one
of its slots; the space keeps it in one record with the pair diagonal, as it
keeps the plan of ``FockState.to_frame``, read from its full basis.
Products run in blocks small enough that OpenBLAS keeps them on the calling
thread (``SERIAL_PRODUCT``).  The scratch buffers belong to the FockSpace,
which makes it single-threaded; the workers of ``sweep --jobs`` each build
their own.  ``FockState`` reaches these functions through the state methods
that ``tensorstate.TensorState`` also answers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError
from .tensorstate import TensorState, check_entries, transposition_residual

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
    "generator_table",
    "invariance_gap",
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
    """Basis index of each occupation vector, all summing to N, read down the
    site-major rows ``occ`` (M, ...): the running sum, the gather and the sum
    each run over whole rows instead of a short, strided last axis.

    A composition precedes n in descending-lexicographic order when, at the
    first part j where they differ, its part exceeds n_j; with
    rest_j = N - 1 - (n_0 + ... + n_j) there are C(rest_j + M - 1 - j, M - 1 - j)
    such compositions, none when rest_j < 0.  counts[a + 1, k] = C(a + k, k)
    and counts[0] = 0 cover rest_j >= -1, and one flat gather reads them.
    """
    sites, left = len(occ), particles
    rest = np.empty((sites - 1, *np.shape(occ)[1:]), dtype=np.int64)  # rest_j + 1, row j
    for j in range(sites - 1):
        left = np.subtract(left, occ[j], out=rest[j, ...])
    rest *= sites
    rest += np.arange(sites - 1, 0, -1).reshape(-1, *(1,) * (rest.ndim - 1))
    return _counts(particles, sites).take(rest).sum(axis=0)


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
    """The group of site permutations that ``generators`` generate, the
    generators that were needed, and the walk of its closure.

    A permutation pi acts on occupation vectors as n -> n[pi], so applying
    rho and then pi is the permutation rho[pi].  The group is the sorted
    tuple of its elements, which puts the identity first; a generator that
    already lies in the group of the ones before it is dropped.  The walk
    lists each element after the identity, in the order the closure reached
    it, as (its index, that of the rho it came from, pi's place in kept).
    """
    identity = tuple(range(sites))
    reached, kept = {identity: None}, []  # element -> (rho, pi's position in kept)
    for gen in generators:
        if sorted(gen) != list(identity):
            raise ValueError(f"{gen} is not a permutation of the {sites} sites")
        if gen in reached:
            continue
        kept.append(gen)
        frontier = list(reached)
        while frontier:
            new = {tuple(rho[i] for i in pi): (rho, k) for rho in frontier for k, pi in enumerate(kept)}
            frontier = [sigma for sigma in new if sigma not in reached]
            reached.update((sigma, new[sigma]) for sigma in frontier)
    group = tuple(sorted(reached))
    index = {g: i for i, g in enumerate(group)}
    walk = tuple((index[g], index[rho], k) for g, (rho, k) in list(reached.items())[1:])
    return group, tuple(kept), walk


def _compose(first: list, walk: tuple, size: int) -> np.ndarray:
    """(G, size) table whose row g maps the index of each of ``size`` items to
    that of its image under group[g], from ``first``, the rows of the kept
    generators: along the ``_group`` walk, I[rho[pi]] = I[pi][I[rho]]."""
    out = np.empty((len(walk) + 1, size), dtype=np.int64)
    out[0] = np.arange(size)
    for g, rho, k in walk:
        first[k].take(out[rho], out=out[g])
    return out


def _frozen(x) -> bool:
    """Whether ``x`` is an array that an identity cache may keep: it and every
    array it views are read-only, so its values cannot change in place."""
    while isinstance(x, np.ndarray) and not x.flags.writeable:
        x = x.base
    return x is None


def invariance_gap(x, perms, square: bool = False) -> float:
    """Largest ||x - x_sigma|| / ||x|| (0 for x = 0) over the rows sigma of ``perms``, where
    x_sigma[i] = x[sigma_i] or, ``square``, x_sigma[i, j] = x[sigma_i, sigma_j] on the last
    axes: zero when x, a vector or square table or a stack of them, is invariant under their group."""
    x = np.asarray(x)
    gaps = (x - (x.take(p, axis=-2) if square else x).take(p, axis=-1) for p in np.asarray(perms))
    gap, norm = max(np.vdot(d, d).real for d in gaps), np.vdot(x, x).real
    return math.sqrt(gap / norm) if norm else 0.0


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
    Under the trivial group every orbit is one vector and ``occupations``
    is ``full``.
    """

    occupations: np.ndarray  # (dim, M) int64, each row sums to N
    particles: int
    sites: int
    group: tuple  # site permutations, the identity first
    generators: tuple
    full: np.ndarray  # (C(N+M-1, N), M) int64
    orbit: np.ndarray
    to_rep: np.ndarray
    sizes: np.ndarray

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def index_of(self, occ) -> int:
        """The basis index of the orbit of an occupation vector."""
        row = np.asarray(occ, dtype=np.int64)
        if row.shape != (self.sites,) or row.min() < 0 or row.sum() != self.particles:
            raise KeyError(tuple(int(x) for x in row.ravel()))
        return int(self.orbit[_rank(row, self.particles)])


def enumerate_basis(sites: int, particles: int, symmetry=()) -> OccupationBasis:
    """All occupation vectors (n_1 ... n_M) with sum N, descending
    lexicographic, and their orbits under the group that the site
    permutations ``symmetry`` generate.

    Stars and bars: the M - 1 bar positions among N + M - 1 slots, in
    ascending lexicographic order, give the parts as the gaps between bars
    in ascending order; reversing the rows makes them descend.  A vector's
    representative is its image pi . n of least index: the images are ranked
    in one ``_rank`` pass over the site-major rows per kept generator, and
    composed along the closure walk for every other element (``_compose``).
    """
    if sites < 1 or particles < 0:
        raise ConfigError(f"invalid basis request M={sites}, N={particles}")
    dim = math.comb(particles + sites - 1, particles)
    if dim > BASIS_CEILING:
        raise ConfigError(
            f"occupation basis dimension C({particles + sites - 1},{particles}) = {dim} "
            f"exceeds ceiling {BASIS_CEILING}"
        )
    bars = itertools.chain.from_iterable(itertools.combinations(range(particles + sites - 1), sites - 1))
    cuts = np.fromiter(bars, dtype=np.int64, count=dim * (sites - 1)).reshape(dim, sites - 1)[::-1]
    occ = np.diff(cuts, axis=1, prepend=-1, append=particles + sites - 1) - 1
    group, generators, walk = _group(tuple(tuple(int(i) for i in gen) for gen in symmetry), sites)
    if len(group) == 1:
        return OccupationBasis(occ, particles, sites, group, generators, occ, np.arange(dim),
                               np.zeros(dim, dtype=np.int64), np.ones(dim, dtype=np.int64))
    images = _compose([_rank(occ.T[list(gen)], particles) for gen in generators], walk, dim)  # (G, dim)
    to_rep = images.argmin(axis=0)
    reps = np.flatnonzero(to_rep == 0)
    orbit = np.searchsorted(reps, images.min(axis=0))
    sizes = len(group) // (images[:, reps] == reps).sum(axis=0)
    return OccupationBasis(occ[reps], particles, sites, group, generators, occ, orbit, to_rep, sizes)


class Ladder:
    """Annihilation and creation gathers between an orbit basis and the one
    with fewer particles under the same group: the annihilation tables have
    one row per occupation move, the creation table one row per slot.

    ``moves`` is a (rows, M) table of occupation vectors with a common sum,
    the number of particles the ladder removes: the unit vectors e_s for the
    one-body ladder (N -> N-1), e_s + e_s' for the pair channels s <= s'
    (N -> N-2).  The lower rows are the lower basis's representatives.

    For move p and lower row v, ``annihilate[p, v]`` is the orbit of
    v + moves[p] and ``factor[p, v]`` the matrix element of the move's
    annihilators, sqrt(v_s + 1) or sqrt((v_s + 1)(v_s' + 1 + delta_ss')),
    over the square root of that orbit's size, stored complex so that
    weighting needs no cast.  Each move p with u - moves[p] free of negative
    parts creates upper row u from the source (pi . p, rep(u - moves[p])) of
    the (rows, lower dim) creation sources, pi = group[to_rep] taking
    u - moves[p] to its representative.  Column u of ``create`` lists the
    flat positions of those sources in move order, then the zero pad slot
    after them, up to the largest number of moves that create one row (at
    least one slot): 6 slots for the 45 pair channels on the 3 x 3 lattice
    at N = 4, all 10 for M = 4, N = 12.  ``moved[g, p]`` is the row of the
    move group[g] . moves[p], ranked under the kept generators and composed
    for the other elements (``_compose``).  Both gathers act on the last
    axis, so a block of states moves in one gather each way.

    On invariant states and tables this is exact: a lowered amplitude at
    pi^-1 . v for move p equals the one at v for move pi . p, and every
    created output is scaled by its orbit size (``scale``), which turns the
    site amplitude times |o|^(-1/2) into the orbit coefficient.  For the
    trivial group these are the tables of the plain occupation basis and
    ``scale`` is all ones, so scaling changes no bit.
    """

    def __init__(self, upper: OccupationBasis, moves):
        moves = np.asarray(moves, dtype=np.int64)
        rows, m = moves.shape
        drop = int(moves[0].sum())
        n = upper.particles - drop
        if n >= 0:
            self.lower = lower = enumerate_basis(m, n, symmetry=upper.generators)
        else:  # below zero particles: an empty basis under the trivial group
            empty, index = np.zeros((0, m), dtype=np.int64), np.zeros(0, dtype=np.int64)
            self.lower = lower = OccupationBasis(empty, n, m, upper.group[:1], (), empty, index, index, index)
        size = lower.dim
        row_of = np.zeros(math.comb(drop + m - 1, drop), dtype=np.int64)
        row_of[_rank(moves.T, drop)] = np.arange(rows)
        images = [row_of[_rank(moves.T[list(gen)], drop)] for gen in upper.generators]
        self.moved = _compose(images, _group(upper.generators, m)[2], rows)
        raised = _rank(lower.full.T[:, None, :] + moves.T[:, :, None], upper.particles)  # upper index of w + move
        self.annihilate = upper.orbit[raised[:, lower.to_rep == 0]]
        # each move's annihilated modes in ascending order; the i-th of them
        # sees its mode's occupation raised by the earlier ones in the move
        modes = np.repeat(np.tile(np.arange(m), rows), moves.ravel()).reshape(rows, drop)
        earlier = np.tril(modes[:, :, None] == modes[:, None, :], -1).sum(axis=-1)
        product = (lower.occupations.T[modes] + (1 + earlier)[:, :, None]).prod(axis=1)
        self.factor = np.sqrt(product / upper.sizes[self.annihilate]).astype(np.complex128)
        create = np.full((rows, upper.dim), rows * size, dtype=np.int64)
        p, w = np.nonzero(upper.to_rep[raised] == 0)  # w + moves[p] is a representative
        create[p, upper.orbit[raised[p, w]]] = self.moved[lower.to_rep[w], p] * size + lower.orbit[w]
        # each output's sources first, in move order, then pad slots up to the
        # largest number of sources of any output
        pad = create == rows * size
        slots = max(1, int((~pad).sum(axis=0).max(initial=0)))
        self.create = np.take_along_axis(create, pad.argsort(axis=0, kind="stable"), axis=0)[:slots]
        self.scale = upper.sizes.astype(np.float64)
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
        out *= self.scale
        return out


class FockSpace:
    """Orbit basis plus its one-body ladder (N -> N-1) and its pair ladder
    (N -> N-2, one row per pair channel).

    ``sector`` is (M, N, group): states of two spaces combine only when
    their sectors agree.  On a space with a nontrivial group every table,
    kernel and condensate that acts on its states must be invariant under
    the group, or ``ValueError`` is raised (``require_invariant``), once
    for a read-only table, at every use for a writeable one.  The space
    keeps its frame plan, built on first use.

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
        self._generator = (None,) * 7  # hops, sources, values, h0, pair, coupling, pair diagonal
        self._invariant = {}  # id -> a table known to be invariant
        self._batch = {}  # the same for the last table checked with its parts
        self._perms = None
        if basis.generators:
            sites = np.array(basis.generators)
            channels = self.ladders[1].moved[[basis.group.index(g) for g in basis.generators]]
            self._perms = {"vector": (sites, False), "table": (sites, True), "kernel": (channels, True)}

    def __reduce__(self):
        return FockSpace, (self.basis, self.cell)

    @cached_property
    def _frame(self) -> tuple:
        return _frame_plan(self.basis.full, self.particles)

    def require_invariant(self, table, kind: str, parts=()) -> None:
        """Raise ``ValueError`` unless the array ``table`` is invariant under
        the group: a site ``"vector"``, an (M, M) ``"table"`` or a (P, P)
        pair-channel ``"kernel"``, or a stack of them along leading axes.
        Its ``invariance_gap`` under the generators, on sites or pair channels
        (``Ladder.moved``), must stay within ``SYMMETRY_TOL``.  ``table`` is
        then known by identity, and so are ``parts``, tables whose invariance
        follows from its own, until the next check with parts: a stack of
        tables is checked in one pass, and no more than one stack and eight
        tables are kept alive.  Only arrays read-only down to the memory they
        view are kept (``_frozen``); any other is checked at every call."""
        if self._perms is None or self._batch.get(id(table)) is table or self._invariant.get(id(table)) is table:
            return
        gap = invariance_gap(table, *self._perms[kind])
        if not gap <= SYMMETRY_TOL:
            raise ValueError(f"a table with asymmetry {gap:.3g} under the symmetry group "
                             f"of the occupation space cannot act on its sector")
        if parts:
            self._batch = {id(t): t for t in (table, *parts) if _frozen(t)}
        elif _frozen(table):
            if len(self._invariant) >= 8:
                self._invariant.clear()
            self._invariant[id(table)] = table

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
        if not np.abs(site - reps[basis.orbit]).max(initial=0.0) <= 1e-10 * np.abs(site).max(initial=0.0):
            raise ValueError("the state is not invariant under the symmetry group of the occupation space")
        return np.sqrt(basis.sizes) * reps


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

    def generator(self, h0, pair, coupling: float) -> "FockState":
        """dGamma(h0) plus ``coupling`` times the pair diagonal, one gather
        through the space's ``generator_table``."""
        sources, values = generator_table(self.space, h0, pair, coupling)
        gathered = self.amps.take(sources, axis=-1)
        gathered *= values
        return self.with_amps(gathered.sum(axis=-2))

    def pair_sums(self, pieces, entries) -> "FockState":
        """Row i sums the pair part of operator op applied to row j of this
        block over the (op, j) in ``entries[i]``, without the 1/(N-1): one
        ``two_body_sums`` over the kernel stack ``pieces.kernels``, which
        checks the entries.  The (table, kind, parts) triples of the stage
        build, ``pieces.batch``, are admitted first, once per build
        (``FockSpace.require_invariant``)."""
        for table, kind, parts in pieces.batch:
            self.space.require_invariant(table, kind, parts=parts)
        return two_body_sums(self, pieces.kernels, entries)

    def to_frame(self, phi) -> tuple:
        """(Gamma(W) psi over ``basis.full``, N - n'_0 of each) for the frame W of ``_frame_map``."""
        amps = _frame_map(self.space, phi, self.space.site_amplitudes(self.amps))
        return amps, self.space._frame[0]

    def from_frame(self, phi, amps) -> "FockState":
        """The state whose ``to_frame`` amplitudes are ``amps`` (``orbit_amplitudes`` checks a sector)."""
        return self.with_amps(self.space.orbit_amplitudes(_frame_map(self.space, phi, amps, back=True)))

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
    a matrix-vector call, which OpenBLAS threads from m*n = 4096 on.
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


def _kac(n: int) -> np.ndarray:
    """Eigenvectors of T_n (``_frame_plan``), column j for n - 2j, correctly rounded:
    K_j(x) sqrt(C(n, x) / (C(n, j) 2^n)), with exact integer Krawtchouk values K_j(x)
    (``eigh``'s vectors err by ~n ulp and moved 1e-12 weights by 3e-9 at N = 16)."""
    x, k = np.arange(n + 1, dtype=object), np.zeros((n + 1, n + 1), dtype=object)
    k[0] = 1
    for j in range(n):
        k[j + 1] = ((n - 2 * x) * k[j] - (n - j + 1) * (k[j - 1] if j else 0)) // (j + 1)
    comb = np.array([math.comb(n, i) for i in range(n + 1)], dtype=object)
    size = np.sqrt((k.T**2 * comb[:, None] / (comb << n)).astype(float))
    return np.where(k.T < 0, -size, size)


def _frame_plan(full: np.ndarray, particles: int) -> tuple:
    """Read-only constants of ``FockState.to_frame`` on the vectors ``full`` of N particles.
    A rotation exp(-i beta (a_a^+ a_b + h.c.)), b = a + 1, acts on each block of
    vectors with n_a + n_b = n and the other parts fixed as R_n = exp(-i beta T_n)
    = O diag(e^(-i beta mu)) O^T over j = n_a, T[j+1, j] = T[j, j+1] =
    sqrt((j+1)(n-j)), mu = n - 2j, and leaves n = 0 alone.  Returns N - n_0 of
    every vector, O and O^T zero-padded to (N+1, N+1, N+1), N + mu by (n, j),
    and per rotation, a = M-2 first, the basis indices of its blocks with n > 0
    by n, j and block, and each n's (n, span, (n + 1, blocks)).  Member j of a
    block differs from its j = 0 member only in the a-th term of ``_rank``."""
    sites, n, size = full.shape[1], particles, particles + 1
    vecs = np.zeros((size, size, size))
    for b in range(size):
        vecs[b, : b + 1, : b + 1] = _kac(b)
    mu = np.clip(n + np.arange(size)[:, None] - 2 * np.arange(size), 0, 2 * n)  # j > n: O is 0
    prefix, counts, rotations = np.cumsum(full, axis=1), _counts(n, sites), []
    for a in range(sites - 2, -1, -1):
        pair, table = full[:, a] + full[:, a + 1], counts[sites - 1 - a :: sites]
        heads = np.flatnonzero((full[:, a] == 0) & (pair > 0))
        order, blocks, lo = [np.zeros(0, dtype=np.int64)], [], 0
        for b in range(1, size):
            head = heads[pair[heads] == b]
            rest = n - prefix[head, a]
            order.append((head + table[rest - np.arange(b + 1)[:, None]] - table[rest]).ravel())
            blocks.append((b, slice(lo, lo + order[-1].size), (b + 1, len(head))))
            lo += order[-1].size
        rotations.append((np.concatenate(order), tuple(block for block in blocks if block[2][1])))
    excited, vecs_t = n - full[:, 0], vecs.transpose(0, 2, 1).copy()
    for arr in (excited, vecs, vecs_t, mu, *(order for order, _ in rotations)):
        arr.flags.writeable = False
    return excited, vecs, vecs_t, mu, tuple(rotations)


def _frame_map(space: FockSpace, phi, site: np.ndarray, back: bool = False) -> np.ndarray:
    """Gamma(W) on full-basis amplitudes ``site``, or Gamma(W)^H (``back``), for
    the frame W = G_0 D_0 G_1 D_1 ... G_{M-2} D_{M-2} D_{M-1} with W u = e_0 up to
    a phase, u = sqrt(cell) phi: D_s = e^(i alpha_s) on mode s gives u_j the phase
    (-i)^(M-1-j), and G_a = exp(-i beta_a (|a><a+1| + |a+1><a|)), a = M-2 first,
    carries mode a + 1, a quarter turn ahead, into mode a at beta_a =
    atan2(||u_{a+1:}||, |u_a|).  D_a commutes with the G that act before it, so
    each rotation takes it on its blocks' j = n_a (the first also D_{M-1} on
    n - j): one product by R_n diag(e^(i alpha j)) per n of the plan's blocks,
    R_n = O diag(e^(-i beta mu)) O^T, and by its adjoint on the way back."""
    n, (_, vecs, vecs_t, mu, rotations) = space.particles, space._frame
    u = np.sqrt(space.cell) * np.asarray(phi, dtype=np.complex128)
    tail = np.sqrt(np.cumsum(np.abs(u[::-1]) ** 2))[::-1]
    alpha = -np.angle(u) - np.arange(len(u) - 1, -1, -1) * np.pi / 2
    beta = np.arctan2(tail[1:], np.abs(u[:-1]))
    powers = np.exp(1j * np.outer(np.append(-beta[::-1], alpha), np.arange(-n, n + 1)))
    turns, spins, j = powers[: len(beta)], powers[len(beta) :], np.arange(n + 1)
    side = np.repeat(spins[-2::-1, None, n:], n + 1, axis=1)  # rotation, n, j
    side[:1] *= spins[-1].take(n + j[:, None] - j)
    phases, out = turns.take(mu, axis=1), np.array(site, dtype=np.complex128)
    turned, rotation = np.empty(vecs.shape, dtype=np.complex128), np.empty(vecs.shape, dtype=np.complex128)
    for r in range(len(rotations))[:: -1 if back else 1]:
        np.multiply(phases[r][..., None], vecs_t, out=turned)
        turned *= side[r][:, None, :]
        _product(vecs, turned.view(np.float64), rotation.view(np.float64))  # R_n diag(e^(i alpha j))
        step = rotation.conj().swapaxes(-1, -2) if back else rotation
        order, blocks = rotations[r]
        x = out.take(order)
        y = np.empty_like(x)
        for b, span, shape in blocks:
            _product(step[b, : b + 1, : b + 1], x[span].reshape(shape), y[span].reshape(shape))
        out[order] = y
    return out


def dgamma_apply(op, state: FockState) -> FockState:
    """Second-quantised lift of a one-body table: sum_j op acting on slot j,
    of one state or of every row of a block (members, dim) at once."""
    space, mat = state.space, np.asarray(op, dtype=np.complex128)
    if mat.shape != (space.sites, space.sites):
        raise ValueError(f"table shape {mat.shape} does not match M={space.sites}")
    space.require_invariant(op, "table")
    one, lead = space.ladders[0], state.amps.shape[:-1]
    _product(mat, one.annihilated(state.amps), one.scratch(lead)[1])
    return FockState(one.created(lead), space)


def two_body_sums(block: FockState, kernels, entries) -> FockState:
    """Row i of the result is the sum over (op, j) in entries[i] of
    a^+ a^+ (kernels[op] . a a block[j]), for a stack of (P, P) pair-channel
    kernels (``hamiltonians.EffectivePieces.kernels``) and a block of states
    (members, dim).

    The block is pair-annihilated to N - 2 particles in one gather and the
    outputs are created in one gather back up, whatever the number of
    entries; the (P, P) @ (P, dim_{N-2}) products run in serial blocks
    (``SERIAL_PRODUCT``).  Below two particles every output is zero.  A
    stack of another shape and, on a symmetric sector, a stack that is not
    invariant raise ``ValueError``, once per call, as do bad entries
    (``check_entries``).
    """
    space = block.space
    pair = space.ladders[1]
    shape = (pair.factor.shape[0],) * 2
    if np.ndim(kernels) != 3 or np.shape(kernels)[1:] != shape:
        raise ValueError(f"pair kernel stack shape {np.shape(kernels)} does not match (count, *{shape}) "
                         f"of the M={space.sites} pair channels")
    check_entries(entries, len(kernels), len(block.amps))
    space.require_invariant(kernels, "kernel")
    lead = (len(entries),)
    down, src = pair.annihilated(block.amps), pair.scratch(lead)[1]
    extra = None
    for out, row in zip(src, entries):
        if not row:
            out.fill(0.0)
        for n, (op, j) in enumerate(row):
            if n == 0:
                _product(kernels[op], down[j], out)
                continue
            if extra is None:
                extra = np.empty_like(out)
            _product(kernels[op], down[j], extra)
            out += extra
    return FockState(pair.created(lead), space)


def generator_table(space: FockSpace, h0, pair, coupling: float) -> tuple:
    """Slot-major (sources, values), (slots, dim), of H = dGamma(h0) + coupling
    sum_{i<j} w(x_i - x_j): (H psi)[u] = sum_k values[k, u] psi[sources[k, u]].
    Slot 0 is the diagonal, the rest the off-diagonal of dGamma(h0).  The
    position-diagonal pair sum lifts to (1/2) (n^T W n - sum_r W_rr n_r) per
    basis vector.  The space keeps one record: the hop slots, kept while a
    new h0 has the same off-diagonal, as a tabulated potential gives, so
    only slot 0 is rewritten (O(M dim)), and the pair diagonal of the last
    pair table.  On a sector both must be invariant.  Only read-only tables
    are known by identity; writeable ones are read again at every call."""
    hops, sources, values, old_h0, old_pair, old_coupling, diagonal = space._generator
    if h0 is old_h0 and pair is old_pair and coupling == old_coupling:
        return sources, values
    if h0 is not old_h0:
        space.require_invariant(h0, "table")
        off = h0 * (1 - np.eye(space.sites))
        if not np.array_equal(off, hops):
            hops, (sources, values) = off, _hop_slots(space.ladders[0], space.basis.dim, off)
    if pair is not old_pair:
        space.require_invariant(pair, "table")
        occ, wmat = space.basis.occupations.astype(float), np.asarray(pair, dtype=float)
        diagonal = 0.5 * (np.einsum("bm,mn,bn->b", occ, wmat, occ) - occ @ np.diag(wmat))
    values[0] = space.basis.occupations @ np.diagonal(h0)
    values[0] += coupling * diagonal
    h0, pair = (x if _frozen(x) else None for x in (h0, pair))
    space._generator = (hops, sources, values, h0, pair, coupling, diagonal)
    return sources, values


def _hop_slots(one: Ladder, dim: int, hops: np.ndarray) -> tuple:
    """(sources, values) of dGamma(hops), zero-diagonal hops, after an empty
    slot 0.  As in ``dgamma_apply``, output u, creation slot r and mode s with
    (r', v) = divmod(create[r, u], lower dim) read annihilate[s, v] times
    scale[u] factor[r', v] factor[s, v] hops[r', s].  Values of one output
    and source are summed, zero sums dropped, and the rest fill slots 1, 2,
    ..; an unused slot reads its own output with value 0."""
    (m, size), pad = one.annihilate.shape, one.create == one.annihilate.size
    count = max(1, int(np.count_nonzero(hops, axis=1).max()))
    moved, v = np.divmod(np.where(pad, 0, one.create), size)  # r' and v of (r, u), (M, dim)
    modes = np.argsort(hops == 0, axis=1, kind="stable")[:, :count].T[:, moved]  # s, (count, M, dim)
    at = modes * size + v
    value = one.factor.take(at) * hops[moved, modes] * one.factor.take(moved * size + v) * ~pad
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
    """sqrt(N! / prod_r n_r!) of each occupation vector, a row of ``occ``.

    The exact integer quotient depends only on the multiset of occupations,
    so it is evaluated once per distinct sorted row."""
    patterns, inverse = np.unique(np.sort(occ, axis=1), axis=0, return_inverse=True)
    values = np.array([math.sqrt(math.factorial(int(sum(row)))
                                 / math.prod(math.factorial(int(k)) for k in row)) for row in patterns])
    return values[inverse.reshape(-1)]


def _grid_orbits(space: FockSpace) -> np.ndarray:
    """The full-basis index of the occupation vector of each tuple of the
    (M,)*N tensor grid, in row-major order."""
    m, n = space.sites, space.particles
    sites = np.indices((m,) * n).reshape(n, m**n)
    return _rank((sites[:, None, :] == np.arange(m)[:, None]).sum(axis=0), n)


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
    if not transposition_residual(psi) <= 1e-10:
        raise ValueError("extract requires a symmetric tensor state")
    _, first = np.unique(_grid_orbits(space), return_index=True)  # the sorted tuples
    site = psi.amps.reshape(-1)[first] * _sqrt_multinomials(space.basis.full)
    site *= space.cell ** (space.particles / 2)
    return FockState(space.orbit_amplitudes(site), space)


def product_fock(phi: np.ndarray, space: FockSpace) -> FockState:
    """Occupation coefficients of the pure condensate phi^(x)N; on a
    symmetric sector phi must be invariant under its group."""
    phi_modes = np.sqrt(space.cell) * np.asarray(phi, dtype=np.complex128)
    space.require_invariant(phi, "vector")
    occ = space.basis.occupations
    monomials = np.prod(phi_modes[None, :] ** occ, axis=1)
    weights = _sqrt_multinomials(occ) * np.sqrt(space.basis.sizes)
    return FockState(weights * monomials, space)


def random_fock(space: FockSpace, rng: np.random.Generator) -> FockState:
    raw = rng.standard_normal(space.basis.dim) + 1j * rng.standard_normal(space.basis.dim)
    raw /= np.linalg.norm(raw)
    return FockState(raw, space)
