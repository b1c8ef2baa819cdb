"""The symmetric-sector occupation route: orbit bases, when they are chosen,
and agreement with the site route."""

import pickle
import tracemalloc

import numpy as np
import pytest

from bosonlab import experiments
from bosonlab import fockstate as fs
from bosonlab import hamiltonians
from bosonlab import projections as pj
from bosonlab import tensorstate as ts
from bosonlab.cli import main
from bosonlab.duhamel import correction_error, quadrature_Tnk
from bosonlab.experiments import build_one_excitation, build_product, default_phi0
from bosonlab.meanfield import hartree_evolve
from bosonlab.model import ModelConfig, build_model
from bosonlab.propagation import evolve_aux, evolve_full
from bosonlab.snapshots import load_state, save_state

CELL = 0.5


def lattice(size, d):
    """Site indices of an L^d lattice and its symmetry generators: the axis
    swap (2D) and the reflection x_a -> -x_a mod L of each axis."""
    site = np.arange(size**d).reshape((size,) * d)
    mirrors = [np.take(site, -np.arange(size) % size, axis=a).ravel() for a in range(d)]
    return ([site.T.ravel()] if d == 2 else []) + mirrors


def shifts(size, d):
    """The unit translation x_a -> x_a + 1 mod L of each axis of an L^d lattice."""
    site = np.arange(size**d).reshape((size,) * d)
    return [np.roll(site, 1, axis=a).ravel() for a in range(d)]


# (sites, particles, generators): Z2 in 1D, D4 and Z2 x Z2 on the 3 x 3 lattice,
# and with the translations, the dihedral group of a 6-site ring (order 12)
# and the 72 symmetries of the 3 x 3 torus
SECTORS = {
    "1d-z2": (4, 5, lattice(4, 1)),
    "2d-d4": (9, 3, lattice(3, 2)),
    "2d-reflections": (9, 3, lattice(3, 2)[1:]),
    "1d-ring": (6, 3, shifts(6, 1) + lattice(6, 1)),
    "2d-torus": (9, 3, shifts(3, 2) + lattice(3, 2)),
}


def make_model(**over):
    raw = dict(dimension=1, sites_per_dim=4, torus_length=4.0, particles=3, dt=1e-3, t_final=0.02,
               correction_order=3)
    raw.update(over)
    return build_model(ModelConfig(**raw))


def symmetrise(table, perms):
    """Group average of a vector or square table under row and column permutations."""
    if table.ndim == 1:
        return sum(table[p] for p in perms) / len(perms)
    return sum(table[np.ix_(p, p)] for p in perms) / len(perms)


def permutation_lookups(monkeypatch, space) -> list:
    """The kinds whose permutation table ``space`` looks up from now on, in
    order: one lookup per invariance check that reads a table's entries."""
    looked_up = []

    class Counting(dict):
        def __getitem__(self, kind):
            looked_up.append(kind)
            return dict.__getitem__(self, kind)

    monkeypatch.setattr(space, "_perms", Counting(space._perms))
    return looked_up


def probe_blind(raw, group, gens):
    """The invariant part of the square table ``raw`` under the index
    permutations ``group`` plus its asymmetric part projected off the unit
    columns u z^T - u[s^-1] z[s^-1]^T of the generators s of ``gens``, for the
    Weyl sequences u_i = (i sqrt(2) mod 1) - 1/2 and z_i = (i (sqrt(5) - 1)/2
    mod 1) - 1/2, i = 1 .. n: a table whose asymmetry these columns read as 0."""
    steps = np.arange(1, len(raw) + 1)
    u, z = steps * np.sqrt(2) % 1 - 0.5, steps * (np.sqrt(5) - 1) / 2 % 1 - 0.5
    back = np.argsort(gens, axis=1)
    cols = (u[:, None] * z - u[back][:, :, None] * z[back][:, None, :]).reshape(len(gens), -1).T
    basis, _ = np.linalg.qr(cols)
    invariant = symmetrise(raw, group)
    part = (raw - invariant).ravel()
    part -= basis @ (basis.T @ part)
    table = invariant + part.reshape(raw.shape)
    assert np.abs(cols.T @ table.ravel()).max() <= 1e-12 * np.linalg.norm(table)
    return table


@pytest.fixture(scope="module", params=list(SECTORS))
def pair_of_spaces(request):
    m, n, gens = SECTORS[request.param]
    site = fs.FockSpace(fs.enumerate_basis(m, n), CELL)
    sector = fs.FockSpace(fs.enumerate_basis(m, n, symmetry=gens), CELL)
    return site, sector


def invariant_state(site, sector, rng):
    """The same invariant state on the site space and on the sector: random
    amplitudes averaged over each orbit."""
    orbit = sector.basis.orbit
    raw = rng.standard_normal(site.basis.dim) + 1j * rng.standard_normal(site.basis.dim)
    amps = (np.bincount(orbit, raw.real) + 1j * np.bincount(orbit, raw.imag))[orbit]
    return fs.FockState(amps, site), fs.FockState(sector.orbit_amplitudes(amps), sector)


def uniform_phi(model):
    m = model.config.site_count
    return np.full(m, 1.0 / np.sqrt(m * model.cell), dtype=complex)


def same_state(sector_state, site_state, tol=1e-12):
    got = sector_state.space.site_amplitudes(sector_state.amps)
    return np.abs(got - site_state.amps).max() <= tol * max(1.0, np.abs(site_state.amps).max())


class TestOrbitBasis:
    @pytest.mark.parametrize("d,size,n,dim,order", [(1, 4, 12, 252, 2), (1, 4, 16, 525, 2),
                                                     (2, 3, 4, 84, 8)])
    def test_sector_dimensions(self, d, size, n, dim, order):
        model = build_model(ModelConfig(dimension=d, sites_per_dim=size, torus_length=float(size),
                                        particles=n))
        psi = build_product(model, default_phi0(model))
        assert psi.space.basis.dim == dim
        assert len(psi.space.basis.group) == order

    @pytest.mark.parametrize("name", list(SECTORS))
    def test_orbits_partition_the_vectors(self, name):
        m, n, gens = SECTORS[name]
        basis = fs.enumerate_basis(m, n, symmetry=gens)
        group = np.array(basis.group)
        assert np.array_equal(np.bincount(basis.orbit), basis.sizes)
        reps = basis.full[basis.to_rep == 0]
        assert np.array_equal(reps, basis.occupations)
        # every vector reaches its representative through group[to_rep]
        moved = basis.full[np.arange(len(basis.full))[:, None], group[basis.to_rep]]
        assert np.array_equal(moved, basis.occupations[basis.orbit])
        for i, occ in enumerate(basis.full):
            images = {tuple(occ[g]) for g in group}
            assert len(images) == basis.sizes[basis.orbit[i]]
            assert basis.index_of(occ) == basis.orbit[i]

    @pytest.mark.parametrize("name", list(SECTORS))
    def test_tables_match_ranking_every_element(self, name):
        # the orbits and channel moves composed along the closure equal those
        # read off the images under every group element, each ranked alone
        m, n, gens = SECTORS[name]
        basis = fs.enumerate_basis(m, n, symmetry=gens)
        group = np.array(basis.group)
        images = np.array([fs._rank(basis.full[:, g].T, n) for g in group])  # (G, full dim)
        assert np.array_equal(images[0], np.arange(len(basis.full)))
        to_rep = images.argmin(axis=0)
        reps = np.flatnonzero(to_rep == 0)
        assert np.array_equal(basis.to_rep, to_rep)
        assert np.array_equal(basis.orbit, np.searchsorted(reps, images.min(axis=0)))
        assert np.array_equal(basis.sizes, len(group) // (images[:, reps] == reps).sum(axis=0))
        unit = np.eye(m, dtype=np.int64)
        s, t = np.triu_indices(m)
        for ladder, moves in zip(fs.FockSpace(basis, CELL).ladders, (unit, unit[s] + unit[t])):
            drop = int(moves[0].sum())
            row = {r: p for p, r in enumerate(fs._rank(moves.T, drop))}
            assert np.array_equal(ladder.moved, [[row[r] for r in fs._rank(moves[:, g].T, drop)] for g in group])

    def test_one_rank_pass_per_generator(self, monkeypatch):
        # the 4 x 4 torus at N = 4 (G = 128, 3876 vectors): ranking the images
        # under every element would pass 128 x 3876 vectors through _rank
        ranked, rank = [], fs._rank
        monkeypatch.setattr(fs, "_rank", lambda occ, n: ranked.append(np.size(occ) // 16) or rank(occ, n))
        tracemalloc.start()
        try:
            basis = fs.enumerate_basis(16, 4, symmetry=shifts(4, 2) + lattice(4, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(basis.group), len(basis.full)) == (128, 3876)
        assert sum(ranked) <= len(basis.generators) * 3876
        assert peak < 32 * 2**20

    def test_a_large_sector_ranks_its_ladders_in_bounded_chunks(self):
        # the uniform 1D L = 12, N = 8 sector (G = 24): its pair ladder raises
        # 78 channels x 12376 lower vectors, 272 MB ranked all at once
        model = make_model(sites_per_dim=12, torus_length=12.0, particles=8)
        tracemalloc.start()
        try:
            psi = build_product(model, uniform_phi(model))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(psi.space.basis.group) == 24
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("name", list(SECTORS))
    def test_ladder_tables_do_not_depend_on_the_rank_chunk(self, monkeypatch, name):
        m, n, gens = SECTORS[name]
        basis = fs.enumerate_basis(m, n, symmetry=gens)
        whole = fs.FockSpace(basis, CELL).ladders
        monkeypatch.setattr(fs, "RANK_CHUNK", 1)  # one move row per rank pass
        for a, b in zip(whole, fs.FockSpace(basis, CELL).ladders):
            for attr in ("annihilate", "factor", "create", "moved", "scale"):
                got, want = getattr(b, attr), getattr(a, attr)
                assert got.dtype == want.dtype and np.array_equal(got, want), attr

    def test_generators_and_group(self):
        gens = lattice(3, 2)
        basis = fs.enumerate_basis(9, 2, symmetry=gens + gens)
        assert len(basis.group) == 8
        assert basis.group[0] == tuple(range(9))
        assert len(basis.generators) == 2  # swap and one mirror give D4
        with pytest.raises(ValueError, match="not a permutation"):
            fs.enumerate_basis(4, 2, symmetry=[(0, 0, 1, 2)])

    @pytest.mark.parametrize("m,n", [(3, 4), (4, 3), (9, 2)])
    def test_trivial_group_keeps_the_site_tables(self, m, n):
        plain = fs.FockSpace(fs.enumerate_basis(m, n), CELL)
        identity = fs.FockSpace(fs.enumerate_basis(m, n, symmetry=[tuple(range(m))]), CELL)
        assert identity.sector == plain.sector
        for a, b in zip(plain.ladders, identity.ladders):
            assert np.array_equal(a.annihilate, b.annihilate)
            assert np.array_equal(a.factor, b.factor)
            assert np.array_equal(a.create, b.create)
            assert np.array_equal(a.scale, np.ones(plain.basis.dim)) and np.array_equal(b.scale, a.scale)


class TestSectorOperators:
    def test_one_body_lift_matches_site_route(self, pair_of_spaces):
        site, sector = pair_of_spaces
        rng = np.random.default_rng(1)
        on_site, on_sector = invariant_state(site, sector, rng)
        mat = rng.standard_normal((site.sites,) * 2) + 1j * rng.standard_normal((site.sites,) * 2)
        mat = symmetrise(mat, sector.basis.group)
        assert same_state(fs.dgamma_apply(mat, on_sector), fs.dgamma_apply(mat, on_site))

    def test_two_body_sum_matches_site_route(self, pair_of_spaces):
        site, sector = pair_of_spaces
        rng = np.random.default_rng(2)
        a_site, a_sector = invariant_state(site, sector, rng)
        b_site, b_sector = invariant_state(site, sector, rng)
        channels = sector.ladders[1].moved
        kernels = np.stack([symmetrise(rng.standard_normal((len(channels[0]),) * 2)
                                       + 1j * rng.standard_normal((len(channels[0]),) * 2), channels)
                            for _ in range(2)])
        terms = [[(0, 0), (1, 1)], [(1, 0)]]
        got = fs.two_body_sums(fs.FockState(np.stack([a_sector.amps, b_sector.amps]), sector), kernels, terms)
        expect = fs.two_body_sums(fs.FockState(np.stack([a_site.amps, b_site.amps]), site), kernels, terms)
        for got_row, expect_row in zip(got.amps, expect.amps):
            assert same_state(fs.FockState(got_row, sector), fs.FockState(expect_row, site))

    def test_pair_diagonal_and_inner_products(self, pair_of_spaces):
        site, sector = pair_of_spaces
        rng = np.random.default_rng(3)
        a_site, a_sector = invariant_state(site, sector, rng)
        b_site, b_sector = invariant_state(site, sector, rng)
        pair = symmetrise(rng.standard_normal((site.sites,) * 2), sector.basis.group)
        pair = pair + pair.T
        zero = np.zeros((site.sites,) * 2)
        assert same_state(a_sector.generator(zero, pair, 1.0), a_site.generator(zero, pair, 1.0))
        assert a_sector.inner(b_sector) == pytest.approx(a_site.inner(b_site), abs=1e-12)
        assert a_sector.norm() == pytest.approx(a_site.norm(), abs=1e-12)

    def test_asymmetric_tables_are_refused(self, pair_of_spaces):
        site, sector = pair_of_spaces
        rng = np.random.default_rng(4)
        _, psi = invariant_state(site, sector, rng)
        m, p = site.sites, sector.ladders[1].factor.shape[0]
        with pytest.raises(ValueError, match="asymmetry"):
            fs.dgamma_apply(rng.standard_normal((m, m)), psi)
        with pytest.raises(ValueError, match="asymmetry"):
            fs.two_body_sums(fs.FockState(psi.amps[None], sector),
                             (rng.standard_normal((p, p)) + 0j)[None], [[(0, 0)]])
        with pytest.raises(ValueError, match="asymmetry"):
            fs.generator_table(sector, np.zeros((m, m)), rng.standard_normal((m, m)), 1.0)
        # a table off invariant by roundoff passes
        mat = symmetrise(rng.standard_normal((m, m)), sector.basis.group)
        fs.dgamma_apply(mat + 1e-15 * rng.standard_normal((m, m)), psi)
        # asymmetric tables and kernels that one Weyl-sequence probe column per
        # generator cannot see are refused, with their true asymmetry
        gens = [sector.basis.group.index(g) for g in sector.basis.generators]
        channels = sector.ladders[1].moved
        site_perms = np.array(sector.basis.group)
        for kind, perms, apply in (
                ("table", site_perms, lambda t: fs.dgamma_apply(t, psi)),
                ("kernel", channels, lambda k: fs.two_body_sums(fs.FockState(psi.amps[None], sector),
                                                                k[None], [[(0, 0)]]))):
            table = probe_blind(rng.standard_normal((len(perms[0]),) * 2) + 0j, perms, perms[gens])
            gap = max(np.linalg.norm(table - table[np.ix_(g, g)]) for g in perms[gens]) / np.linalg.norm(table)
            assert gap > 0.1, kind
            with pytest.raises(ValueError, match=f"asymmetry {gap:.3g} "):
                apply(table)

    def test_a_table_changed_in_place_is_checked_again(self):
        # only read-only tables are known by identity: a writeable one that
        # turns asymmetric in place is refused like a copy of it
        space = fs.FockSpace(fs.enumerate_basis(4, 3, symmetry=[(3, 2, 1, 0)]), CELL)
        psi = fs.random_fock(space, np.random.default_rng(5))
        op = np.diag([1.0, 2.0, 2.0, 1.0])
        psi.lift(op)
        op[0, 1] = 5.0
        with pytest.raises(ValueError, match="asymmetry 1.2 "):
            psi.lift(op.copy())
        with pytest.raises(ValueError, match="asymmetry 1.2 "):
            psi.lift(op)
        # nor is a read-only view of a writeable array
        op[0, 1] = 0.0
        view = op.view()
        view.flags.writeable = False
        psi.lift(view)
        op[0, 1] = 5.0
        with pytest.raises(ValueError, match="asymmetry 1.2 "):
            psi.lift(view)
        op[0, 1] = 0.0
        op.flags.writeable = False
        psi.lift(op)
        assert space._invariant[id(op)] is op

    def test_the_identity_cache_keeps_at_most_eight_tables(self):
        # the ninth read-only table clears the cache before it is kept: an
        # asymmetric table is still refused, and an evicted one is checked again
        space = fs.FockSpace(fs.enumerate_basis(4, 3, symmetry=[(3, 2, 1, 0)]), CELL)
        tables = [np.diag([1.0, 2.0 + i, 2.0 + i, 1.0]) for i in range(9)]
        for table in tables:
            table.flags.writeable = False
            space.require_invariant(table, "table")
            assert len(space._invariant) <= 8
        assert len(space._invariant) == 1 and space._invariant[id(tables[-1])] is tables[-1]
        asymmetric = np.diag([1.0, 2.0, 2.0, 1.0])
        asymmetric[0, 1] = 5.0
        asymmetric.flags.writeable = False
        with pytest.raises(ValueError, match="asymmetry 1.2 "):
            space.require_invariant(asymmetric, "table")
        assert id(tables[0]) not in space._invariant
        space.require_invariant(tables[0], "table")
        assert space._invariant[id(tables[0])] is tables[0] and len(space._invariant) == 2

    def test_plane_wave_hop_is_refused(self):
        model = make_model()
        phi0 = default_phi0(model)
        chi = experiments.orthogonal_mode(model, phi0)
        psi = build_product(model, phi0)
        with pytest.raises(ValueError, match="asymmetry"):
            fs.dgamma_apply(model.cell * np.outer(chi, phi0.conj()), psi)

    def test_a_hierarchy_checks_its_tables_once_per_build(self, monkeypatch):
        model = make_model(particles=4, t_final=0.01)
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0)
        looked_up = permutation_lookups(monkeypatch, psi0.space)
        result = correction_error(psi0, phi0, 3, 0.01, model)
        assert all(np.isfinite(result.errors))
        # 40 stages of three kernels in builds of _stage_batch: each build's condensates once,
        # and h0 and the pair table once each
        assert looked_up.count("vector") == -(-40 // hamiltonians._stage_batch(4, 3)) > 1
        assert looked_up.count("table") == 2
        assert "kernel" not in looked_up

    def test_a_hierarchy_stage_makes_five_checks(self, monkeypatch):
        # an order-3 stage: 3 checks as the pair sums admit the build (the
        # pair table, h0 and the build's condensates with their parts), one
        # for the stage's kernel stack and one for h1 in the lift, not one
        # per (op, member) entry
        model = make_model(particles=4)
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0)
        assert psi0.space.basis.generators
        calls, check = [], fs.FockSpace.require_invariant
        monkeypatch.setattr(fs.FockSpace, "require_invariant",
                            lambda space, *args, **kw: calls.append(args[1]) or check(space, *args, **kw))
        pieces = hamiltonians.pieces_at(phi0, 0.0, model)
        entries = hamiltonians.stage_entries([(None, None), (0, None), (None, 0), (1, None)])
        members = psi0.with_amps(np.stack([psi0.amps] * len(entries)))
        assert np.isfinite(hamiltonians.apply_stage(pieces, members, entries).amps).all()
        assert calls == ["table", "table", "vector", "kernel", "table"]

    def test_quadrature_node_pieces_are_checked_by_their_condensate(self, monkeypatch):
        # pieces_at is a one-stage build, so a node's kernels are admitted
        # with its condensate and never checked themselves
        model = make_model(particles=4, t_final=0.02)
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0)
        traj = hartree_evolve(phi0, 0.0, 0.02, model)
        looked_up = permutation_lookups(monkeypatch, psi0.space)
        assert quadrature_Tnk(1, 1, 0.02, psi0, traj, stride=4).norm() > 0.0
        assert looked_up.count("vector") > 0
        assert "kernel" not in looked_up

    def test_the_weights_check_their_projector_once(self, monkeypatch):
        model = make_model(particles=4)
        phi0 = default_phi0(model)
        product = build_product(model, phi0)
        rng = np.random.default_rng(8)
        dim = product.amps.size
        psi = product.with_amps(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        looked_up = permutation_lookups(monkeypatch, psi.space)
        lifts = []
        number_apply = pj.number_apply
        monkeypatch.setattr(pj, "number_apply", lambda state, q: lifts.append(1) or number_apply(state, q))
        weights = pj.spectral_weights(psi, phi0)
        assert weights.total == pytest.approx(psi.norm() ** 2, rel=1e-10)
        # the moment check lifts the projector once, and that lift checks it;
        # the frame transform reads no table of the sector
        assert len(lifts) == 1
        assert looked_up == ["table"]


class TestSectorSpaces:
    def test_states_of_different_sectors_do_not_mix(self):
        model = make_model()
        phi0 = default_phi0(model)
        sector = build_product(model, phi0)
        basis = fs.enumerate_basis(model.config.site_count, model.config.particles)
        site = fs.product_fock(phi0, fs.FockSpace(basis, model.cell))
        assert sector.space.sector != site.space.sector
        assert sector.amps.shape != site.amps.shape
        for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a.inner(b)):
            with pytest.raises(ValueError, match="different sectors"):
                combine(sector, site)
        # a different group of the same order is another sector too
        other = fs.FockSpace(fs.enumerate_basis(4, 3, symmetry=[(2, 1, 0, 3)]), model.cell)
        assert other.basis.dim == sector.space.basis.dim
        with pytest.raises(ValueError, match="different sectors"):
            sector.inner(fs.FockState(np.zeros(other.basis.dim, dtype=complex), other))

    def test_states_of_one_sector_combine_across_builds(self):
        model = make_model()
        phi0 = default_phi0(model)
        a, b = build_product(model, phi0), build_product(model, phi0)
        assert a.space is not b.space
        assert a.inner(b) == pytest.approx(1.0, abs=1e-12)
        assert (a - b).norm() == 0.0

    def test_pickled_sector_space_works(self):
        m, n, gens = SECTORS["2d-d4"]
        space = fs.FockSpace(fs.enumerate_basis(m, n, symmetry=gens), CELL)
        copied = pickle.loads(pickle.dumps(space))
        assert copied.sector == space.sector
        rng = np.random.default_rng(5)
        psi = fs.random_fock(space, rng)
        moved = fs.FockState(psi.amps.copy(), copied)
        mat = symmetrise(rng.standard_normal((m, m)), space.basis.group)
        assert np.array_equal(fs.dgamma_apply(mat, moved).amps, fs.dgamma_apply(mat, psi).amps)
        with pytest.raises(ValueError, match="asymmetry"):
            fs.dgamma_apply(rng.standard_normal((m, m)), moved)


class TestEmbedExtract:
    def test_round_trip_through_the_orbits(self, pair_of_spaces):
        site, sector = pair_of_spaces
        rng = np.random.default_rng(6)
        on_site, on_sector = invariant_state(site, sector, rng)
        tensor = fs.embed(on_sector)
        assert (tensor - fs.embed(on_site)).norm() <= 1e-12
        back = fs.extract(tensor, sector)
        assert np.abs(back.amps - on_sector.amps).max() <= 1e-12

    def test_extract_refuses_a_state_outside_the_sector(self):
        m, n, gens = SECTORS["1d-z2"]
        sector = fs.FockSpace(fs.enumerate_basis(m, n, symmetry=gens), CELL)
        psi = ts.random_symmetric(m, n, CELL, np.random.default_rng(7))
        with pytest.raises(ValueError, match="not invariant"):
            fs.extract(psi, sector)

    def test_product_needs_an_invariant_condensate(self):
        m, n, gens = SECTORS["1d-z2"]
        sector = fs.FockSpace(fs.enumerate_basis(m, n, symmetry=gens), CELL)
        phi = np.array([1.0, 0.5, 0.2, 0.5]) / np.sqrt(CELL * 1.54)
        psi = fs.product_fock(phi, sector)
        assert same_state(psi, fs.product_fock(phi, fs.FockSpace(fs.enumerate_basis(m, n), CELL)))
        with pytest.raises(ValueError, match="asymmetry"):
            fs.product_fock(np.array([1.0, 0.5, 0.2, 0.4]), sector)


class TestSectorChoice:
    @pytest.mark.parametrize("over,order", [({}, 2), ({"potential_kind": "harmonic",
                                                       "potential_strength": 0.3}, 2),
                                             ({"dimension": 2, "sites_per_dim": 3,
                                               "torus_length": 3.0}, 8)])
    def test_symmetric_inputs_run_in_the_sector(self, over, order):
        model = make_model(**over)
        assert len(build_product(model, default_phi0(model)).space.basis.group) == order

    @pytest.mark.parametrize("over,bump,uniform", [({}, (2, 95), (8, 29)),
                                                   ({"dimension": 2, "sites_per_dim": 3,
                                                     "torus_length": 3.0}, (8, 1766), (72, 238))])
    def test_a_uniform_condensate_adds_the_translations(self, over, bump, uniform):
        # (group order, sector dim) at N = 8: the bump keeps the point group,
        # the uniform condensate the translations too
        model = make_model(particles=8, **over)
        for phi, want in ((default_phi0(model), bump), (uniform_phi(model), uniform)):
            basis = build_product(model, phi).space.basis
            assert (len(basis.group), basis.dim) == want

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_excitation_takes_the_site_route(self, d):
        size = 4 if d == 1 else 3
        model = make_model(dimension=d, sites_per_dim=size, torus_length=float(size))
        psi = build_one_excitation(model, default_phi0(model))
        assert len(psi.space.basis.group) == 1

    def test_random_condensate_takes_the_site_route(self):
        model = make_model()
        rng = np.random.default_rng(8)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi /= np.sqrt(model.cell * np.vdot(phi, phi).real)
        assert len(build_product(model, phi).space.basis.group) == 1

    @pytest.mark.parametrize("table", [[0.0, 0.1, 0.3, 0.2], [0.0, 0.1, 0.3, 0.1]])
    def test_tabulated_potential_takes_the_site_route(self, table):
        # the first table is asymmetric, the second symmetric: a tabulated
        # potential changes in time, so it is never trusted
        times = (0.0, 1.0)
        model = make_model(potential_kind="tabulated", potential_table=(times, (table, table)))
        assert len(build_product(model, default_phi0(model)).space.basis.group) == 1

    def test_asymmetric_pair_table_takes_the_site_route(self):
        # an even table, as every valid one is, that no axis reflection and
        # not the axis swap leaves invariant
        samples = (0.0, 0.2, 0.2, 0.5, 0.3, 0.1, 0.5, 0.1, 0.3)
        model = make_model(dimension=2, sites_per_dim=3, torus_length=3.0,
                           interaction_profile="tabulated", interaction_samples=samples)
        assert len(build_product(model, default_phi0(model)).space.basis.group) == 1


def relative_match(got, want, floor=0.0):
    """1e-10 absolute and, from ``floor`` on, 1e-6 relative."""
    assert abs(got - want) <= 1e-10
    assert abs(want) < floor or abs(got - want) <= 1e-6 * abs(want)


class TestSiteRouteAgreement:
    def test_uniform_condensate_weights_match(self):
        model = make_model(particles=8, t_final=0.02)
        phi0 = uniform_phi(model)
        traj = hartree_evolve(phi0, 0.0, 0.02, model)
        sector_psi0 = build_product(model, phi0)
        assert len(sector_psi0.space.basis.group) == 8
        sector = evolve_aux(sector_psi0, 0.0, 0.02, traj)
        basis = fs.enumerate_basis(model.config.site_count, model.config.particles)
        site = evolve_aux(fs.product_fock(phi0, fs.FockSpace(basis, model.cell)), 0.0, 0.02, traj)
        assert same_state(sector, site, 1e-11)
        phi = traj.phis[-1]
        for got, want in zip(pj.spectral_weights(sector, phi).weights,
                             pj.spectral_weights(site, phi).weights):
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("over", [{"particles": 6}, {"dimension": 2, "sites_per_dim": 3,
                                                          "torus_length": 3.0, "correction_order": 2}])
    def test_correction_error_matches(self, over):
        model = make_model(**over)
        phi0 = default_phi0(model)
        order = model.config.correction_order
        sector = correction_error(build_product(model, phi0), phi0, order, 0.02, model)
        basis = fs.enumerate_basis(model.config.site_count, model.config.particles)
        site = correction_error(fs.product_fock(phi0, fs.FockSpace(basis, model.cell)), phi0, order, 0.02, model)
        for got, want in zip(sector.errors + sector.correction_norms,
                             site.errors + site.correction_norms):
            relative_match(got, want)
        for key, want in site.term_norms.items():
            assert abs(sector.term_norms[key] - want) <= 1e-10

    def test_weights_and_interaction_match(self):
        model = make_model(particles=8, t_final=0.05)
        phi0 = default_phi0(model)
        sector = evolve_full(build_product(model, phi0), 0.05, model)
        basis = fs.enumerate_basis(model.config.site_count, model.config.particles)
        site = evolve_full(fs.product_fock(phi0, fs.FockSpace(basis, model.cell)), 0.05, model)
        assert same_state(sector, site, 1e-11)
        # the full generator, pair interaction included, on both routes
        assert same_state(hamiltonians.apply_H(0.05, sector, model), hamiltonians.apply_H(0.05, site, model),
                          1e-11)
        for got, want in zip(pj.spectral_weights(sector, phi0).weights,
                             pj.spectral_weights(site, phi0).weights):
            assert abs(got - want) <= 1e-12


SYMMETRIC_CFG = """
dimension = 1
sites_per_dim = 4
torus_length = 4.0
particles = 5
interaction.profile = bump
interaction.amplitude = 0.5
interaction.radius = 1.5
potential.kind = harmonic
potential.strength = 0.2
t_final = 0.02
dt = 0.001
order = 2
"""


@pytest.fixture()
def symmetric_cfg(tmp_path):
    path = tmp_path / "symmetric.cfg"
    path.write_text(SYMMETRIC_CFG)
    return str(path)


def site_route(monkeypatch):
    monkeypatch.setattr(experiments, "_symmetry", lambda model, phi0: ())


class TestCommandLine:
    @pytest.mark.parametrize("args", [["correct"], ["moments"],
                                      ["evolve", "--observable", "weights", "--every", "5"]])
    def test_outputs_match_the_site_route(self, symmetric_cfg, tmp_path, monkeypatch, args):
        def run(name):
            out = tmp_path / name
            assert main([*args, "--config", symmetric_cfg, "--out", str(out)]) == 0
            return out.read_text().splitlines()

        sector = run("sector.csv")
        site_route(monkeypatch)
        site = run("site.csv")
        assert len(sector) == len(site) and sector[0] == site[0]
        for got, want in zip(sector[1:], site[1:]):
            for a, b in zip(got.split(","), want.split(",")):
                try:
                    relative_match(float(a), float(b), floor=1e-12)
                except ValueError:
                    assert a == b

    def test_snapshot_is_written_in_the_site_basis(self, symmetric_cfg, tmp_path, monkeypatch):
        sector_snap, site_snap = tmp_path / "sector.blab", tmp_path / "site.blab"
        assert main(["evolve", "--config", symmetric_cfg, "--save", str(sector_snap)]) == 0
        loaded, _, _ = load_state(sector_snap)
        assert len(loaded.space.basis.group) == 1
        assert loaded.amps.shape == (fs.enumerate_basis(4, 5).dim,)
        site_route(monkeypatch)
        assert main(["evolve", "--config", symmetric_cfg, "--save", str(site_snap)]) == 0
        assert np.abs(loaded.amps - load_state(site_snap)[0].amps).max() <= 1e-7
        # --load of the sector snapshot reproduces the site run from it
        outs = []
        for snap in (sector_snap, site_snap):
            out = tmp_path / f"{snap.stem}.csv"
            assert main(["evolve", "--config", symmetric_cfg, "--load", str(snap),
                         "--observable", "weights", "--every", "10", "--out", str(out)]) == 0
            outs.append(np.loadtxt(out, delimiter=",", skiprows=1))
        assert np.abs(outs[0] - outs[1]).max() <= 1e-6

    def test_save_expands_through_the_orbits(self, tmp_path):
        m, n, gens = SECTORS["1d-z2"]
        site = fs.FockSpace(fs.enumerate_basis(m, n), 1.0)
        sector = fs.FockSpace(fs.enumerate_basis(m, n, symmetry=gens), 1.0)
        on_site, on_sector = invariant_state(site, sector, np.random.default_rng(9))
        path = tmp_path / "state.blab"
        save_state(path, on_sector, dimension=1, sites_per_dim=m)
        loaded, _, _ = load_state(path)
        assert np.abs(loaded.amps - on_site.amps).max() <= 1e-6

    def test_sweep_jobs_give_the_same_rows(self, symmetric_cfg, tmp_path, capsys):
        csvs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"sweep{jobs}.csv"
            assert main(["sweep", "--config", symmetric_cfg, "--grid", "N=3,4,5", "--orders", "1,2",
                         "--jobs", jobs, "--out", str(out)]) == 0
            csvs.append([row.rsplit(",", 1)[0] for row in out.read_text().splitlines()])
        assert csvs[0] == csvs[1]
