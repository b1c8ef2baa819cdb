import dataclasses
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bosonlab import fockstate as fs
from bosonlab import hamiltonians
from bosonlab import tensorstate as ts
from bosonlab.errors import ConfigError
from bosonlab.hamiltonians import (
    apply_C,
    apply_H,
    apply_Htilde,
    apply_Q,
    apply_stage,
    decomposition_residual,
    pieces_at,
    projected_pair_sum,
    stage_entries,
)
from bosonlab.duhamel import hierarchy_indices
from bosonlab.meanfield import condensate_at, one_body_norm
from bosonlab.model import build_model, validate_config
from bosonlab import duhamel
from bosonlab.experiments import build_product, default_phi0
from test_fockstate import fold_oracle, ordered_kernel_oracle
from test_sector import lattice


def make_model(**over):
    raw = {
        "dimension": 1,
        "sites_per_dim": 3,
        "torus_length": 3.0,
        "particles": 3,
        "interaction_amplitude": 0.7,
        "interaction_radius": 1.4,
        "dt": 1e-3,
        "t_final": 0.1,
    }
    raw.update(over)
    return build_model(validate_config(raw))


def block(states):
    """The block of states of one representation, one row per state."""
    return states[0].with_amps(np.stack([psi.amps for psi in states]))


def rows(members):
    """The rows of a block as states."""
    return [members.with_amps(amps) for amps in members.amps]


def random_phi(model, rng):
    m = model.config.site_count
    phi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return phi / one_body_norm(phi, model.cell)


def dense_h_matrix(model, t=0.0):
    """Explicit kron-built Hamiltonian matrix; only viable at tiny sizes."""
    m = model.config.site_count
    n = model.config.particles
    h0 = model.h0(t)
    eye = np.eye(m)
    dim = m**n
    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(n):
        factors = [h0 if i == j else eye for i in range(n)]
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        mat += term
    w = model.pair
    for i in range(n):
        for j in range(i + 1, n):
            # v_ij is diagonal on the grid; assemble it index-wise
            term = np.zeros((dim, dim), dtype=complex)
            for a in range(dim):
                digits = np.unravel_index(a, (m,) * n)
                term[a, a] = w[digits[i], digits[j]]
            mat += term / (n - 1)
    return mat


class TestApplyH:
    def test_free_plane_wave_eigenstate(self):
        model = make_model(interaction_profile="zero")
        wave = np.exp(2j * np.pi * np.arange(3) / 3).astype(complex)
        wave /= one_body_norm(wave, model.cell)
        eps = (2 - 2 * np.cos(2 * np.pi / 3)) / model.config.spacing**2
        prod = ts.product_state(wave, 3, model.cell)
        out = apply_H(0.0, prod, model)
        assert (out - (3 * eps) * prod).norm() <= 1e-11

    def test_hermitian(self):
        model = make_model()
        rng = np.random.default_rng(0)
        a = ts.random_symmetric(3, 3, model.cell, rng)
        b = ts.random_symmetric(3, 3, model.cell, rng)
        lhs = b.inner(apply_H(0.0, a, model))
        rhs = apply_H(0.0, b, model).inner(a)
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_matches_dense_matrix_oracle(self):
        model = make_model(potential_kind="harmonic", potential_strength=0.4)
        rng = np.random.default_rng(1)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        dense = dense_h_matrix(model)
        expect = (dense @ psi.amps.ravel()).reshape(psi.amps.shape)
        out = apply_H(0.0, psi, model)
        assert np.abs(out.amps - expect).max() <= 1e-11


def generator_oracle(t, state, model):
    """The ladder lift of h0(t) plus the pair diagonal over N - 1, counted
    pair by pair: n_r n_s w_rs for each r < s and n_r (n_r - 1) / 2 w_rr."""
    n = state.particles
    out = fs.dgamma_apply(model.h0(t), state).amps
    if n >= 2 and not model.free:
        occ, w = state.space.basis.occupations.astype(float), model.pair
        pairs = np.einsum("br,rs,bs->b", occ, np.triu(w, 1), occ) + (occ * (occ - 1) / 2) @ np.diag(w)
        out = out + pairs * state.amps / (n - 1)
    return out


def random_block(space, rng, members=()):
    shape = (*members, space.basis.dim)
    return fs.FockState(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), space)


def assert_generator_matches(t, state, model):
    want = generator_oracle(t, state, model)
    got = apply_H(t, state, model).amps
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# (config overrides, particles, symmetry generators or None for the plain basis);
# the harmonic potential is invariant under the lattice symmetries
GENERATOR_SPACES = {
    "1d-plain": ({}, 5, None),
    "1d-z2": ({}, 5, lattice(4, 1)),
    "1d-z2-n16": ({}, 16, lattice(4, 1)),
    "2d-d4": ({"dimension": 2, "sites_per_dim": 3, "torus_length": 3.0}, 4, lattice(3, 2)),
    "1d-n1": ({}, 1, lattice(4, 1)),
    "1d-n2": ({}, 2, None),
    "2d-n2": ({"dimension": 2, "sites_per_dim": 3, "torus_length": 3.0}, 2, lattice(3, 2)),
}


def generator_setup(name, **extra):
    over, n, gens = GENERATOR_SPACES[name]
    model = make_model(**{"sites_per_dim": 4, "torus_length": 4.0, "particles": n,
                          "potential_kind": "harmonic", "potential_strength": 0.7, **over, **extra})
    m = model.config.site_count
    symmetry = () if gens is None else gens
    return model, fs.FockSpace(fs.enumerate_basis(m, n, symmetry=symmetry), model.cell)


class TestGeneratorTable:
    """The occupation route of ``apply_H``: one gather through the table of
    ``fockstate.generator_table``, against the ladder lift of h0 plus the
    pair diagonal."""

    @pytest.mark.parametrize("name", list(GENERATOR_SPACES))
    def test_matches_ladder_oracle(self, name):
        model, space = generator_setup(name)
        rng = np.random.default_rng(5)
        assert_generator_matches(0.0, random_block(space, rng), model)
        assert_generator_matches(0.0, random_block(space, rng, (3,)), model)

    @pytest.mark.parametrize("name", ["1d-plain", "1d-z2", "2d-d4"])
    def test_zero_pair_table(self, name):
        model, space = generator_setup(name, interaction_profile="zero")
        assert_generator_matches(0.0, random_block(space, np.random.default_rng(6)), model)

    def test_duplicate_sources_merge(self):
        # on the sector, hops to mirror images land in one orbit; each output
        # keeps one slot per distinct source, and the diagonal in slot 0
        model, space = generator_setup("1d-z2-n16")
        sources, values = fs.generator_table(space, model.h0(0.0), model.pair, 1 / 15)
        assert sources.shape == values.shape == (9, space.basis.dim)
        assert (sources[0] == np.arange(space.basis.dim)).all()
        hops = sources[1:]
        for u in range(space.basis.dim):
            used = hops[values[1:, u] != 0, u]
            assert len(set(used.tolist())) == len(used)

    def test_tabulated_potential_refreshes_the_diagonal(self):
        rng = np.random.default_rng(7)
        table = tuple(tuple(row) for row in 3.0 * rng.random((2, 4)))
        model, space = generator_setup("1d-plain", potential_kind="tabulated", potential_strength=0.0,
                                       potential_table=((0.0, 0.1), table))
        psi = random_block(space, rng)
        tables = []
        for t in (0.02, 0.07, 0.02):
            assert_generator_matches(t, psi, model)
            tables.append(space._generator[1])
        # the hop slots are built once and kept
        assert tables[0] is tables[1] is tables[2]

    def test_new_tables_rebuild_the_cache(self):
        model, space = generator_setup("1d-z2")
        psi = random_block(space, np.random.default_rng(8))
        assert_generator_matches(0.0, psi, model)
        sources = space._generator[1]
        # a new pair table on the same h0: only the diagonal is rebuilt
        stronger = dataclasses.replace(model, pair=make_model(
            sites_per_dim=4, torus_length=4.0, particles=5, interaction_amplitude=2.0).pair)
        assert_generator_matches(0.0, psi, stronger)
        assert space._generator[1] is sources
        # an h0 whose off-diagonal has other values: the hops are rebuilt
        steeper = dataclasses.replace(model, lap=2.0 * model.lap)
        assert_generator_matches(0.0, psi, steeper)
        assert space._generator[1] is not sources
        assert_generator_matches(0.0, psi, model)

    def test_a_table_changed_in_place_is_read_again(self):
        # a writeable h0 or pair table is not known by identity: the generator
        # follows its new values, as a fresh copy of them gives
        model, space = generator_setup("1d-plain")
        psi = random_block(space, np.random.default_rng(12))
        h0, pair = model.h0(0.0).copy(), model.pair.copy()
        first = psi.generator(h0, pair, 0.0).amps
        h0[0, 0] = 7.0
        moved = psi.generator(h0, pair, 0.0).amps
        assert not np.allclose(moved, first)
        assert np.array_equal(moved, psi.generator(h0.copy(), pair, 0.0).amps)
        pair[0, 1] = pair[1, 0] = 3.0
        coupled = psi.generator(h0, pair, 0.25).amps
        assert np.array_equal(coupled, psi.generator(h0.copy(), pair.copy(), 0.25).amps)
        assert space._generator[3] is space._generator[4] is None

    def test_non_invariant_hops_on_a_sector_raise(self):
        model, space = generator_setup("1d-z2")
        lap = model.lap.copy()
        lap[0, 1] = lap[1, 0] = -3.0  # site 1 mirrors site 3, whose hops stay -1
        tilted = dataclasses.replace(model, lap=lap)
        psi = random_block(space, np.random.default_rng(9))
        with pytest.raises(ValueError, match="asymmetry"):
            apply_H(0.0, psi, tilted)
        with pytest.raises(ValueError, match="asymmetry"):
            fs.generator_table(space, tilted.h0(0.0), model.pair, 0.25)

    def test_fock_and_tensor_generators_agree(self):
        # h0 alone gives the hops: a harmonic h0 builds the hop slots, a
        # tabulated h0 with the same off-diagonal keeps them at every time,
        # and an h0 from a scaled Laplacian rebuilds them
        rng = np.random.default_rng(11)
        table = tuple(tuple(row) for row in 3.0 * rng.random((2, 4)))
        harmonic, space = generator_setup("1d-plain")
        tabulated, _ = generator_setup("1d-plain", potential_kind="tabulated", potential_strength=0.0,
                                       potential_table=((0.0, 0.1), table))
        psi = random_block(space, rng)
        tensor = fs.embed(psi)

        def hop_slots(h0):
            want = fs.extract(tensor.generator(h0, harmonic.pair, 0.25), space).amps
            got = psi.generator(h0, harmonic.pair, 0.25).amps
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            return space._generator[1]

        first = hop_slots(harmonic.h0(0.0))
        assert hop_slots(tabulated.h0(0.02)) is first
        assert hop_slots(tabulated.h0(0.07)) is first
        assert hop_slots(2.0 * harmonic.lap) is not first

    def test_pickled_space_rebuilds_its_table(self):
        model, space = generator_setup("2d-d4")
        psi = random_block(space, np.random.default_rng(10))
        first = apply_H(0.0, psi, model).amps
        copy = pickle.loads(pickle.dumps(space))
        assert copy._generator[0] is None
        moved = psi.with_amps(psi.amps.copy())
        moved.space = copy
        assert_generator_matches(0.0, moved, model)
        assert np.array_equal(apply_H(0.0, moved, model).amps, first)

    def test_free_correction_takes_the_hierarchy_lead(self, monkeypatch):
        # with a zero pair table Htilde = H, so no second evolution runs and
        # every error is exactly zero
        model = make_model(interaction_profile="zero", sites_per_dim=4, torus_length=4.0)
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0)

        def refuse(*args, **kwargs):
            raise AssertionError("evolve_full ran")

        monkeypatch.setattr(duhamel, "evolve_full", refuse)
        res = duhamel.correction_error(psi0, phi0, 3, 0.02, model)
        assert res.errors == (0.0, 0.0, 0.0)
        assert res.error_sq == 0.0
        assert all(norm > 0.0 for norm in res.correction_norms)


class TestApplyHtilde:
    def test_reduces_to_one_body_when_free(self):
        model = make_model(interaction_profile="zero")
        rng = np.random.default_rng(2)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        pieces = pieces_at(phi, 0.0, model)
        out = apply_Htilde(pieces, psi)
        expect = ts.apply_one_body_sum(model.h0(0.0), psi)
        assert (out - expect).norm() <= 1e-12

    def test_hermitian(self):
        model = make_model()
        rng = np.random.default_rng(3)
        phi = random_phi(model, rng)
        pieces = pieces_at(phi, 0.0, model)
        a = ts.random_symmetric(3, 3, model.cell, rng)
        b = ts.random_symmetric(3, 3, model.cell, rng)
        lhs = b.inner(apply_Htilde(pieces, a))
        rhs = apply_Htilde(pieces, b).inner(a)
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_matches_slot_chain_oracle(self):
        model = make_model()
        rng = np.random.default_rng(4)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        pieces = pieces_at(phi, 0.0, model)
        p, q = ts.projector_matrices(phi, model.cell)
        m, n = 3, 3
        w2 = np.zeros((m * m, m * m), dtype=complex)
        for r in range(m):
            for s in range(m):
                w2[r * m + s, r * m + s] = model.pair[r, s]
        acc = ts.apply_one_body_sum(pieces.h1, psi)
        for i in range(n):
            for j in range(i + 1, n):
                for left_i, left_j, right_i, right_j in (
                    (p, q, q, p), (q, p, p, q), (p, p, q, q), (q, q, p, p),
                ):
                    mat = np.kron(left_i, left_j) @ w2 @ np.kron(right_i, right_j)
                    acc = acc + (1.0 / (n - 1)) * ts.apply_two_slot(mat, i, j, psi)
        out = apply_Htilde(pieces, psi)
        assert (out - acc).norm() <= 1e-12


class TestRemainders:
    def test_quartic_annihilates_product(self):
        model = make_model()
        rng = np.random.default_rng(5)
        phi = random_phi(model, rng)
        prod = ts.product_state(phi, 3, model.cell)
        pieces = pieces_at(phi, 0.0, model)
        assert apply_Q(pieces, prod).norm() <= 1e-12

    def test_free_interaction_zeroes_both(self):
        model = make_model(interaction_profile="zero")
        rng = np.random.default_rng(6)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        pieces = pieces_at(phi, 0.0, model)
        assert apply_C(pieces, psi).norm() == 0.0
        assert apply_Q(pieces, psi).norm() == 0.0

    def test_match_slot_chain_oracles(self):
        model = make_model()
        rng = np.random.default_rng(7)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        pieces = pieces_at(phi, 0.0, model)
        p, q = ts.projector_matrices(phi, model.cell)
        cond = condensate_at(phi, 0.0, model)
        z_no_mu = model.pair - cond.vbar[:, None] - cond.vbar[None, :]
        z = z_no_mu + 2.0 * cond.mu
        m, n = 3, 3
        z2 = np.zeros((m * m, m * m), dtype=complex)
        z2_nm = np.zeros_like(z2)
        for r in range(m):
            for s in range(m):
                z2[r * m + s, r * m + s] = z[r, s]
                z2_nm[r * m + s, r * m + s] = z_no_mu[r, s]
        acc_c = 0.0 * psi
        acc_q = 0.0 * psi
        for i in range(n):
            for j in range(i + 1, n):
                for left_i, left_j, right_i, right_j in (
                    (q, q, q, p), (q, q, p, q), (q, p, q, q), (p, q, q, q),
                ):
                    mat = np.kron(left_i, left_j) @ z2_nm @ np.kron(right_i, right_j)
                    acc_c = acc_c + (1.0 / (n - 1)) * ts.apply_two_slot(mat, i, j, psi)
                mat_q = np.kron(q, q) @ z2 @ np.kron(q, q)
                acc_q = acc_q + (1.0 / (n - 1)) * ts.apply_two_slot(mat_q, i, j, psi)
        assert (apply_C(pieces, psi) - acc_c).norm() <= 1e-12
        assert (apply_Q(pieces, psi) - acc_q).norm() <= 1e-12

    def test_hermitian_and_symmetry_preserving(self):
        model = make_model()
        rng = np.random.default_rng(8)
        phi = random_phi(model, rng)
        pieces = pieces_at(phi, 0.0, model)
        a = ts.random_symmetric(3, 3, model.cell, rng)
        b = ts.random_symmetric(3, 3, model.cell, rng)
        for op in (apply_C, apply_Q):
            lhs = b.inner(op(pieces, a))
            rhs = op(pieces, b).inner(a)
            assert lhs == pytest.approx(rhs, abs=1e-11)
            assert ts.transposition_residual(op(pieces, a)) <= 1e-11

    def test_single_particle_rejected(self):
        model = make_model(particles=1)
        rng = np.random.default_rng(9)
        phi = random_phi(model, rng)
        psi = ts.product_state(phi, 1, model.cell)
        pieces = pieces_at(phi, 0.0, model)
        with pytest.raises(ConfigError):
            apply_Htilde(pieces, psi)


class TestDecomposition:
    @pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (3, 4), (5, 3)])
    def test_residual_random_states(self, n, m):
        model = make_model(sites_per_dim=m, torus_length=float(m), particles=n)
        rng = np.random.default_rng(100 + n + m)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(m, n, model.cell, rng)
        assert decomposition_residual(phi, 0.0, psi, model) <= 1e-10

    def test_residual_free_case(self):
        model = make_model(interaction_profile="zero")
        rng = np.random.default_rng(10)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        assert decomposition_residual(phi, 0.0, psi, model) <= 1e-13

    def test_residual_on_condensate(self):
        model = make_model()
        rng = np.random.default_rng(11)
        phi = random_phi(model, rng)
        prod = ts.product_state(phi, 3, model.cell)
        assert decomposition_residual(phi, 0.0, prod, model) <= 1e-10

    def test_residual_in_occupation_basis(self):
        model = make_model()
        rng = np.random.default_rng(12)
        phi = random_phi(model, rng)
        space = fs.FockSpace(fs.enumerate_basis(3, 3), model.cell)
        psi = fs.random_fock(space, rng)
        assert decomposition_residual(phi, 0.0, psi, model) <= 1e-10

    @pytest.mark.parametrize("n", [2, 4])
    def test_residual_in_occupation_basis_on_2d_lattice(self, n):
        model = make_model(dimension=2, sites_per_dim=3, torus_length=3.0, particles=n)
        rng = np.random.default_rng(24 + n)
        phi = random_phi(model, rng)
        space = fs.FockSpace(fs.enumerate_basis(9, n), model.cell)
        psi = fs.random_fock(space, rng)
        assert decomposition_residual(phi, 0.0, psi, model) <= 1e-10

    def test_residual_on_2d_lattice(self):
        model = make_model(dimension=2, sites_per_dim=2, torus_length=2.0, particles=3)
        rng = np.random.default_rng(21)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(4, 3, model.cell, rng)
        assert decomposition_residual(phi, 0.0, psi, model) <= 1e-10


class TestProjectedPairSum:
    def test_occupation_primitive_matches_tensor_route(self):
        # Non-Hermitian tables and non-symmetric kernels, so that an (r, s)
        # transposition in either route shows; two weighted terms, so that
        # the summed occupation kernel is checked as well.
        model = make_model(dimension=2, sites_per_dim=2, torus_length=2.0, particles=3)
        rng = np.random.default_rng(22)
        m = model.config.site_count

        def table():
            return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))

        a, c, b, d = (table() for _ in range(4))
        kernel = model.pair + rng.standard_normal((m, m))
        psi = ts.random_symmetric(m, 3, model.cell, rng)
        second = (0.5, model.pair + rng.standard_normal((m, m)), table(), table(), table(), table())
        terms = ((1.0, kernel, a, c, b, d), second)
        # pieces of one operator: its terms for the tensor grid, their folded
        # kernel at scale 1 for the occupation basis; neither route applies
        # the 1/(N-1) of the pair terms; no build tables to admit
        pieces = SimpleNamespace(terms=(terms,), kernels=fold_oracle(ordered_kernel_oracle(terms, 1.0), m)[None],
                                 batch=())
        space = fs.FockSpace(fs.enumerate_basis(m, 3), model.cell)
        (tensor,) = rows(projected_pair_sum(block([psi]), pieces, [[(0, 0)]]))
        (fock,) = rows(projected_pair_sum(block([fs.extract(psi, space)]), pieces, [[(0, 0)]]))
        assert np.abs(fs.embed(fock).amps - tensor.amps).max() <= 1e-11

    def test_kernel_built_once_per_pieces(self, monkeypatch):
        # pieces_at builds the kernels once; applies on any N build none
        model = make_model()
        rng = np.random.default_rng(23)
        builds, build = [], hamiltonians._ladder_kernels

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(hamiltonians, "_ladder_kernels", counting)
        pieces = pieces_at(random_phi(model, rng), 0.0, model)
        assert len(builds) == 1 and builds[0][2] == 3  # a one-stage build makes all three
        entries = stage_entries([(None, None), (0, None), (None, 0)])
        for n in (3, 3, 4):
            space = fs.FockSpace(fs.enumerate_basis(3, n), model.cell)
            apply_stage(pieces, block([fs.random_fock(space, rng) for _ in range(3)]), entries)
        assert len(builds) == 1


class TestPieces:
    def test_projector_completeness(self):
        model = make_model()
        rng = np.random.default_rng(14)
        phi = random_phi(model, rng)
        p, q = ts.projector_matrices(condensate_at(phi, 0.0, model).phi, model.cell)
        assert np.abs(p + q - np.eye(3)).max() <= 1e-14

    def test_cross_representation_agreement(self):
        model = make_model()
        rng = np.random.default_rng(15)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        space = fs.FockSpace(fs.enumerate_basis(3, 3), model.cell)
        fpsi = fs.extract(psi, space)
        pieces = pieces_at(phi, 0.0, model)
        for op in (
            lambda s: apply_H(0.0, s, model),
            lambda s: apply_Htilde(pieces, s),
            lambda s: apply_C(pieces, s),
            lambda s: apply_Q(pieces, s),
        ):
            assert (op(psi) - fs.embed(op(fpsi))).norm() <= 1e-11


class TestStageBatch:
    @pytest.mark.parametrize("kernels", [1, 2, 3])
    @pytest.mark.parametrize("dimension,size", [(1, 4), (2, 3)], ids=["M4", "M9"])
    def test_build_peak_stays_within_the_bound(self, dimension, size, kernels):
        # tracemalloc's peak over one stage_pieces build of the batch that
        # _stage_batch chooses for the kernel count; the warm-up build makes
        # the lattice's plan, which outlives the build
        model = make_model(dimension=dimension, sites_per_dim=size, torus_length=float(size))
        batch = hamiltonians._stage_batch(model.config.site_count, kernels)
        phis = default_phi0(model) * np.linspace(1.0, 1.5, batch)[:, None]
        cond = condensate_at(phis, np.zeros(batch), model)
        hamiltonians.stage_pieces(cond, model, kernels)
        tracemalloc.start()
        try:
            pieces = hamiltonians.stage_pieces(cond, model, kernels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pieces) == batch and all(len(piece.kernels) == kernels for piece in pieces)
        assert peak <= hamiltonians.STAGE_BATCH_BYTES


class TestApplyStage:
    """The stage right-hand side against the tensor route's per-operator sum
    apply_Htilde psi_i + apply_C psi_c(i) + apply_Q psi_q(i); occupation
    stages are compared through ``fs.embed``, so that the per-operator applies
    are not the stage path itself."""

    @staticmethod
    def stage(model, rep, rng):
        m, n = model.config.site_count, model.config.particles
        phi = 1.7 * random_phi(model, rng)  # a stage phi need not be normalised
        pieces = pieces_at(phi, 0.3, model)
        indices = hierarchy_indices(4)
        pos = {key: i for i, key in enumerate(indices)}
        sources = [(pos.get((a - 1, k - 1)), pos.get((a - 1, k - 2))) for a, k in indices]
        assert sources[pos[(2, 3)]] == (pos[(1, 2)], pos[(1, 1)])
        if rep == "tensor":
            members = [ts.random_symmetric(m, n, model.cell, rng) for _ in indices]
        else:
            space = fs.FockSpace(fs.enumerate_basis(m, n), model.cell)
            members = [fs.random_fock(space, rng) for _ in indices]
        return pieces, block(members), sources

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    @pytest.mark.parametrize("lattice", ["1d-4", "2d-3x3"])
    def test_matches_per_operator_sum(self, lattice, rep):
        if lattice == "1d-4":
            model = make_model(sites_per_dim=4, torus_length=4.0, particles=4)
        else:
            model = make_model(dimension=2, sites_per_dim=3, torus_length=3.0, particles=3)
        rng = np.random.default_rng(80)
        pieces, members, sources = self.stage(model, rep, rng)
        out = apply_stage(pieces, members, stage_entries(sources))
        assert out.amps.shape == members.amps.shape
        out, members = rows(out), rows(members)
        if rep == "fock":
            out, members = [fs.embed(got) for got in out], [fs.embed(psi) for psi in members]
        for got, psi, (c, q) in zip(out, members, sources):
            acc = apply_Htilde(pieces, psi)
            if c is not None:
                acc = acc + apply_C(pieces, members[c])
            if q is not None:
                acc = acc + apply_Q(pieces, members[q])
            assert (got - acc).norm() <= 1e-12 * acc.norm()

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_free_interaction_is_the_exact_lift(self, rep):
        model = make_model(sites_per_dim=4, torus_length=4.0, particles=4, interaction_profile="zero")
        rng = np.random.default_rng(81)
        pieces, members, sources = self.stage(model, rep, rng)
        out = apply_stage(pieces, members, stage_entries(sources))
        for got, psi in zip(rows(out), rows(members)):
            assert np.array_equal(got.amps, apply_Htilde(pieces, psi).amps)

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_single_particle_rejected(self, rep):
        model = make_model(particles=1)
        rng = np.random.default_rng(82)
        phi = random_phi(model, rng)
        if rep == "tensor":
            psi = ts.product_state(phi, 1, model.cell)
        else:
            psi = fs.product_fock(phi, fs.FockSpace(fs.enumerate_basis(3, 1), model.cell))
        with pytest.raises(ConfigError):
            apply_stage(pieces_at(phi, 0.0, model), block([psi]), stage_entries([(None, None)]))


class TestMalformedEntries:
    """Entries that name no operator the pieces hold, no member of the block,
    or Htilde other than first on the row's own member in every row or in
    none, are refused with a ``ValueError`` naming the row, on both
    representations: each of them would otherwise return a wrong number,
    such as h1 lifted over a member whose row names only C."""

    @staticmethod
    def pieces_and_block(rep, members=2):
        model = make_model(sites_per_dim=4, torus_length=4.0, particles=4)
        rng = np.random.default_rng(90)
        pieces = pieces_at(random_phi(model, rng), 0.0, model)
        if rep == "tensor":
            states = [ts.random_symmetric(4, 4, model.cell, rng) for _ in range(members)]
        else:
            space = fs.FockSpace(fs.enumerate_basis(4, 4), model.cell)
            states = [fs.random_fock(space, rng) for _ in range(members)]
        return pieces, block(states)

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    @pytest.mark.parametrize("entries,row", [
        ((((0, 0),), ((1, 0),)), 1),  # Htilde lifted over row 0 only
        ((((1, 0),), ((0, 1),)), 1),  # Htilde in a later row only
        ((((0, 1),), ((0, 0),)), 0),  # Htilde on another member
        ((((0, 0), (0, 1)), ((0, 1),)), 0),  # a second Htilde entry
        ((((0, 0),), ((0, 1), (3, 0))), 1),  # no fourth operator
        ((((0, 0),), ((0, 1), (-1, 0))), 1),  # a negative operator
        ((((0, 0),), ((0, 1), (1, 2))), 1),  # a member past the block
        ((((0, 0),), ((0, 1), (1, -1))), 1),  # a negative member
    ], ids=["lifted-row-0-only", "htilde-later", "htilde-other-member", "second-htilde",
            "operator-3", "operator-minus-1", "member-2", "member-minus-1"])
    def test_apply_stage_names_the_row(self, rep, entries, row):
        pieces, members = self.pieces_and_block(rep)
        with pytest.raises(ValueError, match=f"row {row} "):
            apply_stage(pieces, members, entries)

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_apply_stage_needs_one_row_per_member(self, rep):
        pieces, members = self.pieces_and_block(rep)
        with pytest.raises(ValueError, match="1 stage entry rows for a block of 2 members"):
            apply_stage(pieces, members, (((0, 0),),))

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_apply_stage_refuses_an_empty_block(self, rep):
        pieces, members = self.pieces_and_block(rep)
        empty = members.with_amps(members.amps[:0])
        with pytest.raises(ValueError, match="at least one member"):
            apply_stage(pieces, empty, ())

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_an_operator_the_build_did_not_make_is_refused(self, rep):
        # an auxiliary-flow build holds Htilde alone, on both representations
        model = make_model(sites_per_dim=4, torus_length=4.0, particles=4)
        _, members = self.pieces_and_block(rep)
        cond = condensate_at(default_phi0(model)[None], np.zeros(1), model)
        (pieces,) = hamiltonians.stage_pieces(cond, model, 1)
        with pytest.raises(ValueError, match="row 1 "):
            apply_stage(pieces, members, stage_entries([(None, None), (0, None)]))

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_pair_sums_refuse_an_operator_the_build_did_not_make(self, rep):
        # the tensor grid's terms hold all three operators, but a one-kernel
        # build made Htilde alone, so Q is refused there as well
        model = make_model(sites_per_dim=4, torus_length=4.0, particles=4)
        _, members = self.pieces_and_block(rep)
        cond = condensate_at(default_phi0(model)[None], np.zeros(1), model)
        (pieces,) = hamiltonians.stage_pieces(cond, model, 1)
        with pytest.raises(ValueError, match=r"row 1 .* needs operators in 0\.\.0"):
            projected_pair_sum(members, pieces, [[(0, 0)], [(2, 0)]])

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    @pytest.mark.parametrize("entry", [(-1, 0), (3, 0), (1, -1), (1, 2)])
    def test_pair_sums_name_the_row(self, rep, entry):
        pieces, members = self.pieces_and_block(rep)
        with pytest.raises(ValueError, match="row 1 "):
            projected_pair_sum(members, pieces, [[(1, 0)], [entry]])

    def test_two_body_sums_refuse_a_member_index_that_would_wrap(self):
        pieces, members = self.pieces_and_block("fock")
        with pytest.raises(ValueError, match="row 0 "):
            fs.two_body_sums(members, pieces.kernels, [[(1, -1)]])
        with pytest.raises(ValueError, match="row 0 "):
            fs.two_body_sums(members, pieces.kernels[:1], [[(1, 0)]])
