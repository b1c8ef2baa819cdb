import dataclasses
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from bosonlab import fockstate as fs
from bosonlab import hamiltonians
from bosonlab import tensorstate as ts
from bosonlab.errors import ConfigError, ConsistencyError
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
from bosonlab.model import OneBodyOperator
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
    w = model.pair.mat
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
    """The ladder lift of h0(t) plus the pair diagonal over N - 1."""
    space, n = state.space, state.particles
    out = fs.dgamma_apply(model.h0(t), state).amps
    if n >= 2 and not model.pair.is_zero:
        out = out + fs.pair_diagonal(space, model.pair) * state.amps / (n - 1)
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
        sources, values = fs.generator_table(space, model.lap.mat, model.h0(0.0), model.pair, 1 / 15)
        assert sources.shape == values.shape == (9, space.basis.dim)
        assert (sources[0] == np.arange(space.basis.dim)).all()
        hops = sources[1:]
        for u in range(space.basis.dim):
            used = hops[values[1:, u] != 0, u]
            assert len(set(used.tolist())) == len(used)

    def test_tabulated_potential_refreshes_the_diagonal(self):
        rng = np.random.default_rng(7)
        table = tuple(tuple(row) for row in 3.0 * rng.random((2, 4)))
        model, space = generator_setup("1d-plain", potential_kind="tabulated",
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
        # a new pair table on the same hops: only the diagonal is rebuilt
        stronger = dataclasses.replace(model, pair=make_model(
            sites_per_dim=4, torus_length=4.0, particles=5, interaction_amplitude=2.0).pair)
        assert_generator_matches(0.0, psi, stronger)
        assert space._generator[1] is sources
        # a new hop table with other values: the hops are rebuilt
        steeper = dataclasses.replace(model, lap=OneBodyOperator(2.0 * model.lap.mat, hermitian=True))
        assert_generator_matches(0.0, psi, steeper)
        assert space._generator[1] is not sources
        assert_generator_matches(0.0, psi, model)

    def test_non_invariant_hops_on_a_sector_raise(self):
        model, space = generator_setup("1d-z2")
        hops = model.lap.mat.copy()
        hops[0, 1] = hops[1, 0] = -3.0  # site 1 mirrors site 3, whose hops stay -1
        tilted = dataclasses.replace(model, lap=OneBodyOperator(hops, hermitian=True))
        psi = random_block(space, np.random.default_rng(9))
        with pytest.raises(ValueError, match="asymmetry"):
            apply_H(0.0, psi, tilted)
        with pytest.raises(ValueError, match="asymmetry"):
            fs.generator_table(space, hops, model.h0(0.0), model.pair, 0.25)

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
        out = apply_Htilde(pieces, psi, model)
        expect = ts.apply_one_body_sum(model.h0(0.0), psi)
        assert (out - expect).norm() <= 1e-12

    def test_hermitian(self):
        model = make_model()
        rng = np.random.default_rng(3)
        phi = random_phi(model, rng)
        pieces = pieces_at(phi, 0.0, model)
        a = ts.random_symmetric(3, 3, model.cell, rng)
        b = ts.random_symmetric(3, 3, model.cell, rng)
        lhs = b.inner(apply_Htilde(pieces, a, model))
        rhs = apply_Htilde(pieces, b, model).inner(a)
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
                w2[r * m + s, r * m + s] = model.pair.mat[r, s]
        acc = ts.apply_one_body_sum(pieces.h1, psi)
        for i in range(n):
            for j in range(i + 1, n):
                for left_i, left_j, right_i, right_j in (
                    (p, q, q, p), (q, p, p, q), (p, p, q, q), (q, q, p, p),
                ):
                    mat = np.kron(left_i, left_j) @ w2 @ np.kron(right_i, right_j)
                    acc = acc + (1.0 / (n - 1)) * ts.apply_two_slot(mat, i, j, psi)
        out = apply_Htilde(pieces, psi, model)
        assert (out - acc).norm() <= 1e-12


class TestRemainders:
    def test_quartic_annihilates_product(self):
        model = make_model()
        rng = np.random.default_rng(5)
        phi = random_phi(model, rng)
        prod = ts.product_state(phi, 3, model.cell)
        pieces = pieces_at(phi, 0.0, model)
        assert apply_Q(pieces, prod, model).norm() <= 1e-12

    def test_free_interaction_zeroes_both(self):
        model = make_model(interaction_profile="zero")
        rng = np.random.default_rng(6)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        pieces = pieces_at(phi, 0.0, model)
        assert apply_C(pieces, psi, model).norm() == 0.0
        assert apply_Q(pieces, psi, model).norm() == 0.0

    def test_match_slot_chain_oracles(self):
        model = make_model()
        rng = np.random.default_rng(7)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        pieces = pieces_at(phi, 0.0, model)
        p, q = ts.projector_matrices(phi, model.cell)
        cond = condensate_at(phi, 0.0, model)
        z_no_mu = model.pair.mat - cond.vbar[:, None] - cond.vbar[None, :]
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
        assert (apply_C(pieces, psi, model) - acc_c).norm() <= 1e-12
        assert (apply_Q(pieces, psi, model) - acc_q).norm() <= 1e-12

    def test_hermitian_and_symmetry_preserving(self):
        model = make_model()
        rng = np.random.default_rng(8)
        phi = random_phi(model, rng)
        pieces = pieces_at(phi, 0.0, model)
        a = ts.random_symmetric(3, 3, model.cell, rng)
        b = ts.random_symmetric(3, 3, model.cell, rng)
        for op in (apply_C, apply_Q):
            lhs = b.inner(op(pieces, a, model))
            rhs = op(pieces, b, model).inner(a)
            assert lhs == pytest.approx(rhs, abs=1e-11)
            assert ts.transposition_residual(op(pieces, a, model)) <= 1e-11

    def test_single_particle_rejected(self):
        model = make_model(particles=1)
        rng = np.random.default_rng(9)
        phi = random_phi(model, rng)
        psi = ts.product_state(phi, 1, model.cell)
        pieces = pieces_at(phi, 0.0, model)
        with pytest.raises(ConfigError):
            apply_Htilde(pieces, psi, model)


class TestDecomposition:
    @pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (3, 4), (5, 3)])
    def test_residual_random_states(self, n, m):
        model = make_model(sites_per_dim=m, torus_length=float(m), particles=n)
        rng = np.random.default_rng(100 + n + m)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(m, n, model.cell, rng)
        cond = condensate_at(phi, 0.0, model)
        assert decomposition_residual(0.0, cond, psi, model) <= 1e-10

    def test_residual_free_case(self):
        model = make_model(interaction_profile="zero")
        rng = np.random.default_rng(10)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        cond = condensate_at(phi, 0.0, model)
        assert decomposition_residual(0.0, cond, psi, model) <= 1e-13

    def test_residual_on_condensate(self):
        model = make_model()
        rng = np.random.default_rng(11)
        phi = random_phi(model, rng)
        prod = ts.product_state(phi, 3, model.cell)
        cond = condensate_at(phi, 0.0, model)
        assert decomposition_residual(0.0, cond, prod, model) <= 1e-10

    def test_residual_in_occupation_basis(self):
        model = make_model()
        rng = np.random.default_rng(12)
        phi = random_phi(model, rng)
        space = fs.FockSpace(fs.enumerate_basis(3, 3), model.cell)
        psi = fs.random_fock(space, rng)
        cond = condensate_at(phi, 0.0, model)
        assert decomposition_residual(0.0, cond, psi, model) <= 1e-10

    @pytest.mark.parametrize("n", [2, 4])
    def test_residual_in_occupation_basis_on_2d_lattice(self, n):
        model = make_model(dimension=2, sites_per_dim=3, torus_length=3.0, particles=n)
        rng = np.random.default_rng(24 + n)
        phi = random_phi(model, rng)
        space = fs.FockSpace(fs.enumerate_basis(9, n), model.cell)
        psi = fs.random_fock(space, rng)
        cond = condensate_at(phi, 0.0, model)
        assert decomposition_residual(0.0, cond, psi, model) <= 1e-10

    def test_stale_cache_guard(self):
        model = make_model()
        rng = np.random.default_rng(13)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        cond = condensate_at(phi, 0.05, model)
        with pytest.raises(ConsistencyError):
            decomposition_residual(0.0, cond, psi, model)

    def test_residual_on_2d_lattice(self):
        model = make_model(dimension=2, sites_per_dim=2, torus_length=2.0, particles=3)
        rng = np.random.default_rng(21)
        phi = random_phi(model, rng)
        psi = ts.random_symmetric(4, 3, model.cell, rng)
        cond = condensate_at(phi, 0.0, model)
        assert decomposition_residual(0.0, cond, psi, model) <= 1e-10


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
        kernel = model.pair.mat + rng.standard_normal((m, m))
        psi = ts.random_symmetric(m, 3, model.cell, rng)
        second = (0.5, model.pair.mat + rng.standard_normal((m, m)), table(), table(), table(), table())
        terms = ((1.0, kernel, a, c, b, d), second)
        # pieces of one operator: its terms for the tensor grid, their folded
        # kernel at scale 1 for the occupation basis; neither route applies
        # the 1/(N-1) of the pair terms
        pieces = SimpleNamespace(terms=(terms,), kernels=(fold_oracle(ordered_kernel_oracle(terms, 1.0), m),))
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
        assert len(builds) == 1
        entries = stage_entries([(None, None), (0, None), (None, 0)])
        for n in (3, 3, 4):
            space = fs.FockSpace(fs.enumerate_basis(3, n), model.cell)
            apply_stage(pieces, block([fs.random_fock(space, rng) for _ in range(3)]), entries, model)
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
            lambda s: apply_Htilde(pieces, s, model),
            lambda s: apply_C(pieces, s, model),
            lambda s: apply_Q(pieces, s, model),
        ):
            assert (op(psi) - fs.embed(op(fpsi))).norm() <= 1e-11


class TestApplyStage:
    """The stage generator against the tensor route's per-operator sum
    -i (apply_Htilde psi_i + apply_C psi_c(i) + apply_Q psi_q(i)); occupation
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
        out = apply_stage(pieces, members, stage_entries(sources), model)
        assert out.amps.shape == members.amps.shape
        out, members = rows(out), rows(members)
        if rep == "fock":
            out, members = [fs.embed(got) for got in out], [fs.embed(psi) for psi in members]
        for got, psi, (c, q) in zip(out, members, sources):
            acc = apply_Htilde(pieces, psi, model)
            if c is not None:
                acc = acc + apply_C(pieces, members[c], model)
            if q is not None:
                acc = acc + apply_Q(pieces, members[q], model)
            expect = -1j * acc
            assert (got - expect).norm() <= 1e-12 * expect.norm()

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_free_interaction_is_the_exact_lift(self, rep):
        model = make_model(sites_per_dim=4, torus_length=4.0, particles=4, interaction_profile="zero")
        rng = np.random.default_rng(81)
        pieces, members, sources = self.stage(model, rep, rng)
        out = apply_stage(pieces, members, stage_entries(sources), model)
        for got, psi in zip(rows(out), rows(members)):
            expect = -1j * apply_Htilde(pieces, psi, model)
            assert np.array_equal(got.amps, expect.amps)

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
            apply_stage(pieces_at(phi, 0.0, model), block([psi]), stage_entries([(None, None)]), model)
