import math

import numpy as np
import pytest

from bosonlab import fockstate as fs
from bosonlab import tensorstate as ts
from bosonlab.errors import ConfigError

CELL = 0.5


@pytest.fixture(scope="module")
def space():
    return fs.FockSpace(fs.enumerate_basis(3, 3), CELL)


def random_phi(m, rng):
    phi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return phi / np.sqrt(CELL * np.vdot(phi, phi).real)


class TestEnumerateBasis:
    def test_single_site(self):
        basis = fs.enumerate_basis(1, 5)
        assert basis.dim == 1
        assert basis.occupations.tolist() == [[5]]

    def test_two_sites_two_particles(self):
        basis = fs.enumerate_basis(2, 2)
        assert basis.occupations.tolist() == [[2, 0], [1, 1], [0, 2]]

    def test_stars_and_bars_count(self):
        basis = fs.enumerate_basis(4, 3)
        assert basis.dim == 20 == math.comb(6, 3)

    def test_rows_sum_to_n(self):
        basis = fs.enumerate_basis(3, 4)
        assert np.all(basis.occupations.sum(axis=1) == 4)
        # no duplicates
        assert len({tuple(r) for r in basis.occupations.tolist()}) == basis.dim

    def test_ceiling_guard(self):
        with pytest.raises(ConfigError):
            fs.enumerate_basis(30, 30, ceiling=1000)


def brute_force_tables(basis):
    """Gather tables by direct hop enumeration with a dict index."""
    index = {tuple(row): i for i, row in enumerate(basis.occupations.tolist())}
    dim, m = basis.dim, basis.sites
    sources = np.zeros((dim, m, m), dtype=np.int64)
    weights = np.zeros((dim, m, m))
    for t, row in enumerate(basis.occupations.tolist()):
        for r in range(m):
            if row[r] == 0:
                continue
            for s in range(m):
                moved = list(row)
                moved[r] -= 1
                moved[s] += 1
                sources[t, r, s] = index[tuple(moved)]
                weights[t, r, s] = math.sqrt(row[r] * (row[s] + 1 - (r == s)))
    return sources.reshape(dim, m * m), weights.reshape(dim, m * m)


class TestHopTables:
    @pytest.mark.parametrize("m,n", [(1, 0), (1, 5), (3, 0), (2, 3), (3, 4), (4, 3), (5, 2), (2, 1)])
    def test_match_brute_force_enumeration(self, m, n):
        space = fs.FockSpace(fs.enumerate_basis(m, n), CELL)
        sources, weights = brute_force_tables(space.basis)
        assert np.array_equal(space.sources, sources)
        assert np.allclose(space.weights, weights, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("m,n", [(1, 3), (3, 4), (4, 0), (5, 3)])
    def test_index_of_is_basis_position(self, m, n):
        basis = fs.enumerate_basis(m, n)
        assert [basis.index_of(row) for row in basis.occupations] == list(range(basis.dim))

    def test_index_of_rejects_foreign_vectors(self):
        basis = fs.enumerate_basis(3, 2)
        for occ in [(1, 1, 1), (3, -1, 0), (2, 0)]:
            with pytest.raises(KeyError):
                basis.index_of(occ)


class TestDgamma:
    def test_identity_counts_particles(self, space):
        rng = np.random.default_rng(0)
        psi = fs.random_fock(space, rng)
        out = fs.dgamma_apply(np.eye(3), psi)
        assert np.allclose(out.amps, 3 * psi.amps)

    def test_mode_number_operator(self, space):
        number = np.diag([0.0, 1.0, 0.0])
        for b, occ in enumerate(space.basis.occupations):
            unit = space.zero_state()
            unit.amps[b] = 1.0
            out = fs.dgamma_apply(number, unit)
            assert out.amps[b] == pytest.approx(occ[1])
            out.amps[b] = 0.0
            assert np.abs(out.amps).max() == 0.0

    def test_matches_tensor_lift(self, space):
        rng = np.random.default_rng(1)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        via_fock = fs.embed(fs.dgamma_apply(mat, fs.extract(psi, space)))
        direct = ts.apply_one_body_sum(mat, psi)
        assert (via_fock - direct).norm() <= 1e-12

    def test_hermitian_lift_is_hermitian(self, space):
        rng = np.random.default_rng(2)
        herm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        herm = herm + herm.conj().T
        a, b = fs.random_fock(space, rng), fs.random_fock(space, rng)
        lhs = fs.inner(b, fs.dgamma_apply(herm, a))
        rhs = fs.inner(fs.dgamma_apply(herm, b), a)
        assert lhs == pytest.approx(rhs, abs=1e-12)


    def test_result_survives_later_lifts(self, space):
        rng = np.random.default_rng(20)
        a, b = fs.random_fock(space, rng), fs.random_fock(space, rng)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        first = fs.dgamma_apply(x, a)
        kept = first.amps.copy()
        fs.dgamma_apply(x.T, b)
        fs.projected_pair_apply(x, x, x.T, x, x.T, b)
        assert np.array_equal(first.amps, kept)

    def test_non_contiguous_input(self, space):
        rng = np.random.default_rng(21)
        a, b = fs.random_fock(space, rng), fs.random_fock(space, rng)
        columns = np.stack([a.amps, b.amps], axis=1)
        view = fs.FockState(columns[:, 1], space)
        assert not view.amps.flags.c_contiguous
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = fs.dgamma_apply(x, view)
        kept = out.amps.copy()
        assert np.array_equal(out.amps, fs.dgamma_apply(x, b).amps)
        fs.dgamma_apply(x, fs.FockState(columns[:, 0], space))
        assert np.array_equal(out.amps, kept)
        assert np.array_equal(columns[:, 1], b.amps)


class TestPairApply:
    def test_identity_pair_counts_ordered_pairs(self, space):
        psi = fs.random_fock(space, np.random.default_rng(3))
        out = fs.pair_apply(np.eye(3), np.eye(3), psi)
        assert np.allclose(out.amps, 3 * 2 * psi.amps)

    def test_single_particle_has_no_pairs(self):
        single = fs.FockSpace(fs.enumerate_basis(3, 1), CELL)
        psi = fs.random_fock(single, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 3))
        out = fs.pair_apply(x, x, psi)
        assert np.abs(out.amps).max() <= 1e-14

    def test_matches_tensor_double_loop(self, space):
        rng = np.random.default_rng(6)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expect = np.zeros_like(psi.amps)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                expect += ts.apply_factor(x, i, ts.apply_factor(y, j, psi)).amps
        via_fock = fs.embed(fs.pair_apply(x, y, fs.extract(psi, space)))
        assert np.abs(via_fock.amps - expect).max() <= 1e-12

    def test_pair_identity_against_composition(self, space):
        rng = np.random.default_rng(7)
        psi = fs.random_fock(space, rng)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        composed = fs.dgamma_apply(x, fs.dgamma_apply(y, psi))
        recomposed = fs.pair_apply(x, y, psi) + fs.dgamma_apply(x @ y, psi)
        assert (composed - recomposed).norm() <= 1e-11


class TestEmbedExtract:
    def test_condensed_mode_is_delta_product(self, space):
        unit = space.zero_state()
        unit.amps[space.basis.index_of((3, 0, 0))] = 1.0
        psi = fs.embed(unit)
        expect = np.zeros((3, 3, 3), dtype=complex)
        expect[0, 0, 0] = CELL ** (-1.5)
        assert np.allclose(psi.amps, expect)

    def test_roundtrip_identity(self, space):
        psi = fs.random_fock(space, np.random.default_rng(8))
        back = fs.extract(fs.embed(psi), space)
        assert np.abs(back.amps - psi.amps).max() <= 1e-13

    def test_embed_is_isometry(self, space):
        psi = fs.random_fock(space, np.random.default_rng(9))
        assert abs(fs.embed(psi).norm() - psi.norm()) <= 1e-12

    def test_inner_products_preserved(self, space):
        rng = np.random.default_rng(10)
        a, b = fs.random_fock(space, rng), fs.random_fock(space, rng)
        assert fs.inner(a, b) == pytest.approx(ts.inner(fs.embed(a), fs.embed(b)), abs=1e-12)

    def test_embed_extract_is_symmetrize(self, space):
        rng = np.random.default_rng(11)
        raw = ts.TensorState(
            rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)), CELL
        )
        sym = ts.symmetrize(raw)
        projected = fs.embed(fs.extract(sym, space))
        assert (projected - sym).norm() <= 1e-12

    def test_extract_rejects_asymmetric(self, space):
        amps = np.zeros((3, 3, 3), dtype=complex)
        amps[0, 1, 2] = 1.0
        with pytest.raises(ValueError):
            fs.extract(ts.TensorState(amps, CELL), space)


class TestProductFock:
    def test_matches_tensor_product_state(self, space):
        rng = np.random.default_rng(12)
        phi = random_phi(3, rng)
        via_fock = fs.embed(fs.product_fock(phi, space))
        direct = ts.product_state(phi, 3, CELL)
        assert (via_fock - direct).norm() <= 1e-12

    def test_unit_norm(self, space):
        rng = np.random.default_rng(13)
        phi = random_phi(3, rng)
        assert fs.product_fock(phi, space).norm() == pytest.approx(1.0, abs=1e-12)
