import numpy as np
import pytest

from bosonlab import tensorstate as ts
from bosonlab.model import build_model, validate_config


@pytest.fixture(scope="module")
def model():
    return build_model(
        validate_config(
            {
                "dimension": 1,
                "sites_per_dim": 3,
                "torus_length": 3.0,
                "particles": 3,
                "interaction_amplitude": 0.6,
                "interaction_radius": 1.4,
                "dt": 1e-3,
                "t_final": 0.1,
            }
        )
    )


def random_phi(m, cell, rng):
    phi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return phi / np.sqrt(cell * np.vdot(phi, phi).real)


class TestInner:
    def test_normalised_state(self, model):
        psi = ts.random_symmetric(3, 3, model.cell, np.random.default_rng(0))
        assert psi.inner(psi).real == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_symmetry(self, model):
        rng = np.random.default_rng(1)
        a = ts.random_symmetric(3, 3, model.cell, rng)
        b = ts.random_symmetric(3, 3, model.cell, rng)
        assert a.inner(b) == pytest.approx(np.conj(b.inner(a)), abs=1e-13)

    def test_grid_deltas_orthogonal(self, model):
        amps = np.zeros((3, 3, 3), dtype=complex)
        amps[0, 1, 2] = 1.0
        delta1 = ts.TensorState(amps, model.cell)
        amps2 = np.zeros((3, 3, 3), dtype=complex)
        amps2[1, 1, 2] = 1.0
        delta2 = ts.TensorState(amps2, model.cell)
        assert delta1.inner(delta2) == 0.0

    def test_shape_mismatch_rejected(self, model):
        a = ts.random_symmetric(3, 3, model.cell, np.random.default_rng(2))
        b = ts.random_symmetric(3, 2, model.cell, np.random.default_rng(2))
        with pytest.raises(ValueError):
            a.inner(b)


class TestApplyFactor:
    def test_identity(self, model):
        psi = ts.random_symmetric(3, 3, model.cell, np.random.default_rng(3))
        out = ts.apply_factor(np.eye(3), 1, psi)
        assert np.allclose(out.amps, psi.amps)

    def test_p_then_q_annihilates(self, model):
        rng = np.random.default_rng(4)
        phi = random_phi(3, model.cell, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        p, q = ts.projector_matrices(phi, model.cell)
        out = ts.apply_factor(q, 0, ts.apply_factor(p, 0, psi))
        assert out.norm() <= 1e-13

    def test_slot_out_of_range(self, model):
        psi = ts.random_symmetric(3, 3, model.cell, np.random.default_rng(5))
        with pytest.raises(IndexError):
            ts.apply_factor(np.eye(3), 3, psi)

    def test_laplacian_on_product_state_matches_one_body_oracle(self, model):
        rng = np.random.default_rng(6)
        phi = random_phi(3, model.cell, rng)
        prod = ts.product_state(phi, 3, model.cell)
        lap = model.lap
        out = ts.apply_factor(lap, 0, prod)
        oracle = ts.product_state(phi, 1, model.cell)
        expect = np.multiply.outer(np.multiply.outer(lap @ phi, phi), phi)
        assert np.allclose(out.amps, expect, atol=1e-13)


class TestOneBodySum:
    def test_identity_gives_n(self, model):
        psi = ts.random_symmetric(3, 3, model.cell, np.random.default_rng(7))
        out = ts.apply_one_body_sum(np.eye(3), psi)
        assert np.allclose(out.amps, 3 * psi.amps)

    def test_eigen_product(self, model):
        # plane wave is a Laplacian eigenvector; its product is an eigenstate of the sum
        wave = np.exp(2j * np.pi * np.arange(3) / 3)
        wave /= np.sqrt(model.cell * np.vdot(wave, wave).real)
        lam = (2 - 2 * np.cos(2 * np.pi / 3)) / model.config.spacing**2
        prod = ts.product_state(wave, 3, model.cell)
        out = ts.apply_one_body_sum(model.lap, prod)
        assert np.allclose(out.amps, 3 * lam * prod.amps, atol=1e-12)

    def test_preserves_symmetry(self, model):
        rng = np.random.default_rng(8)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = ts.apply_one_body_sum(mat, psi)
        assert ts.transposition_residual(out) <= 1e-12


class TestPairDiagonal:
    def test_zero_table(self, model):
        psi = ts.random_symmetric(3, 3, model.cell, np.random.default_rng(9))
        out = ts.apply_pair_diagonal(np.zeros((3, 3)), psi)
        assert out.norm() == 0.0

    def test_two_particle_delta(self, model):
        w = model.pair
        amps = np.zeros((3, 3), dtype=complex)
        amps[0, 2] = 1.0
        psi = ts.TensorState(amps, model.cell)
        out = ts.apply_pair_diagonal(model.pair, psi)
        assert out.amps[0, 2] == pytest.approx(w[0, 2])

    def test_matches_brute_force_pair_loop(self, model):
        rng = np.random.default_rng(10)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        w = model.pair
        expect = np.zeros_like(psi.amps)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    total = w[a, b] + w[a, c] + w[b, c]
                    expect[a, b, c] = total * psi.amps[a, b, c]
        out = ts.apply_pair_diagonal(model.pair, psi)
        assert np.allclose(out.amps, expect, atol=1e-13)

    def test_commutes_with_symmetrize(self, model):
        rng = np.random.default_rng(11)
        raw = ts.TensorState(
            rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)), model.cell
        )
        first = ts.symmetrize(ts.apply_pair_diagonal(model.pair, raw))
        second = ts.apply_pair_diagonal(model.pair, ts.symmetrize(raw))
        assert (first - second).norm() <= 1e-12


class TestProjectorChain:
    def test_all_p_fixes_product(self, model):
        rng = np.random.default_rng(12)
        phi = random_phi(3, model.cell, rng)
        prod = ts.product_state(phi, 3, model.cell)
        out = ts.apply_projector_chain(["p", "p", "p"], phi, prod)
        assert (out - prod).norm() <= 1e-12

    def test_single_q_kills_product(self, model):
        rng = np.random.default_rng(13)
        phi = random_phi(3, model.cell, rng)
        prod = ts.product_state(phi, 3, model.cell)
        out = ts.apply_projector_chain(["q", "id", "id"], phi, prod)
        assert out.norm() <= 1e-13

    def test_unnormalised_phi_rejected(self, model):
        psi = ts.random_symmetric(3, 3, model.cell, np.random.default_rng(14))
        with pytest.raises(ValueError):
            ts.apply_projector_chain(["p", "p", "p"], np.ones(3), psi)

    def test_pattern_length_checked(self, model):
        rng = np.random.default_rng(15)
        phi = random_phi(3, model.cell, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        with pytest.raises(ValueError):
            ts.apply_projector_chain(["p", "p"], phi, psi)


class TestSymmetrize:
    def test_idempotent_on_symmetric(self, model):
        psi = ts.random_symmetric(3, 3, model.cell, np.random.default_rng(16))
        out = ts.symmetrize(psi)
        assert (out - psi).norm() <= 1e-14

    def test_two_particle_delta(self, model):
        amps = np.zeros((3, 3), dtype=complex)
        amps[0, 2] = 1.0
        out = ts.symmetrize(ts.TensorState(amps, model.cell))
        assert out.amps[0, 2] == pytest.approx(0.5)
        assert out.amps[2, 0] == pytest.approx(0.5)

    def test_matches_explicit_permutation_average(self, model):
        rng = np.random.default_rng(17)
        raw = ts.TensorState(
            rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)), model.cell
        )
        fast = ts.symmetrize(raw)
        slow = ts.symmetrize_reference(raw)
        assert (fast - slow).norm() <= 1e-13


class TestHermiticity:
    def test_operator_families_self_adjoint(self, model):
        rng = np.random.default_rng(18)
        phi = random_phi(3, model.cell, rng)
        a = ts.random_symmetric(3, 3, model.cell, rng)
        b = ts.random_symmetric(3, 3, model.cell, rng)
        herm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        herm = herm + herm.conj().T

        candidates = {
            "one_body_sum": lambda s: ts.apply_one_body_sum(herm, s),
            "pair_diagonal": lambda s: ts.apply_pair_diagonal(model.pair, s),
            "p_chain": lambda s: ts.apply_projector_chain(["p", "p", "id"], phi, s),
            "q_chain": lambda s: ts.apply_projector_chain(["q", "q", "id"], phi, s),
        }
        for name, op in candidates.items():
            lhs = b.inner(op(a))
            rhs = op(b).inner(a)
            assert lhs == pytest.approx(rhs, abs=1e-12), name

    def test_operators_preserve_symmetric_subspace(self, model):
        rng = np.random.default_rng(19)
        phi = random_phi(3, model.cell, rng)
        psi = ts.random_symmetric(3, 3, model.cell, rng)
        for op in (
            lambda s: ts.apply_pair_diagonal(model.pair, s),
            lambda s: ts.apply_projector_chain(["q", "q", "q"], phi, s),
            lambda s: ts.apply_one_body_sum(model.lap, s),
        ):
            assert ts.transposition_residual(op(psi)) <= 1e-12
