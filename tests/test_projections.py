import math

import numpy as np
import pytest

from bosonlab import fockstate as fs
from bosonlab import projections as pj
from bosonlab import tensorstate as ts

CELL = 1.0


def random_phi(m, rng):
    phi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return phi / np.sqrt(CELL * np.vdot(phi, phi).real)


def one_excitation_tensor(phi, chi, n):
    hop = CELL * np.outer(chi, phi.conj())
    raised = ts.apply_one_body_sum(hop, ts.product_state(phi, n, CELL))
    return (1.0 / raised.norm()) * raised


def orthogonalise(chi, phi):
    chi = chi - phi * (CELL * np.vdot(phi, chi))
    return chi / np.sqrt(CELL * np.vdot(chi, chi).real)


class TestSpectralWeights:
    def test_product_state_is_pure_condensate(self):
        rng = np.random.default_rng(0)
        phi = random_phi(3, rng)
        prod = ts.product_state(phi, 4, CELL)
        w = pj.spectral_weights(prod, phi)
        assert w.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(w.weights[1:]).max() <= 1e-12

    def test_one_excitation_sits_at_k1(self):
        rng = np.random.default_rng(1)
        phi = random_phi(3, rng)
        chi = orthogonalise(rng.standard_normal(3) + 1j * rng.standard_normal(3), phi)
        state = one_excitation_tensor(phi, chi, 3)
        w = pj.spectral_weights(state, phi)
        assert w.weights[1] == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_to_norm_squared(self):
        rng = np.random.default_rng(2)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 4, CELL, rng)
        w = pj.spectral_weights(psi, phi)
        assert w.total == pytest.approx(psi.norm() ** 2, abs=1e-10)
        assert np.all(w.weights >= -1e-14)

    def test_fock_representation_agrees(self):
        rng = np.random.default_rng(3)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        space = fs.FockSpace(fs.enumerate_basis(3, 3), CELL)
        wt = pj.spectral_weights(psi, phi)
        wf = pj.spectral_weights(fs.extract(psi, space), phi)
        assert np.allclose(wt.weights, wf.weights, atol=1e-11)

    def test_unnormalised_phi_rejected(self):
        psi = ts.random_symmetric(3, 3, CELL, np.random.default_rng(4))
        with pytest.raises(ValueError):
            pj.spectral_weights(psi, np.ones(3))


class TestApplyPk:
    def test_out_of_range_gives_zero(self):
        rng = np.random.default_rng(5)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        assert pj.apply_Pk(-1, phi, psi).norm() == 0.0
        assert pj.apply_Pk(4, phi, psi).norm() == 0.0

    def test_idempotent_and_orthogonal(self):
        rng = np.random.default_rng(6)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 4, CELL, rng)
        sectors = [pj.apply_Pk(k, phi, psi) for k in range(5)]
        for k, pk in enumerate(sectors):
            assert (pj.apply_Pk(k, phi, pk) - pk).norm() <= 1e-10
            for other in sectors[k + 1 :]:
                assert abs(pk.inner(other)) <= 1e-10

    def test_resolution_of_identity(self):
        rng = np.random.default_rng(7)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 4, CELL, rng)
        total = 0.0 * psi
        for k in range(5):
            total = total + pj.apply_Pk(k, phi, psi)
        assert (total - psi).norm() <= 1e-10

    def test_matches_subset_sum_oracle(self):
        rng = np.random.default_rng(8)
        phi = random_phi(2, rng)
        psi = ts.random_symmetric(2, 3, CELL, rng)
        for k in range(4):
            fast = pj.apply_Pk(k, phi, psi)
            slow = pj.apply_Pk_subset(k, phi, psi)
            assert (fast - slow).norm() <= 1e-12


class TestWeights:
    def test_constant_weight_is_identity(self):
        rng = np.random.default_rng(9)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        out = pj.apply_weight(pj.WeightFunction(lambda k: 1.0), phi, psi)
        assert (out - psi).norm() <= 1e-10

    def test_product_m_moment_closed_form(self):
        rng = np.random.default_rng(10)
        phi = random_phi(3, rng)
        n = 4
        prod = ts.product_state(phi, n, CELL)
        for a in range(4):
            assert pj.m_moment(a, phi, prod) == pytest.approx(n ** (-a), abs=1e-12)

    def test_negative_weight_rejected(self):
        rng = np.random.default_rng(11)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        with pytest.raises(ValueError):
            pj.apply_weight(pj.WeightFunction(lambda k: k - 1.0), phi, psi)

    def test_m_n_operator_sandwich(self):
        # pointwise n^2a <= m^2a <= 2^a n^2a + N^-a transfers to expectations
        rng = np.random.default_rng(12)
        n = 4
        space = fs.FockSpace(fs.enumerate_basis(3, n), CELL)
        phi = random_phi(3, rng)
        for trial in range(50):
            psi = fs.random_fock(space, rng)
            w = pj.spectral_weights(psi, phi)
            for a in (1, 2):
                nm = pj.n_moment(a, phi, psi, weights=w)
                mm = pj.m_moment(a, phi, psi, weights=w)
                assert nm <= mm + 1e-12
                assert mm <= 2**a * nm + n ** (-a) + 1e-12

    def test_w_lambda_family_shape(self):
        n = 8
        wf = pj.weight_w_lambda(0.5, n)
        vals = pj.weight_values(wf, n)
        cap = n**0.5
        for k in range(n + 1):
            if k <= cap - 1:
                assert vals[k] == pytest.approx((k + 1) / cap)
            else:
                assert vals[k] == 1.0

    def test_shifted_weight_window(self):
        n = 3
        wf = pj.WeightFunction(lambda k: float(k + 1), shift=1)
        vals = pj.weight_values(wf, n)
        # f_hat_1 = sum_{n=0}^{N-1} f(n+1) P_n: top sector drops out
        assert vals.tolist() == [2.0, 3.0, 4.0, 0.0]
        wf_neg = pj.WeightFunction(lambda k: float(k + 1), shift=-1)
        assert pj.weight_values(wf_neg, n).tolist() == [0.0, 1.0, 2.0, 3.0]


class TestLargeParticleNumber:
    def test_spectral_calculus_at_n12(self):
        from bosonlab import fockstate as fs

        n, m = 12, 4
        space = fs.FockSpace(fs.enumerate_basis(m, n), CELL)
        rng = np.random.default_rng(29)
        phi = random_phi(m, rng)
        psi = fs.random_fock(space, rng)
        w = pj.spectral_weights(psi, phi)
        assert abs(w.total - psi.norm() ** 2) <= 1e-10
        assert np.all(w.weights >= -1e-12)
        for k in (0, 6, 12):
            pk = pj.apply_Pk(k, phi, psi)
            assert (pj.apply_Pk(k, phi, pk) - pk).norm() <= 1e-10

    @pytest.mark.parametrize("m, n", [(3, 30), (2, 60), (4, 16)])
    def test_weights_match_dense_oracle(self, m, n):
        space = fs.FockSpace(fs.enumerate_basis(m, n), CELL)
        rng = np.random.default_rng(30 + n)
        phi = random_phi(m, rng)
        psi = fs.random_fock(space, rng)
        dim = space.basis.dim
        p, _ = ts.projector_matrices(phi, CELL)
        # dense S, column by column from the lift on unit vectors
        s_mat = np.empty((dim, dim), dtype=np.complex128)
        for col in range(dim):
            unit = np.zeros(dim, dtype=np.complex128)
            unit[col] = 1.0
            s_mat[:, col] = pj.number_apply(fs.FockState(unit, space), p).amps
        evals, evecs = np.linalg.eigh(0.5 * (s_mat + s_mat.conj().T))
        labels = np.rint(evals).astype(int)
        assert np.abs(evals - labels).max() <= 1e-9
        dense = np.bincount(labels, weights=np.abs(evecs.conj().T @ psi.amps) ** 2,
                            minlength=n + 1)
        w = pj.spectral_weights(psi, phi)
        assert np.abs(w.weights - dense).max() <= 1e-12

    def test_off_integer_spectrum_raises(self, monkeypatch):
        from bosonlab.errors import ConsistencyError

        space = fs.FockSpace(fs.enumerate_basis(3, 4), CELL)
        rng = np.random.default_rng(31)
        phi = random_phi(3, rng)
        psi = fs.random_fock(space, rng)
        number_apply = pj.number_apply
        monkeypatch.setattr(pj, "number_apply",
                            lambda state, p: number_apply(state, p) + 0.3 * state)
        with pytest.raises(ConsistencyError) as info:
            pj.spectral_weights(psi, phi)
        assert info.value.exit_code == 1

    def test_weights_cost_at_most_n_plus_one_lifts(self, monkeypatch):
        n = 16
        space = fs.FockSpace(fs.enumerate_basis(4, n), CELL)
        rng = np.random.default_rng(32)
        phi = random_phi(4, rng)
        psi = fs.random_fock(space, rng)
        calls = []
        number_apply = pj.number_apply

        def counted(state, p):
            calls.append(1)
            return number_apply(state, p)

        monkeypatch.setattr(pj, "number_apply", counted)
        pj.spectral_weights(psi, phi)
        assert 0 < len(calls) <= n + 1


class TestQChain:
    def test_product_state_vanishes(self):
        rng = np.random.default_rng(13)
        phi = random_phi(3, rng)
        prod = ts.product_state(phi, 4, CELL)
        for a in (1, 2, 3):
            assert abs(pj.qchain_expectation(a, phi, prod)) <= 1e-12

    def test_top_sector_saturates(self):
        rng = np.random.default_rng(14)
        phi = random_phi(2, rng)
        psi = ts.random_symmetric(2, 3, CELL, rng)
        top = pj.apply_Pk(3, phi, psi)
        top = (1.0 / top.norm()) * top
        for a in (1, 2, 3):
            assert pj.qchain_expectation(a, phi, top) == pytest.approx(1.0, abs=1e-10)

    def test_dual_routes_agree(self):
        rng = np.random.default_rng(15)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 4, CELL, rng)
        w = pj.spectral_weights(psi, phi)
        for a in (1, 2, 3, 4):
            direct = pj.qchain_expectation(a, phi, psi)
            spectral = pj.qchain_spectral(a, w, 4)
            assert direct == pytest.approx(spectral, abs=1e-10)

    def test_given_weights_make_no_lanczos_pass(self, monkeypatch):
        rng = np.random.default_rng(18)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 4, CELL, rng)
        w = pj.spectral_weights(psi, phi)
        passes = []
        krylov = pj._sector_krylov
        monkeypatch.setattr(pj, "_sector_krylov", lambda *args: passes.append(1) or krylov(*args))
        given = [pj.qchain_expectation(a, phi, psi, weights=w) for a in (1, 2, 3, 4)]
        assert not passes
        assert given == [pj.qchain_expectation(a, phi, psi) for a in (1, 2, 3, 4)]
        assert len(passes) == 4

    def test_chain_out_of_range(self):
        rng = np.random.default_rng(16)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        with pytest.raises(ValueError):
            pj.qchain_expectation(0, phi, psi)
        with pytest.raises(ValueError):
            pj.qchain_expectation(4, phi, psi)


class TestExcitations:
    def test_product_state_is_vacuum(self):
        rng = np.random.default_rng(17)
        phi = random_phi(3, rng)
        prod = ts.product_state(phi, 4, CELL)
        xi0 = pj.excitation_extract(0, phi, prod)
        assert complex(xi0.amps) == pytest.approx(1.0, abs=1e-12)
        for k in range(1, 5):
            assert pj.excitation_extract(k, phi, prod).norm() <= 1e-12

    def test_orthogonal_to_condensate_in_every_coordinate(self):
        rng = np.random.default_rng(18)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 4, CELL, rng)
        p, _ = ts.projector_matrices(phi, CELL)
        for k in range(1, 5):
            xi = pj.excitation_extract(k, phi, psi)
            for slot in range(k):
                assert ts.apply_factor(p, slot, xi).norm() <= 1e-12

    def test_norms_match_spectral_weights(self):
        rng = np.random.default_rng(19)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 4, CELL, rng)
        w = pj.spectral_weights(psi, phi)
        for k in range(5):
            xi = pj.excitation_extract(k, phi, psi)
            assert xi.norm() ** 2 == pytest.approx(w.weights[k], abs=1e-10)

    def test_moment_values(self):
        rng = np.random.default_rng(20)
        phi = random_phi(3, rng)
        prod = ts.product_state(phi, 3, CELL)
        assert pj.excitation_moment(1, phi, prod) <= 1e-12
        chi = orthogonalise(rng.standard_normal(3) + 1j * rng.standard_normal(3), phi)
        exc = one_excitation_tensor(phi, chi, 3)
        assert pj.excitation_moment(1, phi, exc) == pytest.approx(1.0, abs=1e-10)

    def test_moment_sandwich(self):
        # <N^a> <= N^a ||m^a psi||^2 <= 1 + 2^a <N^a> on normalised states
        rng = np.random.default_rng(21)
        phi = random_phi(3, rng)
        for _ in range(10):
            psi = ts.random_symmetric(3, 4, CELL, rng)
            w = pj.spectral_weights(psi, phi)
            for a in (1, 2, 3):
                exc = w.moment(a)
                scaled = 4**a * pj.m_moment(a, phi, psi, weights=w)
                assert exc <= scaled + 1e-10
                assert scaled <= 1.0 + 2**a * exc + 1e-10


class TestFqqIdentities:
    def test_number_identity_exact(self):
        rng = np.random.default_rng(22)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 4, CELL, rng)
        lhs = pj.n_moment(1, phi, psi)
        rhs = psi.inner(pj.number_apply(psi, ts.projector_matrices(phi, CELL)[0])).real / 4
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_chain_bounded_by_nhat_insertions(self):
        rng = np.random.default_rng(23)
        n = 5
        phi = random_phi(2, rng)
        psi = ts.random_symmetric(2, n, CELL, rng)
        for a in (1, 2, 3, 4):
            lhs = pj.qchain_expectation(a, phi, psi)
            for j in range(a + 1):
                part = ts.apply_projector_chain(["q"] * j + ["id"] * (n - j), phi, psi)
                weighted = pj.apply_weight(
                    pj.WeightFunction(lambda k: (k / n) ** ((a - j) / 2.0)), phi, part
                )
                assert lhs <= weighted.norm() ** 2 + 1e-12

    def test_equivalence_sandwich_explicit_constants(self):
        rng = np.random.default_rng(24)
        n = 5
        phi = random_phi(2, rng)
        psi = ts.random_symmetric(2, n, CELL, rng)
        w = pj.spectral_weights(psi, phi)
        for a in (1, 2, 3, 4):
            chain = pj.qchain_expectation(a, phi, psi)
            msq = pj.m_moment(a, phi, psi, weights=w)
            assert chain <= msq + 1e-12
            budget = n ** (-a) + sum(
                4**a * math.factorial(a) * n ** (-a + j) * pj.qchain_expectation(j, phi, psi)
                for j in range(1, a + 1)
            )
            assert msq <= budget + 1e-12


class TestShiftIdentity:
    def test_weight_commutes_through_two_slot_operator(self):
        rng = np.random.default_rng(25)
        m, n = 2, 3
        phi = random_phi(m, rng)
        p, q = ts.projector_matrices(phi, CELL)
        raw = ts.TensorState(
            rng.standard_normal((m,) * n) + 1j * rng.standard_normal((m,) * n), CELL
        )
        tmat = rng.standard_normal((m * m, m * m)) + 1j * rng.standard_normal((m * m, m * m))
        fvals = rng.random(n + 1) + 0.2
        f = pj.WeightFunction(lambda k: float(fvals[k]))
        sandwiches = {0: [(p, p)], 1: [(p, q), (q, p)], 2: [(q, q)]}

        def project(pair, state):
            return ts.apply_factor(pair[1], 1, ts.apply_factor(pair[0], 0, state))

        for mu, mu_list in sandwiches.items():
            for nu, nu_list in sandwiches.items():
                for qm in mu_list:
                    for qn in nu_list:
                        right = project(qn, raw)
                        lhs = project(qm, pj.apply_weight(f, phi, ts.apply_two_slot(tmat, 0, 1, right)))
                        rhs = project(
                            qm, ts.apply_two_slot(tmat, 0, 1, pj.apply_weight(f.shifted(mu - nu), phi, right))
                        )
                        assert (lhs - rhs).norm() <= 1e-10


class TestA3Report:
    def test_product_state_constants(self):
        rng = np.random.default_rng(26)
        phi = random_phi(3, rng)
        n, gamma = 4, 0.8
        prod = ts.product_state(phi, n, CELL)
        report = pj.a3_report(prod, phi, gamma, 3)
        assert report.c_a[0] == pytest.approx(1.0, abs=1e-12)
        for i, a in enumerate(report.orders):
            assert report.c_a[i] == pytest.approx(n ** ((gamma - 1.0) * a), abs=1e-10)
        assert report.gamma_max == pytest.approx(1.0)

    def test_one_excitation_constant_is_two(self):
        rng = np.random.default_rng(27)
        phi = random_phi(3, rng)
        chi = orthogonalise(rng.standard_normal(3) + 1j * rng.standard_normal(3), phi)
        n = 4
        state = one_excitation_tensor(phi, chi, n)
        report = pj.a3_report(state, phi, 1.0, 1)
        assert report.c_a[1] == pytest.approx(2.0, abs=1e-10)

    def test_order_capped_by_particles(self):
        rng = np.random.default_rng(28)
        phi = random_phi(3, rng)
        prod = ts.product_state(phi, 3, CELL)
        with pytest.raises(ValueError):
            pj.a3_report(prod, phi, 1.0, 4)
