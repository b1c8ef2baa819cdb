import math

import numpy as np
import pytest

from bosonlab import fockstate as fs
from bosonlab import projections as pj
from bosonlab import tensorstate as ts
from bosonlab.errors import ConsistencyError
from bosonlab.experiments import build_mixed, build_product, default_phi0
from bosonlab.model import ModelConfig, build_model

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
        w = pj.spectral_weights(prod, phi)
        for a in range(4):
            assert w.m_moment(a) == pytest.approx(n ** (-a), abs=1e-12)

    def test_negative_weight_rejected(self):
        rng = np.random.default_rng(11)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        with pytest.raises(ValueError):
            pj.apply_weight(pj.WeightFunction(lambda k: k - 1.0), phi, psi)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, value):
        rng = np.random.default_rng(11)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        with pytest.raises(ValueError, match="not finite"):
            pj.apply_weight(lambda k: value, phi, psi)

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
                nm = w.n_moment(a)
                mm = w.m_moment(a)
                assert nm <= mm + 1e-12
                assert mm <= 2**a * nm + n ** (-a) + 1e-12

    def test_w_lambda_family_shape(self):
        # the capped linear family (k+1)/N^lam, capped at 1, of the paper's f_hat
        n = 8
        cap = n**0.5
        wf = pj.WeightFunction(lambda k: (k + 1) / cap if k <= cap - 1 else 1.0)
        vals = pj.weight_values(wf, n)
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

    # (49, 2): a 7 x 7 lattice's worth of sites, where (N + 1)^(M - 1)
    # outgrows int64 and the frame plan must rank vectors combinatorially
    @pytest.mark.parametrize("m, n", [(3, 30), (2, 60), (4, 16), (49, 2)])
    def test_weights_match_dense_oracle(self, m, n):
        space = fs.FockSpace(fs.enumerate_basis(m, n), CELL)
        rng = np.random.default_rng(30 + n)
        phi = random_phi(m, rng)
        psi = fs.random_fock(space, rng)
        dim = space.basis.dim
        _, q = ts.projector_matrices(phi, CELL)
        # dense S, column by column from the lift on unit vectors
        s_mat = np.empty((dim, dim), dtype=np.complex128)
        for col in range(dim):
            unit = np.zeros(dim, dtype=np.complex128)
            unit[col] = 1.0
            s_mat[:, col] = pj.number_apply(fs.FockState(unit, space), q).amps
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
                            lambda state, q: number_apply(state, q) + 0.3 * state)
        with pytest.raises(ConsistencyError) as info:
            pj.spectral_weights(psi, phi)
        assert info.value.exit_code == 1

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_weight_moved_into_k0_is_refused(self, monkeypatch, rep):
        # doubling one k = 0 amplitude moves weight into k = 0 only, which
        # leaves moments 1 and 2 as they were: only the total can see it
        from bosonlab.errors import ConsistencyError

        rng = np.random.default_rng(34)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 4, CELL, rng)
        if rep == "fock":
            psi = fs.extract(psi, fs.FockSpace(fs.enumerate_basis(3, 4), CELL))
        to_frame = type(psi).to_frame

        def moved(state, phi):
            amps, k = to_frame(state, phi)
            amps = amps.copy()
            amps.flat[np.argmax(np.where(k == 0, np.abs(amps), 0.0))] *= 2.0
            return amps, k

        monkeypatch.setattr(type(psi), "to_frame", moved)
        for call in (lambda: pj.spectral_weights(psi, phi), lambda: pj.apply_weight(lambda k: 1.0, phi, psi),
                     lambda: pj.apply_Pk(0, phi, psi)):
            with pytest.raises(ConsistencyError, match=r"not \|\|psi\|\|\^2 = "):
                call()

    def test_weights_cost_at_most_n_plus_one_lifts(self, monkeypatch):
        n = 16
        space = fs.FockSpace(fs.enumerate_basis(4, n), CELL)
        rng = np.random.default_rng(32)
        phi = random_phi(4, rng)
        psi = fs.random_fock(space, rng)
        calls = []
        number_apply = pj.number_apply

        def counted(state, q):
            calls.append(1)
            return number_apply(state, q)

        monkeypatch.setattr(pj, "number_apply", counted)
        pj.spectral_weights(psi, phi)
        assert 0 < len(calls) <= n + 1


    @pytest.mark.parametrize("n", [16, 40])
    def test_frame_products_stay_below_serial_bound(self, monkeypatch, n):
        """Each of the frame's M - 1 = 3 rotations builds its R_n in one real
        product O (B, B) @ (B, 2 B) over n, B = N + 1, and applies them as
        complex products R_n @ X on each n's (n + 1, blocks) amplitudes: at
        N = 40 one build matrix would exceed SERIAL_PRODUCT multiply-adds, so
        the build runs in blocks.  Every product of the call, the check lift's
        included, stays within SERIAL_PRODUCT, and none is a matrix-vector
        product."""
        space = fs.FockSpace(fs.enumerate_basis(4, n), CELL)
        assert ((n + 1) ** 3 * 2 > fs.SERIAL_PRODUCT) == (n == 40)
        rng = np.random.default_rng(33)
        phi = random_phi(4, rng)
        psi = fs.random_fock(space, rng)
        shapes, matmul = [], np.matmul

        def recorded(a, b, **kw):
            shapes.append((np.ndim(a), np.ndim(b), *np.shape(a)[-2:], np.shape(b)[-1]))
            return matmul(a, b, **kw)

        monkeypatch.setattr(np, "matmul", recorded)
        w = pj.spectral_weights(psi, phi)
        assert w.total == pytest.approx(psi.norm() ** 2, rel=1e-10)
        build = [s for s in shapes if s[:2] == (3, 3)]  # O (B, B, B) @ (B, B, 2 B)
        assert len(build) == 3 if n == 16 else len(build) > 3
        assert sum(s[:2] == (2, 2) for s in shapes) >= 3 * n  # one R_n @ X per n > 0
        assert all(min(s[:2]) > 1 for s in shapes)
        assert all(m * k * c <= fs.SERIAL_PRODUCT for _, _, m, k, c in shapes)


class TestFrame:
    """``to_frame`` / ``from_frame``: the state over a one-body basis whose
    mode 0 is u = sqrt(cell) phi, on both representations."""

    @staticmethod
    def sector_state(rng, **over):
        """A random state of the sector ``build_product`` picks for the
        model, and its condensate."""
        raw = dict(dimension=1, sites_per_dim=4, torus_length=4.0, particles=16)
        raw.update(over)
        uniform = raw.pop("uniform", False)
        model = build_model(ModelConfig(**raw))
        phi = default_phi0(model)
        if uniform:
            phi = np.full(model.config.site_count, 1.0 / math.sqrt(model.config.site_count * model.cell),
                          dtype=complex)
        product = build_product(model, phi)
        dim = product.amps.size
        return product.with_amps(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)), phi

    @pytest.mark.parametrize("over,order,dim", [
        ({}, 2, 525),  # the Z2 sector of the weights benchmark, N = 16, M = 4
        # a uniform phi keeps the dihedral group D6
        ({"sites_per_dim": 6, "torus_length": 6.0, "particles": 8, "uniform": True}, 12, 126),
        ({"dimension": 2, "sites_per_dim": 3, "torus_length": 3.0, "particles": 4}, 8, 84),  # D4, 3 x 3
    ], ids=["z2-n16-m4", "dihedral-n8-m6", "d4-n4-3x3"])
    def test_sector_weights_match_dense_oracle(self, over, order, dim):
        psi, phi = self.sector_state(np.random.default_rng(40 + dim), **over)
        space = psi.space
        assert (len(space.basis.group), space.basis.dim) == (order, dim)
        n = space.particles
        _, q = ts.projector_matrices(phi, space.cell)
        s_mat = np.stack([pj.number_apply(psi.with_amps(unit), q).amps
                          for unit in np.eye(dim, dtype=np.complex128)], axis=1)
        evals, evecs = np.linalg.eigh(0.5 * (s_mat + s_mat.conj().T))
        labels = np.rint(evals).astype(int)
        assert np.abs(evals - labels).max() <= 1e-9
        dense = np.bincount(labels, weights=np.abs(evecs.conj().T @ psi.amps) ** 2, minlength=n + 1)
        w = pj.spectral_weights(psi, phi)
        assert np.abs(w.weights - dense).max() <= 1e-11 * psi.norm() ** 2

    def test_pk_of_a_non_symmetric_tensor_matches_subset_sum(self):
        # lemma_suite hands apply_weight such two-slot images
        rng = np.random.default_rng(41)
        m, n = 3, 3
        phi = random_phi(m, rng)
        tmat = rng.standard_normal((m * m, m * m)) + 1j * rng.standard_normal((m * m, m * m))
        psi = ts.apply_slots(tmat, (0, 1), ts.random_symmetric(m, n, CELL, rng))
        assert psi.asymmetry() > 0.1
        total = 0.0 * psi
        for k in range(n + 1):
            fast = pj.apply_Pk(k, phi, psi)
            assert (fast - pj.apply_Pk_subset(k, phi, psi)).norm() <= 1e-12 * psi.norm()
            total = total + fast
        assert (total - psi).norm() <= 1e-12 * psi.norm()

    @pytest.mark.parametrize("rep", ["tensor", "tensor-asymmetric", "fock", "z2-sector", "m1"])
    def test_round_trip(self, rep):
        rng = np.random.default_rng(42)
        if rep == "z2-sector":
            psi, phi = z2_sector_state(rng)
        elif rep == "m1":
            phi = random_phi(1, rng)
            psi = fs.random_fock(fs.FockSpace(fs.enumerate_basis(1, 5), CELL), rng)
        else:
            phi = random_phi(3, rng)
            psi = ts.random_symmetric(3, 4, CELL, rng)
            if rep == "tensor-asymmetric":
                psi = ts.apply_slots(rng.standard_normal((3, 3)), (0,), psi)
            if rep == "fock":
                psi = fs.extract(psi, fs.FockSpace(fs.enumerate_basis(3, 4), CELL))
        amps, k = psi.to_frame(phi)
        assert np.shape(k) == np.shape(amps) and np.vdot(amps, amps).real == pytest.approx(psi.norm() ** 2)
        back = psi.from_frame(phi, amps)
        assert type(back) is type(psi) and back.amps.shape == psi.amps.shape
        assert np.abs(back.amps - psi.amps).max() <= 1e-14 * max(1.0, np.abs(psi.amps).max())

    @pytest.mark.parametrize("rep", ["tensor", "fock"])
    def test_the_condensate_is_mode_0(self, rep):
        """phi^(x)N has all its weight on the frame's vacuum, k = 0, and one
        excitation chi sits on k = 1."""
        rng = np.random.default_rng(43)
        phi = random_phi(3, rng)
        chi = orthogonalise(rng.standard_normal(3) + 1j * rng.standard_normal(3), phi)
        for state, level in ((ts.product_state(phi, 4, CELL), 0), (one_excitation_tensor(phi, chi, 4), 1)):
            if rep == "fock":
                state = fs.extract(state, fs.FockSpace(fs.enumerate_basis(3, 4), CELL))
            amps, k = state.to_frame(phi)
            on_level = np.broadcast_to(k, np.shape(amps)) == level
            assert np.abs(amps[~on_level]).max() <= 1e-14
            assert np.sum(np.abs(amps[on_level]) ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_plan_is_built_once_per_space(self, monkeypatch):
        built, plan = [], fs._frame_plan
        monkeypatch.setattr(fs, "_frame_plan", lambda full, n: built.append(full) or plan(full, n))
        rng = np.random.default_rng(44)
        sector, phi = z2_sector_state(rng)
        site = fs.random_fock(fs.FockSpace(fs.enumerate_basis(4, 5), CELL), rng)
        pj.spectral_weights(sector, phi)
        pj.spectral_weights(sector, phi)
        pj.apply_Pk(2, phi, sector)
        # one plan for the sector's space, read from the full basis it holds
        assert len(built) == 1 and built[0] is sector.space.basis.full
        pj.spectral_weights(site, phi)
        pj.apply_Pk(2, phi, site)
        # a second space of the same (M, N) builds its own, once
        assert len(built) == 2 and built[1] is site.space.basis.full
        pj.spectral_weights(fs.random_fock(fs.FockSpace(fs.enumerate_basis(4, 6), CELL), rng), phi)
        assert len(built) == 3

    @pytest.mark.parametrize("rep", ["tensor", "fock", "z2-sector"])
    def test_bad_condensates_and_states_are_refused(self, rep):
        rng = np.random.default_rng(45)
        if rep == "z2-sector":
            psi, phi = z2_sector_state(rng)
        else:
            phi = random_phi(3, rng)
            psi = ts.random_symmetric(3, 3, CELL, rng)
            if rep == "fock":
                psi = fs.extract(psi, fs.FockSpace(fs.enumerate_basis(3, 3), CELL))
        longer = np.append(phi, 0.0)
        for call in (pj.spectral_weights, lambda s, f: pj.apply_Pk(1, f, s)):
            with pytest.raises(ValueError):
                call(psi, longer)
            with pytest.raises(ValueError, match="normalised"):
                call(psi, 2.0 * phi)
        if rep == "tensor":
            with pytest.raises(ValueError, match="spectral weights require a symmetric state"):
                pj.spectral_weights(ts.apply_slots(rng.standard_normal((3, 3)), (0,), psi), phi)


def z2_sector_state(rng):
    """A random state of the reflection-symmetric sector of 5 particles on
    4 sites, and a condensate invariant under the reflection."""
    mirror = -np.arange(4) % 4
    space = fs.FockSpace(fs.enumerate_basis(4, 5, symmetry=(mirror,)), CELL)
    raw = random_phi(4, rng)
    phi = raw + raw[mirror]
    return fs.random_fock(space, rng), phi / np.sqrt(CELL * np.vdot(phi, phi).real)


class TestNumberApply:
    @pytest.mark.parametrize("rep", ["tensor", "fock", "z2-sector"])
    def test_lift_of_q_is_n_minus_lift_of_p(self, rep):
        # S = dGamma(q) = N - dGamma(p), since p + q = 1
        rng = np.random.default_rng(34)
        if rep == "z2-sector":
            psi, phi = z2_sector_state(rng)
        else:
            phi = random_phi(3, rng)
            psi = ts.random_symmetric(3, 4, CELL, rng)
            if rep == "fock":
                psi = fs.extract(psi, fs.FockSpace(fs.enumerate_basis(3, 4), CELL))
        p, q = ts.projector_matrices(phi, CELL)
        got = pj.number_apply(psi, q)
        expect = psi.particles * psi - psi.lift(p)
        assert got.amps.shape == psi.amps.shape
        assert (got - expect).norm() <= 1e-13 * expect.norm()


class TestQChain:
    def test_product_state_vanishes(self):
        rng = np.random.default_rng(13)
        phi = random_phi(3, rng)
        prod = ts.product_state(phi, 4, CELL)
        for a in (1, 2, 3):
            assert abs(pj.qchain_expectation(a, phi, prod)) <= 1e-12

    def test_tensor_chain_refuses_a_wrong_spectral_value(self):
        rng = np.random.default_rng(13)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 4, CELL, rng)
        spectral = pj.spectral_weights(psi, phi).qchain(2)
        assert psi.chain_expectation(2, phi, spectral) == pytest.approx(spectral, abs=1e-8)
        with pytest.raises(ConsistencyError, match="q-chain routes disagree"):
            psi.chain_expectation(2, phi, spectral + 1e-6)

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
            spectral = w.qchain(a)
            assert direct == pytest.approx(spectral, abs=1e-10)

    def test_occupation_state_agrees_with_its_embedding(self):
        model = build_model(ModelConfig(dimension=1, sites_per_dim=4, torus_length=4.0, particles=4))
        phi = default_phi0(model)
        psi = build_mixed(model, phi, 0.5, representation="fock")
        weights = pj.spectral_weights(psi, phi)
        for a in range(1, 5):
            fock = pj.qchain_expectation(a, phi, psi)
            assert fock == pytest.approx(pj.qchain_expectation(a, phi, fs.embed(psi)), abs=1e-12)
            assert fock == pytest.approx(weights.qchain(a), abs=1e-12)

    def test_an_occupation_state_reads_only_its_own_weights(self):
        # the occupation route has no direct projection to check a spectral
        # value against, so a state must not be handed another state's weights
        model = build_model(ModelConfig(dimension=1, sites_per_dim=4, torus_length=4.0, particles=5))
        phi = default_phi0(model)
        psi, other = (build_mixed(model, phi, eps, representation="fock") for eps in (0.5, 1.0))
        own, foreign = (pj.spectral_weights(state, phi) for state in (psi, other))
        assert own.qchain(1) == pytest.approx(0.04, abs=1e-12)
        assert foreign.qchain(1) == pytest.approx(0.1, abs=1e-12)
        assert pj.qchain_expectation(1, phi, psi) == pytest.approx(own.qchain(1), abs=1e-12)
        with pytest.raises(TypeError):
            pj.qchain_expectation(1, phi, psi, weights=foreign)

    def test_chain_out_of_range(self):
        rng = np.random.default_rng(16)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        with pytest.raises(ValueError):
            pj.qchain_expectation(0, phi, psi)
        with pytest.raises(ValueError):
            pj.qchain_expectation(4, phi, psi)
        with pytest.raises(ValueError, match="out of range"):
            pj.spectral_weights(psi, phi).qchain(4)


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
                assert ts.apply_slots(p, (slot,), xi).norm() <= 1e-12

    @pytest.mark.parametrize("k", [-1, 5])
    def test_order_outside_0_to_n_rejected(self, k):
        rng = np.random.default_rng(19)
        phi = random_phi(3, rng)
        with pytest.raises(ValueError, match=f"excitation order k={k} out of range 0..4"):
            pj.excitation_extract(k, phi, ts.random_symmetric(3, 4, CELL, rng))

    def test_more_than_eight_particles_rejected(self):
        phi = random_phi(2, np.random.default_rng(19))
        with pytest.raises(ValueError, match="limited to N <= 8"):
            pj.excitation_extract(1, phi, ts.product_state(phi, 9, CELL))

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
        assert pj.spectral_weights(prod, phi).moment(1) <= 1e-12
        chi = orthogonalise(rng.standard_normal(3) + 1j * rng.standard_normal(3), phi)
        exc = one_excitation_tensor(phi, chi, 3)
        assert pj.spectral_weights(exc, phi).moment(1) == pytest.approx(1.0, abs=1e-10)

    def test_moment_sandwich(self):
        # <N^a> <= N^a ||m^a psi||^2 <= 1 + 2^a <N^a> on normalised states
        rng = np.random.default_rng(21)
        phi = random_phi(3, rng)
        for _ in range(10):
            psi = ts.random_symmetric(3, 4, CELL, rng)
            w = pj.spectral_weights(psi, phi)
            for a in (1, 2, 3):
                exc = w.moment(a)
                scaled = 4**a * w.m_moment(a)
                assert exc <= scaled + 1e-10
                assert scaled <= 1.0 + 2**a * exc + 1e-10


class TestFqqIdentities:
    def test_number_identity_exact(self):
        rng = np.random.default_rng(22)
        phi = random_phi(3, rng)
        psi = ts.random_symmetric(3, 4, CELL, rng)
        lhs = pj.spectral_weights(psi, phi).n_moment(1)
        rhs = psi.inner(pj.number_apply(psi, ts.projector_matrices(phi, CELL)[1])).real / 4
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
            msq = w.m_moment(a)
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
            return ts.apply_slots(pair[1], (1,), ts.apply_slots(pair[0], (0,), state))

        for mu, mu_list in sandwiches.items():
            for nu, nu_list in sandwiches.items():
                for qm in mu_list:
                    for qn in nu_list:
                        right = project(qn, raw)
                        lhs = project(qm, pj.apply_weight(f, phi, ts.apply_slots(tmat, (0, 1), right)))
                        rhs = project(
                            qm, ts.apply_slots(tmat, (0, 1), pj.apply_weight(f.shifted(mu - nu), phi, right))
                        )
                        assert (lhs - rhs).norm() <= 1e-10


class TestBudget:
    def test_product_state_constants(self):
        rng = np.random.default_rng(26)
        phi = random_phi(3, rng)
        n, gamma = 4, 0.8
        w = pj.spectral_weights(ts.product_state(phi, n, CELL), phi)
        assert w.budget(0, gamma) == pytest.approx(1.0, abs=1e-12)
        for a in range(4):
            assert w.budget(a, gamma) == pytest.approx(n ** ((gamma - 1.0) * a), abs=1e-10)
        assert w.gamma_max(3) == pytest.approx(1.0)

    def test_one_excitation_constant_is_two(self):
        rng = np.random.default_rng(27)
        phi = random_phi(3, rng)
        chi = orthogonalise(rng.standard_normal(3) + 1j * rng.standard_normal(3), phi)
        n = 4
        w = pj.spectral_weights(one_excitation_tensor(phi, chi, n), phi)
        assert w.budget(1, 1.0) == pytest.approx(2.0, abs=1e-10)

    def test_order_capped_by_particles(self):
        rng = np.random.default_rng(28)
        phi = random_phi(3, rng)
        w = pj.spectral_weights(ts.product_state(phi, 3, CELL), phi)
        with pytest.raises(ValueError):
            w.gamma_max(4)

    def test_gamma_max_is_where_the_largest_budget_reaches_one(self):
        # one excitation at N = 4: c_a = (4^gamma / 2)^a reaches 1 at gamma = 1/2
        assert pj.SpectralWeights(np.array([0.0, 1.0, 0.0, 0.0, 0.0])).gamma_max(3) == pytest.approx(0.5)
        # half of it: the bound log(1 / m_a) / (a log N) is smallest at a = 3
        w = pj.SpectralWeights(np.array([0.5, 0.5, 0.0, 0.0, 0.0]))
        g = w.gamma_max(3)
        assert g == pytest.approx(math.log(1.0 / w.m_moment(3)) / (3 * math.log(4)))
        assert g < w.gamma_max(2) < w.gamma_max(1) < 1.0
        assert max(w.budget(a, g) for a in (1, 2, 3)) == pytest.approx(1.0, abs=1e-12)
        assert all(w.budget(a, g) <= 1.0 + 1e-12 for a in (1, 2, 3))

    def test_gamma_max_is_zero_when_no_gamma_qualifies(self):
        # at N = 2 with all weight at k = 2, c_1 = 3/2 already at gamma -> 0
        assert pj.SpectralWeights(np.array([0.0, 0.0, 1.0])).gamma_max(2) == 0.0

    def test_one_particle_budget_is_independent_of_gamma(self):
        # N^(gamma a) = 1 at N = 1, so c_a = ||m_hat^a psi||^2 at every gamma
        assert pj.SpectralWeights(np.array([1.0, 0.0])).gamma_max(1) == 1.0
        assert pj.SpectralWeights(np.array([0.5, 0.5])).gamma_max(1) == 0.0


def with_nan(state):
    """``state`` with one amplitude NaN."""
    amps = state.amps.copy()
    amps.flat[3] = np.nan
    return state.with_amps(amps)


def nan_cases():
    """(call, error) pairs at M = 4, N = 3 unless stated: each check reads a
    NaN input as out of tolerance, where ``x > tol`` would let it pass."""
    rng = np.random.default_rng(40)
    phi = random_phi(4, rng)
    bad_phi = phi.copy()
    bad_phi[1] = np.nan
    psi = ts.random_symmetric(4, 3, CELL, rng)
    fpsi = fs.extract(psi, fs.FockSpace(fs.enumerate_basis(4, 3), CELL))
    z2 = fs.FockSpace(fs.enumerate_basis(4, 4, symmetry=((3, 2, 1, 0),)), CELL)
    table = np.eye(4, dtype=np.complex128)
    table[0, 1] = np.nan
    return {
        "weights-phi-tensor": (lambda: pj.spectral_weights(psi, bad_phi), ValueError),
        "weights-phi-fock": (lambda: pj.spectral_weights(fpsi, bad_phi), ValueError),
        "apply-pk-phi": (lambda: pj.apply_Pk(1, bad_phi, psi), ValueError),
        "qchain-phi": (lambda: pj.qchain_expectation(1, bad_phi, fpsi), ValueError),
        "weights-amplitude-fock": (lambda: pj.spectral_weights(with_nan(fpsi), phi), ConsistencyError),
        "weights-amplitude-tensor": (lambda: pj.spectral_weights(with_nan(psi), phi), ValueError),
        "z2-table": (lambda: fs.dgamma_apply(table, fs.random_fock(z2, rng)), ValueError),
        "z2-orbit-amplitudes": (
            lambda: z2.orbit_amplitudes(z2.site_amplitudes(with_nan(fs.random_fock(z2, rng)).amps)), ValueError),
        "extract": (lambda: fs.extract(with_nan(psi), fpsi.space), ValueError),
        "chain-expectation": (lambda: psi.chain_expectation(1, phi, np.nan), ConsistencyError),
    }


@pytest.mark.parametrize("case", list(nan_cases()))
def test_a_nan_input_is_refused(case):
    call, error = nan_cases()[case]
    with pytest.raises(error):
        call()
