import numpy as np
import pytest

from bosonlab import fockstate as fs
from bosonlab import meanfield as mf
from bosonlab.duhamel import hierarchy_evolve
from bosonlab.errors import IntegratorError
from bosonlab.model import build_model, validate_config


def make_model(**over):
    raw = {
        "dimension": 1,
        "sites_per_dim": 4,
        "torus_length": 4.0,
        "particles": 3,
        "interaction_amplitude": 0.5,
        "interaction_radius": 1.5,
        "dt": 1e-3,
        "t_final": 0.2,
    }
    raw.update(over)
    return build_model(validate_config(raw))


def uniform_phi(model):
    m = model.config.site_count
    phi = np.ones(m, dtype=complex)
    return phi / mf.one_body_norm(phi, model.cell)


class TestVbar:
    def test_zero_interaction(self):
        model = make_model(interaction_profile="zero")
        phi = uniform_phi(model)
        assert np.all(mf.vbar(phi, model.pair, model.cell) == 0.0)

    def test_uniform_density_matches_double_sum_oracle(self):
        model = make_model()
        phi = uniform_phi(model)
        vb = mf.vbar(phi, model.pair, model.cell)
        m = model.config.site_count
        w = model.pair.mat
        density = np.abs(phi) ** 2
        oracle = np.array(
            [model.cell * sum(w[x, y] * density[y] for y in range(m)) for x in range(m)]
        )
        assert np.allclose(vb, oracle, atol=1e-14)
        # translation invariance makes it constant
        assert np.ptp(vb) <= 1e-14

    def test_translation_covariance(self):
        model = make_model()
        rng = np.random.default_rng(0)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi /= mf.one_body_norm(phi, model.cell)
        shifted = np.roll(phi, 1)
        assert np.allclose(
            np.roll(mf.vbar(phi, model.pair, model.cell), 1),
            mf.vbar(shifted, model.pair, model.cell),
            atol=0.0,
        )

    def test_real_valued(self):
        model = make_model()
        rng = np.random.default_rng(1)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi /= mf.one_body_norm(phi, model.cell)
        assert np.isrealobj(mf.vbar(phi, model.pair, model.cell))


class TestMu:
    def test_zero_interaction(self):
        model = make_model(interaction_profile="zero")
        assert mf.mu(uniform_phi(model), model.pair, model.cell) == 0.0

    def test_nonnegative_for_nonnegative_interaction(self):
        model = make_model()
        rng = np.random.default_rng(2)
        for _ in range(10):
            phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            phi /= mf.one_body_norm(phi, model.cell)
            assert mf.mu(phi, model.pair, model.cell) >= 0.0

    def test_uniform_top_hat_against_double_sum(self):
        model = make_model(interaction_profile="tophat")
        phi = uniform_phi(model)
        density = np.abs(phi) ** 2
        w = model.pair.mat
        oracle = 0.5 * model.cell**2 * float(density @ w @ density)
        assert mf.mu(phi, model.pair, model.cell) == pytest.approx(oracle, abs=1e-15)

    def test_phase_invariance(self):
        model = make_model()
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi /= mf.one_body_norm(phi, model.cell)
        rotated = np.exp(0.37j) * phi
        # exact up to the roundoff of |e^(i theta) z|^2 itself
        assert mf.mu(phi, model.pair, model.cell) == pytest.approx(
            mf.mu(rotated, model.pair, model.cell), rel=1e-14
        )
        assert np.allclose(
            mf.vbar(phi, model.pair, model.cell),
            mf.vbar(rotated, model.pair, model.cell),
            rtol=1e-14,
            atol=1e-16,
        )


class TestHartreeRhs:
    def test_free_plane_wave(self):
        model = make_model(interaction_profile="zero")
        wave = np.exp(2j * np.pi * np.arange(4) / 4).astype(complex)
        wave /= mf.one_body_norm(wave, model.cell)
        eps = (2 - 2 * np.cos(2 * np.pi / 4)) / model.config.spacing**2
        rhs = mf.hartree_rhs(mf.condensate_at(wave, 0.0, model), model)
        assert np.allclose(rhs, -1j * eps * wave, atol=1e-13)

    def test_uniform_state_stationary_up_to_phase(self):
        model = make_model()
        phi = uniform_phi(model)
        rhs = mf.hartree_rhs(mf.condensate_at(phi, 0.0, model), model)
        vb = mf.vbar(phi, model.pair, model.cell)
        m = mf.mu(phi, model.pair, model.cell)
        assert np.allclose(rhs, -1j * (vb[0] - m) * phi, atol=1e-14)

    def test_norm_conservation_generator(self):
        model = make_model()
        rng = np.random.default_rng(4)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi /= mf.one_body_norm(phi, model.cell)
        rhs = mf.hartree_rhs(mf.condensate_at(phi, 0.0, model), model)
        overlap = model.cell * np.vdot(phi, rhs)
        assert abs(overlap.real) <= 1e-13

    @pytest.mark.parametrize("dimension,sites", [(1, 4), (2, 3)])
    @pytest.mark.parametrize("potential", ["harmonic", "tabulated"])
    def test_matches_dense_generator(self, dimension, sites, potential):
        m = sites**dimension
        rng = np.random.default_rng(9 + dimension)
        over = {"dimension": dimension, "sites_per_dim": sites, "torus_length": float(sites)}
        if potential == "harmonic":
            over.update(potential_kind="harmonic", potential_strength=0.4)
        else:
            table = tuple(tuple(row) for row in rng.random((2, m)))
            over.update(potential_kind="tabulated", potential_table=((0.0, 1.0), table))
        model = make_model(**over)
        phi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        phi /= mf.one_body_norm(phi, model.cell)
        t = 0.3
        vb = mf.vbar(phi, model.pair, model.cell)
        shift = mf.mu(phi, model.pair, model.cell)
        dense = -1j * (model.h0(t) + np.diag(vb) - shift * np.eye(m)) @ phi
        assert np.abs(mf.hartree_rhs(mf.condensate_at(phi, t, model), model) - dense).max() <= 1e-14


    @pytest.mark.parametrize("potential", ["none", "tabulated"])
    def test_stacked_condensates_match_one_at_a_time(self, potential):
        rng = np.random.default_rng(12)
        over = {}
        if potential == "tabulated":
            table = tuple(tuple(row) for row in rng.random((2, 4)))
            over.update(potential_kind="tabulated", potential_table=((0.0, 1.0), table))
        model = make_model(**over)
        phis = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        times = np.linspace(0.0, 0.8, 5)
        stacked = mf.condensate_at(phis, times, model)
        rhs = mf.hartree_rhs(stacked, model)
        assert rhs.shape == phis.shape and stacked.mu.shape == times.shape
        for phi, t, vb, mu, k in zip(phis, times, stacked.vbar, stacked.mu, rhs):
            one = mf.condensate_at(phi, t, model)
            assert np.abs(vb - one.vbar).max() <= 1e-14 and abs(mu - one.mu) <= 1e-14
            assert np.abs(k - mf.hartree_rhs(one, model)).max() <= 1e-13

    def test_rk4_stages_of_a_stack_are_those_of_each_step(self):
        model = make_model()
        wave = uniform_phi(model) * np.exp(0.3j * np.arange(4))
        phis = mf.hartree_evolve(wave, 0.0, 0.01, model).phis[:4]
        dt = model.config.dt
        times = np.arange(4) * dt
        stages, slopes = mf.rk4_stages(phis, times, dt, model)
        for i, (phi, t) in enumerate(zip(phis, times)):
            one, one_slopes = mf.rk4_stages(phi, t, dt, model)
            for got, expect in zip(stages, one):
                assert got.t[i] == expect.t
                assert np.abs(got.phi[i] - expect.phi).max() <= 1e-14
            for got, expect in zip(slopes, one_slopes):
                assert np.abs(got[i] - expect).max() <= 1e-13


class TestHartreeEvolve:
    def test_free_plane_wave_exact_phase(self):
        model = make_model(interaction_profile="zero", t_final=0.5)
        wave = np.exp(2j * np.pi * np.arange(4) / 4).astype(complex)
        wave /= mf.one_body_norm(wave, model.cell)
        eps = (2 - 2 * np.cos(2 * np.pi / 4)) / model.config.spacing**2
        traj = mf.hartree_evolve(wave, 0.0, 0.5, model)
        expect = np.exp(-1j * eps * 0.5) * wave
        assert np.abs(traj.phis[-1] - expect).max() <= 1e-8

    def test_richardson_fourth_order(self):
        model = make_model(dt=4e-3, t_final=0.2)
        model_half = make_model(dt=2e-3, t_final=0.2)
        model_ref = make_model(dt=5e-4, t_final=0.2)
        rng = np.random.default_rng(5)
        phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi0 /= mf.one_body_norm(phi0, model.cell)
        ref = mf.hartree_evolve(phi0, 0.0, 0.2, model_ref).phis[-1]
        err1 = np.abs(mf.hartree_evolve(phi0, 0.0, 0.2, model).phis[-1] - ref).max()
        err2 = np.abs(mf.hartree_evolve(phi0, 0.0, 0.2, model_half).phis[-1] - ref).max()
        assert 11.0 <= err1 / err2 <= 21.0  # ~16x for a fourth-order step

    def test_uniform_profile_preserved(self):
        model = make_model(t_final=0.3)
        phi = uniform_phi(model)
        traj = mf.hartree_evolve(phi, 0.0, 0.3, model)
        mags = np.abs(traj.phis)
        assert np.ptp(mags, axis=1).max() <= 1e-10

    def test_norm_drift_within_contract(self):
        model = make_model(t_final=0.5, potential_kind="harmonic", potential_strength=0.4)
        rng = np.random.default_rng(6)
        phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi0 /= mf.one_body_norm(phi0, model.cell)
        traj = mf.hartree_evolve(phi0, 0.0, 0.5, model)
        assert np.abs(traj.norms - 1.0).max() <= 1e-8

    def test_determinism(self):
        model = make_model(t_final=0.1)
        rng = np.random.default_rng(7)
        phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi0 /= mf.one_body_norm(phi0, model.cell)
        a = mf.hartree_evolve(phi0, 0.0, 0.1, model)
        b = mf.hartree_evolve(phi0, 0.0, 0.1, model)
        assert np.array_equal(a.phis, b.phis)

    def test_drift_abort(self):
        # an unstable step size triggers the integrator guard
        model = make_model(dt=0.25, t_final=5.0)
        rng = np.random.default_rng(8)
        phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi0 /= mf.one_body_norm(phi0, model.cell)
        with pytest.raises(IntegratorError):
            mf.hartree_evolve(phi0, 0.0, 5.0, model)


class TestTrajectory:
    def test_index_lookup(self):
        model = make_model(t_final=0.2)
        traj = mf.hartree_evolve(uniform_phi(model), 0.0, 0.2, model)
        assert traj.index_of(0.1) == 100
        assert traj.index_of(0.1 + 1e-10) == 100  # within the grid tolerance 1e-6 dt
        with pytest.raises(ValueError):
            traj.index_of(0.25)
        with pytest.raises(ValueError, match="not on the grid"):
            traj.index_of(0.1 + 1e-8)

    @pytest.mark.parametrize("t0,t1", [(0.0, 0.00149), (0.0005, 0.01)])
    def test_off_grid_times_raise(self, t0, t1):
        model = make_model(t_final=0.2)
        with pytest.raises(ValueError, match="not on the grid"):
            mf.hartree_evolve(uniform_phi(model), t0, t1, model)

    def test_a_later_start_is_refused(self):
        # a trajectory counts grid indices from 0, so one from t0 = 0.05
        # could not look up its own times
        model = make_model(t_final=0.2)
        with pytest.raises(ValueError, match="t0=0.05"):
            mf.hartree_evolve(uniform_phi(model), 0.05, 0.1, model)
        assert mf.hartree_evolve(uniform_phi(model), 1e-12, 0.01, model).index_of(0.01) == 10

    def test_condensate_caches_consistent(self):
        model = make_model(t_final=0.1)
        traj = mf.hartree_evolve(uniform_phi(model), 0.0, 0.1, model)
        cond = traj.condensate(50)
        assert cond.t == pytest.approx(0.05)
        assert cond.mu == pytest.approx(traj.mus[50], abs=1e-14)

    def test_diagnostics_match_per_step_calls(self):
        model = make_model(t_final=0.05, potential_kind="harmonic", potential_strength=0.4)
        rng = np.random.default_rng(11)
        phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi0 /= mf.one_body_norm(phi0, model.cell)
        traj = mf.hartree_evolve(phi0, 0.0, 0.05, model)
        assert np.array_equal(traj.mus, [mf.mu(phi, model.pair, model.cell) for phi in traj.phis])
        assert np.array_equal(traj.hk, [mf.hk_proxy(phi, model) for phi in traj.phis])

    def test_flows_never_compute_the_sobolev_proxy(self, monkeypatch):
        calls = []
        proxy = mf.hk_proxy
        monkeypatch.setattr(mf, "hk_proxy", lambda phi, model: calls.append(1) or proxy(phi, model))
        model = make_model(t_final=0.02)
        rng = np.random.default_rng(12)
        phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi0 /= mf.one_body_norm(phi0, model.cell)
        traj = mf.hartree_evolve(phi0, 0.0, 0.02, model)
        psi0 = fs.product_fock(phi0, fs.FockSpace(fs.enumerate_basis(4, 3), model.cell))
        hierarchy_evolve(psi0, 2, 0.02, traj)
        assert calls == []
        assert len(traj.hk) == len(calls) == len(traj.times)

    def test_hk_proxy_reduces_to_norm(self):
        # the s = 0 analogue of the proxy is the squared lattice norm
        model = make_model()
        rng = np.random.default_rng(9)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi /= mf.one_body_norm(phi, model.cell)
        proxy = mf.hk_proxy(phi, model)
        assert proxy >= 1.0 - 1e-12  # (1 + |k|^2) >= 1 on every mode

    def test_hk_proxy_constant_mode(self):
        model = make_model()
        phi = uniform_phi(model)
        # only the k = 0 mode is populated, weight (1 + 0)^1
        assert mf.hk_proxy(phi, model) == pytest.approx(1.0, abs=1e-12)

    def test_hk_proxy_2d_plane_wave(self):
        model = make_model(dimension=2, sites_per_dim=4, torus_length=4.0)
        idx = np.arange(4)
        wave = np.exp(2j * np.pi * (idx[:, None] + 0 * idx[None, :]) / 4).ravel()
        wave /= mf.one_body_norm(wave, model.cell)
        k = 2 * np.pi / 4.0
        assert mf.hk_proxy(wave, model) == pytest.approx(1.0 + k**2, abs=1e-12)
