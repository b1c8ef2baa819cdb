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


def generator(phi, t, model):
    """The generator's action h[phi](t) phi from the march's private primitives."""
    return mf._slope(model.h0(t), phi, *mf._mean_field(phi, model.pair, model.cell))


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
        w = model.pair
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
        w = model.pair
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
        rhs = generator(wave, 0.0, model)
        assert np.allclose(rhs, eps * wave, atol=1e-13)

    def test_uniform_state_stationary_up_to_phase(self):
        model = make_model()
        phi = uniform_phi(model)
        rhs = generator(phi, 0.0, model)
        vb = mf.vbar(phi, model.pair, model.cell)
        m = mf.mu(phi, model.pair, model.cell)
        assert np.allclose(rhs, (vb[0] - m) * phi, atol=1e-14)

    def test_norm_conservation_generator(self):
        model = make_model()
        rng = np.random.default_rng(4)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi /= mf.one_body_norm(phi, model.cell)
        rhs = generator(phi, 0.0, model)
        # <phi, h[phi] phi> is real, so i phi' = h[phi] phi keeps the norm
        overlap = model.cell * np.vdot(phi, rhs)
        assert abs(overlap.imag) <= 1e-13

    @pytest.mark.parametrize("dimension,sites", [(1, 4), (2, 3)])
    @pytest.mark.parametrize("potential", ["none", "harmonic", "tabulated"])
    def test_matches_dense_generator(self, monkeypatch, dimension, sites, potential):
        # the march and its stored stages against RK4 on the dense generator
        # h0(t) + diag(vbar) - mu, with each stage at its own time
        m = sites**dimension
        rng = np.random.default_rng(20 + dimension)
        over = {"dimension": dimension, "sites_per_dim": sites, "torus_length": float(sites),
                "t_final": 0.02}
        if potential == "harmonic":
            over.update(potential_kind="harmonic", potential_strength=0.4)
        elif potential == "tabulated":
            # a table that moves within each step, so every stage time matters
            table = tuple(tuple(row) for row in 5.0 * rng.random((3, m)))
            over.update(potential_kind="tabulated", potential_table=((0.0, 0.0105, 0.02), table))
        model = make_model(**over)
        phi0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        phi0 /= mf.one_body_norm(phi0, model.cell)
        dt, steps = model.config.dt, 20

        def dense(phi, t):
            vb = mf.vbar(phi, model.pair, model.cell)
            shift = mf.mu(phi, model.pair, model.cell)
            return -1j * (model.h0(t) + np.diag(vb) - shift * np.eye(m)) @ phi

        phis, stages, times = [phi0], [], []
        for k in range(steps):
            phi, t = phis[-1], k * dt
            stage, slopes = [phi], [dense(phi, t)]
            for step in (0.5 * dt, 0.5 * dt, dt):
                stage.append(phi + step * slopes[-1])
                slopes.append(dense(stage[-1], t + step))
            k1, k2, k3, k4 = slopes
            phis.append(phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            stages += stage
            times += [t, t + 0.5 * dt, t + 0.5 * dt, t + dt]

        calls = []
        original = mf.condensate_at
        monkeypatch.setattr(mf, "condensate_at", lambda *a: calls.append(1) or original(*a))
        traj = mf.hartree_evolve(phi0, 0.0, 0.02, model)
        assert calls == []
        assert traj.stage_phis.shape == (4 * steps, m)
        assert np.abs(traj.phis - np.array(phis)).max() <= 1e-14
        assert np.abs(traj.stage_phis - np.array(stages)).max() <= 1e-14
        assert np.array_equal(traj.stage_times, np.array(times))
        norms = [mf.one_body_norm(phi, model.cell) for phi in traj.phis]
        assert np.array_equal(traj.norms, np.array(norms))

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
        assert stacked.vbar.shape == phis.shape and stacked.mu.shape == times.shape
        for phi, t, vb, mu in zip(phis, times, stacked.vbar, stacked.mu):
            one = mf.condensate_at(phi, t, model)
            assert np.abs(vb - one.vbar).max() <= 1e-14 and abs(mu - one.mu) <= 1e-14


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

    @pytest.mark.parametrize("dimension,sites", [(1, 4), (2, 3)])
    @pytest.mark.parametrize("potential", ["none", "harmonic", "tabulated"])
    def test_march_is_bit_identical_to_public_stages(self, monkeypatch, dimension, sites, potential):
        # the reference steps one condensate at a time through the public
        # condensate_at and h0; the march must give the same bits without them
        m = sites**dimension
        rng = np.random.default_rng(20 + dimension)
        over = {"dimension": dimension, "sites_per_dim": sites, "torus_length": float(sites),
                "t_final": 0.02}
        if potential == "harmonic":
            over.update(potential_kind="harmonic", potential_strength=0.4)
        elif potential == "tabulated":
            # a table that moves within each step, so every stage time matters
            table = tuple(tuple(row) for row in 5.0 * rng.random((3, m)))
            over.update(potential_kind="tabulated", potential_table=((0.0, 0.0105, 0.02), table))
        model = make_model(**over)
        phi0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        phi0 /= mf.one_body_norm(phi0, model.cell)
        dt, steps = model.config.dt, 20

        def rhs(phi, t):
            cond = mf.condensate_at(phi, t, model)
            return -1j * (model.h0(t).dot(cond.phi) + (cond.vbar - cond.mu) * cond.phi)

        phis, stages = [phi0], []
        for k in range(steps):
            phi, t = phis[-1], k * dt
            k1 = rhs(phi, t)
            s2 = phi + 0.5 * dt * k1
            k2 = rhs(s2, t + 0.5 * dt)
            s3 = phi + 0.5 * dt * k2
            k3 = rhs(s3, t + 0.5 * dt)
            s4 = phi + dt * k3
            k4 = rhs(s4, t + dt)
            phis.append(phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            stages += [phi, s2, s3, s4]
        norms = [mf.one_body_norm(phi, model.cell) for phi in phis]

        calls = []
        original = mf.condensate_at
        monkeypatch.setattr(mf, "condensate_at", lambda *a: calls.append(1) or original(*a))
        traj = mf.hartree_evolve(phi0, 0.0, 0.02, model)
        assert calls == []
        assert np.array_equal(traj.phis, np.array(phis))
        assert np.array_equal(traj.stage_phis, np.array(stages))
        assert np.array_equal(traj.norms, np.array(norms))

    def test_drift_abort(self):
        # an unstable step size triggers the integrator guard
        model = make_model(dt=0.25, t_final=5.0)
        rng = np.random.default_rng(8)
        phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi0 /= mf.one_body_norm(phi0, model.cell)
        with pytest.raises(IntegratorError):
            mf.hartree_evolve(phi0, 0.0, 5.0, model)

    def test_non_finite_condensate_aborts(self):
        model = make_model(t_final=0.01)
        phi0 = uniform_phi(model)
        phi0[1] = np.nan
        with pytest.raises(IntegratorError, match="non-finite condensate amplitudes at t=0"):
            mf.hartree_evolve(phi0, 0.0, 0.01, model)

    def test_stage_rows_share_the_trajectory_buffer(self):
        model = make_model(t_final=0.02)
        traj = mf.hartree_evolve(uniform_phi(model), 0.0, 0.02, model)
        assert np.shares_memory(traj.phis, traj.stage_phis)
        assert np.array_equal(traj.stage_phis[::4], traj.phis[:-1])
        empty = mf.hartree_evolve(uniform_phi(model), 0.0, 0.0, model)
        assert empty.stage_phis.shape == (0, model.config.site_count)


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
        cond = mf.condensate_at(traj.phis[50], float(traj.times[50]), model)
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

    def test_hk_integral_is_the_trapezoid_over_the_stored_window(self):
        model = make_model(t_final=0.05)
        rng = np.random.default_rng(13)
        phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi0 /= mf.one_body_norm(phi0, model.cell)
        traj = mf.hartree_evolve(phi0, 0.0, 0.05, model)
        hk = traj.hk
        assert len(hk) == 51 and np.ptp(hk) > 0.0
        trapezoid = model.config.dt * (hk.sum() - 0.5 * (hk[0] + hk[-1]))
        assert traj.hk_integral() == pytest.approx(trapezoid, rel=1e-12)
        assert mf.hartree_evolve(phi0, 0.0, 0.0, model).hk_integral() == 0.0

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
