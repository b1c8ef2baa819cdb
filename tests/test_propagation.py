import numpy as np
import pytest

from bosonlab import fockstate as fs
from bosonlab import tensorstate as ts
from bosonlab.errors import IntegratorError
from bosonlab.experiments import build_product, default_phi0
from bosonlab.hamiltonians import apply_H
from bosonlab.meanfield import hartree_evolve
from bosonlab.model import build_model, validate_config
from bosonlab.propagation import check_state, evolve_aux, evolve_full, march


def make_model(**over):
    raw = {
        "dimension": 1,
        "sites_per_dim": 4,
        "torus_length": 4.0,
        "particles": 3,
        "interaction_amplitude": 0.5,
        "interaction_radius": 1.5,
        "dt": 1e-3,
        "t_final": 0.5,
    }
    raw.update(over)
    return build_model(validate_config(raw))


def schroedinger(generator):
    """Right-hand side of i dpsi/dt = generator(t, psi)."""
    return lambda t, y: -1j * generator(t, y)


@pytest.fixture(scope="module")
def setup():
    model = make_model()
    phi0 = default_phi0(model)
    psi0 = build_product(model, phi0, "fock")
    traj = hartree_evolve(phi0, 0.0, 0.5, model)
    return model, phi0, psi0, traj


class TestStep:
    def test_zero_generator_is_identity(self, setup):
        model, _, psi0, _ = setup
        out = march(schroedinger(lambda t, y: 0.0 * y), psi0, 0, 1, 1e-3)
        assert (out - psi0).norm() == 0.0

    def test_scalar_phase_accuracy(self, setup):
        # diagonal generator: one step matches exp(-i lambda dt) to O(dt^5)
        model, _, psi0, _ = setup
        lam = 1.7
        dt = 1e-2
        out = march(schroedinger(lambda t, y: lam * y), psi0, 0, 1, dt)
        exact = np.exp(-1j * lam * dt) * psi0
        assert (out - exact).norm() <= (lam * dt) ** 5 / 120.0 * 1.01

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_detected(self, setup):
        model, _, psi0, _ = setup
        with pytest.raises(IntegratorError):
            march(schroedinger(lambda t, y: float("inf") * y), psi0, 0, 1, 1e-3)

    def test_norm_drift_per_step(self, setup):
        model, _, psi0, _ = setup
        out = march(schroedinger(lambda t, y: apply_H(t, y, model)), psi0, 0, 1, model.config.dt)
        assert abs(out.norm() - psi0.norm()) <= 1e-12


class TestGuard:
    def test_lead_drift_aborts(self, setup):
        _, _, psi0, _ = setup
        with pytest.raises(IntegratorError, match="drift"):
            march(lambda t, y: 0.5 * y, psi0, 0, 1, 1e-3)

    def test_condensate_leaf_is_not_the_lead(self, setup):
        # only the phi leaf of a [phi, psi] tree grows; the lead psi keeps its norm
        _, phi0, psi0, _ = setup
        out = march(lambda t, y: [0.5 * y[0], 0.0 * y[1]], [phi0.copy(), psi0], 0, 10, 1e-2)
        assert np.linalg.norm(out[0]) > 1.04 * np.linalg.norm(phi0)
        assert (out[1] - psi0).norm() == 0.0

    def test_nan_in_a_trailing_leaf_aborts(self, setup):
        _, phi0, psi0, _ = setup
        bad = psi0.copy()
        bad.amps[0] = np.nan
        check_state([phi0, psi0, psi0], 0.0, psi0.norm())
        with pytest.raises(IntegratorError, match="non-finite"):
            check_state([phi0, psi0, bad], 0.0, psi0.norm())


class TestEvolveFull:
    def test_free_eigenstate_phase(self):
        model = make_model(interaction_profile="zero")
        wave = np.exp(2j * np.pi * np.arange(4) / 4).astype(complex)
        wave /= np.sqrt(model.cell * np.vdot(wave, wave).real)
        eps = (2 - 2 * np.cos(2 * np.pi / 4)) / model.config.spacing**2
        psi0 = ts.product_state(wave, 3, model.cell)
        out = evolve_full(psi0, 0.5, model)
        expect = np.exp(-1j * 3 * eps * 0.5) * psi0
        assert (out - expect).norm() <= 1e-8

    def test_richardson_order(self, setup):
        model, phi0, psi0, _ = setup
        coarse = make_model(dt=8e-3, t_final=0.2)
        half = make_model(dt=4e-3, t_final=0.2)
        ref = make_model(dt=1e-3, t_final=0.2)
        p0 = build_product(coarse, default_phi0(coarse), "fock")
        r = evolve_full(p0, 0.2, ref)
        e1 = (evolve_full(p0, 0.2, coarse) - r).norm()
        e2 = (evolve_full(p0, 0.2, half) - r).norm()
        order = np.log2(e1 / e2)
        assert order >= 3.8

    def test_norm_conserved(self, setup):
        model, _, psi0, _ = setup
        out = evolve_full(psi0, 0.5, model)
        assert abs(out.norm() - 1.0) <= 1e-8

    def test_observer_called_on_grid(self, setup):
        model, _, psi0, _ = setup
        seen = []
        evolve_full(psi0, 0.01, model, observer=lambda i, t, y: seen.append(i))
        assert seen == list(range(11))


class TestEvolveAux:
    def test_free_case_collapses_to_full(self):
        model = make_model(interaction_profile="zero", t_final=0.3)
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0, "fock")
        traj = hartree_evolve(phi0, 0.0, 0.3, model)
        full = evolve_full(psi0, 0.3, model)
        aux = evolve_aux(psi0, 0.0, 0.3, traj)
        assert (full - aux).norm() <= 1e-10

    def test_group_property(self, setup):
        model, phi0, psi0, traj = setup
        direct = evolve_aux(psi0, 0.0, 0.4, traj)
        mid = evolve_aux(psi0, 0.0, 0.15, traj)
        second = evolve_aux(mid, 0.15, 0.4, traj)
        assert (direct - second).norm() <= 1e-8

    def test_norm_conserved(self, setup):
        model, phi0, psi0, traj = setup
        out = evolve_aux(psi0, 0.0, 0.5, traj)
        assert abs(out.norm() - 1.0) <= 1e-8

    def test_condensate_overlap_diagnostic(self, setup):
        # weak coupling keeps the evolved state close to the moving condensate
        model, phi0, psi0, traj = setup
        out = evolve_aux(psi0, 0.0, 0.5, traj)
        i_end = traj.index_of(0.5)
        reference = build_product(model, traj.phi(i_end) / np.sqrt(
            model.cell * np.vdot(traj.phi(i_end), traj.phi(i_end)).real), "fock")
        overlap = abs(fs.inner(reference, out))
        assert 0.9 <= overlap <= 1.0 + 1e-12

    def test_trajectory_gap_rejected(self, setup):
        model, phi0, psi0, traj = setup
        with pytest.raises(ValueError):
            evolve_aux(psi0, 0.0, 0.7, traj)


class TestGeneratorConsistency:
    def test_finite_difference_recovers_action(self, setup):
        model, _, psi0, _ = setup
        action = apply_H(0.0, psi0, model)
        defects = []
        for dt in (4e-3, 2e-3, 1e-3):
            stepped = march(schroedinger(lambda t, y: apply_H(t, y, model)), psi0, 0, 1, dt)
            quotient = (1j / dt) * (stepped - psi0)
            defects.append((quotient - action).norm())
        assert defects[0] > defects[1] > defects[2]

    def test_step_order_at_least_3_8(self, setup):
        # local error must sit well above roundoff for the ratio to be clean,
        # so the step here is much coarser than production dt
        model, _, psi0, _ = setup
        rhs = schroedinger(lambda t, y: apply_H(t, y, model))
        dt = 4e-2
        ref = march(rhs, psi0, 0, 32, dt / 32)
        e1 = (march(rhs, psi0, 0, 1, dt) - ref).norm()
        e2 = (march(rhs, psi0, 0, 2, dt / 2) - ref).norm()
        assert np.log2(e1 / e2) >= 3.8
