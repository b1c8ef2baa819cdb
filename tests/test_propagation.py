import numpy as np
import pytest

from bosonlab import fockstate as fs
from bosonlab import tensorstate as ts
from bosonlab.errors import IntegratorError
from bosonlab.experiments import build_product, default_phi0
from bosonlab.hamiltonians import apply_H
from bosonlab.meanfield import hartree_evolve
from bosonlab.model import build_model, validate_config
from bosonlab.propagation import check_state, evolve_aux, evolve_full, march, rk4_step


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


@pytest.fixture(scope="module")
def setup():
    model = make_model()
    phi0 = default_phi0(model)
    psi0 = build_product(model, phi0, "fock")
    traj = hartree_evolve(phi0, 0.0, 0.5, model)
    return model, phi0, psi0, traj


def one_row(psi):
    """The block of one row holding psi."""
    return psi.with_amps(psi.amps[None].copy())


class TestStep:
    def test_zero_generator_is_identity(self, setup):
        model, _, psi0, _ = setup
        y0 = one_row(psi0)
        out = march(lambda t, y: 0.0 * y, y0, 0, 1, 1e-3)
        assert (out - y0).norm() == 0.0

    def test_scalar_phase_accuracy(self, setup):
        # diagonal generator: one step matches exp(-i lambda dt) to O(dt^5)
        model, _, psi0, _ = setup
        lam = 1.7
        dt = 1e-2
        y0 = one_row(psi0)
        out = march(lambda t, y: lam * y, y0, 0, 1, dt)
        exact = np.exp(-1j * lam * dt) * y0
        assert (out - exact).norm() <= (lam * dt) ** 5 / 120.0 * 1.01

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_detected(self, setup):
        model, _, psi0, _ = setup
        with pytest.raises(IntegratorError):
            march(lambda t, y: float("inf") * y, one_row(psi0), 0, 1, 1e-3)

    def test_norm_drift_per_step(self, setup):
        model, _, psi0, _ = setup
        out = march(lambda t, y: apply_H(t, y, model), one_row(psi0), 0, 1, model.config.dt)
        assert abs(out.norm() - psi0.norm()) <= 1e-12


    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_matches_classical_rk4_of_the_schroedinger_form(self, rep):
        # y' = -i H(t) y stepped as written out, on a two-row block with an
        # external potential that moves within the step: the same bits
        table = ((0.0, 0.12, 0.5), tuple(tuple(row) for row in ((0.0, 1.0, 2.0, 0.5),
                                                                  (3.0, 0.2, 1.5, 0.0),
                                                                  (1.0, 1.0, 0.0, 2.5))))
        model = make_model(potential_kind="tabulated", potential_table=table)
        psi0 = build_product(model, default_phi0(model), rep)
        y = psi0.with_amps(np.stack([psi0.amps, 0.5j * psi0.amps]))
        t, dt = 0.1, 0.05

        def slope(time, amps):
            return -1j * apply_H(time, y.with_amps(amps), model).amps

        k1 = slope(t, y.amps)
        k2 = slope(t + 0.5 * dt, y.amps + 0.5 * dt * k1)
        k3 = slope(t + 0.5 * dt, y.amps + 0.5 * dt * k2)
        k4 = slope(t + dt, y.amps + dt * k3)
        expect = y.amps + (dt / 6.0) * k1 + (dt / 3.0) * k2 + (dt / 3.0) * k3 + (dt / 6.0) * k4
        out = rk4_step(lambda time, block: apply_H(time, block, model), t, y, dt)
        assert np.array_equal(out.amps, expect)
        assert not np.array_equal(out.amps, y.amps)


def rows_scaled(*rates):
    """The generator that multiplies row i of a block by rates[i]; under
    i y' = rate y, a rate 0.5j grows a row as exp(0.5 t)."""
    return lambda t, y: y.with_amps(y.amps * np.reshape(rates, (-1, 1)))


class TestGuard:
    def test_lead_drift_aborts(self, setup):
        _, _, psi0, _ = setup
        with pytest.raises(IntegratorError, match="drift"):
            march(lambda t, y: 0.5j * y, one_row(psi0), 0, 1, 1e-3)

    def test_lead_is_the_first_row(self, setup):
        # a trailing row may grow; the first row is the guarded lead
        _, _, psi0, _ = setup
        y0 = psi0.with_amps(np.stack([psi0.amps, psi0.amps]))
        out = march(rows_scaled(0.0, 0.5j), y0, 0, 10, 1e-2)
        assert np.linalg.norm(out.amps[1]) > 1.04 * psi0.norm()
        assert np.array_equal(out.amps[0], psi0.amps)
        with pytest.raises(IntegratorError, match="drift"):
            march(rows_scaled(0.5j, 0.0), y0, 0, 10, 1e-2)

    def test_drift_bound_is_drift_abort(self, setup):
        # DRIFT_ABORT = 1e-6: half of it passes, twice it aborts with exit code 4
        _, _, psi0, _ = setup
        y = one_row(psi0)
        check_state(y, 0.0, psi0.norm() - 5e-7)
        with pytest.raises(IntegratorError, match="exceeds 1e-06") as info:
            check_state(y, 0.0, psi0.norm() - 2e-6)
        assert info.value.exit_code == 4

    def test_nan_in_a_trailing_row_aborts(self, setup):
        _, _, psi0, _ = setup
        y = psi0.with_amps(np.stack([psi0.amps] * 3))
        check_state(y, 0.0, psi0.norm())
        y.amps[2, 0] = np.nan
        with pytest.raises(IntegratorError, match="non-finite"):
            check_state(y, 0.0, psi0.norm())

    def test_nan_cell_aborts(self):
        # finite amplitudes on a grid whose cell is NaN have a NaN norm
        model = make_model()
        psi0 = build_product(model, default_phi0(model), "tensor")
        y = ts.TensorState(psi0.amps, float("nan")).with_amps(np.stack([psi0.amps] * 3))
        with pytest.raises(IntegratorError, match="drift nan"):
            check_state(y, 0.0, psi0.norm())

    def test_lead_drift_is_measured_in_the_state_norm(self):
        # on the tensor grid a state's norm carries cell^N = 0.125 here
        model = make_model(torus_length=2.0)
        psi0 = build_product(model, default_phi0(model), "tensor")
        y = one_row(psi0)
        assert abs(np.linalg.norm(y.amps) - psi0.norm()) > 1.0
        check_state(y, 0.0, psi0.norm())
        with pytest.raises(IntegratorError, match="drift"):
            check_state(y, 0.0, float(np.linalg.norm(y.amps)))


class TestRowsHandedOut:
    def test_observed_states_are_not_overwritten(self, setup):
        model, _, psi0, _ = setup
        seen = []
        final = evolve_full(psi0, 0.01, model,
                            observer=lambda i, t, psi: seen.append((psi, psi.amps.copy())))
        assert len(seen) == 11
        for psi, kept in seen:
            assert psi.amps.shape == psi0.amps.shape
            assert np.array_equal(psi.amps, kept)
        assert np.array_equal(seen[-1][0].amps, final.amps)

    def test_observed_blocks_are_not_overwritten(self, setup):
        model, _, psi0, _ = setup
        seen = []
        y0 = psi0.with_amps(np.stack([psi0.amps, 0.5 * psi0.amps]))
        march(lambda t, y: apply_H(t, y, model), y0, 0, 5, model.config.dt,
              observer=lambda i, t, y: seen.append((y, y.amps.copy())))
        assert len(seen) == 6
        for y, kept in seen:
            assert np.array_equal(y.amps, kept)

    def test_initial_state_is_not_modified(self, setup):
        model, _, psi0, traj = setup
        kept = psi0.amps.copy()
        evolve_full(psi0, 0.01, model)
        evolve_aux(psi0, 0.0, 0.01, traj)
        evolve_aux(psi0, 0.01, 0.01, traj).amps[:] = 0.0
        assert np.array_equal(psi0.amps, kept)


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

    @pytest.mark.parametrize("t0,t1", [(0.0, 0.00149), (0.0005, 0.01)])
    def test_off_grid_times_raise(self, setup, t0, t1):
        model, _, psi0, _ = setup
        with pytest.raises(ValueError, match="not on the grid"):
            evolve_full(psi0, t1, model, t0=t0)

    def test_backward_span_is_refused(self, setup):
        model, _, psi0, _ = setup
        with pytest.raises(ValueError, match="march back"):
            evolve_full(psi0, 0.005, model, t0=0.01)

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
        overlap = abs(reference.inner(out))
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
            stepped = march(lambda t, y: apply_H(t, y, model), one_row(psi0), 0, 1, dt)
            quotient = (1j / dt) * (stepped.amps[0] - psi0.amps)
            defects.append(np.linalg.norm(quotient - action.amps))
        assert defects[0] > defects[1] > defects[2]

    def test_step_order_at_least_3_8(self, setup):
        # local error must sit well above roundoff for the ratio to be clean,
        # so the step here is much coarser than production dt
        model, _, psi0, _ = setup

        def rhs(t, y):
            return apply_H(t, y, model)

        dt = 4e-2
        y0 = one_row(psi0)
        ref = march(rhs, y0, 0, 32, dt / 32)
        e1 = (march(rhs, y0, 0, 1, dt) - ref).norm()
        e2 = (march(rhs, y0, 0, 2, dt / 2) - ref).norm()
        assert np.log2(e1 / e2) >= 3.8
