import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlab.duhamel import (
    Hierarchy,
    assemble,
    correction_error,
    first_order_defect_quadrature,
    hierarchy_evolve,
    hierarchy_indices,
    quadrature_Tnk,
    tuple_set,
)
from bosonlab import fockstate as fs
from bosonlab import hamiltonians, meanfield
from bosonlab.errors import ConfigError, ConsistencyError, RangeError
from bosonlab.experiments import build_product, default_phi0
from bosonlab.meanfield import hartree_evolve
from bosonlab.model import build_model, validate_config
from bosonlab.propagation import evolve_aux, evolve_full


def make_model(**over):
    raw = {
        "dimension": 1,
        "sites_per_dim": 3,
        "torus_length": 3.0,
        "particles": 3,
        "interaction_amplitude": 0.5,
        "interaction_radius": 1.4,
        "dt": 1e-3,
        "t_final": 0.2,
    }
    raw.update(over)
    return build_model(validate_config(raw))


@pytest.fixture(scope="module")
def setup():
    model = make_model()
    phi0 = default_phi0(model)
    psi0 = build_product(model, phi0, "fock")
    traj = hartree_evolve(phi0, 0.0, 0.2, model)
    hier = hierarchy_evolve(psi0, 5, 0.2, traj)
    full = evolve_full(psi0, 0.2, model)
    return model, phi0, psi0, traj, hier, full


class TestTupleSet:
    def test_examples(self):
        assert tuple_set(2, 3) == [(2, 1), (1, 2)]
        assert tuple_set(3, 3) == [(1, 1, 1)]
        assert tuple_set(0, 0) == [()]

    def test_empty_outside_band(self):
        assert tuple_set(2, 5) == []
        assert tuple_set(2, 1) == []
        assert tuple_set(0, 1) == []

    @given(n=st.integers(0, 8), k=st.integers(0, 16))
    @settings(deadline=None, max_examples=60, derandomize=True)
    def test_count_and_sums(self, n, k):
        entries = tuple_set(n, k)
        if n <= k <= 2 * n and n > 0:
            assert len(entries) == math.comb(n, k - n)
        elif (n, k) != (0, 0):
            assert entries == []
        for item in entries:
            assert sum(item) == k
            assert set(item) <= {1, 2}
        assert len(set(entries)) == len(entries)


class TestHierarchyShape:
    def test_index_band(self):
        assert hierarchy_indices(1) == [(0, 0)]
        assert hierarchy_indices(3) == [(0, 0), (1, 1), (1, 2), (2, 2)]
        assert (2, 4) in hierarchy_indices(5)
        for n, k in hierarchy_indices(6):
            assert n <= k <= 2 * n or (n, k) == (0, 0)

    def test_order_one_is_aux_evolution(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        aux = evolve_aux(psi0, 0.0, 0.2, traj)
        assert (assemble(hier, 1) - aux).norm() <= 1e-12

    def test_one_condensate_per_stage(self, setup, monkeypatch):
        # each stage build takes vbar and mu of its stored stage condensates
        # from one condensate_at call, and nothing steps the Hartree flow again
        model, phi0, psi0, traj, hier, full = setup
        condensates, builds, counts, slopes = [], [], [], []
        original, build, slope = meanfield.condensate_at, hamiltonians._ladder_kernels, meanfield._slope

        def counting(phi, *args, **kwargs):
            condensates.append(len(phi) if np.ndim(phi) == 2 else 1)
            return original(phi, *args, **kwargs)

        def counting_build(cond, model, count):
            builds.append(len(cond.phi) if cond.phi.ndim == 2 else 1)
            counts.append(count)
            return build(cond, model, count)

        for module in (meanfield, hamiltonians):
            monkeypatch.setattr(module, "condensate_at", counting)
        monkeypatch.setattr(hamiltonians, "_ladder_kernels", counting_build)
        monkeypatch.setattr(meanfield, "_slope", lambda *args: slopes.append(1) or slope(*args))
        hierarchy_evolve(psi0, 3, 0.2, traj)
        stages = 4 * traj.index_of(0.2)
        assert sum(condensates) == stages and condensates == builds
        assert len(builds) < stages and slopes == []
        assert set(counts) == {3}  # an order-3 hierarchy consumes Htilde, C and Q

    def test_one_pair_gather_each_way_per_member_and_stage(self, setup):
        # gathered member rows: one pair gather down of the whole block and
        # one gather up per member, at each of the 4 stages of a step
        model, phi0, psi0, traj, hier, full = setup
        space = fs.FockSpace(psi0.space.basis, psi0.space.cell)
        psi = fs.FockState(psi0.amps.copy(), space)
        pair = space.ladders[1]
        counts = {"down calls": 0, "down rows": 0, "up rows": 0}
        annihilated, created = pair.annihilated, pair.created

        def counted_down(amps):
            counts["down calls"] += 1
            counts["down rows"] += math.prod(amps.shape[:-1])
            return annihilated(amps)

        def counted_up(lead):
            counts["up rows"] += math.prod(lead)
            return created(lead)

        pair.annihilated, pair.created = counted_down, counted_up
        hierarchy_evolve(psi, 3, traj.dt, traj)
        members = len(hierarchy_indices(3))
        assert counts == {"down calls": 4, "down rows": 4 * members, "up rows": 4 * members}
        counts.update({key: 0 for key in counts})
        evolve_aux(psi, 0.0, traj.dt, traj)
        assert counts == {"down calls": 4, "down rows": 4, "up rows": 4}

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_entries_are_not_overwritten_by_later_steps(self, rep):
        model = make_model()
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0, rep)
        traj = hartree_evolve(phi0, 0.0, 0.2, model)
        first = hierarchy_evolve(psi0, 3, 0.003, traj)
        kept = {key: state.amps.copy() for key, state in first.entries.items()}
        assert all(state.amps.shape == psi0.amps.shape for state in first.entries.values())
        hierarchy_evolve(psi0, 3, 0.005, traj)
        hierarchy_evolve(0.5 * psi0, 3, 0.003, traj)
        evolve_aux(psi0, 0.0, 0.003, traj)
        for key, state in first.entries.items():
            assert np.array_equal(state.amps, kept[key]), key

    def test_free_interaction_kills_sources(self):
        model = make_model(interaction_profile="zero")
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0, "fock")
        traj = hartree_evolve(phi0, 0.0, 0.2, model)
        hier = hierarchy_evolve(psi0, 3, 0.2, traj)
        for (n, k), state in hier.entries.items():
            if n >= 1:
                assert state.norm() <= 1e-14


def tabulated_model(**over):
    """A time-dependent external potential, linear in t between two tables."""
    rng = np.random.default_rng(31)
    table = tuple(tuple(row) for row in 3.0 * rng.random((2, 3)))
    return make_model(potential_kind="tabulated", potential_table=((0.0, 0.1), table), **over)


def relative_gap(a, b) -> float:
    return (a - b).norm() / b.norm()


class TestStageSchedule:
    """The stage condensates and pieces come from the trajectory, built
    ``hamiltonians._stage_batch`` stages at a time."""

    @pytest.fixture(scope="class")
    def tabulated(self):
        model = tabulated_model()
        phi0 = default_phi0(model)
        traj = hartree_evolve(phi0, 0.0, 0.2, model)
        return model, phi0, traj

    def test_tabulated_potential_occupation_matches_tensor(self, tabulated):
        model, phi0, traj = tabulated
        fock = build_product(model, phi0, "fock")
        tensor = build_product(model, phi0, "tensor")
        hier_f = hierarchy_evolve(fock, 3, 0.05, traj)
        hier_t = hierarchy_evolve(tensor, 3, 0.05, traj)
        for key, state in hier_t.entries.items():
            assert (fs.embed(hier_f.entries[key]) - state).norm() <= 1e-10
        aux_f = evolve_aux(fock, 0.01, 0.05, traj)
        aux_t = evolve_aux(tensor, 0.01, 0.05, traj)
        assert (fs.embed(aux_f) - aux_t).norm() <= 1e-10

    def test_batched_pieces_take_h0_at_each_stage_time(self, tabulated):
        model, phi0, traj = tabulated
        phis = traj.phis[:6] * np.linspace(1.0, 1.5, 6)[:, None]
        times = np.array([0.0, 0.01, 0.015, 0.05, 0.07, 0.1])
        batch = hamiltonians.stage_pieces(meanfield.condensate_at(phis, times, model), model)
        assert [pieces.cond.t for pieces in batch] == times.tolist()
        for pieces, phi, t in zip(batch, phis, times):
            alone = hamiltonians.pieces_at(phi, t, model)
            assert np.abs(pieces.h1 - alone.h1).max() <= 1e-13
            for got, expect in zip(pieces.kernels, alone.kernels):
                assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("flow", ["hierarchy", "aux"])
    def test_results_do_not_depend_on_the_batch(self, tabulated, monkeypatch, flow):
        model, phi0, traj = tabulated
        psi0 = build_product(model, phi0, "fock")
        stages = 4 * traj.index_of(0.047)
        # the aux flow builds Htilde alone, the order-3 hierarchy all three kernels
        batch = hamiltonians._stage_batch(model.config.site_count, 1 if flow == "aux" else 3)
        assert batch > 4 and stages % batch != 0  # the last build is partial

        def run():
            if flow == "aux":
                return [evolve_aux(psi0, 0.0, 0.047, traj)]
            return list(hierarchy_evolve(psi0, 3, 0.047, traj).entries.values())

        default = run()
        monkeypatch.setattr(hamiltonians, "STAGE_BATCH_BYTES", 1)
        assert all(hamiltonians._stage_batch(model.config.site_count, k) == 1 for k in (1, 2, 3))
        for a, b in zip(run(), default):
            assert relative_gap(a, b) <= 1e-13

    @pytest.mark.parametrize("order,kernels", [(None, 1), (2, 2), (3, 3)], ids=["aux", "order2", "order3"])
    def test_a_flow_builds_only_the_kernels_it_consumes(self, monkeypatch, order, kernels):
        # the M = 9 stage builds of the aux flow and of order-2 and order-3
        # hierarchies, seen by their stacked products: R^T G^T (stages, kernels,
        # M+1, M+1), then the factors (stages, kernels, P, 2(M+1))
        model = make_model(dimension=2, particles=2, t_final=0.01)
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0, "fock")
        traj = hartree_evolve(phi0, 0.0, 0.01, model)
        products, matrices, inside = [], [], []
        build, product, matmul = hamiltonians._ladder_kernels, fs._product, np.matmul

        def inside_build(*args):
            inside.append(True)
            try:
                return build(*args)
            finally:
                inside.pop()

        def counted(a, b, out):
            if inside:
                products.append(a.shape)
            return product(a, b, out)

        def recorded(a, b, **kwargs):
            if inside:
                matrices.append((a.shape[-2], a.shape[-1], b.shape[-1]))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(hamiltonians, "_ladder_kernels", inside_build)
        monkeypatch.setattr(fs, "_product", counted)
        monkeypatch.setattr(np, "matmul", recorded)
        if order is None:
            evolve_aux(psi0, 0.0, 0.01, traj)
        else:
            hierarchy_evolve(psi0, order, 0.01, traj)
        batch = hamiltonians._stage_batch(9, kernels)
        assert products == [shape for s in range(0, 40, batch)
                            for shape in ((min(batch, 40 - s), kernels, 10, 10), (min(batch, 40 - s), kernels, 45, 20))]
        assert matrices and all(rows >= 2 and cols >= 2 and rows * inner * cols <= fs.SERIAL_PRODUCT
                                for rows, inner, cols in matrices)

    def test_aux_from_later_start_composes(self, tabulated):
        model, phi0, traj = tabulated
        psi0 = build_product(model, phi0, "fock")
        whole = evolve_aux(psi0, 0.0, 0.05, traj)
        middle = evolve_aux(psi0, 0.0, 0.023, traj)
        assert relative_gap(evolve_aux(middle, 0.023, 0.05, traj), whole) <= 1e-13
        assert (evolve_aux(middle, 0.023, 0.023, traj) - middle).norm() == 0.0
        with pytest.raises(ValueError):
            evolve_aux(psi0, 0.05, 0.023, traj)

    def test_pieces_carry_the_stored_stages(self, tabulated, monkeypatch):
        # stage_rhs consumes the trajectory's stage condensates and times as stored
        model, phi0, traj = tabulated
        psi0 = build_product(model, phi0, "fock")
        members = fs.FockState(psi0.amps[None], psi0.space)
        consumed, apply_stage = [], hamiltonians.apply_stage
        monkeypatch.setattr(hamiltonians, "apply_stage",
                            lambda pieces, *args: consumed.append(pieces) or apply_stage(pieces, *args))
        rhs = hamiltonians.stage_rhs(traj, 3, 7, [(None, None)])
        for t in traj.stage_times[12:28]:
            rhs(t, members)
        assert np.array_equal(np.array([p.cond.phi for p in consumed]), traj.stage_phis[12:28])
        assert [p.cond.t for p in consumed] == traj.stage_times[12:28].tolist()

    def test_right_hand_side_refuses_an_unscheduled_stage(self, tabulated):
        model, phi0, traj = tabulated
        psi0 = build_product(model, phi0, "fock")
        dt = traj.dt
        members = fs.FockState(psi0.amps[None], psi0.space)
        rhs = hamiltonians.stage_rhs(traj, 3, 4, [(None, None)])
        with pytest.raises(ConsistencyError, match="expected the stage at"):
            rhs(3.5 * dt, members)
        rhs = hamiltonians.stage_rhs(traj, 3, 4, [(None, None)])
        for t in (3 * dt, 3 * dt + 0.5 * dt, 3 * dt + 0.5 * dt, 3 * dt + dt):
            rhs(t, members)
        with pytest.raises(ConsistencyError, match="no further stage"):
            rhs(4 * dt, members)

    def test_zero_pair_table_is_the_exact_free_lift(self):
        model = make_model(interaction_profile="zero")
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0, "fock")
        traj = hartree_evolve(phi0, 0.0, 0.2, model)
        cond = meanfield.condensate_at(traj.phis[:4], traj.times[:4], model)
        members = fs.FockState(np.stack([psi0.amps, 0.5 * psi0.amps]), psi0.space)
        entries = hamiltonians.stage_entries([(None, None), (0, 0)])
        for pieces in hamiltonians.stage_pieces(cond, model):
            out = hamiltonians.apply_stage(pieces, members, entries)
            assert np.array_equal(out.amps, fs.dgamma_apply(pieces.h1, members).amps)
        hier = hierarchy_evolve(psi0, 3, 0.05, traj)
        assert all(state.norm() == 0.0 for (n, _), state in hier.entries.items() if n >= 1)

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_single_particle_refused_before_the_prefactor(self, rep):
        model = make_model(particles=1)
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0, rep)
        traj = hartree_evolve(phi0, 0.0, 0.2, model)
        with pytest.raises(ConfigError, match="at least two particles"):
            hierarchy_evolve(psi0, 2, 0.01, traj)
        with pytest.raises(ConfigError, match="at least two particles"):
            evolve_aux(psi0, 0.0, 0.01, traj)


class TestQuadratureOracle:
    def test_out_of_band_is_zero(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        assert quadrature_Tnk(1, 3, 0.2, psi0, traj).norm() == 0.0

    def test_free_interaction_zero(self):
        model = make_model(interaction_profile="zero")
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0, "fock")
        traj = hartree_evolve(phi0, 0.0, 0.2, model)
        assert quadrature_Tnk(1, 1, 0.2, psi0, traj).norm() <= 1e-14

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4)])
    def test_hierarchy_matches_quadrature(self, setup, n, k):
        model, phi0, psi0, traj, hier, full = setup
        quad = quadrature_Tnk(n, k, 0.2, psi0, traj, stride=8)
        assert (hier.entries[(n, k)] - quad).norm() <= 1e-5

    def test_agreement_improves_under_refinement(self):
        base = make_model(dt=2e-3)
        fine = make_model(dt=1e-3)
        devs = []
        for model in (base, fine):
            phi0 = default_phi0(model)
            psi0 = build_product(model, phi0, "fock")
            traj = hartree_evolve(phi0, 0.0, 0.2, model)
            hier = hierarchy_evolve(psi0, 2, 0.2, traj)
            quad = quadrature_Tnk(1, 1, 0.2, psi0, traj, stride=10)
            devs.append((hier.entries[(1, 1)] - quad).norm())
        assert devs[1] < devs[0]

    def test_stride_must_divide(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        with pytest.raises(ValueError):
            quadrature_Tnk(1, 1, 0.2, psi0, traj, stride=7)

    @pytest.mark.parametrize("stride", [0, -4])
    @pytest.mark.parametrize("oracle", ["Tnk", "defect"])
    def test_stride_below_one_is_refused(self, setup, oracle, stride):
        # 0 would divide by zero; -4 divides the 200 steps but gives no node
        model, phi0, psi0, traj, hier, full = setup
        with pytest.raises(ValueError, match=f"stride must be a positive .* got {stride}"):
            if oracle == "Tnk":
                quadrature_Tnk(1, 1, 0.2, psi0, traj, stride=stride)
            else:
                first_order_defect_quadrature(psi0, 0.2, traj, stride=stride)

    def test_zero_window_gives_zero(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        assert quadrature_Tnk(1, 1, 0.0, psi0, traj).norm() == 0.0
        assert quadrature_Tnk(2, 3, 0.0, psi0, traj).norm() == 0.0
        assert first_order_defect_quadrature(psi0, 0.0, traj).norm() == 0.0

    def test_oracle_limited_to_low_order(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        with pytest.raises(ValueError):
            quadrature_Tnk(3, 3, 0.2, psi0, traj)


class TestAssemble:
    def test_second_order_adds_single_cubic_term(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        expect = hier.entries[(0, 0)] + hier.entries[(1, 1)]
        assert (assemble(hier, 2) - expect).norm() == 0.0

    def test_raw_partial_sum_not_normalised(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        approx = assemble(hier, 3)
        assert approx.norm() != pytest.approx(1.0, abs=1e-12)

    def test_order_capped_by_hierarchy(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        with pytest.raises(ValueError):
            assemble(hier, 6)

    def test_missing_member_is_refused(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        partial = Hierarchy(order=2, entries={(0, 0): hier.entries[(0, 0)]})
        assert (assemble(partial, 1) - hier.entries[(0, 0)]).norm() == 0.0
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            assemble(partial, 2)

    def test_free_case_recovers_exact_state(self):
        model = make_model(interaction_profile="zero")
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0, "fock")
        traj = hartree_evolve(phi0, 0.0, 0.2, model)
        hier = hierarchy_evolve(psi0, 3, 0.2, traj)
        full = evolve_full(psi0, 0.2, model)
        for order in (1, 2, 3):
            assert (assemble(hier, order) - full).norm() <= 1e-9


class TestFirstOrderDuhamel:
    def test_difference_matches_quadrature(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        aux = evolve_aux(psi0, 0.0, 0.2, traj)
        defect = first_order_defect_quadrature(psi0, 0.2, traj, stride=8)
        assert ((full - aux) - defect).norm() <= 1e-5


class TestCorrectionError:
    def test_free_interaction_vanishes(self):
        model = make_model(interaction_profile="zero")
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0, "fock")
        for order in (1, 2, 3):
            res = correction_error(psi0, phi0, order, 0.2, model)
            assert res.error <= 1e-9

    def test_orders_improve(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        errs = [(full - assemble(hier, a)).norm() for a in (1, 2, 3)]
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]

    def test_error_grows_from_zero(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        res_half = correction_error(psi0, phi0, 1, 0.1, model, trajectory=traj)
        res_full = correction_error(psi0, phi0, 1, 0.2, model, trajectory=traj)
        assert res_half.error <= res_full.error

    def test_range_enforced_unless_overridden(self):
        model = make_model(
            beta=0.3, sites_per_dim=8, torus_length=8.0, interaction_radius=6.0, particles=3
        )
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0, "fock")
        with pytest.raises(RangeError):
            correction_error(psi0, phi0, 1, 0.2, model)

    def test_foreign_trajectory_is_refused(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        other = make_model(interaction_amplitude=0.8)
        with pytest.raises(ValueError, match="another model config"):
            correction_error(psi0, phi0, 1, 0.2, model, trajectory=hartree_evolve(phi0, 0.0, 0.2, other))
        shifted = np.roll(phi0, 1) * np.exp(0.3j)
        with pytest.raises(ValueError, match="does not start at phi0"):
            correction_error(psi0, phi0, 1, 0.2, model, trajectory=hartree_evolve(shifted, 0.0, 0.2, model))

    def test_initial_state_of_another_model_is_refused(self):
        # an N = 4 state under the N = 3 model returned the errors
        # (1.545e-5, 3.99e-6), not its own model's (1.639e-5, 4.25e-6)
        base = {"sites_per_dim": 8, "torus_length": 4.0, "beta": 0.05, "interaction_radius": 2.0}
        model, four = (make_model(particles=n, **base) for n in (3, 4))
        phi0 = default_phi0(model)
        with pytest.raises(ValueError, match="N=4 on M=8"):
            correction_error(build_product(four, phi0, "fock"), phi0, 2, 0.1, model)
        other = make_model(sites_per_dim=4, torus_length=4.0, particles=3)
        with pytest.raises(ValueError, match="N=3 on M=4"):
            correction_error(build_product(other, default_phi0(other), "tensor"), phi0, 2, 0.1, model)
        errors = correction_error(build_product(four, phi0, "fock"), phi0, 2, 0.1, four).errors
        assert errors == pytest.approx((1.639e-5, 4.25e-6), rel=1e-3)

    def test_benchmark_call_shape_is_accepted(self, setup):
        # the benchmark evolves the trajectory from the same model and phi0
        # before it times the solve; an equal copy of phi0 passes as well
        model, phi0, psi0, traj, hier, full = setup
        res = correction_error(psi0, phi0.copy(), 2, 0.2, build_model(model.config), trajectory=traj)
        assert res.errors == correction_error(psi0, phi0, 2, 0.2, model).errors

    def test_term_norms_reported(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        res = correction_error(psi0, phi0, 2, 0.2, model, trajectory=traj)
        assert set(res.term_norms) == set(hierarchy_indices(2))
        assert res.correction_norm > 0.0

    def test_every_order_from_one_hierarchy(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        res = correction_error(psi0, phi0, 3, 0.2, model, trajectory=traj)
        assert len(res.errors) == len(res.correction_norms) == 3
        for a in (1, 2, 3):
            approx = assemble(hier, a)
            assert res.errors[a - 1] == (full - approx).norm()
            assert res.correction_norms[a - 1] == approx.norm()
        assert res.error == res.errors[2]
        assert res.error_sq == res.errors[2] ** 2
        assert res.correction_norm == res.correction_norms[2]
