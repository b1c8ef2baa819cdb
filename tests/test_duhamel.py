import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlab.duhamel import (
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
from bosonlab.errors import RangeError
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
        model, phi0, psi0, traj, hier, full = setup
        calls = []
        original = meanfield.condensate_at

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(meanfield, "condensate_at", counting)
        monkeypatch.setattr(hamiltonians, "condensate_at", counting)
        hierarchy_evolve(psi0, 3, 0.2, traj)
        assert len(calls) == 4 * traj.index_of(0.2)

    def test_one_pair_gather_each_way_per_member_and_stage(self, setup):
        model, phi0, psi0, traj, hier, full = setup
        space = fs.FockSpace(psi0.space.basis, psi0.space.cell)
        psi = fs.FockState(psi0.amps.copy(), space)
        pair = space.ladders[1]
        counts = {"annihilated": 0, "created": 0}

        def counted(name):
            method = getattr(pair, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)

            return wrapper

        pair.annihilated, pair.created = counted("annihilated"), counted("created")
        hierarchy_evolve(psi, 3, traj.dt, traj)
        members = len(hierarchy_indices(3))
        assert counts == {"annihilated": 4 * members, "created": 4 * members}
        counts.update(annihilated=0, created=0)
        evolve_aux(psi, 0.0, traj.dt, traj)
        assert counts == {"annihilated": 4, "created": 4}

    def test_free_interaction_kills_sources(self):
        model = make_model(interaction_profile="zero")
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0, "fock")
        traj = hartree_evolve(phi0, 0.0, 0.2, model)
        hier = hierarchy_evolve(psi0, 3, 0.2, traj)
        for (n, k), state in hier.entries.items():
            if n >= 1:
                assert state.norm() <= 1e-14


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
