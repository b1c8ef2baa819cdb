import math
from dataclasses import replace

import numpy as np
import pytest

from bosonlab import hamiltonians, meanfield
from bosonlab import projections as pj
from bosonlab.errors import ConfigError, RangeError
from bosonlab.experiments import (
    build_mixed,
    build_one_excitation,
    build_product,
    csv_text,
    default_phi0,
    delta_exponent,
    fit_slope,
    lemma_suite,
    moment_growth,
    sweep_scaling,
)
from bosonlab.model import build_model, validate_config


def base_config(**over):
    raw = {
        "dimension": 1,
        "sites_per_dim": 4,
        "torus_length": 4.0,
        "particles": 3,
        "beta": 0.0,
        "gamma": 1.0,
        "interaction_amplitude": 0.5,
        "interaction_radius": 1.5,
        "dt": 1e-3,
        "t_final": 0.2,
        "seed": 1234,
    }
    raw.update(over)
    return validate_config(raw)


class TestDeltaExponent:
    def test_hartree_point(self):
        assert delta_exponent(0.0, 1.0, 1) == 1.0
        assert delta_exponent(0.0, 1.0, 2) == 1.0

    def test_upper_branch(self):
        assert delta_exponent(0.2, 0.9, 1) == pytest.approx(1 - 0.8)

    def test_lower_branch(self):
        assert delta_exponent(0.2, 0.75, 1) == pytest.approx(3 * 0.75 - 2 - 0.2)

    def test_branches_continuous_at_threshold(self):
        beta, d = 0.13, 1
        gamma_star = 1.0 - d * beta
        left = delta_exponent(beta, gamma_star, d)
        right = delta_exponent(beta, gamma_star + 1e-12, d)
        assert abs(left - right) <= 1e-11

    def test_domain_errors(self):
        with pytest.raises(RangeError):
            delta_exponent(0.25, 1.0, 1)
        with pytest.raises(RangeError):
            delta_exponent(0.0, 2.0 / 3.0, 1)
        with pytest.raises(RangeError):
            delta_exponent(-0.1, 1.0, 1)

    @pytest.mark.parametrize("dimension,beta,gamma,name", [
        (1, 0.25, 1.0, "beta"), (2, 0.125, 0.9, "beta"), (1, 0.0, 2.0 / 3.0, "gamma"),
        (2, 0.1, 0.7, "gamma"), (1, 0.1, 0.71, None), (2, 0.1, 0.75, None),
    ])
    def test_window_is_the_one_of_correction_runs(self, dimension, beta, gamma, name):
        cfg = base_config(dimension=dimension, sites_per_dim=3, torus_length=3.0, beta=beta,
                          gamma=gamma, interaction_radius=6.0)
        for check in (lambda: delta_exponent(beta, gamma, dimension),
                      lambda: validate_config(cfg, correction_run=True)):
            if name is None:
                check()
            else:
                with pytest.raises(RangeError, match=name):
                    check()


class TestFitSlope:
    def test_exact_line(self):
        pts = [(x, -1.0 * x + 2.0) for x in (0.0, 1.0, 2.0, 3.0)]
        slope, intercept, resid = fit_slope(pts)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert intercept == pytest.approx(2.0, abs=1e-12)
        assert resid <= 1e-12

    def test_two_points_rejected(self):
        with pytest.raises(ValueError):
            fit_slope([(0.0, 0.0), (1.0, 1.0)])

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            fit_slope([(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)])

    @pytest.mark.parametrize("point", [(1.0, math.nan), (1.0, math.inf), (math.nan, 0.0)])
    def test_non_finite_point_rejected_by_name(self, point):
        # a nan or inf y would fit to nan, a nan x would reach the solver
        with pytest.raises(ValueError, match=rf"finite points, got \[{point[0]}, {point[1]}\]"):
            fit_slope([point, (2.0, 1.0), (3.0, 2.0)])

    def test_noisy_recovery_within_standard_error(self):
        rng = np.random.default_rng(42)
        x = np.linspace(0.0, 5.0, 30)
        sigma = 0.05
        y = 1.7 * x - 0.4 + sigma * rng.standard_normal(30)
        slope, intercept, resid = fit_slope(np.stack([x, y], axis=1))
        se = sigma / math.sqrt(np.sum((x - x.mean()) ** 2))
        assert abs(slope - 1.7) <= 4.0 * se


class TestInitialStateBuilders:
    def test_default_phi0_normalised_and_smooth(self):
        model = build_model(base_config())
        phi0 = default_phi0(model)
        assert np.sqrt(model.cell * np.vdot(phi0, phi0).real) == pytest.approx(1.0, abs=1e-13)
        assert np.all(phi0.real > 0)

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_product_state_weights(self, rep):
        model = build_model(base_config())
        phi0 = default_phi0(model)
        psi = build_product(model, phi0, rep)
        w = pj.spectral_weights(psi, phi0)
        assert w.weights[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rep", ["fock", "tensor"])
    def test_one_excitation_weights(self, rep):
        model = build_model(base_config())
        phi0 = default_phi0(model)
        psi = build_one_excitation(model, phi0, representation=rep)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)
        w = pj.spectral_weights(psi, phi0)
        assert w.weights[1] == pytest.approx(1.0, abs=1e-10)

    def test_mixed_state_norm_and_split(self):
        model = build_model(base_config())
        phi0 = default_phi0(model)
        eps = 0.5
        psi = build_mixed(model, phi0, eps)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)
        w = pj.spectral_weights(psi, phi0)
        assert w.weights[0] == pytest.approx(1.0 / (1 + eps**2), abs=1e-10)
        assert w.weights[1] == pytest.approx(eps**2 / (1 + eps**2), abs=1e-10)

    def test_builders_agree_across_representations(self):
        from bosonlab import fockstate as fs

        model = build_model(base_config())
        phi0 = default_phi0(model)
        fock = build_one_excitation(model, phi0, representation="fock")
        tensor = build_one_excitation(model, phi0, representation="tensor")
        assert (fs.embed(fock) - tensor).norm() <= 1e-12


class TestLemmaSuite:
    def test_default_small_config_passes(self):
        report = lemma_suite(base_config(), n_seeds=20)
        assert report.ok, "\n".join(report.to_lines())

    def test_free_interaction_passes_tightly(self):
        report = lemma_suite(base_config(interaction_profile="zero"), n_seeds=5)
        assert report.ok
        residual = {c.name: c.value for c in report.checks}["decomposition_residual"]
        assert residual <= 1e-13

    def test_large_config_rejected(self):
        with pytest.raises(ConfigError):
            lemma_suite(base_config(particles=8))

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_no_draws_rejected(self, n_seeds):
        with pytest.raises(ConfigError, match="at least one random draw"):
            lemma_suite(base_config(), n_seeds=n_seeds)

    def test_report_lines_render(self):
        report = lemma_suite(base_config(), n_seeds=2)
        lines = list(report.to_lines())
        assert len(lines) == len(report.checks)
        assert all(line.startswith(("PASS", "FAIL")) for line in lines)

    def test_one_condensate_per_draw(self, monkeypatch):
        # decomposition_residual builds its pieces from one condensate (pieces_at)
        calls = []
        original = meanfield.condensate_at

        def counting(*args):
            calls.append(1)
            return original(*args)

        for module in (meanfield, hamiltonians):
            monkeypatch.setattr(module, "condensate_at", counting)
        assert lemma_suite(base_config(), n_seeds=2).ok
        assert len(calls) == 2


class TestMomentGrowth:
    def test_budget_holds_under_aux_flow(self):
        rows = moment_growth(base_config(particles=4, moment_order=4), orders=(1, 2, 3, 4))
        aux_rows = [r for r in rows if r.evolution == "aux"]
        assert len(aux_rows) == 4
        for row in aux_rows:
            assert row.ratio <= 1.0
            assert row.log_ratio < 0.0

    def test_free_interaction_freezes_moments(self):
        rows = moment_growth(
            base_config(interaction_profile="zero", particles=4, moment_order=2),
            orders=(1, 2),
        )
        n = 4
        for row in rows:
            # product data stays condensed: ||m^j psi||^2 pinned at N^-j
            assert row.lhs == pytest.approx(n ** (-row.order), abs=1e-10)

    @pytest.mark.parametrize("order", [0, -1])
    def test_orders_below_one_rejected(self, order):
        with pytest.raises(ConfigError, match="orders must be positive integers"):
            moment_growth(base_config(), orders=(order,))

    def test_moment_order_capped(self):
        with pytest.raises(ConfigError):
            moment_growth(base_config(particles=3), orders=(4,))

    def test_off_grid_time_rejected(self):
        # the moments are taken at the config's t_final, which obeys the grid rule
        with pytest.raises(ConfigError):
            replace(base_config(), t_final=0.0101)


class TestSweep:
    def test_small_sweep_errors_ordered(self):
        cfg = base_config(t_final=0.2, dt=2e-3)
        result = sweep_scaling(cfg, [3, 4, 5], [1, 2])
        by_order = {}
        for row in result.rows:
            assert row.failed == ""
            by_order.setdefault(row.particles, {})[row.order] = row.err_sq
        for n, errs in by_order.items():
            assert errs[2] < errs[1]

    def test_free_interaction_reports_undefined_slopes(self):
        cfg = base_config(interaction_profile="zero", t_final=0.1, dt=2e-3)
        result = sweep_scaling(cfg, [3, 4, 5], [1])
        for row in result.rows:
            assert row.err_sq <= 1e-18
        assert result.slopes[1] is None
        assert "undefined" in result.summary()

    def test_csv_layout_and_determinism(self):
        cfg = base_config(t_final=0.1, dt=2e-3)
        first = sweep_scaling(cfg, [3, 4], [1])
        second = sweep_scaling(cfg, [3, 4], [1])
        header = first.to_csv().splitlines()[0]
        assert header == "N,M,d,beta,gamma,t,dt,order,err_sq,corr_norm,runtime_s"
        assert {row.t for row in first.rows} == {cfg.t_final}

        def strip_runtime(csv):
            return ["," .join(line.split(",")[:-1]) for line in csv.splitlines()]

        assert strip_runtime(first.to_csv()) == strip_runtime(second.to_csv())

    def test_failed_points_recorded(self):
        cfg = base_config(t_final=0.1, dt=2e-3)
        result = sweep_scaling(cfg, [1, 3], [1])
        failed = [r for r in result.rows if r.failed]
        assert len(failed) == 1 and failed[0].particles == 1
        assert math.isnan(failed[0].err_sq)

    def test_refused_grid_point_keeps_its_own_particle_count(self):
        # N^-beta R = 8^-0.2 * 3 = 1.98 < 2h = 2: only N = 8 is unresolved
        cfg = base_config(beta=0.2, interaction_radius=3.0, t_final=0.02, dt=2e-3)
        result = sweep_scaling(cfg, [3, 4, 8], [1, 2])
        rows = {(r.particles, r.order): r for r in result.rows}
        assert sorted(rows) == [(n, a) for n in (3, 4, 8) for a in (1, 2)]
        for (n, _), row in rows.items():
            assert math.isfinite(row.err_sq) == (n != 8)
            assert row.failed.startswith("ResolutionError") == (n == 8)
        assert result.summary().splitlines()[-1] == f"failed N=8: {rows[8, 1].failed}"

    def test_summary_lists_failed_points_with_reasons(self):
        cfg = base_config(t_final=0.1, dt=2e-3)
        result = sweep_scaling(cfg, [1, 3, 4], [1, 2])
        reason = next(r.failed for r in result.rows if r.particles == 1)
        assert "at least two particles" in reason
        summary = result.summary().splitlines()
        assert summary[-1] == f"failed N=1: {reason}"
        assert sum(line.startswith("failed") for line in summary) == 1
        clean = sweep_scaling(cfg, [3, 4], [1, 2])
        assert "failed" not in clean.summary()
        assert result.summary() == clean.summary() + f"failed N=1: {reason}\n"

    def test_off_grid_t_is_a_config_error(self):
        cfg = base_config(t_final=0.1, dt=2e-3)
        with pytest.raises(ConfigError, match="does not divide"):
            replace(cfg, t_final=0.1001)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("defect inside the hierarchy")

        monkeypatch.setattr(hamiltonians, "stage_pieces", broken)
        cfg = base_config(t_final=0.1, dt=2e-3)
        with pytest.raises(TypeError, match="defect inside the hierarchy"):
            sweep_scaling(cfg, [3], [1])

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_non_positive_jobs_rejected(self, jobs):
        cfg = base_config(t_final=0.1, dt=2e-3)
        with pytest.raises(ConfigError, match="jobs"):
            sweep_scaling(cfg, [3, 4], [1], jobs=jobs)

    @pytest.mark.parametrize("grid", [[3, 3, 3], [3, 3, 4], [4, 3, 4]])
    def test_repeated_particle_number_rejected(self, grid):
        # a repeated N is not a further point of the fit
        cfg = base_config(t_final=0.1, dt=2e-3)
        with pytest.raises(ConfigError, match="repeats N="):
            sweep_scaling(cfg, grid, [1])

    @pytest.mark.parametrize("jobs, grid, workers", [(5000, [3, 4], 2), (3, [3, 4, 5, 6], 3),
                                                     (4, [3], None)])
    def test_workers_are_capped_at_the_grid_size(self, monkeypatch, jobs, grid, workers):
        # the executor forks every worker at the first submit, so --jobs 5000
        # on two points would fork 5000 processes; a fake pool maps serially
        import concurrent.futures

        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        cfg = base_config(t_final=0.01, dt=2e-3)
        result = sweep_scaling(cfg, grid, [1], jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert [row.particles for row in result.rows] == grid

    def test_parallel_jobs_match_serial(self):
        cfg = base_config(t_final=0.1, dt=2e-3)
        serial = sweep_scaling(cfg, [3, 4], [1])
        parallel = sweep_scaling(cfg, [3, 4], [1], jobs=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.err_sq == b.err_sq
            assert a.corr_norm == b.corr_norm


class TestCsvText:
    def test_header_then_one_line_per_row(self):
        rows = [("error", 2), (np.int64(3), "x")]
        assert csv_text("quantity,value", rows) == "quantity,value\nerror,2\n3,x\n"
        assert csv_text("a,b", []) == "a,b\n"

    @pytest.mark.parametrize("x", [0.1 + 0.2, 1 / 3, 3e-17, 5e-324, 1.7976931348623157e308, -0.0])
    def test_doubles_read_back_bit_for_bit(self, x):
        cell = csv_text("x", [(x,)]).splitlines()[1]
        assert float(cell).hex() == x.hex()
        assert float(csv_text("x", [(np.float64(x),)]).splitlines()[1]).hex() == x.hex()
