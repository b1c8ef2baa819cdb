import pickle
from dataclasses import replace

import numpy as np
import pytest

from bosonlab.errors import ConfigError, RangeError, ResolutionError
from bosonlab.model import (
    ModelConfig,
    build_model,
    external_potential,
    grid_index,
    laplacian,
    parse_config_file,
    sample_interaction,
    site_coordinates,
    validate_config,
)


def small_raw(**over):
    raw = {
        "dimension": 1,
        "sites_per_dim": 4,
        "torus_length": 4.0,
        "particles": 3,
        "beta": 0.0,
        "gamma": 1.0,
        "dt": 1e-3,
        "t_final": 0.5,
    }
    raw.update(over)
    return raw


class TestValidateConfig:
    def test_accepts_simple_config(self):
        cfg = validate_config(small_raw())
        assert cfg.site_count == 4
        assert cfg.spacing == 1.0
        assert cfg.step_count == 500

    def test_idempotent(self):
        cfg = validate_config(small_raw())
        again = validate_config(cfg)
        assert cfg == again

    def test_correction_run_rejects_large_beta(self):
        # beta = 0.3 >= 1/(4d) = 0.25 in d = 1
        raw = small_raw(beta=0.3, interaction_radius=8.0, sites_per_dim=8, torus_length=8.0)
        validate_config(raw)  # fine as a plain run
        with pytest.raises(RangeError):
            validate_config(raw, correction_run=True)

    def test_correction_run_rejects_small_gamma(self):
        # gamma must exceed (2 + d*beta)/3 = 2/3 at beta = 0
        with pytest.raises(RangeError):
            validate_config(small_raw(gamma=0.5), correction_run=True)

    @pytest.mark.parametrize("dimension,beta", [(1, 0.0), (1, 0.2), (2, 0.1)])
    def test_correction_run_refuses_gamma_at_its_floor(self, dimension, beta):
        # the window gamma > (2 + d*beta)/3 is open: the floor itself is refused
        floor = (2.0 + dimension * beta) / 3.0
        raw = small_raw(dimension=dimension, beta=beta, interaction_radius=3.0)
        with pytest.raises(RangeError, match="gamma"):
            validate_config({**raw, "gamma": floor}, correction_run=True)
        validate_config({**raw, "gamma": float(np.nextafter(floor, 1.0))}, correction_run=True)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ConfigError):
            validate_config(small_raw(dt=0.0))

    @pytest.mark.parametrize("over", [
        # values[1] = 0.7 against values[-1 mod 4] = 0.1
        {"interaction_samples": (1.0, 0.7, 0.2, 0.1)},
        # values[1, 0] = 0.5 against values[2, 0] = 0.4; the rest is even
        {"dimension": 2, "sites_per_dim": 3, "torus_length": 3.0,
         "interaction_samples": (1.0, 0.2, 0.2, 0.5, 0.3, 0.1, 0.4, 0.1, 0.3)},
    ], ids=["1d", "2d"])
    def test_rejects_odd_interaction_samples(self, over):
        raw = small_raw(interaction_profile="tabulated", **over)
        with pytest.raises(ConfigError, match="interaction_samples"):
            validate_config(raw)

    @pytest.mark.parametrize("over", [
        {"interaction_samples": (1.0, 0.5, 0.2, 0.5)},
        {"dimension": 2, "sites_per_dim": 3, "torus_length": 3.0,
         "interaction_samples": (1.0, 0.2, 0.2, 0.5, 0.3, 0.1, 0.5, 0.1, 0.3)},
    ], ids=["1d", "2d"])
    def test_accepts_even_interaction_samples(self, over):
        model = build_model(validate_config(small_raw(interaction_profile="tabulated", **over)))
        assert np.array_equal(model.pair, model.pair.T)

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            validate_config(small_raw(coupling=2.0))

    def test_rejects_base_beta_range(self):
        with pytest.raises(RangeError):
            validate_config(small_raw(beta=1.5))

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(RangeError):
            validate_config(small_raw(gamma=0.0))

    def test_unresolved_scaled_support(self):
        # N^-beta R = 16^-0.2 * 1.5 = 0.86 < 2h = 2
        with pytest.raises(ResolutionError):
            validate_config(small_raw(beta=0.2, particles=16, interaction_radius=1.5))

    def test_dt_must_divide_t_final(self):
        with pytest.raises(ConfigError):
            validate_config(small_raw(dt=3e-3, t_final=0.5))

    def test_grid_rule_is_the_one_of_grid_index(self):
        # 5e-9 off the grid of dt = 0.01: inside GRID_TOL * dt = 1e-8
        assert validate_config(small_raw(dt=0.01, t_final=0.500000005)).t_final == 0.500000005
        assert grid_index(0.500000005, 0.01) == 50
        for t in (0.50000002, 0.00149, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not on the grid"):
                grid_index(t, 0.01)
        with pytest.raises(ConfigError, match="does not divide"):
            validate_config(small_raw(dt=0.01, t_final=0.50000002))
        with pytest.raises(ConfigError, match="does not divide"):
            validate_config(small_raw(dt=1e-320, t_final=1.0))

    def test_rejects_d3(self):
        with pytest.raises(ConfigError):
            validate_config(small_raw(dimension=3))

    @pytest.mark.parametrize("field,key", [
        ("particles", "particles"), ("seed", "seed"), ("dt", "dt"),
        ("interaction_radius", "interaction.radius"), ("potential_strength", "potential.strength"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_fields_rejected(self, field, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be a finite number"):
            validate_config(small_raw(**{field: value}))
        with pytest.raises(ConfigError, match=rf"^{key} must be a finite number"):
            validate_config(ModelConfig(**{field: value}))


    @pytest.mark.parametrize("samples", [
        (0.0, float("nan"), 1.0, float("nan")), (1.0, 0.5, float("inf"), 0.5), (1.0, 0.5, 1.0),
        (1.0, 0.5, 0.2, 0.2, 0.5),
    ], ids=["nan", "inf", "short", "long"])
    def test_interaction_samples_hold_m_finite_values(self, samples):
        raw = small_raw(interaction_profile="tabulated", interaction_samples=samples)
        with pytest.raises(ConfigError, match="interaction_samples must hold M = 4 finite values"):
            validate_config(raw)

    @pytest.mark.parametrize("over,key", [
        ({"interaction_profile": "bump", "interaction_samples": (1.0, 0.5, 0.2, 0.5)}, "interaction_samples"),
        ({"interaction_profile": "zero", "interaction_samples": (1.0, 0.5, 0.2, 0.5)}, "interaction_samples"),
        ({"potential_kind": "none", "potential_table": ((0.0, 1.0), ((0.0,) * 4, (1.0,) * 4))}, "potential_table"),
        ({"potential_kind": "harmonic", "potential_strength": 1.0,
          "potential_table": ((0.0, 1.0), ((0.0,) * 4, (1.0,) * 4))}, "potential_table"),
    ], ids=["samples-bump", "samples-zero", "table-none", "table-harmonic"])
    def test_tabulated_data_need_the_tabulated_kind(self, over, key):
        with pytest.raises(ConfigError, match=rf"^{key} must be unset unless"):
            validate_config(small_raw(**over))


class TestModelConfig:
    """Construction and ``dataclasses.replace`` coerce and check every field."""

    def test_tabulated_samples_need_beta_zero(self):
        with pytest.raises(ConfigError, match="support beta=0 only"):
            ModelConfig(interaction_profile="tabulated", interaction_samples=(1.0, 0.5, 0.2, 0.5), beta=0.1)

    def test_constructed_arrays_are_stored_as_float_tuples(self):
        table = (np.array([0.0, 1.0]), np.zeros((2, 4)))
        samples = np.array([[1.0, 0.5, 0.2, 0.5]])
        for cfg in (ModelConfig(potential_kind="tabulated", potential_table=table),
                    ModelConfig(interaction_profile="tabulated", interaction_samples=samples)):
            assert validate_config(cfg) == cfg and hash(validate_config(cfg)) == hash(cfg)
        assert cfg.interaction_samples == (1.0, 0.5, 0.2, 0.5)
        assert type(cfg.interaction_samples[0]) is float

    def test_integral_float_is_stored_as_int(self):
        cfg = validate_config(ModelConfig(particles=4.0, seed=np.int64(3), dt=np.float32(0.5), t_final=1))
        assert (cfg.particles, cfg.seed, cfg.dt, cfg.t_final) == (4, 3, 0.5, 1.0)
        assert [type(v) for v in (cfg.particles, cfg.seed, cfg.dt, cfg.t_final)] == [int, int, float, float]
        with pytest.raises(ConfigError, match="^particles must be an integer"):
            ModelConfig(particles=4.5)

    def test_replace_checks_the_new_fields(self):
        cfg = ModelConfig()
        with pytest.raises(ConfigError, match="^particles must be >= 1"):
            replace(cfg, particles=0, dt=-1.0)
        with pytest.raises(ConfigError, match="^dt must be > 0"):
            replace(cfg, dt=-1.0)
        with pytest.raises(ConfigError, match="does not divide"):
            replace(cfg, t_final=0.0015)
        assert replace(cfg, particles="5").particles == 5


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "dimension = 1\n"
            "sites_per_dim = 4\n"
            "torus_length = 4.0\n"
            "particles = 3\n"
            "beta = 0.0\n"
            "gamma = 1.0\n"
            "interaction.profile = bump\n"
            "interaction.amplitude = 0.5\n"
            "interaction.radius = 1.5\n"
            "potential.kind = none\n"
            "potential.strength = 0.0\n"
            "t_final = 0.5\n"
            "dt = 0.001\n"
            "order = 2\n"
            "moment_order = 2\n"
            "seed = 7\n"
        )
        cfg = validate_config(parse_config_file(path))
        assert cfg.correction_order == 2
        assert cfg.seed == 7
        assert cfg.interaction_amplitude == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dimension = 1\nwhatever = 3\n")
        with pytest.raises(ConfigError):
            validate_config(parse_config_file(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("dimension = 1\ndimension = 2\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)


class TestInteraction:
    def test_beta_zero_is_unscaled(self):
        cfg = validate_config(small_raw())
        table = sample_interaction(cfg)
        # direct evaluation of the bump profile at the min-image distances
        g, R = cfg.interaction_amplitude, cfg.interaction_radius
        for delta in range(4):
            dist = min(delta, 4 - delta) * cfg.spacing
            expect = g * np.exp(-1.0 / (1.0 - (dist / R) ** 2)) if dist < R else 0.0
            assert table[delta, 0] == pytest.approx(expect, abs=0.0)

    def test_zero_profile(self):
        model = build_model(validate_config(small_raw(interaction_profile="zero")))
        assert model.free
        assert not np.any(model.pair)

    @pytest.mark.parametrize("profile,zero", [("zero", True), ("bump", False)])
    def test_free_computed_once(self, profile, zero, monkeypatch):
        model = build_model(validate_config(small_raw(interaction_profile=profile)))
        assert model.free is zero
        monkeypatch.setattr(np, "any", lambda *args, **kwargs: pytest.fail("recomputed"))
        assert model.free is zero

    def test_scaled_tophat_matches_pointwise_oracle(self):
        # w(r) = N^0.2 g on |r| <= R N^-0.2, zero outside
        cfg = validate_config(
            small_raw(
                sites_per_dim=16,
                torus_length=4.0,
                particles=8,
                beta=0.2,
                interaction_profile="tophat",
                interaction_amplitude=0.7,
                interaction_radius=1.3,
            )
        )
        table = sample_interaction(cfg)
        scale = 8**0.2
        for delta in range(16):
            dist = min(delta, 16 - delta) * cfg.spacing
            expect = scale * 0.7 if dist * scale <= 1.3 else 0.0
            assert table[delta, 0] == pytest.approx(expect, abs=0.0)

    def test_even_exactly(self):
        cfg = validate_config(small_raw(sites_per_dim=5, torus_length=5.0))
        table = sample_interaction(cfg)
        for delta in range(5):
            assert table[delta, 0] == table[-delta % 5, 0]
        assert np.array_equal(table, table.T)

    def test_even_exactly_2d(self):
        cfg = validate_config(small_raw(dimension=2, sites_per_dim=3, torus_length=3.0))
        table = sample_interaction(cfg)
        assert np.array_equal(table, table.T)


class TestLaplacian:
    def test_annihilates_constants(self):
        cfg = validate_config(small_raw())
        lap = laplacian(cfg)
        const = np.ones(4)
        assert np.abs(lap @ const).max() <= 1e-12 * np.abs(lap).max()

    def test_plane_wave_eigenvector(self):
        cfg = validate_config(small_raw(sites_per_dim=6, torus_length=3.0))
        lap = laplacian(cfg)
        h = cfg.spacing
        for k in range(6):
            wave = np.exp(2j * np.pi * k * np.arange(6) / 6)
            expect = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / 6)) / h**2
            assert np.allclose(lap @ wave, expect * wave, atol=1e-12)

    def test_plane_wave_eigenvector_2d(self):
        cfg = validate_config(small_raw(dimension=2, sites_per_dim=3, torus_length=3.0))
        lap = laplacian(cfg)
        h = cfg.spacing
        idx = np.arange(3)
        wave = np.exp(2j * np.pi * (1 * idx[:, None] + 2 * idx[None, :]) / 3).ravel()
        expect = ((2 - 2 * np.cos(2 * np.pi / 3)) + (2 - 2 * np.cos(4 * np.pi / 3))) / h**2
        assert np.allclose(lap @ wave, expect * wave, atol=1e-12)

    def test_self_adjoint(self):
        cfg = validate_config(small_raw())
        lap = laplacian(cfg)
        assert np.abs(lap - lap.conj().T).max() <= 1e-14 * np.abs(lap).max()

    def test_positive_semidefinite(self):
        cfg = validate_config(small_raw(sites_per_dim=5, torus_length=5.0))
        lap = laplacian(cfg)
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            val = np.vdot(f, lap @ f).real
            assert val >= -1e-12


class TestPotential:
    def test_none_is_zero(self):
        cfg = validate_config(small_raw())
        assert np.all(external_potential(cfg, 0.3) == 0.0)

    def test_harmonic_min_image_bounded(self):
        cfg = validate_config(small_raw(potential_kind="harmonic", potential_strength=2.0))
        v = external_potential(cfg, 0.0)
        # min-image distance from center never exceeds ell/2 per component
        assert v.max() <= 2.0 * (cfg.torus_length / 2) ** 2 + 1e-12
        assert v.min() >= 0.0

    def test_harmonic_modulation(self):
        # a harmonic trap of strength 1 + t, written as tabulated data
        harmonic = validate_config(small_raw(potential_kind="harmonic", potential_strength=1.0))
        v0 = external_potential(harmonic, 0.0)
        cfg = validate_config(
            small_raw(potential_kind="tabulated",
                      potential_table=((0.0, 1.0), (tuple(v0), tuple(2.0 * v0))))
        )
        assert np.allclose(external_potential(cfg, 0.0), v0)
        assert np.allclose(external_potential(cfg, 0.5), 1.5 * v0)
        assert np.allclose(external_potential(cfg, 1.0), 2.0 * v0)

    def test_tabulated_interpolates_in_time(self):
        times = (0.0, 1.0)
        table = ((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0, 4.0))
        cfg = validate_config(
            small_raw(potential_kind="tabulated", potential_table=(times, table))
        )
        assert np.allclose(external_potential(cfg, 0.0), table[0])
        assert np.allclose(external_potential(cfg, 1.0), table[1])
        assert np.allclose(external_potential(cfg, 0.5), 0.5 * np.asarray(table[1]))
        # clamped outside the stored window
        assert np.allclose(external_potential(cfg, 2.0), table[1])

    @pytest.mark.parametrize("kind", ["none", "tabulated"])
    def test_strength_needs_the_harmonic_kind(self, kind):
        raw = small_raw(potential_kind=kind)
        if kind == "tabulated":
            raw["potential_table"] = ((0.0, 1.0), ((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0, 4.0)))
        validate_config(raw)
        with pytest.raises(ConfigError, match="potential.strength"):
            validate_config({**raw, "potential_strength": 2.0})

    def test_tabulated_requires_table(self):
        with pytest.raises(ConfigError):
            validate_config(small_raw(potential_kind="tabulated"))

    def test_tabulated_config_pickles(self):
        table = ((0.0, 1.0), ((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0, 4.0)))
        cfg = validate_config(small_raw(potential_kind="tabulated", potential_table=table))
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_tabulated_arrays_are_stored_as_float_tuples(self):
        table = ((0.0, 1.0), ((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0, 4.0)))
        arrays = (np.array([0, 1]), np.array(table[1]))
        cfg, same = (validate_config(small_raw(potential_kind="tabulated", potential_table=t))
                     for t in (arrays, table))
        assert cfg.potential_table == table and type(cfg.potential_table[0][0]) is float
        assert cfg == same and hash(cfg) == hash(same)

    @pytest.mark.parametrize("table", [
        ((0.0,), ((1.0, 2.0, 3.0, 4.0),)),
        ((1.0, 0.0), ((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0, 4.0))),
        ((0.0, 0.0), ((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0, 4.0))),
        ((0.0, 1.0), ((0.0, float("nan"), 0.0, 0.0), (1.0, 2.0, 3.0, 4.0))),
        ((0.0, float("inf")), ((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0, 4.0))),
        ((0.0, 1.0), ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))),
        ((0.0, 1.0), ((0.0, 0.0, 0.0, 0.0),)),
        ((0.0, 1.0), ((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0))),
        ((0.0, 1.0), "not a table"),
    ], ids=["one-time", "decreasing", "repeated", "nan", "inf-time", "short-rows", "missing-row",
            "ragged", "not-numbers"])
    def test_malformed_table_is_refused(self, table):
        with pytest.raises(ConfigError, match="potential_table"):
            validate_config(small_raw(potential_kind="tabulated", potential_table=table))


class TestH0:
    @pytest.mark.parametrize("kind,strength", [("none", 0.0), ("harmonic", 2.0)], ids=["none", "harmonic"])
    def test_static_potential_shares_one_table(self, kind, strength):
        model = build_model(validate_config(small_raw(potential_kind=kind, potential_strength=strength)))
        h = model.h0(0.0)
        assert model.h0(0.37) is h
        expect = model.lap + np.diag(external_potential(model.config, 0.0))
        assert np.array_equal(h, expect)

    @pytest.mark.parametrize("name", ["lap", "pair"])
    def test_model_tables_are_read_only(self, name):
        table = getattr(build_model(validate_config(small_raw())), name)
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        with pytest.raises(ValueError):
            table *= 2.0

    def test_static_table_is_read_only(self):
        h = build_model(validate_config(small_raw())).h0(0.0)
        with pytest.raises(ValueError):
            h[0, 0] = 1.0

    def test_tabulated_follows_time(self):
        table = ((0.0, 1.0), ((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0, 4.0)))
        model = build_model(validate_config(small_raw(potential_kind="tabulated",
                                                      potential_table=table)))
        h_a, h_b = model.h0(0.0), model.h0(0.5)
        assert np.allclose(np.diag(h_b - h_a).real, [0.5, 1.0, 1.5, 2.0])


def test_build_model_bundles_tables():
    model = build_model(validate_config(small_raw()))
    assert np.array_equal(model.lap, model.lap.conj().T)
    assert model.coords.shape == (4, 1)
    assert model.h0(0.0).shape == (4, 4)
    assert model.cell == 1.0


@pytest.mark.parametrize("dimension,spacing", [(1, 1.0), (1, 3.3 / 7), (2, 2.0), (2, 2.7 / 5)])
def test_site_coordinates_scale_the_index_grid_exactly(dimension, spacing):
    cfg = validate_config(small_raw(dimension=dimension, sites_per_dim=5, torus_length=5 * spacing))
    axes = [np.arange(5) * cfg.spacing] * dimension
    grids = np.meshgrid(*axes, indexing="ij")
    assert np.array_equal(site_coordinates(cfg), np.stack([g.ravel() for g in grids], axis=-1))


def test_site_coordinates_2d():
    cfg = validate_config(small_raw(dimension=2, sites_per_dim=3, torus_length=6.0))
    coords = site_coordinates(cfg)
    assert coords.shape == (9, 2)
    assert coords[0] == pytest.approx([0.0, 0.0])
    assert coords[-1] == pytest.approx([4.0, 4.0])
