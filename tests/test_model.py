import pickle

import numpy as np
import pytest

from bosonlab.errors import ConfigError, RangeError, ResolutionError
from bosonlab.model import (
    ModelConfig,
    OneBodyOperator,
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
        assert np.array_equal(model.pair.mat, model.pair.mat.T)

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
            assert table.values[delta] == pytest.approx(expect, abs=0.0)

    def test_zero_profile(self):
        cfg = validate_config(small_raw(interaction_profile="zero"))
        assert sample_interaction(cfg).is_zero

    @pytest.mark.parametrize("profile,zero", [("zero", True), ("bump", False)])
    def test_is_zero_computed_once(self, profile, zero, monkeypatch):
        table = sample_interaction(validate_config(small_raw(interaction_profile=profile)))
        assert table.is_zero is zero
        monkeypatch.setattr(np, "any", lambda *args, **kwargs: pytest.fail("recomputed"))
        assert table.is_zero is zero

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
            assert table.values[delta] == pytest.approx(expect, abs=0.0)

    def test_even_exactly(self):
        cfg = validate_config(small_raw(sites_per_dim=5, torus_length=5.0))
        table = sample_interaction(cfg)
        for delta in range(5):
            assert table.values[delta] == table.values[-delta % 5]
        assert np.array_equal(table.mat, table.mat.T)

    def test_even_exactly_2d(self):
        cfg = validate_config(small_raw(dimension=2, sites_per_dim=3, torus_length=3.0))
        table = sample_interaction(cfg)
        assert np.array_equal(table.mat, table.mat.T)


class TestLaplacian:
    def test_annihilates_constants(self):
        cfg = validate_config(small_raw())
        lap = laplacian(cfg)
        const = np.ones(4)
        assert np.abs(lap.mat @ const).max() <= 1e-12 * np.abs(lap.mat).max()

    def test_plane_wave_eigenvector(self):
        cfg = validate_config(small_raw(sites_per_dim=6, torus_length=3.0))
        lap = laplacian(cfg)
        h = cfg.spacing
        for k in range(6):
            wave = np.exp(2j * np.pi * k * np.arange(6) / 6)
            expect = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / 6)) / h**2
            assert np.allclose(lap.mat @ wave, expect * wave, atol=1e-12)

    def test_plane_wave_eigenvector_2d(self):
        cfg = validate_config(small_raw(dimension=2, sites_per_dim=3, torus_length=3.0))
        lap = laplacian(cfg)
        h = cfg.spacing
        idx = np.arange(3)
        wave = np.exp(2j * np.pi * (1 * idx[:, None] + 2 * idx[None, :]) / 3).ravel()
        expect = ((2 - 2 * np.cos(2 * np.pi / 3)) + (2 - 2 * np.cos(4 * np.pi / 3))) / h**2
        assert np.allclose(lap.mat @ wave, expect * wave, atol=1e-12)

    def test_hermitian_flag_checked(self):
        cfg = validate_config(small_raw())
        lap = laplacian(cfg)
        assert lap.hermitian
        assert np.abs(lap.mat - lap.mat.conj().T).max() <= 1e-14 * np.abs(lap.mat).max()

    def test_positive_semidefinite(self):
        cfg = validate_config(small_raw(sites_per_dim=5, torus_length=5.0))
        lap = laplacian(cfg)
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            val = np.vdot(f, lap.mat @ f).real
            assert val >= -1e-12

    def test_one_body_operator_validates_hermitian_flag(self):
        from bosonlab.errors import ConsistencyError

        with pytest.raises(ConsistencyError):
            OneBodyOperator(mat=np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)


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

    def test_tabulated_requires_table(self):
        with pytest.raises(ConfigError):
            validate_config(small_raw(potential_kind="tabulated"))

    def test_tabulated_config_pickles(self):
        table = ((0.0, 1.0), ((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0, 4.0)))
        cfg = validate_config(small_raw(potential_kind="tabulated", potential_table=table))
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestH0:
    @pytest.mark.parametrize("kind", ["none", "harmonic"])
    def test_static_potential_shares_one_table(self, kind):
        model = build_model(validate_config(small_raw(potential_kind=kind, potential_strength=2.0)))
        h = model.h0(0.0)
        assert model.h0(0.37) is h
        expect = model.lap.mat + np.diag(external_potential(model.config, 0.0))
        assert np.array_equal(h, expect)

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
    assert model.lap.hermitian
    assert model.coords.shape == (4, 1)
    assert model.h0(0.0).shape == (4, 4)
    assert model.cell == 1.0


def test_site_coordinates_2d():
    cfg = validate_config(small_raw(dimension=2, sites_per_dim=3, torus_length=6.0))
    coords = site_coordinates(cfg)
    assert coords.shape == (9, 2)
    assert coords[0] == pytest.approx([0.0, 0.0])
    assert coords[-1] == pytest.approx([4.0, 4.0])
