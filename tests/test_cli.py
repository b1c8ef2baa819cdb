import numpy as np
import pytest

from bosonlab.cli import main

SMALL_CFG = """
dimension = 1
sites_per_dim = 4
torus_length = 4.0
particles = 3
beta = 0.0
gamma = 1.0
interaction.profile = bump
interaction.amplitude = 0.5
interaction.radius = 1.5
potential.kind = none
potential.strength = 0.0
t_final = 0.1
dt = 0.001
order = 2
moment_order = 2
seed = 11
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


class TestDispatch:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "bosonlab" in out and "BLAB1" in out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent/x.cfg"]) == 2


class TestCheck:
    def test_small_config_passes(self, cfg_path, capsys):
        assert main(["check", "--config", cfg_path, "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "suite: PASS" in out

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_draws_exits_2(self, cfg_path, capsys, seeds):
        assert main(["check", "--config", cfg_path, "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert "suite:" not in captured.out
        assert "random draw" in captured.err


class TestHartree:
    def test_csv_columns(self, cfg_path, capsys):
        assert main(["hartree", "--config", cfg_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,norm,mu,energy_proxy"
        assert len(lines) == 102  # header + 101 steps
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_bytes(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["hartree", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["hartree", "--config", cfg_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestEvolve:
    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_non_positive_every_exits_2(self, cfg_path, capsys, every):
        assert main(["evolve", "--config", cfg_path, "--every", every]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--every" in captured.err

    def test_norm_observable(self, cfg_path, capsys):
        assert main(["evolve", "--config", cfg_path, "--every", "20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,norm"
        assert len(lines) == 7  # header + steps 0,20,...,100
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-8)

    def test_weights_observable(self, cfg_path, capsys):
        assert main(["evolve", "--config", cfg_path, "--observable", "weights",
                     "--every", "50"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,w0,w1,w2,w3"
        total = sum(float(x) for x in lines[1].split(",")[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_weights_at_thirty_particles(self, tmp_path, capsys):
        path = tmp_path / "n30.cfg"
        path.write_text(SMALL_CFG.replace("sites_per_dim = 4", "sites_per_dim = 3")
                        .replace("torus_length = 4.0", "torus_length = 3.0")
                        .replace("particles = 3", "particles = 30")
                        .replace("t_final = 0.1", "t_final = 0.003"))
        rows = {}
        for observable in ("norm", "weights"):
            assert main(["evolve", "--config", str(path), "--observable", observable,
                         "--every", "1"]) == 0
            rows[observable] = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows["weights"]) == 4
        for norm_row, weight_row in zip(rows["norm"], rows["weights"]):
            total = sum(float(x) for x in weight_row.split(",")[1:])
            assert abs(total - float(norm_row.split(",")[1]) ** 2) <= 1e-10

    def test_moments_observable(self, cfg_path, capsys):
        assert main(["evolve", "--config", cfg_path, "--observable", "moments",
                     "--every", "100"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,order,m_moment,n_moment,excitation_moment"
        assert len(lines) == 1 + 2 * 2  # two stored times, orders 1..2

    def test_save_and_load_roundtrip(self, cfg_path, tmp_path, capsys):
        snap = tmp_path / "state.blab"
        assert main(["evolve", "--config", cfg_path, "--save", str(snap),
                     "--every", "100"]) == 0
        capsys.readouterr()
        assert snap.exists()
        assert main(["evolve", "--config", cfg_path, "--load", str(snap),
                     "--every", "100"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-6)


class TestCorrect:
    def test_reports_error_and_term_norms(self, cfg_path, capsys):
        assert main(["correct", "--config", cfg_path, "--order", "2", "--t", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "quantity,value"
        table = dict(line.split(",") for line in lines[1:])
        assert float(table["error"]) >= 0.0
        assert "term_norm_0_0" in table and "term_norm_1_1" in table

    def test_off_grid_t_exits_2(self, cfg_path, capsys):
        capsys.readouterr()
        assert main(["correct", "--config", cfg_path, "--t", "0.0101"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bosonlab: error: ") and "does not divide" in err

    def test_on_grid_t_matches_t_final(self, cfg_path, tmp_path):
        by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
        assert main(["correct", "--config", cfg_path, "--t", "0.05",
                     "--out", str(by_flag)]) == 0
        short = tmp_path / "short.cfg"
        short.write_text(SMALL_CFG.replace("t_final = 0.1", "t_final = 0.05"))
        assert main(["correct", "--config", str(short), "--out", str(by_config)]) == 0
        assert by_flag.read_bytes() == by_config.read_bytes()

    def test_out_of_range_beta_exits_3(self, tmp_path):
        path = tmp_path / "beta.cfg"
        path.write_text(SMALL_CFG.replace("beta = 0.0", "beta = 0.3"))
        assert main(["correct", "--config", str(path), "--order", "2"]) == 3


class TestFailureExitCodes:
    def test_integrator_blowup_exits_4(self, tmp_path, capsys):
        # dt far above the stability bound: the norm-drift guard must fire
        path = tmp_path / "unstable.cfg"
        path.write_text(SMALL_CFG.replace("t_final = 0.1", "t_final = 50.0")
                        .replace("dt = 0.001", "dt = 0.5"))
        assert main(["evolve", "--config", str(path)]) == 4

    def test_snapshot_geometry_mismatch_exits_2(self, cfg_path, tmp_path, capsys):
        import numpy as np

        from bosonlab import tensorstate as ts
        from bosonlab.snapshots import save_state

        snap = tmp_path / "wrong.blab"
        other = ts.random_symmetric(3, 2, 1.0, np.random.default_rng(0))
        save_state(snap, other, dimension=1, sites_per_dim=3)
        assert main(["evolve", "--config", cfg_path, "--load", str(snap)]) == 2

    def test_derived_values_in_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "derived.cfg"
        path.write_text(SMALL_CFG + "spacing = 7.0\nsite_count = 99\n")
        capsys.readouterr()
        assert main(["hartree", "--config", str(path)]) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    @pytest.mark.parametrize("line,field", [
        ("potential.kind = tabulated", "ModelConfig.potential_table"),
        ("interaction.profile = tabulated", "ModelConfig.interaction_samples"),
    ], ids=["potential", "interaction"])
    def test_tabulated_in_config_file_exits_2(self, tmp_path, capsys, line, field):
        path = tmp_path / "tabulated.cfg"
        key = line.split(" = ")[0]
        text = "\n".join(line if row.startswith(key + " ") else row
                         for row in SMALL_CFG.splitlines())
        path.write_text(text)
        capsys.readouterr()
        assert main(["hartree", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "only the Python API sets" in err
        assert "config files have no key" in err


class TestMoments:
    def test_two_blocks(self, cfg_path, capsys):
        assert main(["moments", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        blocks = out.strip().split("\n\n")
        assert blocks[0].splitlines()[0] == "k,weight"
        assert blocks[1].splitlines()[0] == "a,m_moment,n_moment,excitation_moment,c_a"
        # product initial data: c_0 = 1
        first = blocks[1].splitlines()[1].split(",")
        assert float(first[-1]) == pytest.approx(1.0, abs=1e-10)


class TestSweep:
    def test_sweep_writes_csv(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", cfg_path, "--grid", "N=3,4",
                     "--orders", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,M,d,beta,gamma,t,dt,order,err_sq,corr_norm,runtime_s"
        assert len(lines) == 3
        summary = capsys.readouterr().out
        assert "slope" in summary

    def test_failed_point_exits_1_and_is_listed(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        code = main(["sweep", "--config", cfg_path, "--grid", "N=1,3,4,5",
                     "--orders", "1", "--out", str(out)])
        assert code == 1
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5 and lines[1].split(",")[8] == "nan"
        assert "failed N=1: ConfigError(" in capsys.readouterr().out

    def test_bad_grid_rejected(self, cfg_path):
        assert main(["sweep", "--config", cfg_path, "--grid", "K=3,4"]) == 2

    @pytest.mark.parametrize("grid", ["N=3,3,3", "N=3,3,4"])
    def test_repeated_grid_point_exits_2(self, cfg_path, capsys, grid):
        assert main(["sweep", "--config", cfg_path, "--grid", grid, "--orders", "1"]) == 2
        captured = capsys.readouterr()
        assert "slope" not in captured.out
        assert "repeats N=3" in captured.err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_exits_2(self, cfg_path, capsys, jobs):
        assert main(["sweep", "--config", cfg_path, "--grid", "N=3,4", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs" in captured.err

    def test_seed_override_changes_nothing_deterministic(self, cfg_path, tmp_path):
        # the sweep at fixed config is seed-independent (no stochastic inputs)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg_path, "--grid", "N=3", "--orders", "1",
                     "--out", str(a), "--seed", "1"]) == 0
        assert main(["sweep", "--config", cfg_path, "--grid", "N=3", "--orders", "1",
                     "--out", str(b), "--seed", "2"]) == 0

        def strip_runtime(text):
            return ["," .join(line.split(",")[:-1]) for line in text.splitlines()]

        assert strip_runtime(a.read_text()) == strip_runtime(b.read_text())
