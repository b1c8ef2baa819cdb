import numpy as np
import pytest

from bosonlab import cli
from bosonlab.cli import main
from bosonlab.duhamel import correction_error
from bosonlab.experiments import build_product, default_phi0
from bosonlab.model import CONFIG_FILE_KEYS, ModelConfig, build_model, config_from_file

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


NUMERIC_KEYS = [key for key, field in CONFIG_FILE_KEYS.items()
                if ModelConfig.__dataclass_fields__[field].type in ("int", "float")]


def with_value(key, value, *others):
    """SMALL_CFG with the line of ``key`` set to ``value``, and the line of
    each (key, value) pair of ``others`` likewise."""
    values = dict([(key, value), *others])
    rows = [f"{row.split(' = ')[0]} = {values[row.split(' = ')[0]]}" if row.split(" = ")[0] in values else row
            for row in SMALL_CFG.splitlines()]
    assert all(f"{k} = {v}" in rows for k, v in values.items())
    return "\n".join(rows)


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

    def test_missing_config_file(self, cfg_path, tmp_path, capsys):
        # a missing file, or a directory where a file belongs, is refused
        # naming the flag that gave it
        folder, missing = str(tmp_path), str(tmp_path / "missing")
        for argv, named in ((["sweep", "--config", "/nonexistent/x.cfg"], "--config /nonexistent/x.cfg"),
                            (["hartree", "--config", folder], f"--config {folder}"),
                            (["hartree", "--config", cfg_path, "--out", folder], f"--out {folder}"),
                            (["evolve", "--config", cfg_path, "--save", folder], f"--save {folder}"),
                            (["evolve", "--config", cfg_path, "--load", folder], f"--load {folder}"),
                            (["evolve", "--config", cfg_path, "--load", missing], f"--load {missing}")):
            capsys.readouterr()
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("bosonlab: error: ") and "Traceback" not in err
            assert err.strip().splitlines()[-1].startswith(f"bosonlab: error: {named}: "), err


class TestCheck:
    def test_small_config_passes(self, cfg_path, capsys):
        assert main(["check", "--config", cfg_path, "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "suite: PASS" in out

    def test_out_holds_the_report(self, cfg_path, tmp_path, capsys):
        capsys.readouterr()
        assert main(["check", "--config", cfg_path, "--seeds", "2"]) == 0
        printed = capsys.readouterr().out
        report = tmp_path / "check.txt"
        assert main(["check", "--config", cfg_path, "--seeds", "2", "--out", str(report)]) == 0
        assert capsys.readouterr().out == ""
        assert report.read_text() == printed
        assert printed.endswith("suite: PASS\n")

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
    def test_norm_observable(self, cfg_path, capsys):
        assert main(["evolve", "--config", cfg_path, "--every", "20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,norm"
        assert len(lines) == 7  # header + steps 0,20,...,100
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-8)

    def test_norm_observable_builds_no_condensate(self, cfg_path, capsys, monkeypatch):
        # only the weights and moments read the Hartree trajectory
        assert main(["evolve", "--config", cfg_path, "--every", "20"]) == 0
        expect = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise RuntimeError("evolve --observable norm built a Hartree trajectory")

        monkeypatch.setattr(cli, "hartree_evolve", refuse)
        assert main(["evolve", "--config", cfg_path, "--observable", "norm", "--every", "20"]) == 0
        assert capsys.readouterr().out == expect

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

    @pytest.mark.parametrize("representation", ["fock", "tensor"])
    def test_load_follows_the_snapshot_representation(self, cfg_path, tmp_path, representation):
        snap = tmp_path / "state.blab"
        assert main(["evolve", "--config", cfg_path, "--representation", representation,
                     "--save", str(snap), "--every", "100"]) == 0
        named, unnamed = tmp_path / "named.csv", tmp_path / "unnamed.csv"
        load = ["evolve", "--config", cfg_path, "--load", str(snap), "--observable", "weights",
                "--every", "50"]
        assert main([*load, "--representation", representation, "--out", str(named)]) == 0
        assert main([*load, "--out", str(unnamed)]) == 0
        assert named.read_bytes() == unnamed.read_bytes()


class TestCorrect:
    def test_reports_error_and_term_norms(self, cfg_path, capsys):
        assert main(["correct", "--config", cfg_path, "--order", "2", "--t", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "quantity,value"
        table = dict(line.split(",") for line in lines[1:])
        assert float(table["error"]) >= 0.0
        assert "term_norm_0_0" in table and "term_norm_1_1" in table

    def test_csv_reads_back_the_exact_result(self, cfg_path, tmp_path):
        # the data channel loses no bit: every value parses back to correction_error's double
        out = tmp_path / "correct.csv"
        assert main(["correct", "--config", cfg_path, "--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines()
        assert header == "quantity,value"
        table = {name: float(value) for name, value in (line.split(",") for line in lines)}
        cfg = config_from_file(cfg_path, correction_run=True)
        model = build_model(cfg)
        phi0 = default_phi0(model)
        result = correction_error(build_product(model, phi0), phi0, cfg.correction_order, cfg.t_final, model)
        expected = {"error": result.error, "error_sq": result.error_sq, "correction_norm": result.correction_norm}
        expected.update({f"term_norm_{n}_{k}": norm for (n, k), norm in result.term_norms.items()})
        assert table == expected

    def test_off_grid_t_exits_2(self, cfg_path, capsys):
        capsys.readouterr()
        assert main(["correct", "--config", cfg_path, "--t", "0.0101"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bosonlab: error: ") and "does not divide" in err

    def test_t_final_within_the_grid_tolerance_runs(self, tmp_path, capsys):
        # 5e-9 off the grid of dt = 0.01, inside the config rule's 1e-6 dt
        path = tmp_path / "near.cfg"
        path.write_text(SMALL_CFG.replace("t_final = 0.1", "t_final = 0.500000005")
                        .replace("dt = 0.001", "dt = 0.01"))
        assert main(["correct", "--config", str(path)]) == 0
        assert main(["sweep", "--config", str(path), "--grid", "N=3", "--orders", "1,2",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert "Traceback" not in capsys.readouterr().err

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
        # a payload of no whole number of amplitudes
        snap.write_bytes(snap.read_bytes()[:-3])
        capsys.readouterr()
        assert main(["evolve", "--config", cfg_path, "--load", str(snap)]) == 2
        err = capsys.readouterr().err
        assert "wrong.blab" in err and "Traceback" not in err

    @pytest.mark.parametrize("representation,observable", [("fock", "weights"), ("tensor", "norm")])
    def test_snapshot_spacing_mismatch_exits_2(self, cfg_path, tmp_path, capsys, representation, observable):
        snap = tmp_path / "state.blab"
        assert main(["evolve", "--config", cfg_path, "--representation", representation,
                     "--save", str(snap), "--every", "100"]) == 0
        # same d, L and N on a grid of twice the spacing
        wider = tmp_path / "wider.cfg"
        wider.write_text(with_value("torus_length", "8.0").replace("radius = 1.5", "radius = 4.5"))
        capsys.readouterr()
        assert main(["evolve", "--config", str(wider), "--load", str(snap),
                     "--observable", observable]) == 2
        err = capsys.readouterr().err
        assert "spacing" in err and "Traceback" not in err

    @pytest.mark.parametrize("saved,loaded", [("fock", "tensor"), ("tensor", "fock")])
    def test_snapshot_of_another_representation_exits_2(self, cfg_path, tmp_path, capsys, saved, loaded):
        snap = tmp_path / "state.blab"
        assert main(["evolve", "--config", cfg_path, "--representation", saved,
                     "--save", str(snap), "--every", "100"]) == 0
        capsys.readouterr()
        assert main(["evolve", "--config", cfg_path, "--load", str(snap),
                     "--representation", loaded]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "--representation" in captured.err and saved in captured.err

    @pytest.mark.parametrize("observable", ["norm", "weights", "moments"])
    def test_asymmetric_tensor_snapshot_exits_2(self, cfg_path, tmp_path, capsys, observable):
        from bosonlab import tensorstate as ts
        from bosonlab.snapshots import save_state

        rng = np.random.default_rng(7)
        amps = rng.standard_normal((4,) * 3) + 1j * rng.standard_normal((4,) * 3)
        snap = tmp_path / "asymmetric.blab"
        save_state(snap, ts.TensorState(amps / np.linalg.norm(amps), 1.0), 1, 4)
        capsys.readouterr()
        assert main(["evolve", "--config", cfg_path, "--load", str(snap),
                     "--observable", observable]) == 2
        err = capsys.readouterr().err
        assert "asymmetric.blab" in err and "symmetric" in err and "Traceback" not in err

    def test_snapshot_with_a_nan_amplitude_exits_2(self, cfg_path, tmp_path, capsys):
        from bosonlab import fockstate as fs
        from bosonlab.snapshots import save_state

        psi = fs.random_fock(fs.FockSpace(fs.enumerate_basis(4, 3), 1.0), np.random.default_rng(8))
        psi.amps[2] = np.nan
        snap = tmp_path / "nan.blab"
        save_state(snap, psi, 1, 4)
        capsys.readouterr()
        assert main(["evolve", "--config", cfg_path, "--load", str(snap)]) == 2
        err = capsys.readouterr().err
        assert "nan.blab" in err.strip().splitlines()[-1] and "Traceback" not in err

    def test_snapshot_with_nan_spacing_exits_2(self, cfg_path, tmp_path, capsys):
        import struct

        snap = tmp_path / "state.blab"
        assert main(["evolve", "--config", cfg_path, "--representation", "tensor",
                     "--save", str(snap), "--every", "100"]) == 0
        raw = bytearray(snap.read_bytes())
        raw[18:26] = struct.pack("<d", float("nan"))  # the f64 spacing of the header
        snap.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["evolve", "--config", cfg_path, "--load", str(snap)]) == 2
        err = capsys.readouterr().err
        assert "spacing nan" in err and "Traceback" not in err

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


class TestMalformedConfigValues:
    def test_every_numeric_key_is_covered(self):
        assert len(NUMERIC_KEYS) == len(CONFIG_FILE_KEYS) - 2  # all but the two kinds

    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        path = tmp_path / "malformed.cfg"
        path.write_text(with_value(key, value))
        capsys.readouterr()
        assert main(["correct", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith(f"bosonlab: error: {key} must be ")

    @pytest.mark.parametrize("profile,radius", [("bump", "0"), ("bump", "-1.5"), ("tophat", "-1.5")])
    def test_empty_interaction_support_exits_2(self, tmp_path, capsys, profile, radius):
        # w = 0 on an empty support: a free model under an interacting name
        path = tmp_path / "empty.cfg"
        path.write_text(with_value("interaction.radius", radius).replace(
            "interaction.profile = bump", f"interaction.profile = {profile}"))
        capsys.readouterr()
        assert main(["correct", "--config", str(path), "--order", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("bosonlab: error: interaction.radius must be ")

    def test_on_site_tophat_is_an_interaction(self, tmp_path, capsys):
        # a tophat of radius 0 keeps its own site: a contact interaction
        path = tmp_path / "contact.cfg"
        path.write_text(with_value("interaction.radius", "0").replace(
            "interaction.profile = bump", "interaction.profile = tophat"))
        capsys.readouterr()
        assert main(["correct", "--config", str(path), "--order", "2", "--t", "0.02"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert float(dict(line.split(",") for line in captured.out.splitlines())["error"]) > 0.0

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_correct_t_exits_2(self, cfg_path, capsys, t):
        capsys.readouterr()
        assert main(["correct", "--config", cfg_path, "--t", t]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bosonlab: error: t_final must be a finite number")


# (argv, the flag or the config key it overrides that the message must name)
REFUSALS = [
    *((["correct", "--order", value], "order") for value in ("0", "-2", "x")),
    *((["correct", "--t", value], "t_final") for value in ("0", "-1")),
    *(([command, "--seed", value], "seed")
      for command in ("check", "hartree", "moments") for value in ("-1", "x")),
    (["moments", "--representation", "bogus"], "--representation"),
    (["evolve", "--observable", "bogus"], "--observable"),
    *((["sweep", "--grid", "N=3", "--orders", value], "orders") for value in ("0", "-1")),
    (["sweep", "--grid", "M=3,4"], "--grid"),
    *((["check", "--seeds", value], "--seeds") for value in ("x", "0", "-2")),
    *((["evolve", "--every", value], "--every") for value in ("0", "-3", "x")),
    *((["sweep", "--grid", "N=3,4", "--jobs", value], "--jobs") for value in ("0", "-2")),
    (["sweep", "--jobs", "x"], "--jobs"),
    (["correct", "--t", "x"], "--t"),
    (["correct", "--order", "1.5"], "--order"),
    *((["sweep", "--grid", value], "--grid") for value in ("N=", "N=3,x")),
    (["sweep", "--orders", "1,x"], "--orders"),
]


# Config values the key grid below runs rather than refuses, each with the
# reason it is valid; a third entry is another key's value it needs.
ACCEPTED = {
    ("beta", "0"): "the unscaled interaction, which the paper's window includes",
    ("interaction.amplitude", "0"): "w = 0 asked for by value: the free model of profile zero",
    ("interaction.amplitude", "-1"): "an attractive pair interaction, as bounded as a repulsive one",
    ("potential.strength", "0"): "no external potential",
    ("seed", "0"): "the first seed",
    ("gamma", "1"): "the closed top of the paper's window 0 < gamma <= 1",
    ("interaction.radius", "0", ("interaction.profile", "tophat")):
        "a tophat of radius 0 keeps its own site: an on-site contact interaction, "
        "valid at beta = 0, where no scaled support has to span two spacings",
}
# Keys bounded by the paper's parameter window: refused as out of range, exit 3.
RANGE_KEYS = {"beta", "gamma"}
# (key, value, exit code, other (key, value) pairs): zero, negative and a
# number word for every numeric key
KEY_ROWS = [
    (key, value, 0 if (key, value) in ACCEPTED else 3 if key in RANGE_KEYS and value != "two" else 2, ())
    for key in NUMERIC_KEYS for value in ("0", "-1", "two")
] + [
    # accepted values off that grid, or with another key's value
    (key, value, 0, tuple(others)) for key, value, *others in ACCEPTED
    if value not in ("0", "-1", "two") or others
] + [(key, value, code, ()) for key, value, code in [
    # the correction window's open floor, gamma = (2 + d beta)/3 at d = 1, beta = 0
    ("gamma", repr(2.0 / 3.0), 3),
    # and its open cap, beta = 1/(4d) at d = 1
    ("beta", "0.25", 3),
    # one step as long as the run (t_final = 0.1): too coarse for the drift bound
    ("dt", "0.1", 4),
    # spacings whose 2d/h^2 overflows or whose h^2 underflows to 0
    ("torus_length", "1e300", 2),
    ("torus_length", "1e-200", 2),
    # off the step grid of t_final = 0.1, dt = 0.001: dt must divide t_final up to rounding
    ("t_final", "0.1005", 2),
    ("dt", "0.03", 2),
    # names off the choices
    ("interaction.profile", "bogus", 2),
    ("potential.kind", "bogus", 2),
]]
# (config text, the key its refusal must name): every key of SMALL_CFG given
# twice, every file key repeated under its field name, and unknown keys (a
# misspelling, another case, a derived quantity)
SMALL_KEYS = dict(row.split(" = ") for row in SMALL_CFG.strip().splitlines())
LINE_ROWS = [
    *((f"{SMALL_CFG}{key} = {value}\n", key) for key, value in SMALL_KEYS.items()),
    *((f"{SMALL_CFG}{field} = {SMALL_KEYS[key]}\n", field)
      for key, field in CONFIG_FILE_KEYS.items() if field != key),
    *((f"{SMALL_CFG}{key} = 1\n", key) for key in ("torus_lenght", "Particles", "spacing")),
]


class TestRefusalGrid:
    """Flag values below range, of the wrong type or off the choices: exit 2,
    no traceback, and a last stderr line (argparse prints its usage above it)
    that names the flag or the config key it overrides.  Config-key values
    (``KEY_ROWS``) are refused the same way, with exit 3 for the range keys
    and exit 4 for a step too coarse for the drift bound, or run to exit 0
    where ``ACCEPTED`` says why they are valid, set together with any other
    key's value they need.  A key given twice or an unknown key
    (``LINE_ROWS``) exits 2 naming it."""

    @pytest.mark.parametrize("argv,name", REFUSALS, ids=[" ".join(argv) for argv, _ in REFUSALS])
    def test_exits_2_naming_the_flag(self, cfg_path, capsys, argv, name):
        capsys.readouterr()
        assert main([*argv, "--config", cfg_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert name in captured.err.strip().splitlines()[-1]

    @pytest.mark.parametrize("key,value,code,others", KEY_ROWS, ids=[
        f"{k}={v}" + "".join(f",{ok}={ov}" for ok, ov in others) for k, v, _, others in KEY_ROWS])
    def test_config_key_values(self, tmp_path, capsys, key, value, code, others):
        path = tmp_path / "grid.cfg"
        path.write_text(with_value(key, value, *others))
        capsys.readouterr()
        assert main(["correct", "--config", str(path)]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code:
            assert captured.out == ""
            assert key in captured.err.strip().splitlines()[-1]
        else:
            assert captured.err == "" and captured.out.startswith("quantity,value\n")

    @pytest.mark.parametrize("text,key", LINE_ROWS, ids=[text.splitlines()[-1] for text, _ in LINE_ROWS])
    def test_repeated_and_unknown_keys(self, tmp_path, capsys, text, key):
        path = tmp_path / "grid.cfg"
        path.write_text(text)
        capsys.readouterr()
        assert main(["correct", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert repr(key) in captured.err.strip().splitlines()[-1]

    def test_a_line_with_no_equals_sign_names_its_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "grid.cfg"
        text = f"{SMALL_CFG}particles 3\n"
        path.write_text(text)
        capsys.readouterr()
        assert main(["correct", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"grid.cfg:{len(text.splitlines())}: expected key=value" in captured.err.strip().splitlines()[-1]


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

    @pytest.mark.parametrize("flag,value", [
        ("--orders", "abc"), ("--orders", ""), ("--grid", "N="), ("--grid", "N=3,x"),
    ])
    def test_unparsable_list_exits_2(self, cfg_path, capsys, flag, value):
        capsys.readouterr()
        assert main(["sweep", "--config", cfg_path, "--grid", "N=3", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"bosonlab: error: {flag} ")

    def test_empty_order_tokens_are_skipped(self, cfg_path, tmp_path, capsys):
        skipped, plain = tmp_path / "skipped.csv", tmp_path / "plain.csv"
        assert main(["sweep", "--config", cfg_path, "--grid", "N=3,", "--orders", "1,,2",
                     "--out", str(skipped)]) == 0
        assert main(["sweep", "--config", cfg_path, "--grid", "N=3", "--orders", "1,2",
                     "--out", str(plain)]) == 0

        def strip_runtime(text):
            return [",".join(line.split(",")[:-1]) for line in text.splitlines()]

        assert strip_runtime(skipped.read_text()) == strip_runtime(plain.read_text())
        assert len(plain.read_text().splitlines()) == 3

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
