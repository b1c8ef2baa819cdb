import numpy as np
import pytest

from bosonlab import fockstate as fs
from bosonlab import tensorstate as ts
from bosonlab.errors import ConfigError
from bosonlab.snapshots import MAGIC, load_state, save_state


def test_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    psi = ts.random_symmetric(3, 3, 0.5, rng)
    path = tmp_path / "state.blab"
    save_state(path, psi, dimension=1, sites_per_dim=3)
    loaded, d, sites = load_state(path)
    assert (d, sites) == (1, 3)
    assert isinstance(loaded, ts.TensorState)
    assert loaded.cell == pytest.approx(psi.cell)
    # payload is float32 pairs, so the roundtrip is accurate to single precision
    assert np.abs(loaded.amps - psi.amps).max() <= 1e-6


def test_occupation_roundtrip(tmp_path):
    space = fs.FockSpace(fs.enumerate_basis(4, 3), 1.0)
    psi = fs.random_fock(space, np.random.default_rng(1))
    path = tmp_path / "state.blab"
    save_state(path, psi, dimension=1, sites_per_dim=4)
    loaded, d, sites = load_state(path)
    assert isinstance(loaded, fs.FockState)
    assert loaded.space.basis.dim == 20
    assert np.abs(loaded.amps - psi.amps).max() <= 1e-6


def test_header_magic_checked(tmp_path):
    path = tmp_path / "junk.blab"
    path.write_bytes(b"NOPE!" + bytes(32))
    with pytest.raises(ConfigError):
        load_state(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.blab"
    path.write_bytes(MAGIC)
    with pytest.raises(ConfigError):
        load_state(path)


def test_payload_size_validated(tmp_path):
    space = fs.FockSpace(fs.enumerate_basis(3, 2), 1.0)
    psi = fs.random_fock(space, np.random.default_rng(2))
    path = tmp_path / "state.blab"
    save_state(path, psi, dimension=1, sites_per_dim=3)
    data = path.read_bytes()
    path.write_bytes(data[:-8])  # drop one complex64 amplitude
    with pytest.raises(ConfigError):
        load_state(path)
    path.write_bytes(data[:-3])  # and a payload of no whole number of amplitudes
    with pytest.raises(ConfigError, match="state.blab"):
        load_state(path)


def test_tensor_payload_size_validated(tmp_path):
    path = tmp_path / "state.blab"
    save_state(path, ts.random_symmetric(3, 2, 0.5, np.random.default_rng(2)), dimension=1, sites_per_dim=3)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ConfigError, match="state.blab: expected 9 amplitudes, found 8"):
        load_state(path)


def test_unknown_representation_tag_rejected(tmp_path):
    path = tmp_path / "state.blab"
    save_state(path, ts.random_symmetric(3, 2, 0.5, np.random.default_rng(2)), dimension=1, sites_per_dim=3)
    data = bytearray(path.read_bytes())
    data[len(MAGIC)] = 7  # the tag byte after the magic
    path.write_bytes(bytes(data))
    with pytest.raises(ConfigError, match="state.blab: unknown representation tag 7"):
        load_state(path)


def test_2d_geometry_preserved(tmp_path):
    # 2d lattice: M = L^2 sites, spacing recovered from the header
    rng = np.random.default_rng(3)
    psi = ts.random_symmetric(4, 2, 0.25, rng)  # M=4 = 2^2, cell=h^2 with h=0.5
    path = tmp_path / "state2d.blab"
    save_state(path, psi, dimension=2, sites_per_dim=2)
    loaded, d, sites = load_state(path)
    assert (d, sites) == (2, 2)
    assert loaded.cell == pytest.approx(0.25)


@pytest.mark.parametrize("tag,value", [("fock", np.nan), ("tensor", np.inf)])
def test_non_finite_amplitudes_refused(tmp_path, tag, value):
    # refused when read, before the symmetry check, not by a later step
    # that would blame dt
    rng = np.random.default_rng(5)
    if tag == "fock":
        psi = fs.random_fock(fs.FockSpace(fs.enumerate_basis(4, 3), 1.0), rng)
    else:
        psi = ts.random_symmetric(4, 3, 1.0, rng)
    psi.amps.flat[0] = value
    path = tmp_path / "bad.blab"
    save_state(path, psi, dimension=1, sites_per_dim=4)
    with pytest.raises(ConfigError, match="bad.blab: non-finite amplitudes"):
        load_state(path)
