"""Binary state snapshots.

Layout: magic ``BLAB1``, one representation tag byte (0 = tensor grid,
1 = occupation basis), then little-endian u32 fields d, L, N, little-endian
f64 lattice spacing h, followed by the raw amplitudes as little-endian
complex64 (re, im) pairs.  Tensor amplitudes are row-major over the
(M,)*N grid; occupation amplitudes follow the deterministic basis order of
every occupation vector, so a state of a symmetric sector is written
expanded through its orbits and read back without symmetry.
"""

from __future__ import annotations

import struct

import numpy as np

from . import fockstate as fs
from . import tensorstate as ts
from .errors import ConfigError

__all__ = ["save_state", "load_state", "representation", "MAGIC"]

MAGIC = b"BLAB1"
_HEADER = struct.Struct("<5sBIIId")

TAG_TENSOR = 0
TAG_OCCUPATION = 1


def representation(state) -> str:
    """``--representation``'s name for the class of ``state``: "tensor" or "fock"."""
    if isinstance(state, ts.TensorState):
        return "tensor"
    if isinstance(state, fs.FockState):
        return "fock"
    raise ConfigError(f"cannot snapshot object of type {type(state).__name__}")


def save_state(path, state, dimension: int, sites_per_dim: int) -> None:
    spacing = state.cell ** (1.0 / dimension)
    tag = TAG_TENSOR if representation(state) == "tensor" else TAG_OCCUPATION
    amps = state.amps if tag == TAG_TENSOR else state.space.site_amplitudes(state.amps)
    payload = np.ascontiguousarray(amps, dtype="<c8").tobytes()
    header = _HEADER.pack(MAGIC, tag, dimension, sites_per_dim, state.particles, spacing)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_state(path):
    """Read a snapshot, returning (state, dimension, sites_per_dim); a
    snapshot with non-finite amplitudes, or a tensor snapshot that is not
    symmetric under particle exchange, raises ConfigError."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ConfigError(f"{path}: truncated snapshot header")
        magic, tag, dim, sites_per_dim, particles, spacing = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ConfigError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        raw = fh.read()
    if len(raw) % 8:
        raise ConfigError(f"{path}: {len(raw)} payload bytes hold no whole number of amplitudes")
    payload = np.frombuffer(raw, dtype="<c8").astype(np.complex128)
    if not np.isfinite(payload).all():
        raise ConfigError(f"{path}: non-finite amplitudes")

    m = sites_per_dim**dim
    cell = spacing**dim
    if tag == TAG_TENSOR:
        expected = m**particles
        if payload.size != expected:
            raise ConfigError(f"{path}: expected {expected} amplitudes, found {payload.size}")
        state = ts.TensorState(payload.reshape((m,) * particles), cell)
        residual = ts.transposition_residual(state)
        if not residual <= 1e-10:  # the tolerance of fockstate.extract
            raise ConfigError(
                f"{path}: tensor amplitudes are not symmetric under particle exchange "
                f"(relative residual {residual:.3g})"
            )
    elif tag == TAG_OCCUPATION:
        space = fs.FockSpace(fs.enumerate_basis(m, particles), cell)
        if payload.size != space.basis.dim:
            raise ConfigError(
                f"{path}: expected {space.basis.dim} amplitudes, found {payload.size}"
            )
        state = fs.FockState(payload, space)
    else:
        raise ConfigError(f"{path}: unknown representation tag {tag}")
    return state, dim, sites_per_dim
