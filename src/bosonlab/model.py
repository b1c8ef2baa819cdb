"""Configuration, periodic lattice, and discretised coefficient tables.

The simulation domain is a d-dimensional torus with L sites per dimension and
spacing h = torus_length / L.  Every one-body operator is a dense M x M
complex table (M = L**d flattened sites) acting on raw amplitude vectors;
hermiticity of a table is plain conjugate-transpose symmetry because the
h**d weight of the inner product is a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import ConfigError, ConsistencyError, RangeError, ResolutionError

__all__ = [
    "ModelConfig",
    "OneBodyOperator",
    "PairTable",
    "Model",
    "validate_config",
    "parse_config_file",
    "config_from_file",
    "sample_interaction",
    "laplacian",
    "external_potential",
    "site_coordinates",
    "build_model",
    "grid_index",
    "CONFIG_FILE_KEYS",
]

# The one grid rule (``grid_index``) of t_final, evolution ends and trajectory lookups.
GRID_TOL = 1e-6

# Flat key=value file schema.  Keys map one-to-one onto ModelConfig fields.
CONFIG_FILE_KEYS = {
    "dimension": "dimension",
    "sites_per_dim": "sites_per_dim",
    "torus_length": "torus_length",
    "particles": "particles",
    "beta": "beta",
    "gamma": "gamma",
    "interaction.profile": "interaction_profile",
    "interaction.amplitude": "interaction_amplitude",
    "interaction.radius": "interaction_radius",
    "potential.kind": "potential_kind",
    "potential.strength": "potential_strength",
    "t_final": "t_final",
    "dt": "dt",
    "order": "correction_order",
    "moment_order": "moment_order",
    "seed": "seed",
}

_INT_FIELDS = {"dimension", "sites_per_dim", "particles", "correction_order", "moment_order", "seed"}
_STR_FIELDS = {"interaction_profile", "potential_kind"}
_NUMBER_KEYS = {f: k for k, f in CONFIG_FILE_KEYS.items() if f not in _STR_FIELDS}

_PROFILES = ("bump", "tophat", "zero", "tabulated")
_POTENTIALS = ("none", "harmonic", "tabulated")
_API_ONLY = ", which only the Python API sets; config files have no key for tabulated data"


@dataclass(frozen=True)
class ModelConfig:
    """Validated physical and numerical configuration.

    Instances are immutable after validation and safe to share read-only
    across workers.  The derived quantities (spacing, site_count,
    step_count, cell) are properties, so they always match the fields.
    """

    dimension: int = 1
    sites_per_dim: int = 4
    torus_length: float = 4.0
    particles: int = 3
    beta: float = 0.0
    gamma: float = 1.0
    interaction_profile: str = "bump"
    interaction_amplitude: float = 0.5
    interaction_radius: float = 1.5
    interaction_samples: tuple | None = None
    potential_kind: str = "none"
    potential_strength: float = 0.0
    potential_table: tuple | None = None
    t_final: float = 0.5
    dt: float = 1e-3
    correction_order: int = 1
    moment_order: int = 2
    seed: int = 0

    @property
    def spacing(self) -> float:
        """Lattice spacing h = torus_length / L."""
        return self.torus_length / self.sites_per_dim

    @property
    def site_count(self) -> int:
        """Number of flattened sites M = L**d."""
        return self.sites_per_dim**self.dimension

    @property
    def step_count(self) -> int:
        """Grid steps from 0 to t_final."""
        return int(round(self.t_final / self.dt))

    @property
    def cell(self) -> float:
        """Volume element h**d carried by each particle coordinate."""
        return self.spacing**self.dimension


def parse_config_file(path) -> dict:
    """Read a flat key=value file into a raw string mapping.

    Blank lines and lines starting with '#' are ignored.  Unknown keys are
    rejected later by :func:`validate_config`.
    """
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value.strip()
    return raw


def _coerce(key: str, field: str, value):
    if field in _STR_FIELDS:
        return str(value)
    try:
        number = float(value)
        if field not in _INT_FIELDS:
            return number
        ivalue = int(number if isinstance(value, str) else value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a finite number, got {value!r}") from None
    if ivalue != number:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return ivalue


def _normalise_raw(raw: Mapping) -> dict:
    """Map file keys or field names onto ModelConfig fields, rejecting strangers."""
    field_names = set(ModelConfig.__dataclass_fields__)
    out = {}
    for key, value in raw.items():
        if key in CONFIG_FILE_KEYS:
            field = CONFIG_FILE_KEYS[key]
        elif key in field_names:
            field = key
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
        if field in ("interaction_samples", "potential_table") and value is not None:
            value = tuple(np.asarray(value).ravel().tolist()) if field == "interaction_samples" else value
        else:
            value = _coerce(key, field, value)
        out[field] = value
    return out


def validate_config(raw, correction_run: bool = False) -> ModelConfig:
    """Validate a raw mapping (or re-validate a ModelConfig) into a ModelConfig.

    Idempotent: validating an already-validated config returns an identical
    config.  ``correction_run=True`` additionally enforces the parameter
    window in which the correction hierarchy carries a convergence guarantee:
    beta < 1/(4d) and gamma > (2 + d*beta)/3.
    """
    cfg = raw if isinstance(raw, ModelConfig) else ModelConfig(**_normalise_raw(raw))
    for field, key in _NUMBER_KEYS.items():
        value = getattr(cfg, field)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {value!r}")

    d, L, N = cfg.dimension, cfg.sites_per_dim, cfg.particles
    if d not in (1, 2):
        raise ConfigError(f"dimension must be 1 or 2, got {d}")
    if L < 2:
        raise ConfigError(f"sites_per_dim must be >= 2, got {L}")
    if cfg.torus_length <= 0:
        raise ConfigError(f"torus_length must be > 0, got {cfg.torus_length}")
    if N < 1:
        raise ConfigError(f"particles must be >= 1, got {N}")
    if not 0.0 <= cfg.beta < 1.0 / d:
        raise RangeError(f"beta={cfg.beta} violates 0 <= beta < 1/d = {1.0 / d}")
    if not 0.0 < cfg.gamma <= 1.0:
        raise RangeError(f"gamma={cfg.gamma} violates 0 < gamma <= 1")
    if cfg.dt <= 0:
        raise ConfigError(f"dt must be > 0, got {cfg.dt}")
    if cfg.t_final <= 0:
        raise ConfigError(f"t_final must be > 0, got {cfg.t_final}")
    if cfg.correction_order < 1:
        raise ConfigError(f"order must be >= 1, got {cfg.correction_order}")
    if cfg.moment_order < 1:
        raise ConfigError(f"moment_order must be >= 1, got {cfg.moment_order}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.interaction_profile not in _PROFILES:
        raise ConfigError(f"interaction.profile must be one of {_PROFILES}")
    # an empty support would be a free model; a tophat of radius 0 is on-site
    profile, radius = cfg.interaction_profile, cfg.interaction_radius
    if profile == "bump" and radius <= 0 or profile == "tophat" and radius < 0:
        raise ConfigError(f"interaction.radius must be > 0 (>= 0 for a tophat), got {radius}")
    if cfg.potential_kind not in _POTENTIALS:
        raise ConfigError(f"potential.kind must be one of {_POTENTIALS}")
    if cfg.interaction_profile == "tabulated" and cfg.interaction_samples is None:
        raise ConfigError(
            f"tabulated interaction requires ModelConfig.interaction_samples{_API_ONLY}")
    if cfg.interaction_profile == "tabulated" and cfg.beta != 0.0:
        raise ConfigError("tabulated interaction samples support beta=0 only")
    if cfg.interaction_profile == "tabulated" and len(cfg.interaction_samples) == cfg.site_count:
        # w(x_a - x_b) = w(x_b - x_a): the exact split needs a symmetric pair table
        values = np.asarray(cfg.interaction_samples, dtype=float).reshape((L,) * d)
        gap = np.abs(values - values[np.ix_(*[-np.arange(L) % L] * d)]).max()
        if gap > 1e-12 * np.abs(values).max():
            raise ConfigError(f"interaction_samples must be even, values[delta] = values[-delta mod L] "
                              f"in every component; they differ by {gap:.3g}")
    if cfg.potential_kind == "tabulated" and cfg.potential_table is None:
        raise ConfigError(f"tabulated potential requires ModelConfig.potential_table{_API_ONLY}")

    if correction_run:
        beta_cap = 1.0 / (4 * d)
        if cfg.beta >= beta_cap:
            raise RangeError(
                f"correction run requires beta < 1/(4d) = {beta_cap}, got beta={cfg.beta}"
            )
        gamma_floor = (2.0 + d * cfg.beta) / 3.0
        if cfg.gamma <= gamma_floor:
            raise RangeError(
                f"correction run requires gamma > (2+d*beta)/3 = {gamma_floor}, got gamma={cfg.gamma}"
            )

    if cfg.spacing <= 0:
        raise ConfigError("lattice spacing must be strictly positive")

    # Scaled support must span at least two lattice spacings, otherwise the
    # potential collapses to a single-site spike and the scaling is vacuous.
    if cfg.beta > 0 and cfg.interaction_profile not in ("zero",):
        scaled_radius = cfg.interaction_radius * N ** (-cfg.beta)
        if scaled_radius < 2 * cfg.spacing:
            raise ResolutionError(
                f"scaled interaction support N^-beta * R = {scaled_radius:.6g} "
                f"spans less than two lattice spacings (2h = {2 * cfg.spacing:.6g})"
            )

    try:
        steps = grid_index(cfg.t_final, cfg.dt)
    except ValueError:
        steps = 0
    if steps < 1:
        raise ConfigError(f"dt={cfg.dt} does not divide t_final={cfg.t_final} up to rounding")
    return cfg


def grid_index(t: float, dt: float) -> int:
    """The index i of time t on the grid i * dt, within ``GRID_TOL * dt``;
    ``ValueError`` for a time off the grid."""
    steps = t / dt
    i = round(steps) if math.isfinite(steps) else 0
    if not abs(i * dt - t) <= GRID_TOL * dt:
        raise ValueError(f"time {t} is not on the grid of step dt={dt}")
    return i


def config_from_file(path, correction_run: bool = False) -> ModelConfig:
    return validate_config(parse_config_file(path), correction_run=correction_run)


@dataclass(frozen=True)
class OneBodyOperator:
    """Dense M x M complex coefficient table with an optional hermitian flag."""

    mat: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=np.complex128)
        object.__setattr__(self, "mat", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConsistencyError(f"one-body table must be square, got shape {mat.shape}")
        if self.hermitian:
            scale = max(np.abs(mat).max(), 1.0)
            if np.abs(mat - mat.conj().T).max() > 1e-14 * scale:
                raise ConsistencyError("hermitian flag set but table is not self-adjoint")


def site_coordinates(config: ModelConfig) -> np.ndarray:
    """Physical coordinates of the flattened sites, shape (M, d)."""
    L, d, h = config.sites_per_dim, config.dimension, config.spacing
    axes = [np.arange(L) * h] * d
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _site_index_grid(config: ModelConfig) -> np.ndarray:
    L, d = config.sites_per_dim, config.dimension
    grids = np.meshgrid(*([np.arange(L)] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _min_image_distance(delta_idx: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Euclidean min-image distance for integer displacement vectors."""
    L, h = config.sites_per_dim, config.spacing
    wrapped = (delta_idx + L // 2) % L - L // 2
    return np.sqrt(np.sum((wrapped * h) ** 2, axis=-1))


def _profile(config: ModelConfig, dist: np.ndarray) -> np.ndarray:
    g, R = config.interaction_amplitude, config.interaction_radius
    kind = config.interaction_profile
    if kind == "zero":
        return np.zeros_like(dist)
    if kind == "tophat":
        return np.where(dist <= R, g, 0.0)
    if kind == "bump":
        out = np.zeros_like(dist)
        inside = dist < R
        u = dist[inside] / R
        out[inside] = g * np.exp(-1.0 / (1.0 - u**2))
        return out
    raise ConfigError(f"profile {kind!r} has no closed-form evaluator")


@dataclass(frozen=True)
class PairTable:
    """Scaled two-body interaction w(r) = N^(d*beta) v(N^beta r) on displacements.

    ``values`` is indexed by the displacement modulo L per component, so
    values[(a - b) % L] is the interaction between sites a and b.  ``mat``
    is the same data as an M x M matrix over flattened site pairs.
    """

    values: np.ndarray
    mat: np.ndarray

    @cached_property
    def is_zero(self) -> bool:
        """Whether every value vanishes; computed once, so ``values`` must not be modified in place."""
        return not np.any(self.values)


def sample_interaction(config: ModelConfig) -> PairTable:
    """Tabulate the scaled interaction over all min-image displacements."""
    L, d, N = config.sites_per_dim, config.dimension, config.particles

    offsets = _site_index_grid(config)  # all displacement classes, shape (M, d)
    dist = _min_image_distance(offsets, config)
    if config.interaction_profile == "tabulated":
        samples = np.asarray(config.interaction_samples, dtype=float)
        if samples.size != config.site_count:
            raise ConfigError(
                f"interaction_samples must provide {config.site_count} values, got {samples.size}"
            )
        values = samples.reshape((L,) * d)
    else:
        scale = float(N) ** (d * config.beta)
        values = (scale * _profile(config, dist * N**config.beta)).reshape((L,) * d)

    idx = _site_index_grid(config)
    delta = (idx[:, None, :] - idx[None, :, :]) % L
    flat = np.ravel_multi_index(tuple(delta[..., k] for k in range(d)), (L,) * d)
    mat = values.ravel()[flat]
    return PairTable(values=values, mat=mat)


def laplacian(config: ModelConfig) -> OneBodyOperator:
    """Positive semidefinite -Laplacian: periodic second differences / h**2."""
    L, d, h = config.sites_per_dim, config.dimension, config.spacing
    one = np.zeros((L, L))
    for i in range(L):
        one[i, i] = 2.0
        one[i, (i + 1) % L] -= 1.0
        one[i, (i - 1) % L] -= 1.0
    one /= h**2
    if d == 1:
        mat = one
    else:
        eye = np.eye(L)
        mat = np.kron(one, eye) + np.kron(eye, one)
    return OneBodyOperator(mat=mat.astype(np.complex128), hermitian=True)


def external_potential(config: ModelConfig, t: float) -> np.ndarray:
    """Diagonal of V_ext(t) over the flattened sites, real (M,)."""
    M = config.site_count
    kind = config.potential_kind
    if kind == "none":
        return np.zeros(M)
    if kind == "harmonic":
        strength = config.potential_strength
        coords = site_coordinates(config)
        center = 0.5 * config.torus_length
        delta = coords - center
        ell = config.torus_length
        delta = (delta + 0.5 * ell) % ell - 0.5 * ell
        return strength * np.sum(delta**2, axis=-1)
    # tabulated: linear interpolation in time on the stored grid
    times, table = config.potential_table
    times = np.asarray(times, dtype=float)
    table = np.asarray(table, dtype=float).reshape(len(times), M)
    t_clip = min(max(t, times[0]), times[-1])
    j = int(np.searchsorted(times, t_clip, side="right")) - 1
    j = min(max(j, 0), len(times) - 2)
    w = (t_clip - times[j]) / (times[j + 1] - times[j])
    return (1 - w) * table[j] + w * table[j + 1]


@dataclass(frozen=True)
class Model:
    """Immutable bundle of the validated config and its coefficient tables."""

    config: ModelConfig
    lap: OneBodyOperator
    pair: PairTable
    coords: np.ndarray

    @property
    def cell(self) -> float:
        return self.config.cell

    def potential(self, t: float) -> np.ndarray:
        return external_potential(self.config, t)

    def h0(self, t: float) -> np.ndarray:
        """One-body kinetic + external part, -Laplacian + diag(V_ext(t)).

        Only a tabulated potential depends on t; otherwise this is one
        cached, read-only table.  For an array of times a tabulated
        potential gives one table per time, stacked (S, M, M); otherwise
        the one static table, which broadcasts over them.
        """
        if self.config.potential_kind == "tabulated":
            if np.ndim(t):
                return np.stack([self._h0_at(float(s)) for s in t])
            return self._h0_at(t)
        return self._static_h0

    def _h0_at(self, t: float) -> np.ndarray:
        return self.lap.mat + np.diag(self.potential(t)).astype(np.complex128)

    @cached_property
    def _static_h0(self) -> np.ndarray:
        table = self._h0_at(0.0)
        table.flags.writeable = False
        return table


def build_model(config: ModelConfig) -> Model:
    config = validate_config(config)
    return Model(
        config=config,
        lap=laplacian(config),
        pair=sample_interaction(config),
        coords=site_coordinates(config),
    )
