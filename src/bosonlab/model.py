"""Configuration, periodic lattice, and discretised coefficient tables.

The simulation domain is a d-dimensional torus with L sites per dimension and
spacing h = torus_length / L.  Every one-body operator is a dense M x M
complex table (M = L**d flattened sites) acting on raw amplitude vectors;
hermiticity of a table is plain conjugate-transpose symmetry because the
h**d weight of the inner product is a scalar.  The model's tables, the
Laplacian, the pair table w(x_a - x_b) and a static h0, are plain read-only
ndarrays: consumers cache what they derive from a table by its identity.

A ``ModelConfig`` coerces and checks its fields in its own constructor, so
every config is valid plain data; ``validate_config`` maps file keys onto it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import ConfigError, RangeError, ResolutionError

__all__ = [
    "ModelConfig",
    "Model",
    "validate_config",
    "check_correction_window",
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
    """Physical and numerical configuration.

    The constructor, and so ``dataclasses.replace``, coerces every field
    (tabulated data to float tuples) and checks every input rule but the
    correction window, so each instance is valid, hashable plain data, safe
    to share read-only across workers.  The derived quantities (spacing,
    site_count, step_count, cell) are properties, so they always match the fields.
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

    def __post_init__(self):
        for field in self.__dataclass_fields__:
            object.__setattr__(self, field, _coerce(field, getattr(self, field)))
        _check(self)

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


def _coerce(field: str, value):
    """``value`` as the type of ``field``, tabulated data as float tuples; a
    malformed number raises ConfigError naming the file key."""
    if field in _STR_FIELDS:
        return str(value)
    if field not in _NUMBER_KEYS:  # the tabulated data, None when unset
        try:
            if value is None:
                return None
            if field == "interaction_samples":
                return tuple(np.asarray(value, dtype=float).ravel().tolist())
            times, rows = value
            return tuple(map(float, times)), tuple(tuple(map(float, row)) for row in rows)
        except (TypeError, ValueError):
            shape = "numbers" if field == "interaction_samples" else "a pair (times, rows) of numbers"
            raise ConfigError(f"{field} must be {shape}") from None
    key = _NUMBER_KEYS[field]
    try:
        number = float(value)
        ivalue = int(number if isinstance(value, str) else value)  # nan and inf raise here
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a finite number, got {value!r}") from None
    if field not in _INT_FIELDS:
        return number
    if ivalue != number:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return ivalue


def _check(cfg: ModelConfig) -> None:
    """Refuse a coerced config that breaks an input rule, naming the file key."""
    d, L, N, M = cfg.dimension, cfg.sites_per_dim, cfg.particles, cfg.site_count
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
    profile, radius, samples = cfg.interaction_profile, cfg.interaction_radius, cfg.interaction_samples
    if profile == "bump" and radius <= 0 or profile == "tophat" and radius < 0:
        raise ConfigError(f"interaction.radius must be > 0 (>= 0 for a tophat), got {radius}")
    if cfg.potential_kind not in _POTENTIALS:
        raise ConfigError(f"potential.kind must be one of {_POTENTIALS}")
    if cfg.potential_strength != 0.0 and cfg.potential_kind != "harmonic":
        raise ConfigError(f"potential.strength must be 0 unless potential.kind = harmonic, "
                          f"got {cfg.potential_strength} with potential.kind = {cfg.potential_kind}")
    if samples is not None and profile != "tabulated":
        raise ConfigError(f"interaction_samples must be unset unless interaction.profile = tabulated, "
                          f"got interaction.profile = {profile}")
    if profile == "tabulated":
        if samples is None:
            raise ConfigError(f"tabulated interaction requires ModelConfig.interaction_samples{_API_ONLY}")
        if cfg.beta != 0.0:
            raise ConfigError("tabulated interaction samples support beta=0 only")
        if len(samples) != M or not np.isfinite(samples).all():
            raise ConfigError(f"interaction_samples must hold M = {M} finite values, got {samples}")
        # w(x_a - x_b) = w(x_b - x_a): the exact split needs a symmetric pair table
        values = np.reshape(samples, (L,) * d)
        gap = np.abs(values - values[np.ix_(*[-np.arange(L) % L] * d)]).max()
        if gap > 1e-12 * np.abs(values).max():
            raise ConfigError(f"interaction_samples must be even, values[delta] = values[-delta mod L] "
                              f"in every component; they differ by {gap:.3g}")
    if cfg.potential_table is not None and cfg.potential_kind != "tabulated":
        raise ConfigError(f"potential_table must be unset unless potential.kind = tabulated, "
                          f"got potential.kind = {cfg.potential_kind}")
    if cfg.potential_kind == "tabulated":
        if cfg.potential_table is None:
            raise ConfigError(f"tabulated potential requires ModelConfig.potential_table{_API_ONLY}")
        times, rows = cfg.potential_table
        if len(times) < 2 or not all(b > a for a, b in zip(times, times[1:])):
            raise ConfigError(f"potential_table needs at least two strictly increasing times, got {times}")
        if len(rows) != len(times) or any(len(row) != M for row in rows):
            raise ConfigError(f"potential_table needs one row of M = {M} values per time")
        if not (np.isfinite(times).all() and np.isfinite(rows).all()):
            raise ConfigError("potential_table values must be finite")

    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        h = np.float64(cfg.spacing)
        if not all(0.0 < scale < np.inf for scale in (2.0 * d / h**2, h**d)):
            raise ConfigError(f"torus_length = {cfg.torus_length!r} gives the lattice spacing h = {h:.6g}, "
                              f"whose 2d/h^2 or cell h^d is not a finite positive number")

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


def check_correction_window(beta: float, gamma: float, d: int) -> None:
    """Raise RangeError naming beta or gamma outside the window in which the
    correction hierarchy carries a convergence guarantee: beta < 1/(4d) and
    gamma > (2 + d*beta)/3, within a config's 0 <= beta and gamma <= 1."""
    beta_cap = 1.0 / (4 * d)
    if beta >= beta_cap:
        raise RangeError(f"correction run requires beta < 1/(4d) = {beta_cap}, got beta={beta}")
    gamma_floor = (2.0 + d * beta) / 3.0
    if gamma <= gamma_floor:
        raise RangeError(f"correction run requires gamma > (2+d*beta)/3 = {gamma_floor}, got gamma={gamma}")


def validate_config(raw, correction_run: bool = False) -> ModelConfig:
    """The ModelConfig of a mapping of file keys or field names (or of a
    config's own fields); an unknown or duplicate key raises ConfigError.
    ``correction_run=True`` also checks ``check_correction_window``."""
    fields = {}
    for key, value in (raw if isinstance(raw, Mapping) else vars(raw)).items():
        field = CONFIG_FILE_KEYS.get(key, key if key in ModelConfig.__dataclass_fields__ else None)
        if field is None:
            raise ConfigError(f"unknown configuration key {key!r}")
        if field in fields:
            raise ConfigError(f"duplicate key {key!r}: another key already sets {field}")
        fields[field] = value
    cfg = ModelConfig(**fields)
    if correction_run:
        check_correction_window(cfg.beta, cfg.gamma, cfg.dimension)
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


def _site_index_grid(config: ModelConfig) -> np.ndarray:
    """Integer lattice indices of the flattened sites, shape (M, d)."""
    L, d = config.sites_per_dim, config.dimension
    grids = np.meshgrid(*([np.arange(L)] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def site_coordinates(config: ModelConfig) -> np.ndarray:
    """Physical coordinates of the flattened sites, shape (M, d)."""
    return _site_index_grid(config) * config.spacing


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


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def sample_interaction(config: ModelConfig) -> np.ndarray:
    """The scaled interaction w(r) = N^(d*beta) v(N^beta r) between every
    pair of sites, a read-only (M, M) table: entry (a, b) is w at the
    min-image displacement x_a - x_b."""
    L, d, N = config.sites_per_dim, config.dimension, config.particles

    idx = _site_index_grid(config)  # also every displacement class mod L
    dist = _min_image_distance(idx, config)
    if config.interaction_profile == "tabulated":
        values = np.asarray(config.interaction_samples)
    else:
        scale = float(N) ** (d * config.beta)
        values = scale * _profile(config, dist * N**config.beta)

    delta = (idx[:, None, :] - idx[None, :, :]) % L
    flat = np.ravel_multi_index(tuple(delta[..., k] for k in range(d)), (L,) * d)
    return _read_only(values[flat])


def laplacian(config: ModelConfig) -> np.ndarray:
    """Positive semidefinite -Laplacian, periodic second differences / h**2,
    a read-only complex (M, M) table."""
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
    return _read_only(mat.astype(np.complex128))


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
    # tabulated: linear in time between the stored rows, held at the first and last
    times, rows = config.potential_table
    return np.array([np.interp(t, times, column) for column in zip(*rows)])


@dataclass(frozen=True)
class Model:
    """Immutable bundle of the validated config and its read-only
    coefficient tables: ``lap`` the -Laplacian and ``pair`` the pair table,
    both (M, M)."""

    config: ModelConfig
    lap: np.ndarray
    pair: np.ndarray
    coords: np.ndarray

    @property
    def cell(self) -> float:
        return self.config.cell

    @cached_property
    def free(self) -> bool:
        """Whether the pair table vanishes, computed once."""
        return not np.any(self.pair)

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
        return self.lap + np.diag(self.potential(t)).astype(np.complex128)

    @cached_property
    def _static_h0(self) -> np.ndarray:
        return _read_only(self._h0_at(0.0))


def build_model(config: ModelConfig) -> Model:
    return Model(
        config=config,
        lap=laplacian(config),
        pair=sample_interaction(config),
        coords=site_coordinates(config),
    )
