"""Scaling sweeps, exponent bookkeeping, moment diagnostics, identity suite.

The study configuration defaults to the Hartree point (beta = 0, gamma = 1,
product initial data) where the predicted squared-error decay per correction
order is steepest; slope thresholds asserted downstream are deliberately
looser than the asymptotic exponents because desk-scale particle numbers
carry strong subleading corrections.

``build_product`` is the one place that picks the symmetry of the occupation
route: the unit translations, the lattice reflections x_a -> c - x_a mod L
and, in 2D, the axis swap that leave phi0, the pair table and a static h0
invariant to 1e-14 by the sector's own test (``fockstate.invariance_gap``).
The Hartree, Htilde and full flows keep that symmetry, so the sweeps,
corrections, moments and evolutions started from the product state run in
its symmetric sector (``fockstate``).  Every other occupation space has no
symmetry: ``fock_space``, random states, ``build_one_excitation``'s plane
wave and runs with a tabulated potential.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import fockstate as fs
from . import tensorstate as ts
from .duhamel import correction_error
from .errors import BosonLabError, ConfigError, RangeError
from .hamiltonians import decomposition_residual
from .meanfield import hartree_evolve, one_body_norm
from .model import Model, ModelConfig, build_model, check_correction_window
from .projections import (
    apply_Pk,
    apply_weight,
    excitation_extract,
    number_apply,
    qchain_expectation,
    spectral_weights,
    WeightFunction,
)
from .propagation import evolve_aux, evolve_full

__all__ = [
    "default_phi0",
    "orthogonal_mode",
    "fock_space",
    "build_product",
    "build_one_excitation",
    "build_mixed",
    "csv_text",
    "delta_exponent",
    "fit_slope",
    "SweepRow",
    "SweepResult",
    "sweep_scaling",
    "MomentRow",
    "moment_growth",
    "LemmaCheck",
    "LemmaReport",
    "lemma_suite",
]


# ---------------------------------------------------------------------------
# deterministic initial data
# ---------------------------------------------------------------------------

def default_phi0(model: Model) -> np.ndarray:
    """Smooth deterministic condensate: 1 + 0.5 <cos> bump, normalised."""
    cfg = model.config
    coords = model.coords
    ell = cfg.torus_length
    phase = 2.0 * np.pi * (coords - 0.5 * ell) / ell
    vals = 1.0 + 0.5 * np.mean(np.cos(phase), axis=-1)
    phi = vals.astype(np.complex128)
    return phi / one_body_norm(phi, model.cell)


def orthogonal_mode(model: Model, phi0: np.ndarray) -> np.ndarray:
    """First plane-wave mode, Gram-Schmidt orthogonalised against phi0."""
    cfg = model.config
    coords = model.coords
    chi = np.exp(2j * np.pi * coords[:, 0] / cfg.torus_length)
    cell = model.cell
    chi = chi - phi0 * (cell * np.vdot(phi0, chi))
    norm = one_body_norm(chi, cell)
    if norm < 1e-12:
        raise ConfigError("orthogonal mode degenerated; lattice too small")
    return chi / norm


def fock_space(model: Model) -> fs.FockSpace:
    """The occupation space of the model's sites, without symmetry."""
    cfg = model.config
    return fs.FockSpace(fs.enumerate_basis(cfg.site_count, cfg.particles), model.cell)


# Largest ``fockstate.invariance_gap`` of phi0, the pair table and h0 under a
# lattice symmetry that ``build_product`` keeps; stricter than ``SYMMETRY_TOL``.
SYMMETRY_DECISION_TOL = 1e-14


def _symmetry(model: Model, phi0: np.ndarray) -> tuple:
    """The lattice symmetries, as site permutations, that leave phi0, the
    pair table and a static h0 invariant: in 2D the axis swap, and per axis
    the unit translation x_a -> x_a + 1 mod L and the reflection
    x_a -> c - x_a mod L of the first c = 0 .. L-1 that does.  A uniform
    phi0 thus keeps the translations with the point group.  None with a
    tabulated potential, whose h0 changes in time."""
    cfg = model.config
    if cfg.potential_kind == "tabulated":
        return ()
    size, d = cfg.sites_per_dim, cfg.dimension
    site = np.arange(cfg.site_count).reshape((size,) * d)
    tables = [(phi0, False), (model.pair, True), (model.h0(0.0), True)]

    def invariant(pi):
        return all(fs.invariance_gap(x, [pi], square) <= SYMMETRY_DECISION_TOL for x, square in tables)

    swap = site.T.ravel()
    found = [swap] if d == 2 and invariant(swap) else []
    for axis in range(d):
        shift = np.roll(site, 1, axis=axis).ravel()
        found.extend([shift] if invariant(shift) else [])
        mirrors = (np.take(site, (c - np.arange(size)) % size, axis=axis).ravel() for c in range(size))
        found.extend(itertools.islice(filter(invariant, mirrors), 1))
    return tuple(tuple(pi.tolist()) for pi in found)


def build_product(model: Model, phi0: np.ndarray, representation: str = "fock"):
    """The product state phi0^(x)N; on the occupation route in the symmetric
    sector of the lattice symmetries that leave phi0, the pair table and h0
    invariant (``_symmetry``)."""
    return _product(model, phi0, representation, _symmetry(model, phi0))


def _product(model: Model, phi0: np.ndarray, representation: str, symmetry=()):
    if representation == "tensor":
        return ts.product_state(phi0, model.config.particles, model.cell)
    cfg = model.config
    basis = fs.enumerate_basis(cfg.site_count, cfg.particles, symmetry=symmetry)
    return fs.product_fock(phi0, fs.FockSpace(basis, model.cell))


def build_one_excitation(model: Model, phi0: np.ndarray, representation: str = "fock"):
    """Normalised symmetrisation of phi0^(N-1) (x) chi with chi the plane wave
    of ``orthogonal_mode``, in the occupation space without symmetry: the
    plane wave is not reflection invariant."""
    n = model.config.particles
    hop = model.cell * np.outer(orthogonal_mode(model, phi0), phi0.conj())
    base = _product(model, phi0, representation)
    out = (1.0 / math.sqrt(n)) * base.lift(hop)
    return (1.0 / out.norm()) * out


def build_mixed(model: Model, phi0: np.ndarray, eps: float, representation: str = "fock"):
    base = _product(model, phi0, representation)
    exc = build_one_excitation(model, phi0, representation)
    return (1.0 / math.sqrt(1.0 + eps**2)) * (base + eps * exc)


# ---------------------------------------------------------------------------
# exponent and fitting
# ---------------------------------------------------------------------------

def delta_exponent(beta: float, gamma: float, d: int) -> float:
    """Convergence-rate exponent: squared error per order decays like N^-delta.

    Two branches meeting continuously at gamma = 1 - d*beta:
    1 - 4 d beta above it, 3 gamma - 2 - d beta below.
    """
    if d < 1:
        raise RangeError(f"dimension must be >= 1, got {d}")
    if not (beta >= 0.0 and gamma <= 1.0):
        raise RangeError(f"delta_exponent needs beta >= 0 and gamma <= 1, got beta={beta}, gamma={gamma}")
    check_correction_window(beta, gamma, d)
    if gamma >= 1.0 - d * beta:
        return 1.0 - 4.0 * d * beta
    return 3.0 * gamma - 2.0 - d * beta


def fit_slope(points) -> tuple[float, float, float]:
    """Least squares on finite (x, y) pairs, else ``ValueError``: slope, intercept, RMS residual."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("fit_slope needs at least three (x, y) points")
    if not np.isfinite(pts).all():
        raise ValueError(f"fit_slope needs finite points, got {pts[np.isfinite(pts).all(1).argmin()].tolist()}")
    x, y = pts[:, 0], pts[:, 1]
    if np.ptp(x) < 1e-300 or len(np.unique(x)) < 2:
        raise ValueError("fit_slope needs distinct x values")
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid**2)))


# ---------------------------------------------------------------------------
# scaling sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    particles: int
    sites: int
    dimension: int
    beta: float
    gamma: float
    t: float
    dt: float
    order: int
    err_sq: float
    corr_norm: float
    runtime_s: float
    failed: str = ""


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    slopes: dict
    delta: float
    orders: tuple

    def to_csv(self) -> str:
        return csv_text("N,M,d,beta,gamma,t,dt,order,err_sq,corr_norm,runtime_s", [
            (r.particles, r.sites, r.dimension, r.beta, r.gamma, r.t, r.dt, r.order, r.err_sq,
             r.corr_norm, r.runtime_s) for r in self.rows])

    def summary(self) -> str:
        lines = [f"predicted squared-error slope per order: -a * delta, delta = {self.delta:.6g}"]
        for a in self.orders:
            fit = self.slopes.get(a)
            if fit is None:
                lines.append(f"order {a}: slope undefined (fewer than 3 usable points)")
            else:
                slope, _, resid = fit
                lines.append(
                    f"order {a}: fitted slope {slope:.4f} (target {-a * self.delta:.4f}, "
                    f"rms residual {resid:.3g})"
                )
        failed = {r.particles: r.failed for r in self.rows if r.failed}
        lines.extend(f"failed N={n}: {reason}" for n, reason in failed.items())
        return "\n".join(lines) + "\n"


def csv_text(header: str, rows) -> str:
    """The ``header`` line, then a line per row: str cells as they are, numbers as round-trip ``%.17g``."""
    lines = [header]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else f"{cell:.17g}" for cell in row))
    return "\n".join(lines) + "\n"


def _sweep_point(config: ModelConfig, n_particles: int, orders) -> list[SweepRow]:
    """All rows for one grid point at t = ``config.t_final``, read off one
    ``correction_error`` call.

    A ``BosonLabError`` (configuration, range, integrator or consistency
    failure) becomes nan rows carrying its reason; any other exception is a
    defect and propagates.
    """
    start = time.perf_counter()
    try:
        model = build_model(replace(config, particles=int(n_particles)))
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0)
        result = correction_error(psi0, phi0, max(orders), config.t_final, model)
        errors, norms, failed = result.errors, result.correction_norms, ""
    except BosonLabError as exc:  # record and continue; the sweep is a survey
        errors = norms = (float("nan"),) * max(orders)
        failed = repr(exc)
    elapsed = time.perf_counter() - start
    return [
        SweepRow(
            particles=int(n_particles), sites=config.site_count, dimension=config.dimension,
            beta=config.beta, gamma=config.gamma, t=config.t_final, dt=config.dt, order=a,
            err_sq=errors[a - 1] ** 2, corr_norm=norms[a - 1], runtime_s=elapsed,
            failed=failed,
        )
        for a in orders
    ]


def sweep_scaling(config: ModelConfig, particle_grid, orders, jobs: int = 1) -> SweepResult:
    """Correction errors at t = ``config.t_final`` over a particle-number
    grid, with per-order slope fits.

    Grid points run independently (optionally in ``jobs`` worker processes,
    at most one per point); rows are reduced in grid order, so the CSV is
    identical regardless of parallelism.  Points that fail with a
    ``BosonLabError`` are recorded as nan rows with their reason, listed in
    the summary, and the sweep continues; other exceptions propagate.
    """
    orders = tuple(sorted(set(int(a) for a in orders)))
    if not orders or orders[0] < 1:
        raise ConfigError("orders must be positive integers")
    delta = delta_exponent(config.beta, config.gamma, config.dimension)

    grid = [int(n) for n in particle_grid]
    repeated = sorted({n for n in grid if grid.count(n) > 1})
    if repeated:
        listed = ", ".join(str(n) for n in repeated)
        raise ConfigError(f"particle grid repeats N={listed}; grid points must be distinct")
    if jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {jobs}")
    workers = min(jobs, len(grid))  # the executor forks them all at the first submit
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_point, [config] * len(grid), grid, [orders] * len(grid)))
    else:
        chunks = [_sweep_point(config, n, orders) for n in grid]
    rows = [row for chunk in chunks for row in chunk]

    slopes = {}
    for a in orders:
        pts = [
            (math.log(r.particles), math.log(r.err_sq))
            for r in rows
            if r.order == a and math.isfinite(r.err_sq) and r.err_sq > 1e-280
        ]
        slopes[a] = fit_slope(pts) if len(pts) >= 3 else None
    return SweepResult(rows=tuple(rows), slopes=slopes, delta=delta, orders=orders)


# ---------------------------------------------------------------------------
# moment growth diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentRow:
    evolution: str
    order: int
    lhs: float
    log_rhs: float
    log_ratio: float
    ratio: float


def moment_growth(config: ModelConfig, orders) -> list[MomentRow]:
    """Weighted moments at t = ``config.t_final`` after both evolutions
    against the explicit-constant budget.

    The budget for order j is C_j * sum_n N^(n(-1+d beta)) * m_(j-n)(0) with
    C_j = j! 3^(j(j+1)) exp(9^j I_t), I_t the Sobolev proxy of the condensate
    integrated over [0, t].  C_j overflows double precision quickly, so ratios are formed
    in log space; ``ratio`` is clamped at exp(700).  No order, or one below 1 or above N,
    raises ``ConfigError``.
    """
    orders = sorted(set(int(j) for j in orders))
    if not orders or orders[0] < 1:
        raise ConfigError("orders must be positive integers")
    if orders[-1] > config.particles:
        raise ConfigError(f"moment order {orders[-1]} exceeds particle count {config.particles}")
    model = build_model(config)
    phi0 = default_phi0(model)
    psi0 = build_product(model, phi0)
    t = config.t_final
    traj = hartree_evolve(phi0, 0.0, t, model)
    it = traj.hk_integral()

    w0 = spectral_weights(psi0, phi0)
    m_init = [w0.m_moment(j) for j in range(orders[-1] + 1)]

    full = evolve_full(psi0, t, model)
    aux = evolve_aux(psi0, 0.0, t, traj)
    phi_t = traj.phis[-1]
    w_full = spectral_weights(full, phi_t)
    w_aux = spectral_weights(aux, phi_t)

    d, n, beta = config.dimension, config.particles, config.beta
    rows = []
    for label, weights in (("full", w_full), ("aux", w_aux)):
        for j in orders:
            lhs = weights.m_moment(j)
            budget = sum(
                float(n) ** (nn * (-1.0 + d * beta)) * m_init[j - nn] for nn in range(j + 1)
            )
            log_c = math.lgamma(j + 1) + j * (j + 1) * math.log(3.0) + (9.0**j) * it
            log_rhs = log_c + math.log(budget)
            log_ratio = math.log(lhs) - log_rhs
            rows.append(
                MomentRow(
                    evolution=label, order=j, lhs=lhs, log_rhs=log_rhs,
                    log_ratio=log_ratio, ratio=math.exp(min(log_ratio, 700.0)),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# consolidated identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaCheck:
    name: str
    value: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_lines(self):
        for c in self.checks:
            yield f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.value:.3e} (bound {c.bound:.1e})"


def _random_phi(m: int, cell: float, rng: np.random.Generator) -> np.ndarray:
    phi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return phi / one_body_norm(phi, cell)


def lemma_suite(config: ModelConfig, n_seeds: int = 20) -> LemmaReport:
    """Exact identities and explicit-constant inequalities on random states.

    Runs on a small tensor-grid configuration and needs no prior artifacts;
    every residual is reported, a single violated bound fails the suite.
    """
    if n_seeds < 1:
        raise ConfigError(f"the identity suite needs at least one random draw, got {n_seeds}")
    n, m = config.particles, config.site_count
    if n > 5 or m > 4:
        raise ConfigError("the identity suite expects a small configuration (N <= 5, M <= 4)")
    model = build_model(config)
    cell = model.cell

    worst: dict[str, float] = {}

    def track(name, value):
        worst[name] = max(worst.get(name, 0.0), value)

    def project(pair, state):
        # the first factor of ``pair`` on slot 0, the second on slot 1
        return ts.apply_factor(pair[1], 1, ts.apply_factor(pair[0], 0, state))

    a_max = min(4, n)
    for s in range(n_seeds):
        rng = np.random.default_rng(config.seed + 7919 * s)
        phi = _random_phi(m, cell, rng)
        psi = ts.random_symmetric(m, n, cell, rng)

        p1, q1 = ts.projector_matrices(phi, cell)
        weights = spectral_weights(psi, phi)
        # chains[a] = <psi, q_1...q_a psi>
        chains = {a: qchain_expectation(a, phi, psi) for a in range(1, a_max + 1)}

        track("decomposition_residual", decomposition_residual(phi, 0.0, psi, model))

        track("identity_resolution", abs(weights.total - psi.norm() ** 2))

        # restored state from all sectors
        sectors = [apply_Pk(k, phi, psi) for k in range(n + 1)]
        for k, pk in enumerate(sectors):
            track("pk_idempotent", (apply_Pk(k, phi, pk) - pk).norm())
            if k < n:
                track("pk_orthogonal", abs(pk.inner(sectors[k + 1])))
        track("pk_completeness", (sum(sectors[1:], sectors[0]) - psi).norm())

        # number identity: <n_hat^2> = (1/N) sum_j <q_j>
        lhs = weights.n_moment(1)
        rhs = psi.inner(number_apply(psi, q1)).real / n
        track("number_identity", abs(lhs - rhs))

        # chain monotony under n_hat insertions
        for a in range(1, a_max + 1):
            for j in range(0, a + 1):
                part = ts.apply_projector_chain(["q"] * j + ["id"] * (n - j), phi, psi)
                bounded = apply_weight(lambda k: (k / n) ** ((a - j) / 2.0), phi, part)
                track("chain_vs_nhat", max(0.0, chains[a] - bounded.norm() ** 2))

        # explicit-constant sandwich between chains and m-weights
        for a in range(1, a_max + 1):
            m_sq = weights.m_moment(a)
            track("chain_below_m", max(0.0, chains[a] - m_sq))
            budget = float(n) ** (-a) + sum(
                (4.0**a) * math.factorial(a) * float(n) ** (-a + j) * chains[j] for j in range(1, a + 1))
            track("m_below_chain_budget", max(0.0, m_sq - budget))
            exc = weights.moment(a)
            track("exc_below_scaled_m", max(0.0, exc - float(n) ** a * m_sq))
            track("scaled_m_below_exc_budget", max(0.0, float(n) ** a * m_sq - (1.0 + 2.0**a * exc)))

        # excitation vectors: orthogonality per coordinate and norm match
        for k in range(n + 1):
            xi = excitation_extract(k, phi, psi)
            track("excitation_norm_match", abs(xi.norm() ** 2 - weights.weights[k]))
            for slot in range(k):
                track("excitation_orthogonality", ts.apply_factor(p1, slot, xi).norm())

        # weight shift across a two-coordinate operator
        fvals = rng.random(n + 1) + 0.1
        fweight = WeightFunction(lambda k, v=fvals: float(v[k]))
        tmat = rng.standard_normal((m * m, m * m)) + 1j * rng.standard_normal((m * m, m * m))
        raw = ts.TensorState(
            rng.standard_normal((m,) * n) + 1j * rng.standard_normal((m,) * n), cell
        )
        raw = (1.0 / raw.norm()) * raw
        sandwiches = {0: [(p1, p1)], 1: [(p1, q1), (q1, p1)], 2: [(q1, q1)]}
        for mu_idx, mu_list in sandwiches.items():
            for nu_idx, nu_list in sandwiches.items():
                qm = mu_list[(s + mu_idx) % len(mu_list)]
                qn = nu_list[(s + nu_idx) % len(nu_list)]
                right = project(qn, raw)
                lhs_state = project(qm, apply_weight(fweight, phi, ts.apply_two_slot(tmat, 0, 1, right)))
                shifted = fweight.shifted(mu_idx - nu_idx)
                rhs_state = project(qm, ts.apply_two_slot(tmat, 0, 1, apply_weight(shifted, phi, right)))
                track("weight_shift_identity", (lhs_state - rhs_state).norm())

    bounds = {
        "decomposition_residual": 1e-10,
        "identity_resolution": 1e-10,
        "pk_idempotent": 1e-10,
        "pk_orthogonal": 1e-10,
        "pk_completeness": 1e-10,
        "number_identity": 1e-12,
        "chain_vs_nhat": 1e-12,
        "chain_below_m": 1e-12,
        "m_below_chain_budget": 1e-12,
        "exc_below_scaled_m": 1e-10,
        "scaled_m_below_exc_budget": 1e-10,
        "excitation_norm_match": 1e-10,
        "excitation_orthogonality": 1e-12,
        "weight_shift_identity": 1e-10,
    }
    checks = tuple(
        LemmaCheck(name=name, value=worst.get(name, 0.0), bound=bound,
                   ok=worst.get(name, 0.0) <= bound)
        for name, bound in bounds.items()
    )
    return LemmaReport(checks=checks)
