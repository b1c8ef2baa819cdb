"""Scaling sweeps, exponent bookkeeping, moment diagnostics, identity suite.

The study configuration defaults to the Hartree point (beta = 0, gamma = 1,
product initial data) where the predicted squared-error decay per correction
order is steepest; slope thresholds asserted downstream are deliberately
looser than the asymptotic exponents because desk-scale particle numbers
carry strong subleading corrections.

``build_product`` is the one place that picks the symmetry of the occupation
route: the lattice reflections x_a -> c - x_a mod L and, in 2D, the axis
swap that leave phi0, the pair table and a static h0 invariant to 1e-14.
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
from .hamiltonians import (
    apply_C,
    apply_Q,
    decomposition_residual,
    pieces_at,
)
from .meanfield import condensate_at, hartree_evolve, hk_proxy, one_body_norm
from .model import Model, ModelConfig, build_model, validate_config
from .projections import (
    apply_Pk,
    apply_weight,
    excitation_extract,
    m_moment,
    n_moment,
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
    "qc_ratio_table",
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


# Largest asymmetry max|x[pi] - x|, relative to max|x|, of phi0, the pair
# table and h0 under a lattice symmetry pi that ``build_product`` keeps.
SYMMETRY_DECISION_TOL = 1e-14


def _symmetry(model: Model, phi0: np.ndarray) -> tuple:
    """The lattice symmetries, as site permutations, that leave phi0, the
    pair table and a static h0 invariant: in 2D the axis swap, and per axis
    the reflection x_a -> c - x_a mod L of the first c = 0 .. L-1 that does.
    None with a tabulated potential, whose h0 changes in time."""
    cfg = model.config
    if cfg.potential_kind == "tabulated":
        return ()
    size, d = cfg.sites_per_dim, cfg.dimension
    site = np.arange(cfg.site_count).reshape((size,) * d)
    tables = [(np.asarray(phi0), False), (model.pair.mat, True), (model.h0(0.0), True)]

    def invariant(pi):
        for x, square in tables:
            moved = x[np.ix_(pi, pi)] if square else x[pi]
            if np.abs(moved - x).max() > SYMMETRY_DECISION_TOL * np.abs(x).max():
                return False
        return True

    swap = site.T.ravel()
    found = [swap] if d == 2 and invariant(swap) else []
    for axis in range(d):
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


def build_one_excitation(model: Model, phi0: np.ndarray, chi: np.ndarray | None = None,
                         representation: str = "fock"):
    """Normalised symmetrisation of phi0^(N-1) (x) chi with chi orthogonal to
    phi0, in the occupation space without symmetry: the plane wave chi is
    not reflection invariant."""
    n = model.config.particles
    if chi is None:
        chi = orthogonal_mode(model, phi0)
    hop = model.cell * np.outer(chi, phi0.conj())
    base = _product(model, phi0, representation)
    out = (1.0 / math.sqrt(n)) * base.lift(hop)
    return (1.0 / out.norm()) * out


def build_mixed(model: Model, phi0: np.ndarray, eps: float, chi: np.ndarray | None = None,
                representation: str = "fock"):
    base = _product(model, phi0, representation)
    exc = build_one_excitation(model, phi0, chi, representation)
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
    if not 0.0 <= beta < 1.0 / (4 * d):
        raise RangeError(f"beta={beta} outside [0, 1/(4d)) = [0, {1.0 / (4 * d)})")
    gamma_floor = (2.0 + d * beta) / 3.0
    if not gamma_floor < gamma <= 1.0:
        raise RangeError(f"gamma={gamma} outside ({gamma_floor}, 1]")
    if gamma >= 1.0 - d * beta:
        return 1.0 - 4.0 * d * beta
    return 3.0 * gamma - 2.0 - d * beta


def fit_slope(points) -> tuple[float, float, float]:
    """Ordinary least squares on (x, y) pairs: slope, intercept, RMS residual."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("fit_slope needs at least three (x, y) points")
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
        lines = ["N,M,d,beta,gamma,t,dt,order,err_sq,corr_norm,runtime_s"]
        for r in self.rows:
            lines.append(
                f"{r.particles},{r.sites},{r.dimension},{_fmt(r.beta)},{_fmt(r.gamma)},"
                f"{_fmt(r.t)},{_fmt(r.dt)},{r.order},{_fmt(r.err_sq)},{_fmt(r.corr_norm)},"
                f"{_fmt(r.runtime_s)}"
            )
        return "\n".join(lines) + "\n"

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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _sweep_point(config: ModelConfig, n_particles: int, orders, t: float) -> list[SweepRow]:
    """All rows for one grid point, read off one ``correction_error`` call.

    A ``BosonLabError`` (configuration, range, integrator or consistency
    failure) becomes nan rows carrying its reason; any other exception is a
    defect and propagates.
    """
    start = time.perf_counter()
    cfg = replace(config, particles=int(n_particles))
    try:
        cfg = validate_config(cfg, correction_run=True)
        model = build_model(cfg)
        phi0 = default_phi0(model)
        psi0 = build_product(model, phi0)
        result = correction_error(psi0, phi0, max(orders), t, model)
        errors, norms, failed = result.errors, result.correction_norms, ""
    except BosonLabError as exc:  # record and continue; the sweep is a survey
        errors = norms = (float("nan"),) * max(orders)
        failed = repr(exc)
    elapsed = time.perf_counter() - start
    return [
        SweepRow(
            particles=cfg.particles, sites=cfg.site_count, dimension=cfg.dimension,
            beta=cfg.beta, gamma=cfg.gamma, t=t, dt=cfg.dt, order=a,
            err_sq=errors[a - 1] ** 2, corr_norm=norms[a - 1], runtime_s=elapsed,
            failed=failed,
        )
        for a in orders
    ]


def sweep_scaling(
    config: ModelConfig,
    particle_grid,
    orders,
    t: float | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Correction errors over a particle-number grid, with per-order slope fits.

    Grid points run independently (optionally in ``jobs`` worker processes,
    at most one per point); rows are reduced in grid order, so the CSV is
    identical regardless of parallelism.  Points that fail with a
    ``BosonLabError`` are recorded as nan rows with their reason, listed in
    the summary, and the sweep continues; other exceptions propagate.
    """
    orders = tuple(sorted(set(int(a) for a in orders)))
    if not orders or orders[0] < 1:
        raise ConfigError("orders must be positive integers")
    t = config.t_final if t is None else float(t)
    validate_config(replace(config, t_final=t))  # t obeys the grid rule of t_final
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
            chunks = list(
                pool.map(_sweep_point, [config] * len(grid), grid,
                         [orders] * len(grid), [t] * len(grid))
            )
    else:
        chunks = [_sweep_point(config, n, orders, t) for n in grid]
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


def moment_growth(config: ModelConfig, orders, t: float | None = None) -> list[MomentRow]:
    """Weighted moments after both evolutions against the explicit-constant budget.

    The budget for order j is C_j * sum_n N^(n(-1+d beta)) * m_(j-n)(0) with
    C_j = j! 3^(j(j+1)) exp(9^j I_t), I_t the integrated Sobolev proxy of the
    condensate.  C_j overflows double precision quickly, so ratios are formed
    in log space; ``ratio`` is clamped at exp(700).
    """
    cfg = validate_config(config)
    t = cfg.t_final if t is None else float(t)
    validate_config(replace(cfg, t_final=t))  # t obeys the grid rule of t_final
    orders = sorted(set(int(j) for j in orders))
    if orders and orders[-1] > cfg.particles:
        raise ConfigError(f"moment order {orders[-1]} exceeds particle count {cfg.particles}")
    model = build_model(cfg)
    phi0 = default_phi0(model)
    psi0 = build_product(model, phi0)
    traj = hartree_evolve(phi0, 0.0, t, model)
    i_end = traj.index_of(t)
    it = traj.hk_integral(0, i_end)

    w0 = spectral_weights(psi0, phi0)
    jmax = orders[-1] if orders else 0
    m_init = [m_moment(j, phi0, psi0, weights=w0) for j in range(jmax + 1)]

    full = evolve_full(psi0, t, model)
    aux = evolve_aux(psi0, 0.0, t, traj)
    phi_t = traj.phi(i_end)
    w_full = spectral_weights(full, phi_t)
    w_aux = spectral_weights(aux, phi_t)

    d, n, beta = cfg.dimension, cfg.particles, cfg.beta
    rows = []
    for label, weights, state in (("full", w_full, full), ("aux", w_aux, aux)):
        for j in orders:
            lhs = m_moment(j, phi_t, state, weights=weights)
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
    cfg = validate_config(config)
    n, m = cfg.particles, cfg.site_count
    if n > 5 or m > 4:
        raise ConfigError("the identity suite expects a small configuration (N <= 5, M <= 4)")
    model = build_model(cfg)
    cell = model.cell

    worst: dict[str, float] = {}

    def track(name, value):
        worst[name] = max(worst.get(name, 0.0), value)

    def project(pair, state):
        # the first factor of ``pair`` on slot 0, the second on slot 1
        return ts.apply_factor(pair[1], 1, ts.apply_factor(pair[0], 0, state))

    a_max = min(4, n)
    for s in range(n_seeds):
        rng = np.random.default_rng(cfg.seed + 7919 * s)
        phi = _random_phi(m, cell, rng)
        psi = ts.random_symmetric(m, n, cell, rng)

        p1, q1 = ts.projector_matrices(phi, cell)
        weights = spectral_weights(psi, phi)
        # chains[a] = <psi, q_1...q_a psi>
        chains = {a: qchain_expectation(a, phi, psi, weights=weights) for a in range(1, a_max + 1)}

        cond = condensate_at(phi, 0.0, model)
        track("decomposition_residual", decomposition_residual(0.0, cond, psi, model))

        track("identity_resolution", abs(weights.total - psi.norm() ** 2))

        # restored state from all sectors
        sectors = [apply_Pk(k, phi, psi) for k in range(n + 1)]
        for k, pk in enumerate(sectors):
            track("pk_idempotent", (apply_Pk(k, phi, pk) - pk).norm())
            if k < n:
                track("pk_orthogonal", abs(pk.inner(sectors[k + 1])))
        track("pk_completeness", (sum(sectors[1:], sectors[0]) - psi).norm())

        # number identity: <n_hat^2> = (1/N) sum_j <q_j>
        lhs = n_moment(1, phi, psi, weights=weights)
        rhs = psi.inner(number_apply(psi, p1)).real / n
        track("number_identity", abs(lhs - rhs))

        # chain monotony under n_hat insertions
        for a in range(1, a_max + 1):
            for j in range(0, a + 1):
                part = ts.apply_projector_chain(["q"] * j + ["id"] * (n - j), phi, psi)
                bounded = apply_weight(lambda k: (k / n) ** ((a - j) / 2.0), phi, part)
                track("chain_vs_nhat", max(0.0, chains[a] - bounded.norm() ** 2))

        # explicit-constant sandwich between chains and m-weights
        for a in range(1, a_max + 1):
            m_sq = m_moment(a, phi, psi, weights=weights)
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


# ---------------------------------------------------------------------------
# cubic/quartic size diagnostics
# ---------------------------------------------------------------------------

def qc_ratio_table(config: ModelConfig, particle_grid, j_list=(0, 1)) -> dict:
    """Size ratios of the remainders against their moment budgets, per N.

    r_Q(j) = ||m^j Q psi||^2 / (N^(2+2db) ||m^(4+j) psi||^2) and the cubic
    analogue with the 4^j Sobolev-weighted budget.  Reference constants are
    empirical; the table is meant for boundedness checks across N.
    """
    out = {}
    for n_particles in particle_grid:
        cfg = validate_config(replace(config, particles=int(n_particles)))
        model = build_model(cfg)
        phi0 = default_phi0(model)
        rng = np.random.default_rng(cfg.seed + 13)
        space = fock_space(model)
        psi = fs.random_fock(space, rng)
        pieces = pieces_at(phi0, 0.0, model)
        d, beta, n = cfg.dimension, cfg.beta, cfg.particles
        sobolev = hk_proxy(phi0, model)
        weights = spectral_weights(psi, phi0)
        entry = {}
        cpsi = apply_C(pieces, psi, model)
        qpsi = apply_Q(pieces, psi, model)
        for j in j_list:
            num_q = m_moment(j, phi0, qpsi) if qpsi.norm() > 0 else 0.0
            num_c = m_moment(j, phi0, cpsi) if cpsi.norm() > 0 else 0.0
            den_q = float(n) ** (2 + 2 * d * beta) * m_moment(4 + j, phi0, psi, weights=weights)
            den_c = (4.0**j) * sobolev * float(n) ** (2 + d * beta) * m_moment(
                3 + j, phi0, psi, weights=weights
            )
            entry[j] = {"r_Q": num_q / den_q, "r_C": num_c / den_c}
        out[int(n_particles)] = entry
    return out
