"""The benchmark's workloads: configs, set-up, solve and output check.

Set-up and solve call bosonlab's public functions through their modules
(``model.build_model``, not a name bound here), in the order the ``correct``
and ``evolve --observable weights`` subcommands call them, so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from bosonlab import duhamel, experiments, meanfield, model, projections, propagation

TOLERANCE = 1e-10
# Every output must also match its reference to this relative tolerance, so a
# tiny output such as err_sq (~3e-17) is checked too.  Roundoff of the
# Lagrange P_k moves weights below REL_FLOOR["weights"] by 1e-5 relative and
# more, so those are held to the absolute tolerance only.
RTOL = 1e-6
REL_FLOOR = {"correct": 0.0, "weights": 1e-12}

# Hartree point with the bump interaction and no external potential.
COMMON = {
    "beta": 0.0,
    "gamma": 1.0,
    "interaction_profile": "bump",
    "interaction_amplitude": 0.5,
    "interaction_radius": 1.5,
    "potential_kind": "none",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "correct" (hierarchy + full evolution) or "weights" (full evolution + P_k)
    config: dict
    why: str
    every: int = 0  # observation stride of the weights workload

    def raw_config(self, seed: int) -> dict:
        return {**COMMON, **self.config, "torus_length": float(self.config["sites_per_dim"]),
                "seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="correct-n12-m4",
            kind="correct",
            config={"dimension": 1, "sites_per_dim": 4, "particles": 12,
                    "correction_order": 3, "dt": 5e-4, "t_final": 0.1},
            why="sweep grid point N=12 M=4 order 3, shortened to 200 steps; "
                "~126k small lifts, so per-call overhead of dgamma_apply and projected_pair_sum dominates",
        ),
        Workload(
            name="evolve-weights-n16-m4",
            kind="weights",
            config={"dimension": 1, "sites_per_dim": 4, "particles": 16,
                    "dt": 5e-4, "t_final": 1.0},
            every=50,
            why="full generator apply_H plus Lagrange P_k weights every 50 steps; "
                "no projected_pair_sum, so it bypasses hierarchy and split-Hamiltonian changes",
        ),
        Workload(
            name="correct-2d-n4-m9",
            kind="correct",
            config={"dimension": 2, "sites_per_dim": 3, "particles": 4,
                    "correction_order": 2, "dt": 1e-3, "t_final": 0.02},
            why="the only 2D path; each lift touches 40k hop entries, "
                "so per-lift arithmetic dominates instead of call overhead",
        ),
    )
}


@dataclass
class Prepared:
    """Everything the solve phase starts from."""

    config: object
    model: object
    phi0: object
    psi0: object
    trajectory: object

    @property
    def hop_entries(self) -> int:
        """Hop-table entries one ``dgamma_apply`` touches: dim * M**2."""
        space = self.psi0.space
        return space.basis.dim * space.sites**2


def setup(wl: Workload, seed: int) -> Prepared:
    """Config validation, model, Fock space, initial state, Hartree trajectory."""
    cfg = model.validate_config(wl.raw_config(seed), correction_run=wl.kind == "correct")
    m = model.build_model(cfg)
    phi0 = experiments.default_phi0(m)
    psi0 = experiments.build_product(m, phi0)
    if wl.kind == "weights":
        # `evolve` builds the condensate twice: once for the state, once for the flow.
        phi0 = experiments.default_phi0(m)
    trajectory = meanfield.hartree_evolve(phi0, 0.0, cfg.t_final, m)
    return Prepared(cfg, m, phi0, psi0, trajectory)


def solve(wl: Workload, prep: Prepared) -> dict:
    """Run the workload's N-body evolutions and observables; return its outputs."""
    cfg = prep.config
    if wl.kind == "correct":
        res = duhamel.correction_error(prep.psi0, prep.phi0, cfg.correction_order, cfg.t_final,
                                       prep.model, trajectory=prep.trajectory)
        out = {"err_sq": res.error_sq, "corr_norm": res.correction_norm}
        for (n, k), norm in sorted(res.term_norms.items()):
            out[f"term_norm_{n}_{k}"] = norm
        return out

    rows, norm_sq = [], []

    def observer(i, t, psi):
        if i % wl.every != 0:
            return
        weights = projections.spectral_weights(psi, prep.trajectory.phi(i)).weights
        rows.append([t, *(float(w) for w in weights)])
        norm_sq.append(psi.norm() ** 2)

    propagation.evolve_full(prep.psi0, cfg.t_final, prep.model, observer=observer)
    return {"weights": rows, "norm_sq": norm_sq}


def _compare(path: str, want, got, problems: list, rel_floor: float):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                            f"differ from reference {sorted(want)}")
            return
        for key in want:
            _compare(f"{path}.{key}", want[key], got[key], problems, rel_floor)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: length differs from reference ({len(want)} expected)")
            return
        for i, (w, g) in enumerate(zip(want, got)):
            _compare(f"{path}[{i}]", w, g, problems, rel_floor)
    elif not isinstance(got, (int, float)):
        problems.append(f"{path}: expected a number, got {got!r}")
    elif not math.isfinite(got):
        problems.append(f"{path}: non-finite value {got!r}")
    elif abs(got - want) > TOLERANCE:
        problems.append(f"{path}: {got!r} differs from reference {want!r} "
                        f"by {abs(got - want):.3e} > {TOLERANCE:g}")
    elif abs(want) >= rel_floor and abs(got - want) > RTOL * abs(want):
        problems.append(f"{path}: {got!r} differs from reference {want!r} "
                        f"by {abs(got - want) / abs(want):.3e} relative > {RTOL:g}")


def check(wl: Workload, outputs: dict, reference: dict) -> list[str]:
    """Problems found in ``outputs``; empty when they match the reference."""
    problems: list[str] = []
    _compare(wl.name, reference, {key: outputs.get(key) for key in reference}, problems,
             REL_FLOOR[wl.kind])
    if wl.kind == "weights":
        for row, nsq in zip(outputs["weights"], outputs["norm_sq"]):
            defect = abs(sum(row[1:]) - nsq)
            if not defect <= TOLERANCE:
                problems.append(f"{wl.name}: at t={row[0]:.6g} |sum_k w_k - ||psi||^2| = "
                                f"{defect:.3e} > {TOLERANCE:g}")
    return problems


def reference_outputs(wl: Workload, outputs: dict) -> dict:
    """The part of ``outputs`` stored as reference values."""
    if wl.kind == "weights":
        return {"weights": outputs["weights"]}
    return outputs
