"""Command-line entry point.

Exit codes are the machine-readable success channel: 0 success, 1 invariant or
suite failure or a failed sweep point, 2 configuration error, 3 range/resolution
error, 4 integrator failure.  Stdout is human-oriented; CSV files, every number
in them as ``%.17g`` (``experiments.csv_text``), are the data channel.
``--seed`` overrides the config seed and fully determines every stochastic choice.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .duhamel import correction_error
from .errors import BosonLabError, ConfigError, IntegratorError
from .experiments import (
    build_product,
    csv_text,
    default_phi0,
    lemma_suite,
    sweep_scaling,
)
from .meanfield import hartree_energy, hartree_evolve
from .model import Model, build_model, config_from_file
from .projections import spectral_weights
from .propagation import evolve_full
from .snapshots import MAGIC, load_state, representation, save_state


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(args, correction_run: bool = False):
    cfg = config_from_file(args.config, correction_run=correction_run)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be a positive number of random draws, got {args.seeds}")
    cfg = _load_config(args)
    report = lemma_suite(cfg, n_seeds=args.seeds)
    lines = [*report.to_lines(), f"suite: {'PASS' if report.ok else 'FAIL'}"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 1


def _cmd_hartree(args) -> int:
    cfg = _load_config(args)
    model = build_model(cfg)
    phi0 = default_phi0(model)
    traj = hartree_evolve(phi0, 0.0, cfg.t_final, model)
    rows = [(t, traj.norms[i], traj.mus[i], hartree_energy(traj.phis[i], float(t), model))
            for i, t in enumerate(traj.times)]
    _emit(csv_text("t,norm,mu,energy_proxy", rows), args.out)
    return 0


def _initial_state(args, cfg, model: Model):
    if args.load:
        state, dim, sites = load_state(args.load)
        if args.representation not in (None, representation(state)):
            raise ConfigError(f"--representation {args.representation} does not match the "
                              f"snapshot's {representation(state)} representation")
        if dim != cfg.dimension or sites != cfg.sites_per_dim or state.particles != cfg.particles:
            raise ConfigError(
                f"snapshot geometry (d={dim}, L={sites}, N={state.particles}) "
                f"does not match the configuration"
            )
        # the header stores cell ** (1/d), so the spacing matches to roundoff
        spacing = state.cell ** (1.0 / dim)
        if not abs(spacing - cfg.spacing) <= 1e-12 * cfg.spacing:
            raise ConfigError(f"snapshot lattice spacing {spacing!r} does not match the "
                              f"configuration's spacing {cfg.spacing!r}")
        return state
    return build_product(model, default_phi0(model), args.representation or "fock")


def _cmd_evolve(args) -> int:
    if args.every < 1:
        raise ConfigError(f"--every must be a positive integer, got {args.every}")
    cfg = _load_config(args)
    model = build_model(cfg)
    psi0 = _initial_state(args, cfg, model)
    traj = None if args.observable == "norm" else hartree_evolve(default_phi0(model), 0.0, cfg.t_final, model)

    header = {"norm": "t,norm", "moments": "t,order,m_moment,n_moment,excitation_moment",
              "weights": "t," + ",".join(f"w{k}" for k in range(cfg.particles + 1))}[args.observable]
    rows: list[tuple] = []

    def observer(i, t, psi):
        if i % args.every != 0:
            return
        if args.observable == "norm":
            rows.append((t, psi.norm()))
            return
        weights = spectral_weights(psi, traj.phi(i))
        if args.observable == "weights":
            rows.append((t, *weights.weights))
        else:
            rows.extend((t, a, weights.m_moment(a), weights.n_moment(a), weights.moment(a))
                        for a in range(1, cfg.moment_order + 1))

    final = evolve_full(psi0, cfg.t_final, model, observer=observer)
    _emit(csv_text(header, rows), args.out)
    if args.save:
        save_state(args.save, final, cfg.dimension, cfg.sites_per_dim)
    return 0


def _cmd_correct(args) -> int:
    cfg = _load_config(args, correction_run=True)
    order = cfg.correction_order if args.order is None else args.order
    t = cfg.t_final if args.t is None else args.t
    # --order and --t obey the rules of the config keys they override
    cfg = replace(cfg, correction_order=order, t_final=t)
    model = build_model(cfg)
    phi0 = default_phi0(model)
    psi0 = build_product(model, phi0, args.representation)
    result = correction_error(psi0, phi0, cfg.correction_order, cfg.t_final, model)
    rows = [(name, getattr(result, name)) for name in ("error", "error_sq", "correction_norm")]
    rows += [(f"term_norm_{n}_{k}", norm) for (n, k), norm in sorted(result.term_norms.items())]
    _emit(csv_text("quantity,value", rows), args.out)
    return 0


def _cmd_moments(args) -> int:
    cfg = _load_config(args)
    model = build_model(cfg)
    phi0 = default_phi0(model)
    psi0 = build_product(model, phi0, args.representation)
    weights = spectral_weights(psi0, phi0)
    moments = [(a, weights.m_moment(a), weights.n_moment(a), weights.moment(a), weights.budget(a, cfg.gamma))
               for a in range(0, min(cfg.moment_order, cfg.particles) + 1)]
    _emit(csv_text("k,weight", enumerate(weights.weights)) + "\n"
          + csv_text("a,m_moment,n_moment,excitation_moment,c_a", moments), args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be a positive integer, got {args.jobs}")
    cfg = _load_config(args, correction_run=True)
    grid = args.grid
    if "=" in grid:
        key, _, grid = grid.partition("=")
        if key.strip() != "N":
            raise ConfigError(f"--grid names an unknown variable {key.strip()!r}, expected N")
    result = sweep_scaling(cfg, _int_list("--grid", grid), _int_list("--orders", args.orders),
                           jobs=args.jobs)
    _emit(result.to_csv(), args.out)
    sys.stdout.write(result.summary())
    return 1 if any(row.failed for row in result.rows) else 0


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma-separated list, skipping empty tokens; a
    non-integer or an empty list raises ``ConfigError`` naming ``flag``."""
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} lists no value")
    return values


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, representation: bool = True):
    sub.add_argument("--config", required=True, help="flat key=value configuration file")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", default=None, help="write the CSV or report here instead of stdout")
    if representation:
        sub.add_argument(
            "--representation", choices=("fock", "tensor"), default="fock",
            help="N-body state representation (default: fock, or a loaded snapshot's)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonlab",
        description="Lattice laboratory for mean-field boson dynamics and corrections",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"bosonlab {__version__} (snapshot format {MAGIC.decode()})",
    )
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("check", help="run the consolidated identity suite")
    _add_common(p, representation=False)
    p.add_argument("--seeds", type=int, default=20, help="number of random draws")
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("hartree", help="integrate the condensate equation")
    _add_common(p, representation=False)
    p.set_defaults(func=_cmd_hartree)

    p = subs.add_parser("evolve", help="propagate the N-body state under the full Hamiltonian")
    _add_common(p)
    p.add_argument("--save", default=None, help="snapshot path for the final state")
    p.add_argument("--load", default=None, help="snapshot path for the initial state")
    p.add_argument("--observable", choices=("norm", "weights", "moments"), default="norm")
    p.add_argument("--every", type=int, default=1, help="emit every K-th step")
    p.set_defaults(func=_cmd_evolve, representation=None)  # unset follows a --load snapshot

    p = subs.add_parser("correct", help="evaluate the correction hierarchy error")
    _add_common(p)
    p.add_argument("--order", type=int, default=None, help="correction order (default: config)")
    p.add_argument("--t", type=float, default=None, help="final time (default: t_final)")
    p.set_defaults(func=_cmd_correct)

    p = subs.add_parser("moments", help="excitation-number distribution and moments")
    _add_common(p)
    p.set_defaults(func=_cmd_moments)

    p = subs.add_parser("sweep", help="convergence-order study over a particle grid")
    _add_common(p, representation=False)
    p.add_argument("--grid", default="N=4,6,8,10,12", help="particle grid, e.g. N=4,6,8")
    p.add_argument("--orders", default="1,2,3", help="comma-separated correction orders")
    p.add_argument("--jobs", type=int, default=1, help="grid-point worker processes")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except IntegratorError as exc:  # a stepper abort: the step is too coarse for the drift bound
        step = config_from_file(args.config).dt
        print(f"bosonlab: error: {exc}; the step dt = {step:g} is too coarse", file=sys.stderr)
        return exc.exit_code
    except BosonLabError as exc:
        print(f"bosonlab: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a missing file, a directory where a file belongs, ...
        # name the file flag whose value the failed call opened
        flags = [f"--{name}" for name in ("config", "out", "save", "load")
                 if exc.filename is not None and getattr(args, name, None) == exc.filename]
        what = f"{flags[0]} {exc.filename}: {exc.strerror}" if flags else exc
        print(f"bosonlab: error: {what}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
