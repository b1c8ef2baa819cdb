#!/usr/bin/env python3
"""bosonlab benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload correct-n12-m4 --seed 1 --seconds 20 --trace 0

Every set-up and solve runs in a fresh ``once.py`` process, as a one-shot CLI
run would.  With ``--trace 0`` the runner repeats rounds of a few set-up-only
processes followed by one set-up + checked solve process until ``--seconds``
have passed, and reports the end-to-end metrics (medians over the processes).
With ``--trace 1`` it alternates untraced and traced set-up + solve processes
and reports the per-layer metrics of the traced ones.  The last line of
stdout is the JSON result; the line before it is the run's provenance.  A
sidecar JSON with the per-process records goes to ``.bench_out/`` under the
current directory.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Before each solve the untraced run starts set-up-only processes for at least
# this long (and at least this many), so set-up samples spread over the run.
SETUP_BATCH_S = 1.5
SETUP_BATCH_MIN = 3
# A benchmark process still running this long after the run started is
# killed, and the run ends without a result.
RUN_LIMIT_S = 170
MAX_SECONDS = 120
OUT_DIR = ".bench_out"

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# <module>.<function>.<stat> -> unit; see README.md for the layer -> end-to-end map.
PER_LAYER = {
    "fockstate.dgamma_apply.calls": "count",
    "fockstate.dgamma_apply.s": "s",
    "fockstate.dgamma_apply.self_s": "s",
    "fockstate.dgamma_apply.us_per_call": "us",
    "fockstate.dgamma_apply.entries": "count",
    "hamiltonians.projected_pair_sum.calls": "count",
    "hamiltonians.projected_pair_sum.s": "s",
    "hamiltonians.projected_pair_sum.self_s": "s",
    "hamiltonians.apply_Htilde.calls": "count",
    "hamiltonians.apply_Htilde.s": "s",
    "hamiltonians.apply_C.calls": "count",
    "hamiltonians.apply_C.s": "s",
    "hamiltonians.apply_Q.calls": "count",
    "hamiltonians.apply_Q.s": "s",
    "hamiltonians.apply_H.calls": "count",
    "hamiltonians.apply_H.s": "s",
    "hamiltonians.pieces_at.calls": "count",
    "hamiltonians.pieces_at.s": "s",
    "meanfield.condensate_at.calls": "count",
    "meanfield.hartree_evolve.s": "s",
    "projections.spectral_weights.calls": "count",
    "projections.spectral_weights.s": "s",
    "projections.number_apply.calls": "count",
    "projections.number_apply.s": "s",
    "propagation.rk4_step.calls": "count",
    "propagation.rk4_step.s": "s",
    "propagation.rk4_step.ms_p50": "ms",
    "propagation.rk4_step.ms_hi": "ms",
    "propagation.rk4_step.n": "count",
    "propagation.evolve_full.s": "s",
    "duhamel.hierarchy_evolve.s": "s",
    "duhamel.assemble.s": "s",
    "model.build_model.s": "s",
    "fockstate.FockSpace.s": "s",
    "experiments.build_product.s": "s",
    "fail_rate": "ratio",
    "solve.minflt": "count",
    "trace.solve_s": "s",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bosonlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it becomes the config's seed field)")
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}, so that the last "
                     f"solve ends within {RUN_LIMIT_S} s")
    return args


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            getter = getattr(lib, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def provenance(root: Path, seed: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # older numpy without build info as a dict
        blas = {"name": "unknown"}
    blas_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_sha": _git_sha(root),
        "src_digest": _source_digest(root / "src" / "bosonlab"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in blas_env},
        "openblas_threads": _openblas_threads(),
        "os_threads": _proc_field("/proc/self/status", "Threads"),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class ChildFailed(RuntimeError):
    """A benchmark process crashed or hung; the run has no result."""


def run_once(wl, seed: int, mode: str, deadline: float) -> dict:
    """One fresh ``once.py`` process; its JSON record, or ChildFailed."""
    cmd = [sys.executable, str(HERE / "once.py"), "--workload", wl.name,
           "--seed", str(seed), "--mode", mode]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{wl.name} --mode {mode} still ran {RUN_LIMIT_S} s into the run")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{wl.name} --mode {mode} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["process_s"] = time.perf_counter() - t0
    return record


def run_rounds(seconds: float, round_fn) -> None:
    """Call ``round_fn(deadline)`` at least once, and again while half a round still fits."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    while True:
        t0 = time.perf_counter()
        round_fn(deadline)
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            return


def run_untraced(wl, seed: int, seconds: float) -> dict:
    """Rounds of set-up-only processes followed by one set-up + solve process."""
    setups, solves = [], []

    def one_round(deadline):
        batch_start, batch = time.perf_counter(), 0
        while batch < SETUP_BATCH_MIN or time.perf_counter() - batch_start < SETUP_BATCH_S:
            setups.append(run_once(wl, seed, "setup", deadline))
            batch += 1
        solves.append(run_once(wl, seed, "solve", deadline))

    run_rounds(seconds, one_round)
    failed = sum(not r["ok"] for r in solves)
    return {
        "attempted": len(solves),
        "failed": failed,
        "metrics": {
            "solve_s": statistics.median(r["solve_s"] for r in solves),
            "setup_s": statistics.median(r["setup_s"] for r in setups + solves),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in solves),
        },
        "samples": {"setup": setups, "solve": solves},
    }


def _step_percentiles(durations_s) -> dict:
    """Nearest-rank median and highest percentile with at least ten samples beyond it."""
    ms = sorted(float(d) * 1e3 for d in durations_s)
    n = len(ms)
    if n == 0:
        return {"ms_p50": 0.0, "ms_hi": 0.0, "n": 0}
    return {"ms_p50": ms[(n - 1) // 2], "ms_hi": ms[max(n - 11, (n - 1) // 2)], "n": n}


def layer_metrics(traced: list, untraced: list, failed: int, attempted: int) -> dict:
    """Per-layer metrics: medians over the traced processes of their per-process values."""

    def med(name: str, idx: int) -> float:
        # median_low keeps call counts whole when the process count is even
        return statistics.median_low(r["layers"][name][idx] for r in traced)

    steps = _step_percentiles([d for r in traced for d in r["steps_s"]])
    traced_solve_s = statistics.median(r["solve_s"] for r in traced)
    untraced_solve_s = statistics.median(r["solve_s"] for r in untraced)
    out = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if metric == "fail_rate":
            value = failed / attempted
        elif metric == "trace.solve_s":
            value = traced_solve_s
        elif metric == "trace.overhead_pct":
            value = 100.0 * (traced_solve_s / untraced_solve_s - 1.0)
        elif metric == "solve.minflt":
            value = statistics.median_low(r["minflt"] for r in untraced)
        elif stat == "calls":
            value = med(layer, 0)
        elif stat == "s":
            value = med(layer, 1)
        elif stat == "self_s":
            value = med(layer, 2)
        elif stat == "us_per_call":
            calls = med(layer, 0)
            value = 1e6 * med(layer, 1) / calls if calls else 0.0
        elif stat == "entries":
            value = med(layer, 0) * traced[0]["hop_entries"]
        elif stat in steps:
            value = steps[stat]
        else:
            raise KeyError(metric)
        out[metric] = value
    return out


def run_traced(wl, seed: int, seconds: float) -> dict:
    """Rounds of one untraced and one traced set-up + solve process."""
    untraced, traced = [], []

    def one_round(deadline):
        untraced.append(run_once(wl, seed, "solve", deadline))
        traced.append(run_once(wl, seed, "traced", deadline))

    run_rounds(seconds, one_round)
    solves = untraced + traced
    failed = sum(not r["ok"] for r in solves)
    return {
        "attempted": len(solves),
        "failed": failed,
        "metrics": layer_metrics(traced, untraced, failed, len(solves)),
        "samples": {"untraced": untraced,
                    "traced": [{k: v for k, v in r.items() if k != "steps_s"} for r in traced]},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _write_sidecar(root: Path, args, prov: dict, result: dict, units: dict) -> None:
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds, "provenance": prov,
              "units": units, **result}
    path = out_dir / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "bosonlab" / "__init__.py").is_file():
        print(f"perfbench: no bosonlab sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bosonlab

    if not Path(bosonlab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported bosonlab from {bosonlab.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    prov = provenance(root, args.seed)
    try:
        if args.trace:
            result, units = run_traced(wl, args.seed, args.seconds), PER_LAYER
        else:
            result, units = run_untraced(wl, args.seed, args.seconds), END_TO_END
    except ChildFailed as exc:
        print(f"perfbench: {exc}; no result", file=sys.stderr)
        return 3
    _write_sidecar(root, args, prov, result, units)

    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
