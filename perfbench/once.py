#!/usr/bin/env python3
"""One benchmark process: one set-up and one checked solve, as the CLI runs them.

``run.py`` starts this script once per sample, from the repository root:

    python3 perfbench/once.py --workload correct-n12-m4 --seed 1 --mode solve

``--mode setup`` stops after the set-up.  ``--mode traced`` runs set-up and
solve with every public bosonlab function wrapped by ``tracing.Tracer``.

A fresh process per solve gives every solve the same allocation history as a
one-shot CLI run, so the allocator state the solve runs in is the user's.

The last line of stdout is one JSON object: the set-up and solve times, the
minor page faults of the solve, the process's peak RSS at the end of the
solve, whether the outputs passed their check and, when traced, per-layer
counts and times.  A failed check or a ``BosonLabError`` is printed to stderr
and reported as ``"ok": false``; any other exception ends the process with a
traceback and no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def checked_solve(wl, prep, reference) -> bool:
    """One solve plus its output check; False on any failure, which is printed."""
    import workloads
    from bosonlab.errors import BosonLabError

    try:
        outputs = workloads.solve(wl, prep)
    except BosonLabError:
        print(f"perfbench: {wl.name}: solve raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return False
    problems = workloads.check(wl, outputs, reference)
    for problem in problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    return not problems


def layer_record(wl, spans) -> dict:
    """Per-name (calls, s, self_s) and the step durations of the main evolution."""
    # The main N-body evolution: the hierarchy on `correct`, evolve_full on `weights`.
    ancestor = "duhamel.hierarchy_evolve" if wl.kind == "correct" else "propagation.evolve_full"
    return {"layers": spans.per_name(),
            "steps_s": spans.durations_under("propagation.rk4_step", ancestor).tolist()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one bosonlab benchmark process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "solve", "traced"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()

    t0 = time.perf_counter()
    prep = workloads.setup(wl, args.seed)
    record = {"setup_s": time.perf_counter() - t0}
    if args.mode != "setup":
        reference = json.loads((HERE / "reference.json").read_text())["outputs"][wl.name]
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        ok = checked_solve(wl, prep, reference)
        record["solve_s"] = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        record.update(ok=ok, minflt=after.ru_minflt - before.ru_minflt,
                      peak_rss_mb=after.ru_maxrss / 1024.0, hop_entries=prep.hop_entries)
    if tracer is not None:
        tracer.restore()
        record.update(layer_record(wl, tracer.take()))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
