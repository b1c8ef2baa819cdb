"""Recorded CLI outputs: the cases, how to run one and how to compare it.

Each case runs one ``bosonlab`` subcommand on one of the configs in this
directory and writes its CSV (and, for ``evolve-norm``, its ``--save``
snapshot) as ``<config>.<case>.csv`` / ``.blab``.  A snapshot must match
its record byte for byte.  A CSV must match line by line: text fields
exactly, numbers within ``ABS_TOL`` and, where the recorded value exceeds
``REL_FLOOR`` in magnitude, within ``REL_TOL`` relative.

``record.py`` re-records every case; ``tests/test_golden.py`` compares.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

from bosonlab.cli import main

HERE = Path(__file__).resolve().parent
CONFIGS = ("criterion8", "harmonic-n6", "harmonic-2d-n3")
CASES = {
    "correct-fock": ["correct", "--representation", "fock"],
    "correct-tensor": ["correct", "--representation", "tensor", "--t", "0.005"],
    "evolve-weights": ["evolve", "--observable", "weights", "--every", "5"],
    "evolve-norm": ["evolve", "--observable", "norm", "--every", "5"],
}
SAVES = {"evolve-norm"}
ABS_TOL, REL_TOL, REL_FLOOR = 1e-10, 1e-6, 1e-12
SNAPSHOT_HEADER = 26  # bytes before the complex64 payload of a BLAB1 snapshot


def run_case(config: str, case: str, out_dir: Path) -> dict:
    """Run one case with its outputs under ``out_dir``: file name -> bytes."""
    paths = [out_dir / f"{config}.{case}.csv"]
    argv = [*CASES[case], "--config", str(HERE / f"{config}.cfg"), "--out", str(paths[0])]
    if case in SAVES:
        paths.append(out_dir / f"{config}.{case}.blab")
        argv += ["--save", str(paths[1])]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"bosonlab {' '.join(argv)} exited {code}: {err.getvalue()}")
    return {path.name: path.read_bytes() for path in paths}


def _numbers(line: str) -> list:
    out = []
    for field in line.split(","):
        try:
            out.append(float(field))
        except ValueError:
            out.append(field)
    return out


def compare(name: str, recorded: bytes, fresh: bytes) -> tuple:
    """(largest absolute move, largest relative move, problems) of ``fresh``
    against its record ``recorded``."""
    if name.endswith(".blab"):
        head = recorded[:SNAPSHOT_HEADER] == fresh[:SNAPSHOT_HEADER]
        if not head or len(recorded) != len(fresh):
            return np.inf, np.inf, [f"{name}: header or size differs from the record"]
        old, new = (np.frombuffer(raw[SNAPSHOT_HEADER:], dtype="<c8") for raw in (recorded, fresh))
        move = float(np.abs(new.astype(complex) - old).max(initial=0.0))
        rel = move / max(float(np.abs(old).max(initial=0.0)), 1e-300)
        return move, rel, [] if recorded == fresh else [f"{name}: bytes differ (largest move {move:.3e})"]
    old_lines, new_lines = recorded.decode().splitlines(), fresh.decode().splitlines()
    if len(old_lines) != len(new_lines):
        return np.inf, np.inf, [f"{name}: {len(new_lines)} lines, recorded {len(old_lines)}"]
    worst_abs, worst_rel, problems = 0.0, 0.0, []
    for row, (old_line, new_line) in enumerate(zip(old_lines, new_lines), start=1):
        old, new = _numbers(old_line), _numbers(new_line)
        if len(old) != len(new):
            problems.append(f"{name}:{row}: {new_line!r}, recorded {old_line!r}")
            continue
        for want, got in zip(old, new):
            if isinstance(want, str) or isinstance(got, str):
                if want != got:
                    problems.append(f"{name}:{row}: field {got!r}, recorded {want!r}")
                continue
            move = abs(got - want)
            rel = move / abs(want) if abs(want) > REL_FLOOR else 0.0
            worst_abs, worst_rel = max(worst_abs, move), max(worst_rel, rel)
            if not (move <= ABS_TOL and rel <= REL_TOL):
                problems.append(f"{name}:{row}: {got!r}, recorded {want!r}")
    return worst_abs, worst_rel, problems
