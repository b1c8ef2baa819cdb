"""Recorded CLI outputs: the cases, how to run one and how to compare it.

Each case runs one ``bosonlab`` subcommand on one of the configs in this
directory and writes its CSV (and, for ``evolve-norm``, its ``--save``
snapshot) as ``<config>.<case>.csv`` / ``.blab``; ``evolve-load`` starts from
the recorded ``evolve-norm`` snapshot of its config.  For ``sweep``,
``check`` and ``--version`` the exit code and stdout are kept, as
``<config>.<case>.out``; ``check`` and ``version`` write no CSV, and the
wall-time column ``runtime_s`` of the ``sweep`` CSV is masked.  Snapshots,
``.out`` files other than ``check``'s and the CSVs of ``EXACT`` cases must
match their records byte for byte.  Any other CSV, and ``check``'s stdout
split at spaces (``SEPARATORS``), must match line by line: text fields (the
PASS/FAIL words and the check names) exactly, numbers (the residuals and
the exit code) within ``ABS_TOL`` and, where the recorded value exceeds
``REL_FLOOR`` in magnitude, within ``REL_TOL`` relative.

``record.py`` runs every case and writes an output only where it has no
record or fails ``compare``; ``tests/test_golden.py`` compares.
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
    "evolve-moments": ["evolve", "--observable", "moments", "--every", "5"],
    "evolve-norm-tensor": ["evolve", "--observable", "norm", "--representation", "tensor", "--every", "5"],
    "hartree": ["hartree"],
    "sweep": ["sweep", "--grid", "N=3,4,5", "--orders", "1,2"],
    "moments-fock": ["moments", "--representation", "fock"],
    "moments-tensor": ["moments", "--representation", "tensor"],
    "evolve-load": ["evolve", "--observable", "weights", "--every", "5", "--load", "{config}.evolve-norm.blab"],
    "check": ["check"],
    "version": ["--version"],
}
SAVES = {"evolve-norm"}
EXACT = {"hartree"}
OUTPUTS = {"sweep", "check", "version"}  # cases whose exit code and stdout are recorded
NO_CSV = {"check", "version"}
SEPARATORS = {"check": " "}  # case -> field separator of a stdout compared field by field
MASKED = {"sweep": "runtime_s"}  # case -> CSV column replaced by "masked"
ABS_TOL, REL_TOL, REL_FLOOR = 1e-10, 1e-6, 1e-12
SNAPSHOT_HEADER = 26  # bytes before the complex64 payload of a BLAB1 snapshot


def run_case(config: str, case: str, out_dir: Path) -> dict:
    """Run one case with its outputs under ``out_dir``: file name -> bytes."""
    paths = [] if case in NO_CSV else [out_dir / f"{config}.{case}.csv"]
    argv = [arg.format(config=HERE / config) for arg in CASES[case]]
    argv += ["--config", str(HERE / f"{config}.cfg")]
    if paths:
        argv += ["--out", str(paths[0])]
    if case in SAVES:
        paths.append(out_dir / f"{config}.{case}.blab")
        argv += ["--save", str(paths[1])]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    if code != 0 and case not in OUTPUTS:
        raise RuntimeError(f"bosonlab {' '.join(argv)} exited {code}: {err.getvalue()}")
    found = {path.name: path.read_bytes() for path in paths}
    if case in MASKED:
        found[paths[0].name] = _mask(found[paths[0].name], MASKED[case])
    if case in OUTPUTS:
        found[f"{config}.{case}.out"] = f"exit {code}\n{out.getvalue()}".encode()
    return found


def _mask(csv: bytes, column: str) -> bytes:
    """The CSV with every value of ``column`` replaced by ``masked``."""
    header, *rows = csv.decode().splitlines()
    at = header.split(",").index(column)
    lines = [header]
    for row in rows:
        fields = row.split(",")
        fields[at] = "masked"
        lines.append(",".join(fields))
    return ("\n".join(lines) + "\n").encode()


def _numbers(line: str, separator: str) -> list:
    out = []
    for field in line.split(separator):
        try:
            out.append(float(field))
        except ValueError:
            out.append(field)
    return out


def compare(name: str, recorded: bytes, fresh: bytes) -> tuple:
    """(largest absolute move, largest relative move, problems) of ``fresh``
    against its record ``recorded``."""
    case = name.split(".")[1]
    separator = SEPARATORS.get(case, ",")
    if name.endswith(".out") and case not in SEPARATORS or case in EXACT:
        return 0.0, 0.0, [] if recorded == fresh else [f"{name}: differs from the record"]
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
        old, new = _numbers(old_line, separator), _numbers(new_line, separator)
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
