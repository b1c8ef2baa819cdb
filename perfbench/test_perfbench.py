"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The traced workloads here are shortened in time; they run the same code paths
as the full ones.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SHORT_STEPS = {"correct": 2, "weights": 100}


def _short(wl):
    steps = SHORT_STEPS[wl.kind]
    return replace(wl, config={**wl.config, "t_final": steps * wl.config["dt"]})


def _original_codes() -> dict:
    """code object -> traced name, for every function the tracer wraps."""
    import importlib

    codes = {fn.__code__: name for name, fn in tracing.traced_functions()}
    for short, classes in tracing.TRACED_CLASSES.items():
        mod = importlib.import_module(f"bosonlab.{short}")
        for cls_name in classes:
            codes[getattr(mod, cls_name).__init__.__code__] = f"{short}.{cls_name}"
    return codes


def _traced_iteration(wl, profile_counts=None):
    tracer = tracing.Tracer()
    codes = _original_codes() if profile_counts is not None else None

    def profiler(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                profile_counts[name] = profile_counts.get(name, 0) + 1

    with tracer.installed():
        if codes is not None:
            sys.setprofile(profiler)
        try:
            prep = workloads.setup(wl, seed=3)
            workloads.solve(wl, prep)
        finally:
            sys.setprofile(None)
        spans = tracer.take()
    return prep, spans.per_name()


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_cover_every_call(name):
    wl = _short(workloads.WORKLOADS[name])
    profile_counts: dict = {}
    prep, first = _traced_iteration(wl, profile_counts)
    _, second = _traced_iteration(wl)

    calls_first = {k: v[0] for k, v in first.items()}
    calls_second = {k: v[0] for k, v in second.items()}
    assert calls_first == calls_second
    # The profiler counts calls of the original code objects however they
    # were reached; a bind site the tracer missed shows up as a difference.
    assert {k: v for k, v in calls_first.items() if v} == profile_counts

    for layer in ("fockstate.dgamma_apply", "fockstate.FockSpace", "model.build_model",
                  "meanfield.hartree_evolve", "experiments.build_product",
                  "propagation.rk4_step", "propagation.evolve_full"):
        assert calls_first[layer] > 0, layer
    if wl.kind == "weights":
        assert calls_first["hamiltonians.projected_pair_sum"] == 0
        assert calls_first["hamiltonians.apply_H"] > 0
        assert calls_first["projections.spectral_weights"] == 3
    else:
        assert calls_first["hamiltonians.projected_pair_sum"] > 0
        assert calls_first["duhamel.hierarchy_evolve"] == 1
        # one hierarchy step and one full step per grid step
        assert calls_first["propagation.rk4_step"] == 2 * SHORT_STEPS["correct"]
    assert prep.hop_entries == prep.psi0.space.basis.dim * prep.psi0.space.sites**2


def test_tracer_restores_every_binding():
    import bosonlab

    mods = [m for n, m in sys.modules.items() if n.startswith("bosonlab")]
    before = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    init = bosonlab.fockstate.FockSpace.__init__
    with tracing.Tracer().installed():
        assert bosonlab.fockstate.dgamma_apply is not before[("bosonlab.fockstate", "dgamma_apply")]
        assert bosonlab.duhamel.rk4_step is not before[("bosonlab.duhamel", "rk4_step")]
    after = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert bosonlab.fockstate.FockSpace.__init__ is init


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer._spans[:] = [(-1, 0, True, 0.0, 10.0), (0, 1, True, 1.0, 4.0), (0, 1, True, 5.0, 6.0)]
    tracer.names[:] = ["outer", "inner"]
    stats = tracer.take().per_name()
    assert stats["outer"] == (1, 10.0, 6.0)
    assert stats["inner"] == (2, 4.0, 4.0)


def test_check_reports_mismatch_and_non_finite():
    wl = workloads.WORKLOADS["correct-n12-m4"]
    ref = {"err_sq": 1.0, "corr_norm": 2.0}
    assert workloads.check(wl, {"err_sq": 1.0 + 5e-11, "corr_norm": 2.0}, ref) == []
    assert len(workloads.check(wl, {"err_sq": 1.0 + 2e-10, "corr_norm": 2.0}, ref)) == 1
    assert len(workloads.check(wl, {"err_sq": math.nan, "corr_norm": 2.0}, ref)) == 1
    assert len(workloads.check(wl, {"err_sq": 1.0}, ref)) == 1
    # Tiny outputs are held to the relative tolerance as well.
    tiny = {"err_sq": 3.4e-17, "corr_norm": 2.0}
    assert workloads.check(wl, {"err_sq": 3.4e-17 * (1 + 1e-8), "corr_norm": 2.0}, tiny) == []
    assert len(workloads.check(wl, {"err_sq": 3.4e-14, "corr_norm": 2.0}, tiny)) == 1

    weights = workloads.WORKLOADS["evolve-weights-n16-m4"]
    rows = [[0.0, 0.5, 0.5 - 2e-6, 2e-6, 1e-20]]
    assert workloads.check(weights, {"weights": rows, "norm_sq": [1.0]}, {"weights": rows}) == []
    assert len(workloads.check(weights, {"weights": rows, "norm_sq": [1.0 + 1e-9]},
                               {"weights": rows})) == 1
    # A weight above the relative floor must match relatively, one below it need not.
    off = [[0.0, 0.5, 0.5 - 2e-6, 2e-6 * (1 + 1e-5), 3e-20]]
    problems = workloads.check(weights, {"weights": off, "norm_sq": [1.0]}, {"weights": rows})
    assert len(problems) == 1 and "[0][3]" in problems[0]


def test_setup_process_reports_a_record():
    proc = subprocess.run(
        [sys.executable, str(HERE / "once.py"), "--workload", "correct-n12-m4", "--seed", "1",
         "--mode", "setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert set(record) == {"setup_s"} and record["setup_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "correct-n12-m4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
