#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run is checked against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It overwrites ``perfbench/reference.json``.  Re-record only when a change is
meant to alter the outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import run
    import workloads

    outputs = {}
    for name, wl in workloads.WORKLOADS.items():
        prep = workloads.setup(wl, seed=0)
        outputs[name] = workloads.reference_outputs(wl, workloads.solve(wl, prep))
        print(f"recorded {name}", file=sys.stderr)
    prov = run.provenance(root, seed=0)
    record = {"recorded_from": {k: prov[k] for k in ("git_sha", "src_digest", "numpy", "python")},
              "tolerance": workloads.TOLERANCE, "outputs": outputs}
    (HERE / "reference.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
