"""Re-record the CLI output corpus and print how far each output moved.

    PYTHONPATH=src python tests/golden/record.py

Every case of ``corpus.py`` is run afresh; each output is compared with its
current record (largest absolute and relative move, and whether it is
within the corpus tolerances).  An output is written only when it has no
record yet or fails the comparison, so roundoff within the tolerances
leaves the records as they are.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for config in corpus.CONFIGS:
            for case in corpus.CASES:
                for name, fresh in corpus.run_case(config, case, Path(tmp)).items():
                    target = corpus.HERE / name
                    if target.exists():
                        move, rel, problems = corpus.compare(name, target.read_bytes(), fresh)
                        verdict = ("ok, kept" if not problems
                                   else f"MOVED ({len(problems)} beyond tolerance), rewritten")
                        print(f"{name:40s} abs {move:.3e}  rel {rel:.3e}  {verdict}")
                        if not problems:
                            continue
                    else:
                        print(f"{name:40s} new")
                    target.write_bytes(fresh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
