"""The CLI outputs of ``tests/golden`` against fresh runs (see ``golden/corpus.py``)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

import corpus  # noqa: E402


@pytest.mark.parametrize("case", list(corpus.CASES))
@pytest.mark.parametrize("config", corpus.CONFIGS)
def test_output_matches_record(config, case, tmp_path):
    problems = []
    for name, fresh in corpus.run_case(config, case, tmp_path).items():
        problems += corpus.compare(name, (corpus.HERE / name).read_bytes(), fresh)[2]
    assert not problems, "\n".join(problems[:20])
