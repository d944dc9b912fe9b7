"""The committed golden outputs, recomputed.

``tests/golden/`` holds the seven reduced default tables and the outcomes
of the benchmark's ``frame`` configs of seed 1, rounds 0 and 1, written by
``tools/golden.py``.  Every non-float field must be equal (decisions,
counts, supports, steps and labels), and every float must agree to the
round-off bar of rtol 1e-9, through the comparison that
``tools/same_outputs.py`` reports with.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import golden  # noqa: E402
from outputs import column_differences, frame_table, table  # noqa: E402

from widesense.experiments import EXPERIMENT_NAMES  # noqa: E402

RTOL = 1e-9

_CASES = [*EXPERIMENT_NAMES, *json.loads(golden.FRAMES.read_text(encoding="utf-8"))]


def _id(case):
    return case if isinstance(case, str) else f"frame-round{case['round']}-op{case['op']}"


@pytest.mark.parametrize("case", _CASES, ids=_id)
def test_golden_output(case, tmp_path):
    if isinstance(case, str):
        text = (golden.GOLDEN / f"{case}.csv").read_text(encoding="utf-8")
        old, new = table("csv", text), table("csv", golden.table(case, tmp_path))
    else:
        old = frame_table(case["outcome"])
        new = frame_table(golden.frame(case["config"], tmp_path))
    differences = column_differences(old, new)
    assert differences is not None, "the column names or the row count differ"
    moved = {name: (rows, worst) for name, (rows, worst) in differences.items()
             if worst is None or worst > RTOL}
    assert not moved, f"(rows, largest relative difference) by column: {moved}"


def test_the_comparison_flags_labels_and_floats():
    old = [["k", "label", "mse"], ["3", "H1", "0.5"], ["4", "H0", "0.25"]]
    assert column_differences(old, old) == {}
    assert column_differences(old, old[:2]) is None
    new = [["k", "label", "mse"], ["3", "H0", "0.5"], ["4", "H0", "0.2500000001"]]
    assert column_differences(old, new) == {"label": (1, None),
                                            "mse": (1, pytest.approx(4e-10))}
    frame = frame_table({"support": [1, 2], "values": [0.5, 2.0]})
    assert frame == [["support[0]", "support[1]", "values[0]", "values[1]"], [1, 2, 0.5, 2.0]]
    moved = frame_table({"support": [1, 3], "values": [0.5, float("nan")]})
    assert column_differences(frame, moved) == {"support[1]": (1, None),
                                                "values[1]": (1, float("inf"))}
