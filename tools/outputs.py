"""Read ``widesense`` outputs as tables and compare them column by column.

``tools/same_outputs.py`` reports how a parent revision's outputs differ
from this checkout's with :func:`column_report`, and
``tests/test_golden.py`` checks the outputs under ``tests/golden/`` with the
same :func:`column_differences`.  Standard library only.
"""

import csv
import io
import json
import math

MASTER_SEED = 20240001  # the seed of experiments.default_config
REDUCED_TRIALS = {"phase_transition": 3}  # every other experiment runs 2 trials


def reduced_config(name: str) -> dict:
    """The ``widesense run`` config of ``name`` at its default grid and base,
    with the reduced trial count and the default master seed."""
    return {"name": name, "trials": REDUCED_TRIALS.get(name, 2), "master_seed": MASTER_SEED}


def leaves(value, path: str = "") -> list:
    """(path, value) for every number, label and flag of a parsed JSON value."""
    if isinstance(value, dict):
        return [leaf for key, item in value.items() for leaf in leaves(item, f"{path}.{key}")]
    if isinstance(value, list):
        return [leaf for i, item in enumerate(value) for leaf in leaves(item, f"{path}[{i}]")]
    return [(path.lstrip("."), value)]


def frame_table(outcome: dict) -> list:
    """A parsed ``frame`` outcome as a table of one row: its leaves, named
    by their paths."""
    return [list(row) for row in zip(*leaves(outcome))]


def table(fmt: str, out) -> list:
    """A ``widesense`` output as rows of values, its column names first: a
    ``run`` table written as "csv" or "json", or a ``frame`` outcome
    ("frame") as :func:`frame_table`."""
    if fmt == "csv":
        text = out.decode() if isinstance(out, bytes) else out
        return list(csv.reader(io.StringIO(text)))
    payload = json.loads(out)
    if fmt == "frame":
        return frame_table(payload)
    return [payload["schema"], *([row[key] for key in payload["schema"]]
                                 for row in payload["rows"])]


def as_float(value):
    """``value`` as a float when it is one, None for an integer, a flag or a
    label (CSV gives every value as text; floats are written through
    ``repr``)."""
    if isinstance(value, float):
        return value
    if not isinstance(value, str):
        return None
    try:
        int(value)
        return None
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return None


def relative(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; inf when the two differ and
    either is NaN or infinite, so such a change is never reported as small."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def column_differences(old: list, new: list):
    """The columns in which two tables differ, as name -> (rows that differ,
    largest relative difference); the difference is None where a differing
    value is not a float on both sides.  None when the tables differ in
    their column names or their row count."""
    if old[0] != new[0] or len(old) != len(new):
        return None
    out = {}
    for i, name in enumerate(old[0]):
        pairs = [(as_float(o[i]), as_float(n[i]))
                 for o, n in zip(old[1:], new[1:]) if o[i] != n[i]]
        if pairs:
            floats = all(o is not None and n is not None for o, n in pairs)
            out[name] = (len(pairs), max(relative(o, n) for o, n in pairs) if floats else None)
    return out


def column_report(fmt: str, parent_out: bytes, change_out: bytes) -> list:
    """How a differing output differs: one line per differing column, then
    whether every non-float column is equal."""
    differences = column_differences(table(fmt, parent_out), table(fmt, change_out))
    if differences is None:
        return ["the tables differ in their columns or their row count"]
    if not differences:
        return ["every column is equal; the bytes around the rows differ"]
    lines = []
    for name, (rows, worst) in differences.items():
        lines.append(f"{name}: differs in {rows} rows, " + (
            "not as floats" if worst is None else f"largest relative difference {worst:.3g}"))
    lines.append("a non-float column differs"
                 if any(worst is None for _, worst in differences.values())
                 else "every non-float column is equal")
    return lines
