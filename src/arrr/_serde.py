"""Internal CSV, JSON and float serialization helpers shared across modules.

All floats are written with 17 significant digits so that round-trips
through text are exact for IEEE doubles.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np

FLOAT_FMT = "%.17g"


def fmt_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def write_matrix_csv(path, a: np.ndarray) -> None:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    line = ",".join([FLOAT_FMT] * a.shape[1]) + "\n"
    with open(path, "w") as f:
        for row in a:
            f.write(line % tuple(row.tolist()))


def read_matrix_csv(path) -> np.ndarray:
    """The matrix in a CSV file; ValueError, naming the file, when it holds
    no data."""
    with warnings.catch_warnings():
        # reported below by file name, not by numpy's UserWarning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if a.size == 0:
        raise ValueError("%s holds no data" % path)
    return a


def _jsonable(v):
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.generic):
        v = v.item()
    # strict JSON has no Infinity/NaN tokens
    return repr(v) if isinstance(v, float) and not math.isfinite(v) else v


def write_json(path, payload) -> None:
    """Write `payload` as strict JSON with sorted keys: numpy values become
    Python numbers and lists, a non-finite float its repr string."""
    with open(path, "w") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
