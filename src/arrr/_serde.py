"""Internal CSV/float serialization helpers shared across modules.

All floats are written with 17 significant digits so that round-trips
through text are exact for IEEE doubles.
"""

from __future__ import annotations

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
    return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
